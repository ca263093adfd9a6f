//! The one codec behind every text-framed file: `bbck/v2` campaign
//! checkpoints, `bbsn/v2` serve snapshots, `bbjn/v2` serve journals and
//! (fields only) `bbhb/v1` heartbeats:
//!
//! ```text
//! bbck/v2                    ← format line
//! seed 42                    ← `name value` fields, the [`Key`] first
//! sum 5d1c...                ← fnv64 of every header byte above
//! unit fig1 1 812 c0ffee...  ← blob record: head, length, and the fnv64
//! <812 raw bytes>\n             of this line up to it, then of the blob
//! ```
//!
//! The [`Reader`] fails closed: lengths are checked against the bytes left
//! without overflowing, nothing is preallocated from a count read off the
//! file, and every error names what was bad and its byte offset.
//!
//! **The torn-tail rule.** An append-only file (a checkpoint, a journal)
//! may end in an entry cut off by a crash mid-append. [`Reader::entries`]
//! stops at it and returns where the intact prefix ends, for a resume to
//! truncate the file to; damage with the bytes fully present is an error.
//! So is a last record whose length runs past end of file while the bytes
//! left check out as that record under their actual length.
//! An atomic file (a snapshot) has no torn tail: a cut blob is an error.

use crate::error::{BbError, BbResult};
use std::fmt::Display;
use std::io::Write as _;
use std::path::Path;
use std::str::FromStr;

/// FNV-1a 64-bit hash of the concatenated `parts` — the checksum guarding
/// every header and record.
pub fn fnv1a(parts: &[&[u8]]) -> u64 {
    parts
        .iter()
        .fold(bb_topology::FNV_OFFSET, |h, p| bb_topology::fnv1a_fold(h, p))
}

/// One file kind: its format line and how its errors name it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Format {
    pub version: &'static str,
    /// What errors call the file (`checkpoint`, `snapshot`).
    pub noun: &'static str,
    /// How errors say that damage is not recovered from.
    pub refusal: &'static str,
}

/// A key field's value as written on disk.
pub trait Field {
    fn text(&self) -> String;
    /// Replace the value from its text; `false` if the text is malformed.
    fn set(&mut self, text: &str) -> bool;
}

impl<T: FromStr + Display> Field for T {
    fn text(&self) -> String {
        self.to_string()
    }
    fn set(&mut self, text: &str) -> bool {
        text.parse().map(|v| *self = v).is_ok()
    }
}

/// A flag field, written `1`/`0`.
pub struct Flag<'a>(pub &'a mut bool);

impl Field for Flag<'_> {
    fn text(&self) -> String {
        u8::from(*self.0).to_string()
    }
    fn set(&mut self, text: &str) -> bool {
        *self.0 = text == "1";
        *self.0 || text == "0"
    }
}

/// Visitor over a key's fields: `(name, value)`.
pub type FieldFn<'a> = dyn FnMut(&'static str, &mut dyn Field) -> BbResult<()> + 'a;

/// The header fields that pin which run may use a file. Writing, reading
/// and [`validate`] all walk the one list [`Key::fields`] gives.
pub trait Key: Clone + Default {
    /// Hand every field to `f`, in on-disk order.
    fn fields(&mut self, f: &mut FieldFn<'_>) -> BbResult<()>;

    /// How a mismatch report names and shows `field`.
    fn show(field: &'static str, text: String) -> (&'static str, String) {
        (field, text)
    }
}

fn values<K: Key>(key: &K) -> Vec<(&'static str, String)> {
    let mut out = Vec::new();
    // Collecting never fails.
    let _ = key.clone().fields(&mut |name, v| {
        out.push((name, v.text()));
        Ok(())
    });
    out
}

/// Reject `have` unless it equals `want`, naming the first mismatching
/// field. `code_schema` goes first: another build explains every other
/// difference.
pub fn validate<K: Key>(format: &Format, have: &K, want: &K) -> BbResult<()> {
    let (h, w) = (values(have), values(want));
    let schema = h.iter().position(|&(name, _)| name == "code_schema");
    let Some(i) = schema.into_iter().chain(0..h.len()).find(|&i| h[i] != w[i]) else {
        return Ok(());
    };
    let (field, has) = K::show(h[i].0, h[i].1.clone());
    let (_, wants) = K::show(w[i].0, w[i].1.clone());
    let noun = format.noun;
    Err(BbError::checkpoint(format!(
        "{field} mismatch: {noun} has {has}, this run wants {wants} \
         (refusing to reuse a stale {noun})"
    )))
}

/// Builds a framed file in memory (`default()`: records to append after a
/// header already on disk).
#[derive(Default)]
pub struct Writer(Vec<u8>);

impl Writer {
    /// Start a file with its format line.
    pub fn new(version: &str) -> Self {
        Writer(format!("{version}\n").into_bytes())
    }

    /// A `name value` line. (Writing into a `Vec` cannot fail.)
    pub fn field(&mut self, name: &str, value: impl Display) {
        let _ = writeln!(self.0, "{name} {value}");
    }

    /// Every field of `key`, in order.
    pub fn key<K: Key>(&mut self, key: &K) {
        for (name, text) in values(key) {
            self.field(name, text);
        }
    }

    /// Close the header: a `sum` line checksumming every byte so far.
    pub fn sum(&mut self) {
        let sum = fnv1a(&[&self.0]);
        self.field("sum", format_args!("{sum:016x}"));
    }

    /// A blob record: `{head} {len} {fnv}`, the raw bytes, then `\n`.
    pub fn blob(&mut self, head: impl Display, bytes: &[u8]) {
        self.0.extend_from_slice(blob_head(head, bytes).as_bytes());
        self.0.extend_from_slice(bytes);
        self.0.push(b'\n');
    }

    /// Close the file with its `end` line.
    pub fn end(mut self) -> Vec<u8> {
        self.0.extend_from_slice(b"end\n");
        self.0
    }

    /// The bytes so far, without an `end` line.
    pub fn finish(self) -> Vec<u8> {
        self.0
    }
}

/// The line announcing a blob record: `{head} {len} {fnv}\n`, the
/// checksum taken over the line up to it, then the blob.
pub fn blob_head(head: impl Display, bytes: &[u8]) -> String {
    let covered = format!("{head} {} ", bytes.len());
    format!("{covered}{:016x}\n", fnv1a(&[covered.as_bytes(), bytes]))
}

/// Read `dir/name`; a missing file is [`BbError::Io`].
pub fn read(dir: &Path, name: &str) -> BbResult<Vec<u8>> {
    let path = dir.join(name);
    std::fs::read(&path).map_err(|e| BbError::io(format!("read {}", path.display()), e))
}

/// A blob record's line, split: the head's space-separated tokens
/// (`unit`, `fig1`, `1`), the blob's length and the record checksum.
pub struct Head<'l> {
    pub tokens: Vec<&'l str>,
    pub len: usize,
    covered: &'l str,
    sum: u64,
}

/// Split a blob record line; `None` if the line is not one.
pub fn record(line: &str) -> Option<Head<'_>> {
    let (head, sum) = line.rsplit_once(' ')?;
    let (tokens, len) = head.rsplit_once(' ')?;
    Some(Head {
        tokens: tokens.split(' ').collect(),
        len: len.parse().ok()?,
        covered: &line[..head.len() + 1],
        sum: u64::from_str_radix(sum, 16).ok()?,
    })
}

/// Parses a framed file (see the module docs).
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    format: Format,
}

impl<'a> Reader<'a> {
    /// Check that the file is not empty and starts with `format`'s line.
    pub fn open(bytes: &'a [u8], format: Format) -> BbResult<Self> {
        // An atomic writer never leaves a zero-length file: something else
        // made it or filesystem damage zeroed it — not a torn write.
        if bytes.is_empty() {
            return Err(BbError::checkpoint(format!(
                "{} is empty (0 bytes at byte offset 0) — not a torn write; {}",
                format.noun, format.refusal
            )));
        }
        let mut r = Reader {
            bytes,
            pos: 0,
            format,
        };
        let version = r.line()?;
        if version != format.version {
            return Err(BbError::checkpoint(format!(
                "unsupported format {version:?} for a {}, this build reads {}",
                format.noun, format.version
            )));
        }
        Ok(r)
    }

    /// Byte offset of the next unread byte.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Next `\n`-terminated line; a missing newline is an error.
    pub fn line(&mut self) -> BbResult<String> {
        let at = self.pos;
        self.line_opt()?.ok_or_else(|| {
            let noun = self.format.noun;
            BbError::checkpoint(format!(
                "truncated {noun} (missing newline at byte offset {at})"
            ))
        })
    }

    /// Next `\n`-terminated line, `None` if the file ends first. A complete
    /// line that is not UTF-8 is an error.
    pub fn line_opt(&mut self) -> BbResult<Option<String>> {
        let (at, rest) = (self.pos, &self.bytes[self.pos..]);
        let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
            return Ok(None);
        };
        self.pos += nl + 1;
        String::from_utf8(rest[..nl].to_vec())
            .map(Some)
            .map_err(|_| BbError::checkpoint(format!("non-UTF-8 line at byte offset {at}")))
    }

    /// Header line `{name} {value}` into `v`.
    fn set(&mut self, name: &str, v: &mut dyn Field) -> BbResult<()> {
        let at = self.pos;
        let line = self.line()?;
        match line.split_once(' ') {
            Some((key, text)) if key == name && v.set(text) => Ok(()),
            Some((key, text)) if key == name => Err(BbError::checkpoint(format!(
                "bad {name} value {text:?} at byte offset {at}"
            ))),
            _ => Err(BbError::checkpoint(format!(
                "expected {name} line at byte offset {at}, got {line:?}"
            ))),
        }
    }

    /// The `sum` line closing the header: the checksum of every byte
    /// before it. A mismatch means a damaged header field.
    pub fn sum(&mut self) -> BbResult<()> {
        let at = self.pos;
        if self.field::<String>("sum")? == format!("{:016x}", fnv1a(&[&self.bytes[..at]])) {
            return Ok(());
        }
        let Format { noun, refusal, .. } = self.format;
        Err(BbError::checkpoint(format!(
            "header checksum mismatch: the {noun} header (bytes 0..{at}) does not \
             match its sum line at byte offset {at} — a damaged header field, {refusal}"
        )))
    }

    /// Header line `{name} {value}`, value parsed.
    pub fn field<T: Field + Default>(&mut self, name: &str) -> BbResult<T> {
        let mut v = T::default();
        self.set(name, &mut v)?;
        Ok(v)
    }

    /// Every field of a key, in order.
    pub fn key<K: Key>(&mut self) -> BbResult<K> {
        let mut key = K::default();
        key.fields(&mut |name, v| self.set(name, v))?;
        Ok(key)
    }

    /// The blob `head` announced: `len` bytes and a `\n`, checked against
    /// the record's checksum; `None` if the file ends first. A length no
    /// file can hold, a missing terminator or a checksum mismatch is an
    /// error naming `what`, the blob's byte offset and its record line's.
    pub fn blob(&mut self, head: &Head<'_>, what: &str) -> BbResult<Option<&'a [u8]>> {
        let (at, len) = (self.pos, head.len);
        let corrupt = |why: String| {
            let before = &self.bytes[..at.saturating_sub(1)];
            let line = before.iter().rposition(|&b| b == b'\n');
            BbError::checkpoint(format!(
                "{why} in {what} (blob at byte offset {at}, record line at byte offset {}; \
                 mid-file corruption — not a torn tail, {})",
                line.map_or(0, |i| i + 1),
                self.format.refusal
            ))
        };
        // No writer can emit a blob longer than a `Vec` holds: damage, not
        // a tail cut short.
        if len > isize::MAX as usize {
            return Err(corrupt(format!("impossible length {len}")));
        }
        let rest = &self.bytes[at..];
        if len >= rest.len() {
            // A torn tail, unless the bytes to end of file are one whole
            // record under their actual length: then the length is damaged.
            if let [blob @ .., b'\n'] = rest {
                let covered = format!("{} {} ", head.tokens.join(" "), blob.len());
                if fnv1a(&[covered.as_bytes(), blob]) == head.sum {
                    return Err(corrupt(format!(
                        "record length {len} runs past end of file, but the {} bytes left \
                         match the record checksum (a damaged length)",
                        blob.len()
                    )));
                }
            }
            return Ok(None);
        }
        let blob = &self.bytes[at..at + len];
        if self.bytes[at + len] != b'\n' {
            return Err(corrupt(
                "missing newline after blob (bad length?)".to_string(),
            ));
        }
        if fnv1a(&[head.covered.as_bytes(), blob]) != head.sum {
            return Err(corrupt("checksum mismatch".to_string()));
        }
        self.pos += len + 1;
        Ok(Some(blob))
    }

    /// Read entries until end of file — the one torn-tail rule (see the
    /// module docs). `entry` reads one entry and returns `None` if the
    /// file ends inside it. Returns the length of the intact prefix: the
    /// end of the last whole entry.
    pub fn entries(
        &mut self,
        mut entry: impl FnMut(&mut Self) -> BbResult<Option<()>>,
    ) -> BbResult<usize> {
        loop {
            let start = self.pos;
            if start == self.bytes.len() || entry(self)?.is_none() {
                return Ok(start);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: Format = Format {
        version: "bbxx/v1",
        noun: "test file",
        refusal: "refusing to use it",
    };

    fn sample() -> Vec<u8> {
        let mut w = Writer::new(F.version);
        w.field("seed", 42);
        w.sum();
        w.blob("data x", b"a\nb");
        w.end()
    }

    #[test]
    fn writer_emits_the_framed_shape() {
        let header = "bbxx/v1\nseed 42\n";
        let sum = fnv1a(&[header.as_bytes()]);
        let rec = fnv1a(&[b"data x 3 a\nb"]);
        let want = format!("{header}sum {sum:016x}\ndata x 3 {rec:016x}\na\nb\nend\n");
        assert_eq!(sample(), want.into_bytes());
        assert_eq!(fnv1a(&[b"data x ", b"3 ", b"a\nb"]), rec);
    }

    #[test]
    fn reader_roundtrips_the_writer() {
        let bytes = sample();
        let mut r = Reader::open(&bytes, F).unwrap();
        assert_eq!(r.field::<u64>("seed").unwrap(), 42);
        r.sum().unwrap();
        let line = r.line().unwrap();
        let head = record(&line).unwrap();
        assert_eq!((&head.tokens[..], head.len), (&["data", "x"][..], 3));
        assert_eq!(r.blob(&head, "data").unwrap(), Some(&b"a\nb"[..]));
        assert_eq!(r.line_opt().unwrap().as_deref(), Some("end"));
    }

    #[test]
    fn flipped_header_or_head_bytes_fail_their_checksum() {
        let bytes = sample();
        // `seed 42` → `seed 43`: still a number, so only the sum sees it.
        let mut bad = bytes.clone();
        bad[14] ^= 1;
        let mut r = Reader::open(&bad, F).unwrap();
        assert_eq!(r.field::<u64>("seed").unwrap(), 43);
        let err = r.sum().unwrap_err().to_string();
        assert!(err.contains("header checksum mismatch"), "{err}");
        assert!(err.contains("byte offset 16"), "{err}");
        // `data x` → `data y`: the head is covered by the record checksum.
        let at = bytes.windows(6).position(|w| w == b"data x").unwrap() + 5;
        let mut bad = bytes.clone();
        bad[at] ^= 1;
        let mut r = Reader::open(&bad, F).unwrap();
        r.field::<u64>("seed").unwrap();
        r.sum().unwrap();
        let line = r.line().unwrap();
        let err = r.blob(&record(&line).unwrap(), "data").unwrap_err().to_string();
        assert!(err.contains("checksum mismatch"), "{err}");
        assert!(err.contains(&format!("record line at byte offset {}", at - 5)), "{err}");
    }

    #[test]
    fn blob_lengths_never_overflow_or_overread() {
        let bytes = sample();
        let line = |len: usize| format!("data {len} 0000000000000000");
        for len in [usize::MAX, usize::MAX - 1, isize::MAX as usize + 1] {
            let mut r = Reader::open(&bytes, F).unwrap();
            let line = line(len);
            let err = r.blob(&record(&line).unwrap(), "data").unwrap_err().to_string();
            assert!(err.contains("impossible length"), "{err}");
            assert!(err.contains("byte offset 8"), "{err}");
        }
        let mut r = Reader::open(&bytes, F).unwrap();
        let line = line(bytes.len());
        assert_eq!(r.blob(&record(&line).unwrap(), "data").unwrap(), None);
    }

    #[test]
    fn entries_stop_at_a_torn_tail() {
        let mut w = Writer::new(F.version);
        w.sum();
        w.blob("n 1", b"x");
        w.blob("n 2", b"yz");
        let bytes = w.finish();
        let first_end = bytes.len() - blob_head("n 2", b"yz").len() - 3;
        let read = |bytes: &[u8]| {
            let mut r = Reader::open(bytes, F).unwrap();
            r.sum().unwrap();
            let mut n = 0;
            let intact = r.entries(|r| {
                let Some(line) = r.line_opt()? else { return Ok(None) };
                let head = record(&line).unwrap();
                let blob = r.blob(&head, "n")?;
                n += usize::from(blob.is_some());
                Ok(blob.map(|_| ()))
            });
            intact.map(|intact| (n, intact))
        };
        assert_eq!(read(&bytes).unwrap(), (2, bytes.len()));
        for cut in first_end..bytes.len() {
            assert_eq!(read(&bytes[..cut]).unwrap(), (1, first_end), "cut at {cut}");
        }
        // A raised length on the last record leaves a whole record under
        // its actual length: a damaged length, named with both byte
        // offsets, not a torn tail. Cut short, it is a torn tail again.
        for raised in [b'3', b'9'] {
            let mut bad = bytes.clone();
            bad[first_end + "n 2 ".len()] = raised;
            let err = read(&bad).unwrap_err().to_string();
            assert!(err.contains("a damaged length"), "{err}");
            assert!(err.contains(&format!("record line at byte offset {first_end}")), "{err}");
            let blob_at = bytes.len() - 3;
            assert!(err.contains(&format!("blob at byte offset {blob_at}")), "{err}");
            assert_eq!(read(&bad[..bad.len() - 1]).unwrap(), (1, first_end));
        }
    }

    #[test]
    fn empty_and_foreign_files_are_rejected() {
        let err = Reader::open(b"", F).err().unwrap().to_string();
        assert!(
            err.contains("empty") && err.contains("byte offset 0"),
            "{err}"
        );
        let err = Reader::open(b"bbxx/v0\n", F).err().unwrap().to_string();
        assert!(err.contains("unsupported format \"bbxx/v0\""), "{err}");
    }

    #[test]
    fn malformed_records_are_rejected() {
        for line in ["data", "data 3", "data x ffff", "data -1 0", "data 3 zz"] {
            assert!(record(line).is_none(), "{line}");
        }
    }
}
