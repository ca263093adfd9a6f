//! The one codec behind every text-framed file: `bbck/v1` checkpoint
//! manifests, `bbsn/v1` serve snapshots and `bbhb/v1` heartbeats. A file is
//! a format line, `name value` fields (its [`Key`] first), blob records
//! `{head} {len} {fnv64:016x}\n<len raw bytes>\n`, and `end` (heartbeats
//! have none). The [`Reader`] fails closed: lengths are checked against
//! the bytes left without overflowing, nothing is preallocated from a
//! count read off the file, and every error names what was bad — for a
//! blob, its byte offset. A blob cut off by end of file is `None`, so the
//! caller decides whether a torn tail is salvaged or refused.

use crate::error::{BbError, BbResult};
use std::fmt::Display;
use std::io::Write as _;
use std::path::Path;
use std::str::FromStr;

/// FNV-1a 64-bit hash — the checksum guarding every blob.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One file kind: its format line and how its errors name it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Format {
    pub version: &'static str,
    /// What errors call the file (`manifest`, `snapshot`).
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

/// Builds a framed file in memory.
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

/// The line announcing a blob record: `{head} {len} {fnv}\n`.
pub(crate) fn blob_head(head: impl Display, bytes: &[u8]) -> String {
    format!("{head} {} {:016x}\n", bytes.len(), fnv1a(bytes))
}

/// Read `dir/name`; a missing file is [`BbError::Io`].
pub fn read(dir: &Path, name: &str) -> BbResult<Vec<u8>> {
    let path = dir.join(name);
    std::fs::read(&path).map_err(|e| BbError::io(format!("read {}", path.display()), e))
}

/// Split a blob record line into its head's space-separated tokens and
/// the blob's length and checksum; `None` if the line is not one.
pub fn record(line: &str) -> Option<(Vec<&str>, usize, u64)> {
    let mut tok = line.rsplitn(3, ' ');
    let sum = u64::from_str_radix(tok.next()?, 16).ok()?;
    let len = tok.next()?.parse().ok()?;
    Some((tok.next()?.split(' ').collect(), len, sum))
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
        let line = self.line()?;
        match line.split_once(' ') {
            Some((key, text)) if key == name && v.set(text) => Ok(()),
            Some((key, text)) if key == name => {
                Err(BbError::checkpoint(format!("bad {name} value {text:?}")))
            }
            _ => Err(BbError::checkpoint(format!(
                "expected {name} line, got {line:?}"
            ))),
        }
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

    /// The blob a record announced: `len` bytes and a `\n`, checked
    /// against `sum`; `None` if the file ends first. A length no file can
    /// hold, a missing terminator or a checksum mismatch is an error
    /// naming `what` and the blob's byte offset.
    pub fn blob(&mut self, len: usize, sum: u64, what: &str) -> BbResult<Option<&'a [u8]>> {
        let at = self.pos;
        let corrupt = |why: String| {
            BbError::checkpoint(format!(
                "{why} in {what} (blob at byte offset {at}, mid-file corruption — \
                 not a torn tail, {})",
                self.format.refusal
            ))
        };
        // No writer can emit a blob longer than a `Vec` holds: damage, not
        // a tail cut short.
        if len > isize::MAX as usize {
            return Err(corrupt(format!("impossible length {len}")));
        }
        if len >= self.bytes.len() - at {
            return Ok(None);
        }
        let blob = &self.bytes[at..at + len];
        if self.bytes[at + len] != b'\n' {
            return Err(corrupt(
                "missing newline after blob (bad length?)".to_string(),
            ));
        }
        if fnv1a(blob) != sum {
            return Err(corrupt("checksum mismatch".to_string()));
        }
        self.pos += len + 1;
        Ok(Some(blob))
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
        w.blob("data x", b"a\nb");
        w.end()
    }

    #[test]
    fn writer_emits_the_framed_shape() {
        let fnv = fnv1a(b"a\nb");
        let want = format!("bbxx/v1\nseed 42\ndata x 3 {fnv:016x}\na\nb\nend\n");
        assert_eq!(sample(), want.into_bytes());
    }

    #[test]
    fn reader_roundtrips_the_writer() {
        let bytes = sample();
        let mut r = Reader::open(&bytes, F).unwrap();
        assert_eq!(r.field::<u64>("seed").unwrap(), 42);
        let line = r.line().unwrap();
        let (head, len, sum) = record(&line).unwrap();
        assert_eq!(head, ["data", "x"]);
        assert_eq!(r.blob(len, sum, "data").unwrap(), Some(&b"a\nb"[..]));
        assert_eq!(r.line_opt().unwrap().as_deref(), Some("end"));
    }

    #[test]
    fn blob_lengths_never_overflow_or_overread() {
        let bytes = sample();
        for len in [usize::MAX, usize::MAX - 1, isize::MAX as usize + 1] {
            let mut r = Reader::open(&bytes, F).unwrap();
            let err = r.blob(len, 0, "data").unwrap_err().to_string();
            assert!(err.contains("impossible length"), "{err}");
            assert!(err.contains("byte offset 8"), "{err}");
        }
        let mut r = Reader::open(&bytes, F).unwrap();
        assert_eq!(r.blob(bytes.len(), 0, "data").unwrap(), None);
    }

    #[test]
    fn empty_and_foreign_files_are_rejected() {
        let err = Reader::open(b"", F).err().unwrap().to_string();
        assert!(
            err.contains("empty") && err.contains("byte offset 0"),
            "{err}"
        );
        let err = Reader::open(b"bbxx/v2\n", F).err().unwrap().to_string();
        assert!(err.contains("unsupported format"), "{err}");
    }

    #[test]
    fn malformed_records_are_rejected() {
        for line in ["data", "data 3", "data x ffff", "data -1 0", "data 3 zz"] {
            assert!(record(line).is_none(), "{line}");
        }
    }
}
