//! Serve persistence: `bbsn/v1` snapshots and the `bbjn/v1` epoch journal.
//!
//! `repro serve` advances measurement windows forever and must survive a
//! SIGKILL at any instant without losing or corrupting results. Its serve
//! directory holds two files:
//!
//! * `snapshot.bbsn` — the whole accumulated state (the
//!   [`crate::serve::ServeState`] blob) as of some epoch, written with the
//!   same atomic temp-file + fsync + rename + dir-fsync ladder as every
//!   other artifact ([`crate::export::write_atomic_bytes`]);
//! * `journal.bbjn` — one checksummed record per epoch flushed since that
//!   snapshot, appended and `sync_data`ed. A record holds only what the
//!   epoch added (its rows, as [`crate::serve::ServeState::ingest`] reads
//!   them, and the governor's coarsening rounds), so an epoch costs
//!   O(epoch) bytes, not O(run).
//!
//! The first epoch with no snapshot on disk writes one. Once the journal
//! would grow past [`COMPACT_RATIO`] times the last snapshot's size, the
//! epoch is *compacted* instead: an atomic snapshot of the whole state,
//! then an atomic header-only journal based on it. A crash at any point
//! leaves a snapshot plus a journal whose intact records extend it; a
//! restart resumes from them and replays forward to byte-identical
//! eventual output.
//!
//! **Keying rule.** Like checkpoint manifests, a snapshot (and a journal)
//! is valid only for the exact campaign that wrote it. The [`ServeKey`]
//! pins seed, scale, fault profile, the sketch ε (as raw bits — `0` means
//! exact mode), the epoch size, CSV capture, the governor's memory limit
//! and the code schema. The epoch size and the memory limit are in the key
//! because the resource governor coarsens sketches at epoch boundaries
//! whenever the state outgrows the limit: resuming with a different K or
//! limit would re-time degraded-mode transitions and change output bytes.
//! The *window target* (`--windows`) is deliberately not in the key —
//! extending a campaign past its old horizon is the whole point of a
//! streaming daemon, and windows already sampled are never re-sampled.
//!
//! **Snapshot format.** `bbsn/v1` is the [`crate::framed`] shape that
//! `bbck/v1` also uses: the key, three counters, one state blob, `end`.
//!
//! ```text
//! bbsn/v1
//! seed 42
//! scale test
//! faults heavy
//! eps_bits 4576918229304087675
//! epoch_windows 25
//! csv 1
//! mem_limit 0
//! code_schema 1
//! windows_done 150
//! epochs 6
//! coarsenings 0
//! state 8192 c0ffee...          ← blob length, fnv64
//! <8192 raw state bytes>\n
//! end
//! ```
//!
//! There is **no salvage path** for a snapshot: it is always written
//! atomically, so a torn or checksum-failing snapshot means filesystem
//! damage or foreign bytes — it is rejected outright and the daemon exits
//! rather than resume from a state it cannot trust.
//!
//! **Journal format.** `bbjn/v1` is the same key, the epoch of the
//! snapshot it extends, then one record per epoch, with no `end`:
//!
//! ```text
//! bbjn/v1
//! seed 42
//! ...                           ← the snapshot's key fields
//! code_schema 1
//! base_epoch 6
//! epoch 7 2320 9a1c...          ← record blob length, fnv64
//! <2320 raw record bytes>\n
//! epoch 8 2320 57e0...
//! ...
//! ```
//!
//! Appends are the one write that is not atomic, so a crash mid-append
//! leaves a torn last record. [`Journal::decode`] salvages it the way
//! [`crate::checkpoint::Checkpoint::decode_salvaging`] salvages a torn
//! manifest: the whole records before it are kept, and the resume
//! truncates the file to them. Damage with the bytes fully present — a
//! checksum mismatch, a malformed record line, an epoch out of sequence —
//! is an error. [`crate::serve::ServeState::resume`] is the one entry
//! point a restarting daemon calls.

use crate::checkpoint::CODE_SCHEMA;
use crate::error::{BbError, BbResult};
use crate::export::write_atomic_bytes;
use crate::framed::{self, FieldFn, Flag, Format, Key, Reader, Writer};
use std::path::Path;

/// Snapshot file name inside a serve directory.
pub const SNAPSHOT_NAME: &str = "snapshot.bbsn";

/// Journal file name inside a serve directory.
pub const JOURNAL_NAME: &str = "journal.bbjn";

/// On-disk format of the snapshot.
pub const FORMAT: Format = Format {
    version: "bbsn/v1",
    noun: "snapshot",
    refusal: "refusing to resume",
};

/// On-disk format of the journal.
pub const JOURNAL_FORMAT: Format = Format {
    version: "bbjn/v1",
    noun: "journal",
    refusal: "refusing to resume",
};

/// An epoch whose record would grow the journal past this multiple of the
/// last snapshot's size is compacted into a new snapshot instead. Bigger
/// ratios write fewer snapshots and replay more records on a resume.
pub const COMPACT_RATIO: u64 = 8;

/// Identity of one serve campaign: a snapshot is valid only for an exact
/// match.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServeKey {
    pub seed: u64,
    /// Scale label (`test`/`full`/`large`).
    pub scale: String,
    /// Fault profile label (`off`/`light`/`heavy`).
    pub faults: String,
    /// Sketch ε as raw f64 bits; `0` (the bits of `0.0`) = exact mode.
    pub eps_bits: u64,
    /// Windows per snapshot epoch (governor decisions are epoch-aligned).
    pub epoch_windows: u64,
    /// Whether the run exports live CSV.
    pub csv: bool,
    /// Governor memory limit in bytes (`--mem-limit`); `0` = none. Set it
    /// through the field: [`ServeKey::new`] leaves it `0`.
    pub mem_limit: u64,
    /// [`CODE_SCHEMA`] of the build that wrote the snapshot.
    pub code_schema: u32,
}

impl ServeKey {
    pub fn new(
        seed: u64,
        scale: impl Into<String>,
        faults: impl Into<String>,
        eps: f64,
        epoch_windows: u64,
        csv: bool,
    ) -> Self {
        Self {
            seed,
            scale: scale.into(),
            faults: faults.into(),
            eps_bits: eps.to_bits(),
            epoch_windows,
            csv,
            mem_limit: 0,
            code_schema: CODE_SCHEMA,
        }
    }

    /// The sketch ε this key declares (`0.0` = exact mode).
    pub fn eps(&self) -> f64 {
        f64::from_bits(self.eps_bits)
    }
}

impl Key for ServeKey {
    fn fields(&mut self, f: &mut FieldFn<'_>) -> BbResult<()> {
        f("seed", &mut self.seed)?;
        f("scale", &mut self.scale)?;
        f("faults", &mut self.faults)?;
        f("eps_bits", &mut self.eps_bits)?;
        f("epoch_windows", &mut self.epoch_windows)?;
        f("csv", &mut Flag(&mut self.csv))?;
        f("mem_limit", &mut self.mem_limit)?;
        f("code_schema", &mut self.code_schema)
    }

    /// ε is reported as a number, not as its bits.
    fn show(field: &'static str, text: String) -> (&'static str, String) {
        match (field, text.parse()) {
            ("eps_bits", Ok(bits)) => ("eps", f64::from_bits(bits).to_string()),
            _ => (field, text),
        }
    }
}

/// One flushed serve epoch: the key, progress counters, and the opaque
/// [`crate::serve::ServeState`] blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    pub key: ServeKey,
    /// Windows fully ingested into `state`.
    pub windows_done: u64,
    /// Epochs flushed so far (this snapshot is the `epochs`-th).
    pub epochs: u64,
    /// Cumulative governor coarsening rounds applied to `state`.
    pub coarsenings: u64,
    /// Serialized serve state ([`crate::serve::ServeState::encode`]).
    pub state: Vec<u8>,
}

impl Snapshot {
    /// Reject the snapshot unless its key matches `expect` exactly,
    /// naming the first mismatching field.
    pub fn validate(&self, expect: &ServeKey) -> BbResult<()> {
        framed::validate(&FORMAT, &self.key, expect)
    }

    /// Serialize to `bbsn/v1` bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new(FORMAT.version);
        w.key(&self.key);
        w.field("windows_done", self.windows_done);
        w.field("epochs", self.epochs);
        w.field("coarsenings", self.coarsenings);
        w.blob("state", &self.state);
        w.end()
    }

    /// Parse `bbsn/v1` bytes. Strict: any damage — truncation included —
    /// is an error. Snapshots are written atomically, so there is no
    /// torn-tail case worth salvaging; a bad snapshot means the daemon
    /// must not resume from it.
    pub fn decode(bytes: &[u8]) -> BbResult<Snapshot> {
        let mut r = Reader::open(bytes, FORMAT)?;
        let key = r.key()?;
        let windows_done = r.field("windows_done")?;
        let epochs = r.field("epochs")?;
        let coarsenings = r.field("coarsenings")?;
        let line = r.line()?;
        let state = framed::record(&line).filter(|(head, ..)| head == &["state"]);
        let Some((_, len, sum)) = state else {
            return Err(BbError::checkpoint(format!(
                "expected the state record, got {line:?}"
            )));
        };
        let at = r.pos();
        let state = r.blob(len, sum, "serve state")?.ok_or_else(|| {
            BbError::checkpoint(format!(
                "truncated snapshot (state blob at byte offset {at})"
            ))
        })?;
        if r.line_opt()?.as_deref() != Some("end") {
            return Err(BbError::checkpoint("expected `end` after the state blob"));
        }
        Ok(Snapshot {
            key,
            windows_done,
            epochs,
            coarsenings,
            state: state.to_vec(),
        })
    }

    /// Atomically write the snapshot into `dir`.
    pub fn save(&self, dir: &Path) -> BbResult<()> {
        save_in(dir, SNAPSHOT_NAME, &self.encode())
    }

    /// Load the snapshot from `dir`. A missing file is [`BbError::Io`].
    pub fn load(dir: &Path) -> BbResult<Snapshot> {
        Self::decode(&framed::read(dir, SNAPSHOT_NAME)?)
    }
}

/// Atomically write `bytes` as `dir/name`, creating `dir` if needed.
pub(crate) fn save_in(dir: &Path, name: &str, bytes: &[u8]) -> BbResult<()> {
    std::fs::create_dir_all(dir)
        .map_err(|e| BbError::io(format!("create serve dir {}", dir.display()), e))?;
    write_atomic_bytes(&dir.join(name), bytes)
}

/// A decoded `bbjn/v1` journal; record blobs borrow the file's bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Journal<'a> {
    pub key: ServeKey,
    /// Epoch of the snapshot this journal extends.
    pub base_epoch: u64,
    /// `(epoch, record blob)` of every whole record, epochs contiguous
    /// from `base_epoch + 1`.
    pub records: Vec<(u64, &'a [u8])>,
    /// Bytes of the intact prefix; anything past it is a torn last record.
    /// Set by [`Journal::decode`]; [`Journal::encode`] ignores it.
    pub intact_len: usize,
}

impl<'a> Journal<'a> {
    /// A journal's header: format line, key, base epoch.
    pub fn header(key: &ServeKey, base_epoch: u64) -> Vec<u8> {
        let mut w = Writer::new(JOURNAL_FORMAT.version);
        w.key(key);
        w.field("base_epoch", base_epoch);
        w.finish()
    }

    /// The record line that precedes `blob` (which is followed by `\n`).
    pub fn record_head(epoch: u64, blob: &[u8]) -> String {
        framed::blob_head(format_args!("epoch {epoch}"), blob)
    }

    /// Serialize header and records (what a journal holding them reads).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Self::header(&self.key, self.base_epoch);
        for &(epoch, blob) in &self.records {
            out.extend_from_slice(Self::record_head(epoch, blob).as_bytes());
            out.extend_from_slice(blob);
            out.push(b'\n');
        }
        out
    }

    /// Parse `bbjn/v1` bytes, salvaging a torn last record (see the module
    /// docs). A torn header, a malformed record line, a checksum mismatch
    /// or an epoch out of sequence is an error naming its byte offset.
    pub fn decode(bytes: &'a [u8]) -> BbResult<Journal<'a>> {
        let mut r = Reader::open(bytes, JOURNAL_FORMAT)?;
        let key = r.key()?;
        let base_epoch: u64 = r.field("base_epoch")?;
        let mut records = Vec::new();
        let intact_len = loop {
            let start = r.pos();
            let Some(line) = r.line_opt()? else { break start };
            let epoch = framed::record(&line).and_then(|(head, len, sum)| match head[..] {
                ["epoch", n] => Some((n.parse::<u64>().ok()?, len, sum)),
                _ => None,
            });
            let Some((epoch, len, sum)) = epoch else {
                return Err(BbError::checkpoint(format!(
                    "expected an `epoch` record at journal byte offset {start}, got {line:?}"
                )));
            };
            let want = base_epoch + 1 + records.len() as u64;
            if epoch != want {
                return Err(BbError::checkpoint(format!(
                    "journal record at byte offset {start} is epoch {epoch}, expected {want} \
                     (gap in the epoch sequence) — refusing to resume"
                )));
            }
            let what = format!("journal record for epoch {epoch}");
            let Some(blob) = r.blob(len, sum, &what)? else { break start };
            records.push((epoch, blob));
        };
        Ok(Journal {
            key,
            base_epoch,
            records,
            intact_len,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            key: ServeKey::new(42, "test", "heavy", 0.02, 25, true),
            windows_done: 150,
            epochs: 6,
            coarsenings: 2,
            // Binary-ish payload: newlines, NULs, non-UTF-8.
            state: vec![0, 10, 255, b'e', b'n', b'd', 10, 0, 7],
        }
    }

    #[test]
    fn roundtrip_exact_bytes() {
        let s = sample();
        let bytes = s.encode();
        let back = Snapshot::decode(&bytes).expect("roundtrip");
        assert_eq!(back, s);
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn exact_mode_key_has_zero_eps_bits() {
        let k = ServeKey::new(1, "test", "off", 0.0, 10, false);
        assert_eq!(k.eps_bits, 0);
        assert_eq!(k.eps(), 0.0);
    }

    #[test]
    fn validate_names_first_mismatching_field() {
        let s = sample();
        let mut want = s.key.clone();
        want.epoch_windows = 50;
        let err = s.validate(&want).unwrap_err().to_string();
        assert!(err.contains("epoch_windows mismatch"), "{err}");
        assert!(err.contains("25") && err.contains("50"), "{err}");

        let mut want = s.key.clone();
        want.eps_bits = 0.05f64.to_bits();
        let err = s.validate(&want).unwrap_err().to_string();
        assert!(err.contains("eps mismatch"), "{err}");

        let mut want = s.key.clone();
        want.mem_limit = 60_000;
        let err = s.validate(&want).unwrap_err().to_string();
        assert!(err.contains("mem_limit mismatch: snapshot has 0"), "{err}");

        s.validate(&s.key).expect("matching key validates");
    }

    #[test]
    fn truncation_is_rejected_not_salvaged() {
        let bytes = sample().encode();
        for cut in [0, 10, bytes.len() / 2, bytes.len() - 2] {
            let err = Snapshot::decode(&bytes[..cut]).unwrap_err().to_string();
            assert!(
                err.contains("refusing to resume")
                    || err.contains("truncated")
                    || err.contains("expected `end`"),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn corrupt_state_blob_is_rejected_with_offset() {
        let s = sample();
        let mut bytes = s.encode();
        // Flip the first byte of the state blob: it starts right after the
        // `state <len> <sum>` line.
        let needle = b"state 9 ";
        let at = bytes
            .windows(needle.len())
            .position(|w| w == needle)
            .expect("state line");
        let blob_at = at + bytes[at..].iter().position(|&b| b == b'\n').unwrap() + 1;
        bytes[blob_at] ^= 0xff;
        let err = Snapshot::decode(&bytes).unwrap_err().to_string();
        assert!(err.contains("checksum mismatch"), "{err}");
        assert!(err.contains(&format!("byte offset {blob_at}")), "{err}");
    }

    #[test]
    fn journal_roundtrips_and_salvages_only_a_torn_tail() {
        let key = ServeKey::new(42, "test", "off", 0.05, 8, false);
        let blobs: [&[u8]; 2] = [b"a\nb", &[0, 255, 10]];
        let j = Journal {
            key: key.clone(),
            base_epoch: 3,
            records: vec![(4, blobs[0]), (5, blobs[1])],
            intact_len: 0,
        };
        let bytes = j.encode();
        let header = Journal::header(&key, 3);
        let tail = "mem_limit 0\ncode_schema 1\nbase_epoch 3\n";
        assert!(String::from_utf8_lossy(&header).ends_with(tail));
        assert!(bytes[header.len()..].starts_with(Journal::record_head(4, blobs[0]).as_bytes()));
        let back = Journal::decode(&bytes).unwrap();
        assert_eq!((back.records.clone(), back.intact_len), (j.records.clone(), bytes.len()));
        let torn = Journal::decode(&bytes[..bytes.len() - 1]).unwrap();
        assert_eq!(torn.records, j.records[..1]);
        assert!(torn.intact_len < bytes.len() - 1);
        let mut bad = bytes.clone();
        let last = bad.len() - 2;
        bad[last] ^= 1;
        let err = Journal::decode(&bad).unwrap_err().to_string();
        assert!(err.contains("checksum mismatch in journal record for epoch 5"), "{err}");
    }

    #[test]
    fn save_load_roundtrip_on_disk() {
        let dir = std::env::temp_dir().join(format!("bbsn-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = sample();
        s.save(&dir).expect("save");
        let back = Snapshot::load(&dir).expect("load");
        assert_eq!(back, s);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
