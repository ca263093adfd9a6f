//! Serve snapshot epochs: versioned `bbsn/v1` state flushes.
//!
//! `repro serve` advances measurement windows forever and must survive a
//! SIGKILL at any instant without losing or corrupting results. Every K
//! windows (one *epoch*) it serializes its entire accumulated state — the
//! [`crate::serve::ServeState`] blob — into a `snapshot.bbsn` file in the
//! serve directory, written with the same atomic temp-file + fsync +
//! rename + dir-fsync ladder as every other artifact
//! ([`crate::export::write_atomic_bytes`]). A crash mid-flush leaves the
//! previous epoch's snapshot intact; a restart resumes from it and
//! replays forward to byte-identical eventual output.
//!
//! **Keying rule.** Like checkpoint manifests, a snapshot is valid only
//! for the exact campaign that wrote it. The [`ServeKey`] pins seed,
//! scale, fault profile, the sketch ε (as raw bits — `0` means exact
//! mode), the epoch size, CSV capture, and the code schema. The epoch
//! size is in the key because the resource governor coarsens sketches at
//! epoch boundaries: resuming with a different K would re-time degraded-
//! mode transitions and change output bytes. The *window target*
//! (`--windows`) is deliberately not in the key — extending a campaign
//! past its old horizon is the whole point of a streaming daemon, and
//! windows already sampled are never re-sampled.
//!
//! **Format.** `bbsn/v1` is the [`crate::framed`] shape that `bbck/v1`
//! also uses: the key, three counters, one state blob, `end`.
//!
//! ```text
//! bbsn/v1
//! seed 42
//! scale test
//! faults heavy
//! eps_bits 4576918229304087675
//! epoch_windows 25
//! csv 1
//! code_schema 1
//! windows_done 150
//! epochs 6
//! coarsenings 0
//! state 8192 c0ffee...          ← blob length, fnv64
//! <8192 raw state bytes>\n
//! end
//! ```
//!
//! Unlike the checkpoint manifest there is **no salvage path**: a
//! snapshot is always written atomically by this code, so a torn or
//! checksum-failing snapshot means filesystem damage or foreign bytes —
//! it is rejected outright and the daemon exits rather than resume from
//! a state it cannot trust. [`crate::serve::ServeState::resume`] is the
//! one entry point a restarting daemon calls.

use crate::checkpoint::CODE_SCHEMA;
use crate::error::{BbError, BbResult};
use crate::export::write_atomic_bytes;
use crate::framed::{self, FieldFn, Flag, Format, Key, Reader, Writer};
use std::path::Path;

/// Snapshot file name inside a serve directory.
pub const SNAPSHOT_NAME: &str = "snapshot.bbsn";

/// On-disk format of the snapshot.
pub const FORMAT: Format = Format {
    version: "bbsn/v1",
    noun: "snapshot",
    refusal: "refusing to resume",
};

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
        std::fs::create_dir_all(dir)
            .map_err(|e| BbError::io(format!("create serve dir {}", dir.display()), e))?;
        write_atomic_bytes(&dir.join(SNAPSHOT_NAME), &self.encode())
    }

    /// Load the snapshot from `dir`. A missing file is [`BbError::Io`].
    pub fn load(dir: &Path) -> BbResult<Snapshot> {
        Self::decode(&framed::read(dir, SNAPSHOT_NAME)?)
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
