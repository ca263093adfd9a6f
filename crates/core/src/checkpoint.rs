//! Campaign checkpoint manifests: crash-safe save, validated resume.
//!
//! A long campaign (`repro all`) is a sequence of *units* — one per
//! experiment — each producing a stdout block and optionally rendered CSV
//! files. After every completed unit the harness serializes all completed
//! results into a `checkpoint.bbck` manifest in the checkpoint directory,
//! written with the same atomic temp-file+rename writer as the CSV exports
//! ([`crate::export::write_atomic_bytes`]), so a crash mid-flush never
//! leaves a torn manifest.
//!
//! **Keying rule.** A manifest is only valid for the exact campaign that
//! wrote it. The [`CampaignKey`] captures everything that feeds unit
//! output: seed, scale, fault profile, the selected experiment set, whether
//! CSV was captured, and [`CODE_SCHEMA`] — a version bumped whenever *any*
//! experiment's output format changes, so results cached by an older build
//! are never replayed by a newer one. A mismatch on any field makes
//! [`Checkpoint::validate`] fail with the field spelled out; a stale
//! checkpoint is rejected, never silently reused. Worker count (`--jobs`)
//! is deliberately *not* in the key: output is byte-identical across job
//! counts, so resuming with a different `--jobs` is sound.
//!
//! (The ISSUE sketch keyed on "topology uid", but `Topology::uid` is a
//! process-local counter, not a content hash — useless across processes.
//! The topology is a pure function of `(scale, seed)`, which the key
//! already pins; see DESIGN.md §5b.)
//!
//! **Format.** `bbck/v1` is the [`crate::framed`] shape: a line-oriented
//! header with length-prefixed raw blobs, so stdout and CSV bytes
//! round-trip exactly (no escaping, no encoding). Every blob carries an
//! FNV-1a 64 checksum verified on load:
//!
//! ```text
//! bbck/v1
//! seed 42
//! scale full
//! faults off
//! experiments calib,fig1,...
//! csv 1
//! code_schema 3
//! windows_done 1234
//! unit fig1 1 812 c0ffee...        ← name, file count, stdout len, fnv64
//! <812 raw stdout bytes>\n
//! file fig1.csv 4096 deadbeef...   ← name, len, fnv64
//! <4096 raw bytes>\n
//! end
//! ```
//!
//! **Durability.** [`write_atomic_bytes`] gives the manifest the full
//! crash-safety ladder: the bytes are written to a same-directory temp
//! file, fsynced, renamed over the target, and then the *containing
//! directory* is fsynced too — without that last step a power loss right
//! after the rename can forget the directory entry and the manifest
//! vanishes even though its blocks were on disk. Once `save` returns, the
//! manifest survives a crash at any instant.
//!
//! **Salvage.** A manifest can still arrive torn when the filesystem
//! itself tears it (power loss on a non-journaling filesystem, a partial
//! copy between machines). Because units are appended in sorted order and
//! every record is length-prefixed, such damage is always a *truncated
//! tail*: [`Checkpoint::load_salvaging`] parses the valid prefix of unit
//! records and reports the dropped trailing record as a [`Salvage`]
//! instead of rejecting the whole manifest. Mid-record corruption (a
//! checksum mismatch with the bytes fully present) is still rejected —
//! that is damage, not truncation, and replaying it would violate the
//! byte-identity contract.
//!
//! **Heartbeats.** Orchestrated shard runs (`repro orchestrate`) also
//! keep a tiny `heartbeat.bbhb` record next to the manifest: progress
//! counters plus a wall timestamp, rewritten atomically every few
//! thousand measurement windows. The supervisor treats a heartbeat whose
//! *content* stops changing as a hung shard; the file is advisory
//! telemetry, never part of the campaign output.

use crate::error::{BbError, BbResult};
use crate::export::write_atomic_bytes;
use crate::framed::{self, FieldFn, Flag, Format, Key, Reader, Writer};
use std::collections::BTreeMap;
use std::path::Path;

pub use crate::framed::fnv1a;

/// Manifest file name inside a checkpoint directory.
pub const MANIFEST_NAME: &str = "checkpoint.bbck";

/// On-disk format of the manifest.
pub const FORMAT: Format = Format {
    version: "bbck/v1",
    noun: "manifest",
    refusal: "refusing to salvage",
};

/// Output-schema version of the *code*. Bump whenever any experiment's
/// stdout or CSV format changes, so checkpoints written by older builds are
/// rejected instead of replaying stale bytes.
pub const CODE_SCHEMA: u32 = 1;

/// Heartbeat file name inside a checkpoint directory (liveness telemetry
/// for `repro orchestrate`, never part of the campaign output).
pub const HEARTBEAT_NAME: &str = "heartbeat.bbhb";

/// On-disk format version of the heartbeat record.
pub const HEARTBEAT_FORMAT: &str = "bbhb/v1";

/// Identity of one campaign: a checkpoint is valid only for an exact match.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CampaignKey {
    pub seed: u64,
    /// Scale label (`test`/`full`/`large`).
    pub scale: String,
    /// Fault profile label (`off`/`light`/`heavy`).
    pub faults: String,
    /// Comma-joined names of the selected experiments, in run order.
    pub experiments: String,
    /// Whether unit results carry rendered CSV bytes.
    pub csv: bool,
    /// [`CODE_SCHEMA`] of the build that wrote the manifest.
    pub code_schema: u32,
}

impl CampaignKey {
    pub fn new(
        seed: u64,
        scale: impl Into<String>,
        faults: impl Into<String>,
        experiments: impl Into<String>,
        csv: bool,
    ) -> Self {
        Self {
            seed,
            scale: scale.into(),
            faults: faults.into(),
            experiments: experiments.into(),
            csv,
            code_schema: CODE_SCHEMA,
        }
    }

    /// The selected experiment names, in run order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.experiments.split(',').filter(|e| !e.is_empty())
    }

    /// The selected experiments `covered` says no unit provides.
    pub fn missing(&self, covered: impl Fn(&str) -> bool) -> Vec<&str> {
        self.names().filter(|e| !covered(e)).collect()
    }
}

impl Key for CampaignKey {
    fn fields(&mut self, f: &mut FieldFn<'_>) -> BbResult<()> {
        f("seed", &mut self.seed)?;
        f("scale", &mut self.scale)?;
        f("faults", &mut self.faults)?;
        f("experiments", &mut self.experiments)?;
        f("csv", &mut Flag(&mut self.csv))?;
        f("code_schema", &mut self.code_schema)
    }
}

/// Result of one completed unit: its stdout block and any files it rendered
/// (name → raw bytes), exactly as a fresh run would produce them.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct UnitResult {
    pub stdout: String,
    pub files: Vec<(String, Vec<u8>)>,
}

/// A campaign checkpoint: the key plus every completed unit so far.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    pub key: CampaignKey,
    /// Completed units by experiment name. `BTreeMap` so the manifest is
    /// byte-identical regardless of completion order.
    pub units: BTreeMap<String, UnitResult>,
    /// Measurement windows completed across the campaign (progress
    /// telemetry from the window-granular hooks, not part of the key).
    pub windows_done: u64,
}

impl Checkpoint {
    pub fn new(key: CampaignKey) -> Self {
        Self {
            key,
            units: BTreeMap::new(),
            windows_done: 0,
        }
    }

    /// Record a completed unit (overwrites a same-name entry).
    pub fn record(&mut self, name: impl Into<String>, unit: UnitResult) {
        self.units.insert(name.into(), unit);
    }

    /// The cached result for `name`, if that unit completed.
    pub fn get(&self, name: &str) -> Option<&UnitResult> {
        self.units.get(name)
    }

    /// Reject the manifest unless its key matches `expect` exactly, naming
    /// the first mismatching field.
    pub fn validate(&self, expect: &CampaignKey) -> BbResult<()> {
        framed::validate(&FORMAT, &self.key, expect)
    }

    /// Serialize to `bbck/v1` bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new(FORMAT.version);
        w.key(&self.key);
        w.field("windows_done", self.windows_done);
        for (name, unit) in &self.units {
            w.blob(
                format_args!("unit {name} {}", unit.files.len()),
                unit.stdout.as_bytes(),
            );
            for (fname, bytes) in &unit.files {
                w.blob(format_args!("file {fname}"), bytes);
            }
        }
        w.end()
    }

    /// Atomically write the manifest into `dir`.
    pub fn save(&self, dir: &Path) -> BbResult<()> {
        std::fs::create_dir_all(dir)
            .map_err(|e| BbError::io(format!("create checkpoint dir {}", dir.display()), e))?;
        write_atomic_bytes(&dir.join(MANIFEST_NAME), &self.encode())
    }

    /// Load and parse the manifest from `dir`. Parse/checksum failures are
    /// [`BbError::Checkpoint`]; a missing file is [`BbError::Io`].
    pub fn load(dir: &Path) -> BbResult<Checkpoint> {
        Self::decode(&framed::read(dir, MANIFEST_NAME)?)
    }

    /// Like [`Checkpoint::load`], but a manifest whose trailing record is
    /// cut off at EOF loads the valid prefix instead of failing (see
    /// [`Checkpoint::decode_salvaging`]).
    pub fn load_salvaging(dir: &Path) -> BbResult<(Checkpoint, Option<Salvage>)> {
        Self::decode_salvaging(&framed::read(dir, MANIFEST_NAME)?)
    }

    /// Parse `bbck/v1` bytes. Any damage — truncation included — is an
    /// error; use [`Checkpoint::decode_salvaging`] to recover the valid
    /// prefix of a torn manifest.
    pub fn decode(bytes: &[u8]) -> BbResult<Checkpoint> {
        let (ck, salvage) = Self::decode_salvaging(bytes)?;
        salvage.map_or(Ok(ck), |s| {
            Err(BbError::checkpoint(format!(
                "truncated manifest ({})",
                s.dropped
            )))
        })
    }

    /// Parse `bbck/v1` bytes, salvaging a torn tail.
    ///
    /// Truncation at EOF is the one kind of damage the format can prove
    /// harmless to recover from: records are appended in sorted order and
    /// every blob is length-prefixed, so a cut manifest is a valid prefix
    /// followed by one incomplete trailing record. That record is dropped
    /// and described in the returned [`Salvage`]; the kept units all passed
    /// their checksums. Damage *within* the data — a checksum mismatch, a
    /// malformed line with its bytes fully present, a torn header — is
    /// still an error: replaying corrupt bytes would break byte-identity.
    pub fn decode_salvaging(bytes: &[u8]) -> BbResult<(Checkpoint, Option<Salvage>)> {
        // A torn header is never salvageable: without the full key the
        // prefix cannot be validated.
        let mut r = Reader::open(bytes, FORMAT)?;
        let key = r.key()?;
        let windows_done = r.field("windows_done")?;
        let mut units = BTreeMap::new();
        let salvage = parse_units(&mut r, &mut units)?.map(|(start, dropped)| Salvage {
            dropped,
            kept_units: units.len(),
            bytes_dropped: bytes.len() - start,
        });
        Ok((
            Checkpoint {
                key,
                units,
                windows_done,
            },
            salvage,
        ))
    }
}

/// What [`Checkpoint::decode_salvaging`] recovered from a torn manifest:
/// the valid prefix was kept, one incomplete trailing record was dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Salvage {
    /// Human-readable description of the torn trailing record.
    pub dropped: String,
    /// Units that survived in the valid prefix (all checksums verified).
    pub kept_units: usize,
    /// Bytes discarded from the tail of the manifest.
    pub bytes_dropped: usize,
}

impl std::fmt::Display for Salvage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "kept {} unit(s), dropped torn trailing record ({}; {} bytes discarded)",
            self.kept_units, self.dropped, self.bytes_dropped
        )
    }
}

/// Read unit records into `units` up to `end`. A trailing record that runs
/// past EOF — truncation, the only damage
/// [`Checkpoint::decode_salvaging`] recovers from — ends the read with its
/// start offset and a description of what was cut. Corruption with the
/// bytes fully present (checksum mismatch, malformed line) is an `Err`.
fn parse_units(
    r: &mut Reader<'_>,
    units: &mut BTreeMap<String, UnitResult>,
) -> BbResult<Option<(usize, String)>> {
    loop {
        let start = r.pos();
        let torn = |what: &str| Ok(Some((start, format!("{what} cut at EOF"))));
        let Some(line) = r.line_opt()? else {
            return torn("record header");
        };
        if line == "end" {
            return Ok(None);
        }
        let unit = framed::record(&line).and_then(|(head, len, sum)| match head[..] {
            ["unit", name, n_files] => {
                Some((name.to_string(), n_files.parse::<u64>().ok()?, len, sum))
            }
            _ => None,
        });
        let Some((name, n_files, len, sum)) = unit else {
            return Err(BbError::checkpoint(format!(
                "expected `unit` or `end`, got {line:?}"
            )));
        };
        let what = format!("stdout of unit {name}");
        let Some(stdout) = r.blob(len, sum, &what)? else {
            return torn(&what);
        };
        let stdout = String::from_utf8(stdout.to_vec())
            .map_err(|_| BbError::checkpoint(format!("unit {name} stdout is not UTF-8")))?;
        // The file count comes off the file: files are read one record at
        // a time, never preallocated from it.
        let mut files = Vec::new();
        for _ in 0..n_files {
            let Some(fline) = r.line_opt()? else {
                return torn(&format!("file record of unit {name}"));
            };
            let file = framed::record(&fline).and_then(|(head, len, sum)| match head[..] {
                ["file", fname] => Some((fname, len, sum)),
                _ => None,
            });
            let Some((fname, len, sum)) = file else {
                return Err(BbError::checkpoint(format!(
                    "expected `file` in unit {name}, got {fline:?}"
                )));
            };
            let what = format!("file {fname} of unit {name}");
            let Some(blob) = r.blob(len, sum, &what)? else {
                return torn(&what);
            };
            files.push((fname.to_string(), blob.to_vec()));
        }
        units.insert(name, UnitResult { stdout, files });
    }
}

/// Per-shard liveness record for orchestrated runs: progress counters plus
/// a wall timestamp, rewritten next to the manifest every few thousand
/// measurement windows. Advisory telemetry only — the orchestrator detects
/// a hung shard by watching the *content* stop changing against its own
/// monotonic clock, so nothing ever parses it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Heartbeat {
    /// Measurement windows completed so far in this shard process.
    pub windows_done: u64,
    /// Units (experiments) finalized so far in this shard process.
    pub units_done: u64,
    /// Wall clock at write time, milliseconds since the Unix epoch.
    pub stamp_ms: u64,
}

impl Heartbeat {
    /// A heartbeat stamped with the current wall clock.
    pub fn now(windows_done: u64, units_done: u64) -> Self {
        let stamp_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        Self {
            windows_done,
            units_done,
            stamp_ms,
        }
    }

    /// The `bbhb/v1` record: format line and three fields, no `end`.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new(HEARTBEAT_FORMAT);
        w.field("windows", self.windows_done);
        w.field("units", self.units_done);
        w.field("stamp_ms", self.stamp_ms);
        w.finish()
    }

    /// Atomically replace the heartbeat in `dir` (temp file + rename, so a
    /// reader never sees a half-written record). Deliberately *not* fsynced:
    /// a heartbeat is a liveness signal consumed by a live watcher on the
    /// same system, where rename alone guarantees readers see whole records
    /// — durability after power loss buys nothing, and paying the manifest
    /// writer's sync cost every beat would make heartbeats expensive enough
    /// to throttle.
    ///
    /// Concurrent savers are safe: each call writes its own temp file
    /// (pid plus a process-wide counter), so two beats racing in one
    /// directory never rename each other's temp file away; the last rename
    /// wins with a whole record.
    pub fn save(&self, dir: &Path) -> BbResult<()> {
        static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        std::fs::create_dir_all(dir)
            .map_err(|e| BbError::io(format!("create checkpoint dir {}", dir.display()), e))?;
        let path = dir.join(HEARTBEAT_NAME);
        // Heartbeats skip the fsync ladder but are still atomic writers:
        // they share the disk-full injection point with
        // `write_atomic_bytes`, so `BB_INJECT=enospc:N` can prove this path
        // fails closed too (prior heartbeat intact, no torn rename).
        if let Some(e) = crate::export::injected_enospc(&path) {
            return Err(e);
        }
        let seq = TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = dir.join(format!("{HEARTBEAT_NAME}.{}.{seq}.tmp", std::process::id()));
        let saved = std::fs::write(&tmp, self.encode())
            .and_then(|()| std::fs::rename(&tmp, &path))
            .map_err(|e| BbError::io(format!("write {} -> {}", tmp.display(), path.display()), e));
        // Unique temp names are never overwritten by a later beat, so a
        // failed save removes its own leftover.
        if saved.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        saved
    }
}

/// Stitch shard checkpoints back into one campaign checkpoint.
///
/// Every shard of a `repro all --shard i/N` run writes a standard `bbck/v1`
/// manifest whose key names the **full** selected experiment list (not the
/// shard's slice), so shards of the same campaign carry identical keys and
/// a shard of a *different* campaign can never slip in. The merge enforces:
///
/// * all shard keys identical, and written by this build's
///   [`CODE_SCHEMA`] (first mismatching field named),
/// * units present in more than one shard byte-identical across them,
/// * together the shards cover every experiment in the key.
///
/// The result is exactly the checkpoint a single unsharded `--checkpoint`
/// run would have written: same key, same units, `windows_done` summed.
pub fn merge_shards(shards: &[Checkpoint]) -> BbResult<Checkpoint> {
    let first = shards
        .first()
        .ok_or_else(|| BbError::checkpoint("no shard manifests to merge"))?;
    first.validate(&CampaignKey {
        code_schema: CODE_SCHEMA,
        ..first.key.clone()
    })?;
    for s in &shards[1..] {
        s.validate(&first.key)?;
    }
    let mut merged = Checkpoint::new(first.key.clone());
    for s in shards {
        merged.windows_done += s.windows_done;
        for (name, unit) in &s.units {
            if merged.units.get(name).is_some_and(|have| have != unit) {
                return Err(BbError::checkpoint(format!(
                    "unit {name} differs between shards (same key, different \
                     bytes — corrupt shard or non-deterministic build)"
                )));
            }
            merged
                .units
                .entry(name.clone())
                .or_insert_with(|| unit.clone());
        }
    }
    let missing = first.key.missing(|e| merged.units.contains_key(e));
    if !missing.is_empty() {
        return Err(BbError::checkpoint(format!(
            "shards do not cover the campaign: missing {}",
            missing.join(",")
        )));
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> CampaignKey {
        CampaignKey::new(42, "full", "off", "calib,fig1,fig2", true)
    }

    fn sample() -> Checkpoint {
        let mut ck = Checkpoint::new(key());
        ck.windows_done = 1234;
        ck.record(
            "fig1",
            UnitResult {
                stdout: "Figure 1\nline two\n".to_string(),
                files: vec![
                    ("fig1.csv".to_string(), b"series,x,y\npoint,1,0.5\n".to_vec()),
                    // Binary-ish payload: newlines, NULs, non-UTF-8.
                    ("blob.bin".to_string(), vec![0, 10, 255, 10, 10, 0]),
                ],
            },
        );
        ck.record(
            "calib",
            UnitResult {
                stdout: String::new(),
                files: vec![],
            },
        );
        ck
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let ck = sample();
        let decoded = Checkpoint::decode(&ck.encode()).unwrap();
        assert_eq!(decoded.key, ck.key);
        assert_eq!(decoded.windows_done, 1234);
        assert_eq!(decoded.units, ck.units);
    }

    #[test]
    fn encoding_is_deterministic_regardless_of_insertion_order() {
        let a = sample();
        let mut b = Checkpoint::new(key());
        b.windows_done = 1234;
        // Insert in the opposite order.
        for name in ["calib", "fig1"] {
            b.record(name, a.units[name].clone());
        }
        assert_eq!(a.encode(), b.encode());
    }

    #[test]
    fn save_load_via_atomic_writer() {
        let dir = std::env::temp_dir().join(format!("bb_ckpt_test_{}", std::process::id()));
        let ck = sample();
        ck.save(&dir).unwrap();
        assert!(!dir.join(format!("{MANIFEST_NAME}.tmp")).exists());
        let loaded = Checkpoint::load(&dir).unwrap();
        assert_eq!(loaded.units, ck.units);
        loaded.validate(&key()).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn validate_names_the_mismatching_field() {
        let ck = sample();
        let mut want = key();
        want.seed = 7;
        let err = ck.validate(&want).unwrap_err().to_string();
        assert!(err.contains("seed mismatch"), "{err}");
        assert!(err.contains("42") && err.contains('7'), "{err}");

        let mut want = key();
        want.scale = "test".into();
        let err = ck.validate(&want).unwrap_err().to_string();
        assert!(err.contains("scale mismatch"), "{err}");

        let mut want = key();
        want.code_schema += 1;
        let err = ck.validate(&want).unwrap_err().to_string();
        assert!(err.contains("code_schema mismatch"), "{err}");

        let mut want = key();
        want.faults = "heavy".into();
        assert!(ck.validate(&want).is_err());

        ck.validate(&key()).unwrap();
    }

    #[test]
    fn corrupted_blob_is_rejected_by_checksum() {
        let ck = sample();
        let mut bytes = ck.encode();
        // Flip a byte inside the fig1.csv payload.
        let needle = b"point,1,0.5";
        let at = bytes
            .windows(needle.len())
            .position(|w| w == needle)
            .unwrap();
        bytes[at] ^= 0x20;
        let err = Checkpoint::decode(&bytes).unwrap_err().to_string();
        assert!(err.contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn truncated_manifest_is_rejected() {
        let bytes = sample().encode();
        for cut in [bytes.len() - 5, bytes.len() / 2, 3] {
            assert!(
                Checkpoint::decode(&bytes[..cut]).is_err(),
                "cut at {cut} must not parse"
            );
        }
    }

    #[test]
    fn torn_trailing_record_is_salvaged() {
        let ck = sample();
        let bytes = ck.encode();

        // Intact manifest: no salvage, everything kept.
        let (full, salvage) = Checkpoint::decode_salvaging(&bytes).unwrap();
        assert!(salvage.is_none());
        assert_eq!(full.units, ck.units);

        // Cut inside the trailing unit's last blob: the valid prefix
        // (calib — units are sorted, fig1 is trailing) survives.
        let (pre, salvage) = Checkpoint::decode_salvaging(&bytes[..bytes.len() - 5]).unwrap();
        let salvage = salvage.expect("torn tail must be reported");
        assert_eq!(salvage.kept_units, 1);
        assert!(pre.units.contains_key("calib"));
        assert!(!pre.units.contains_key("fig1"));
        assert_eq!(pre.key, ck.key);
        assert!(salvage.bytes_dropped > 0);

        // Cut exactly before the `end` marker: all units survive, only the
        // terminator record is reported dropped.
        let (all, salvage) = Checkpoint::decode_salvaging(&bytes[..bytes.len() - 4]).unwrap();
        assert_eq!(all.units, ck.units);
        let salvage = salvage.expect("missing end marker is a torn tail");
        assert_eq!(salvage.kept_units, 2);
        assert!(salvage.dropped.contains("cut at EOF"), "{}", salvage.dropped);

        // Every cut point after the header yields a valid (possibly empty)
        // prefix, never an error.
        let header_len = bytes
            .windows(5)
            .position(|w| w == b"unit ")
            .unwrap();
        for cut in header_len..bytes.len() {
            let (pre, _) = Checkpoint::decode_salvaging(&bytes[..cut])
                .unwrap_or_else(|e| panic!("cut at {cut} must salvage, got {e}"));
            assert!(pre.units.len() <= 2);
        }

        // A torn *header* is not salvageable: without the full key the
        // prefix cannot be validated against the campaign.
        assert!(Checkpoint::decode_salvaging(&bytes[..3]).is_err());
        assert!(Checkpoint::decode_salvaging(b"bbck/v1\nseed 42\n").is_err());
    }

    #[test]
    fn zero_length_manifest_is_rejected_with_diagnosis() {
        for decode in [
            Checkpoint::decode(b"").map(|_| ()),
            Checkpoint::decode_salvaging(b"").map(|_| ()),
        ] {
            let err = decode.unwrap_err().to_string();
            assert!(err.contains("empty"), "{err}");
            assert!(err.contains("0 bytes"), "{err}");
            assert!(err.contains("byte offset 0"), "{err}");
        }
    }

    #[test]
    fn truncated_header_names_the_byte_offset() {
        let bytes = sample().encode();
        // Cut mid-header (inside the `seed` line): truncation offset is
        // where the parser stood when it ran out of newline.
        let err = Checkpoint::decode(&bytes[..10]).unwrap_err().to_string();
        assert!(err.contains("byte offset 8"), "{err}");
        let err = Checkpoint::decode_salvaging(&bytes[..10])
            .unwrap_err()
            .to_string();
        assert!(err.contains("byte offset 8"), "{err}");
    }

    #[test]
    fn checksum_mismatch_names_the_byte_offset() {
        let ck = sample();
        let bytes = ck.encode();
        // Corrupt the *first* byte of each blob, so the last preceding
        // newline is the record-header line's terminator and the expected
        // blob offset can be computed independently of the parser.
        for (needle, expect_unit) in [
            (b"series,x,y".as_slice(), "file fig1.csv"),
            (b"Figure 1".as_slice(), "stdout of unit fig1"),
        ] {
            let mut corrupt = bytes.clone();
            let at = corrupt
                .windows(needle.len())
                .position(|w| w == needle)
                .unwrap();
            corrupt[at] ^= 0x20;
            // The corrupted byte sits inside the blob, so the reported
            // blob offset must be at or before it.
            let blob_start = corrupt[..at].iter().rposition(|&b| b == b'\n').unwrap() + 1;
            for decode in [
                Checkpoint::decode(&corrupt).map(|_| ()),
                Checkpoint::decode_salvaging(&corrupt).map(|_| ()),
            ] {
                let err = decode.unwrap_err().to_string();
                assert!(err.contains(expect_unit), "{err}");
                assert!(
                    err.contains(&format!("byte offset {blob_start}")),
                    "expected offset {blob_start} in: {err}"
                );
                assert!(err.contains("mid-file corruption"), "{err}");
            }
        }
    }

    #[test]
    fn corruption_is_not_salvaged() {
        let ck = sample();
        let mut bytes = ck.encode();
        // Checksum mismatch with the bytes fully present: damage, not
        // truncation — salvaging decode must reject it like strict decode.
        let needle = b"point,1,0.5";
        let at = bytes
            .windows(needle.len())
            .position(|w| w == needle)
            .unwrap();
        bytes[at] ^= 0x20;
        let err = Checkpoint::decode_salvaging(&bytes).unwrap_err().to_string();
        assert!(err.contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn heartbeat_bytes_and_atomic_save() {
        let hb = Heartbeat {
            windows_done: 123_456,
            units_done: 7,
            stamp_ms: 1_700_000_000_000,
        };
        let want = b"bbhb/v1\nwindows 123456\nunits 7\nstamp_ms 1700000000000\n";
        assert_eq!(hb.encode(), want);

        let dir = std::env::temp_dir().join(format!("bb_hb_test_{}", std::process::id()));
        hb.save(&dir).unwrap();
        assert_eq!(tmp_files(&dir), Vec::<String>::new());
        assert_eq!(std::fs::read(dir.join(HEARTBEAT_NAME)).unwrap(), want);
        // Overwrite in place — the watcher always reads a whole record.
        let hb2 = Heartbeat {
            windows_done: 200_000,
            ..hb
        };
        hb2.save(&dir).unwrap();
        assert_eq!(std::fs::read(dir.join(HEARTBEAT_NAME)).unwrap(), hb2.encode());
        std::fs::remove_dir_all(&dir).ok();
    }

    fn tmp_files(dir: &Path) -> Vec<String> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".tmp"))
            .collect()
    }

    #[test]
    fn concurrent_heartbeat_saves_never_collide() {
        // A shard's progress hook and its `on_final` beat can save at the
        // same instant; with one shared temp name, one writer's rename
        // found the file already renamed away.
        let dir = std::env::temp_dir().join(format!("bb_hb_race_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let (dir, start) = (&dir, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..200u64 {
                        Heartbeat::now(t * 1000 + i, t).save(dir).unwrap();
                    }
                });
            }
        });
        let beat = std::fs::read(dir.join(HEARTBEAT_NAME)).unwrap();
        assert!(beat.starts_with(b"bbhb/v1\nwindows ") && beat.ends_with(b"\n"));
        assert_eq!(tmp_files(&dir), Vec::<String>::new());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_format_version_is_rejected() {
        let err = Checkpoint::decode(b"bbck/v99\n").unwrap_err().to_string();
        assert!(err.contains("unsupported format"), "{err}");
    }

    #[test]
    fn merge_shards_reassembles_the_campaign() {
        let full = sample(); // key covers calib,fig1,fig2 — add fig2 first
        let mut full = full;
        full.record(
            "fig2",
            UnitResult {
                stdout: "Figure 2\n".to_string(),
                files: vec![],
            },
        );
        let mut a = Checkpoint::new(key());
        a.windows_done = 100;
        a.record("calib", full.units["calib"].clone());
        a.record("fig1", full.units["fig1"].clone());
        let mut b = Checkpoint::new(key());
        b.windows_done = 34;
        b.record("fig2", full.units["fig2"].clone());

        let merged = merge_shards(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(merged.units, full.units);
        assert_eq!(merged.windows_done, 134);
        // Order-independent (byte-identical manifest either way).
        let again = merge_shards(&[b.clone(), a.clone()]).unwrap();
        assert_eq!(again.encode(), merged.encode());
        // Duplicate shards are tolerated when their units agree byte-for-byte
        // (windows_done, an advisory progress counter, double-counts).
        let dup = merge_shards(&[b, a.clone(), a]).unwrap();
        assert_eq!(dup.units, merged.units);
    }

    #[test]
    fn merge_rejects_mismatched_keys_and_gaps() {
        let mut a = Checkpoint::new(key());
        a.record("calib", UnitResult::default());
        // Key mismatch.
        let mut other = key();
        other.seed = 7;
        let b = Checkpoint::new(other);
        let err = merge_shards(&[a.clone(), b]).unwrap_err().to_string();
        assert!(err.contains("seed mismatch"), "{err}");
        // Coverage gap: fig1/fig2 missing.
        let err = merge_shards(&[a.clone()]).unwrap_err().to_string();
        assert!(err.contains("missing fig1,fig2"), "{err}");
        // Conflicting duplicate unit.
        let mut c = Checkpoint::new(key());
        c.record(
            "calib",
            UnitResult {
                stdout: "different bytes".into(),
                files: vec![],
            },
        );
        let err = merge_shards(&[a, c]).unwrap_err().to_string();
        assert!(err.contains("differs between shards"), "{err}");
    }

    #[test]
    fn missing_manifest_is_io_not_checkpoint() {
        let err = Checkpoint::load(Path::new("/nonexistent_bb_ckpt")).unwrap_err();
        assert!(matches!(err, BbError::Io { .. }), "{err:?}");
    }
}
