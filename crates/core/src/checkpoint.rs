//! Campaign checkpoints: an append-only journal of completed units,
//! validated on resume.
//!
//! A long campaign (`repro all`) is a sequence of *units* — one per
//! experiment — each producing a stdout block and optionally rendered CSV
//! files. A checkpointed run keeps them in `checkpoint.bbck` in its
//! checkpoint directory: a fresh `--checkpoint` writes the header (the
//! [`CampaignKey`]) atomically, and every unit that completes is appended
//! to it as checksummed records and `sync_data`ed ([`Checkpoint::create`]). A
//! unit costs the bytes it adds, never a rewrite of the units before it.
//!
//! **Keying rule.** A checkpoint is only valid for the exact campaign that
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
//! (`Topology::uid` is a process-local counter, not a content hash, so it
//! cannot key a file across processes. The topology is a pure function of
//! `(scale, seed)`, which the key already pins; see DESIGN.md §5b.)
//!
//! **Format.** `bbck/v2` is the [`crate::framed`] shape: a line-oriented
//! header closed by its checksum, then length-prefixed raw blobs, so
//! stdout and CSV bytes round-trip exactly (no escaping, no encoding).
//! Every record's checksum covers its head line's name and length as well
//! as its bytes:
//!
//! ```text
//! bbck/v2
//! seed 42
//! scale full
//! faults off
//! experiments calib,fig1,...
//! csv 1
//! code_schema 1
//! sum 5d1c...                      ← fnv64 of the header lines above
//! unit fig1 1 812 c0ffee...        ← name, file count, stdout len, fnv64
//! <812 raw stdout bytes>\n
//! file fig1.csv 4096 deadbeef...   ← name, len, fnv64
//! <4096 raw bytes>\n
//! unit calib 0 240 ...             ← the next unit to complete
//! ...
//! ```
//!
//! Units appear in completion order; a unit's `file` records follow its
//! `unit` record. There is no `end` line: the file is always a header plus
//! the units completed so far.
//!
//! **Torn tails.** A crash (or a full disk) mid-append leaves the last unit
//! cut off by end of file. [`Checkpoint::decode`] reads units under
//! [`crate::framed`]'s one torn-tail rule, the rule the serve journal
//! follows too: a unit whose records are cut off is dropped, and the
//! length of the intact prefix is returned so `--resume` can truncate the
//! file to it before appending ([`Checkpoint::resume`]). Damage with the
//! bytes fully present — a checksum mismatch, a malformed line, a torn or
//! damaged header — is an error: replaying corrupt bytes would break
//! byte-identity.
//!
//! **Shards.** A `--shard I/N` run's checkpoint holds the records that
//! shard wrote, under the key of the **whole** campaign; [`merge_shards`]
//! unions them by unit name.
//!
//! **Heartbeats.** Orchestrated shard runs (`repro orchestrate`) also
//! keep a tiny `heartbeat.bbhb` record next to the checkpoint: progress
//! counters plus a wall timestamp, rewritten atomically every few
//! thousand measurement windows. The supervisor treats a heartbeat whose
//! *content* stops changing as a hung shard; the file is advisory
//! telemetry, never part of the campaign output.

use crate::error::{BbError, BbResult};
use crate::export::AppendFile;
use crate::framed::{self, FieldFn, Flag, Format, Key, Reader, Writer};
use std::collections::BTreeMap;
use std::path::Path;

/// Checkpoint file name inside a checkpoint directory.
pub const MANIFEST_NAME: &str = "checkpoint.bbck";

/// On-disk format of the checkpoint.
pub const FORMAT: Format = Format {
    version: "bbck/v2",
    noun: "checkpoint",
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
    /// [`CODE_SCHEMA`] of the build that wrote the checkpoint.
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

impl UnitResult {
    /// The unit's records, as appended after a checkpoint's header:
    /// `unit {name} {files}` with its stdout, then one `file {fname}`
    /// record per file.
    pub fn encode(&self, name: &str) -> Vec<u8> {
        let mut w = Writer::default();
        w.blob(
            format_args!("unit {name} {}", self.files.len()),
            self.stdout.as_bytes(),
        );
        for (fname, bytes) in &self.files {
            w.blob(format_args!("file {fname}"), bytes);
        }
        w.finish()
    }
}

/// A campaign's completed units, as a checkpoint holds them.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    pub key: CampaignKey,
    /// Completed units by experiment name.
    pub units: BTreeMap<String, UnitResult>,
}

impl Checkpoint {
    pub fn new(key: CampaignKey) -> Self {
        Self {
            key,
            units: BTreeMap::new(),
        }
    }

    /// Record a completed unit (overwrites a same-name entry).
    pub fn record(&mut self, name: impl Into<String>, unit: UnitResult) {
        self.units.insert(name.into(), unit);
    }

    /// Record `unit` unless a different unit of that name is already
    /// here: the same unit twice is harmless, two versions of it are not.
    fn union(&mut self, name: &str, unit: UnitResult, source: &str) -> BbResult<()> {
        match self.units.get(name) {
            Some(have) if *have != unit => Err(BbError::checkpoint(format!(
                "unit {name} differs between {source} (same key, different bytes — \
                 corrupt checkpoint or non-deterministic build)"
            ))),
            Some(_) => Ok(()),
            None => {
                self.units.insert(name.to_string(), unit);
                Ok(())
            }
        }
    }

    /// Reject the checkpoint unless its key matches `expect` exactly,
    /// naming the first mismatching field.
    pub fn validate(&self, expect: &CampaignKey) -> BbResult<()> {
        framed::validate(&FORMAT, &self.key, expect)
    }

    /// A checkpoint's header: format line, key, checksum.
    pub fn header(key: &CampaignKey) -> Vec<u8> {
        let mut w = Writer::new(FORMAT.version);
        w.key(key);
        w.sum();
        w.finish()
    }

    /// The header, then every unit in name order: the file a run that
    /// completed its units in that order leaves behind.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Self::header(&self.key);
        for (name, unit) in &self.units {
            out.extend(unit.encode(name));
        }
        out
    }

    /// Start a fresh checkpoint in `dir` for the campaign `key`: its
    /// header, written atomically (replacing any checkpoint there), open
    /// for one [`UnitResult::encode`] append per completed unit.
    pub fn create(dir: &Path, key: &CampaignKey) -> BbResult<AppendFile> {
        std::fs::create_dir_all(dir)
            .map_err(|e| BbError::io(format!("create checkpoint dir {}", dir.display()), e))?;
        AppendFile::create(&dir.join(MANIFEST_NAME), &Self::header(key))
    }

    /// Pick up the checkpoint in `dir` for the campaign `key`: its units,
    /// the bytes of the torn tail cut from the file (`0` if none), and the
    /// file open for appends after the last whole unit. A stale key or
    /// damaged bytes is an error, and the file is left as it was.
    pub fn resume(dir: &Path, key: &CampaignKey) -> BbResult<(Checkpoint, u64, AppendFile)> {
        let bytes = framed::read(dir, MANIFEST_NAME)?;
        let (ck, intact) = Self::decode(&bytes)?;
        ck.validate(key)?;
        let torn = (bytes.len() - intact) as u64;
        let file = AppendFile::reopen(&dir.join(MANIFEST_NAME), intact as u64, torn > 0)?;
        Ok((ck, torn, file))
    }

    /// Load the checkpoint in `dir` and the bytes of its torn tail (`0`
    /// for a whole file). A missing file is [`BbError::Io`].
    pub fn load(dir: &Path) -> BbResult<(Checkpoint, u64)> {
        let bytes = framed::read(dir, MANIFEST_NAME)?;
        let (ck, intact) = Self::decode(&bytes)?;
        Ok((ck, (bytes.len() - intact) as u64))
    }

    /// Parse `bbck/v2` bytes: every whole unit, and the length of the
    /// intact prefix. A unit cut off by end of file is a torn tail and is
    /// dropped (see the module docs); any other damage — a torn or
    /// checksum-failing header included — is an error naming its byte
    /// offset.
    pub fn decode(bytes: &[u8]) -> BbResult<(Checkpoint, usize)> {
        // A torn header is never salvageable: without the full key the
        // units cannot be validated.
        let mut r = Reader::open(bytes, FORMAT)?;
        let mut ck = Checkpoint::new(r.key()?);
        r.sum()?;
        let intact = r.entries(|r| {
            let Some((name, unit)) = read_unit(r)? else { return Ok(None) };
            ck.union(&name, unit, "records of one checkpoint")?;
            Ok(Some(()))
        })?;
        Ok((ck, intact))
    }
}

/// Read one unit's records; `None` if the file ends inside them.
fn read_unit(r: &mut Reader<'_>) -> BbResult<Option<(String, UnitResult)>> {
    let start = r.pos();
    let Some(line) = r.line_opt()? else { return Ok(None) };
    let unit = framed::record(&line).and_then(|head| match head.tokens[..] {
        ["unit", name, n_files] => Some((name.to_string(), n_files.parse::<u64>().ok()?, head)),
        _ => None,
    });
    let Some((name, n_files, head)) = unit else {
        return Err(BbError::checkpoint(format!(
            "expected a `unit` record at byte offset {start}, got {line:?}"
        )));
    };
    let Some(stdout) = r.blob(&head, &format!("stdout of unit {name}"))? else {
        return Ok(None);
    };
    let stdout = String::from_utf8(stdout.to_vec())
        .map_err(|_| BbError::checkpoint(format!("unit {name} stdout is not UTF-8")))?;
    // The file count comes off the file: files are read one record at a
    // time, never preallocated from it.
    let mut files = Vec::new();
    for _ in 0..n_files {
        let at = r.pos();
        let Some(fline) = r.line_opt()? else { return Ok(None) };
        let file = framed::record(&fline).and_then(|head| match head.tokens[..] {
            ["file", fname] => Some((fname, head)),
            _ => None,
        });
        let Some((fname, head)) = file else {
            return Err(BbError::checkpoint(format!(
                "expected `file` in unit {name} at byte offset {at}, got {fline:?}"
            )));
        };
        let Some(blob) = r.blob(&head, &format!("file {fname} of unit {name}"))? else {
            return Ok(None);
        };
        files.push((fname.to_string(), blob.to_vec()));
    }
    Ok(Some((name, UnitResult { stdout, files })))
}

/// Per-shard liveness record for orchestrated runs: progress counters plus
/// a wall timestamp, rewritten next to the checkpoint every few thousand
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
    /// — durability after power loss buys nothing, and paying an fsync
    /// every beat would make heartbeats expensive enough to throttle.
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
/// Every shard of a `repro all --shard i/N` run writes a standard `bbck/v2`
/// checkpoint whose key names the **full** selected experiment list (not
/// the shard's slice), so shards of the same campaign carry identical keys
/// and a shard of a *different* campaign can never slip in. The merge is a
/// union keyed by unit name, and enforces:
///
/// * all shard keys identical, and written by this build's
///   [`CODE_SCHEMA`] (first mismatching field named),
/// * units present in more than one shard byte-identical across them,
/// * together the shards cover every experiment in the key.
///
/// The result holds exactly the units a single unsharded `--checkpoint`
/// run would have written, under the same key.
pub fn merge_shards(shards: &[Checkpoint]) -> BbResult<Checkpoint> {
    let first = shards
        .first()
        .ok_or_else(|| BbError::checkpoint("no shard checkpoints to merge"))?;
    first.validate(&CampaignKey {
        code_schema: CODE_SCHEMA,
        ..first.key.clone()
    })?;
    let mut merged = Checkpoint::new(first.key.clone());
    for s in shards {
        s.validate(&first.key)?;
        for (name, unit) in &s.units {
            merged.union(name, unit.clone(), "shards")?;
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

    fn decode_whole(bytes: &[u8]) -> BbResult<Checkpoint> {
        let (ck, intact) = Checkpoint::decode(bytes)?;
        assert_eq!(intact, bytes.len(), "no torn tail expected");
        Ok(ck)
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let ck = sample();
        let decoded = decode_whole(&ck.encode()).unwrap();
        assert_eq!(decoded.key, ck.key);
        assert_eq!(decoded.units, ck.units);
        assert_eq!(decoded.encode(), ck.encode());
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
    fn torn_tail_drops_only_the_cut_unit() {
        let ck = sample();
        let bytes = ck.encode();
        let header = Checkpoint::header(&ck.key).len();
        // Units are encoded in name order: calib, then fig1.
        let calib_end = bytes.windows(10).position(|w| w == b"unit fig1 ").unwrap();
        for cut in header..bytes.len() {
            let (pre, intact) = Checkpoint::decode(&bytes[..cut])
                .unwrap_or_else(|e| panic!("cut at {cut} must salvage, got {e}"));
            let want: &[&str] = if cut < calib_end { &[] } else { &["calib"] };
            assert_eq!(pre.units.keys().collect::<Vec<_>>(), want, "cut at {cut}");
            assert_eq!(intact, if cut < calib_end { header } else { calib_end });
            assert_eq!(pre.key, ck.key);
        }
        // A torn *header* is not salvageable: without the full key the
        // units cannot be validated against the campaign.
        for cut in [3, 10, header - 1] {
            assert!(Checkpoint::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn zero_length_checkpoint_is_rejected_with_diagnosis() {
        let err = Checkpoint::decode(b"").unwrap_err().to_string();
        assert!(err.contains("empty"), "{err}");
        assert!(err.contains("0 bytes"), "{err}");
        assert!(err.contains("byte offset 0"), "{err}");
    }

    #[test]
    fn truncated_header_names_the_byte_offset() {
        let bytes = sample().encode();
        // Cut mid-header (inside the `seed` line): truncation offset is
        // where the parser stood when it ran out of newline.
        let err = Checkpoint::decode(&bytes[..10]).unwrap_err().to_string();
        assert!(err.contains("byte offset 8"), "{err}");
    }

    #[test]
    fn flipped_header_digit_is_rejected_with_offset() {
        let bytes = sample().encode();
        let mut bad = bytes.clone();
        bad["bbck/v2\nseed 4".len()] ^= 1; // `seed 42` → `seed 43`
        let err = Checkpoint::decode(&bad).unwrap_err().to_string();
        assert!(err.contains("header checksum mismatch"), "{err}");
        let sum_at = Checkpoint::header(&key()).len() - "sum 0123456789abcdef\n".len();
        assert!(err.contains(&format!("byte offset {sum_at}")), "{err}");
    }

    #[test]
    fn checksum_mismatch_names_the_byte_offset() {
        let ck = sample();
        let bytes = ck.encode();
        // Corrupt the first byte of a blob, or a byte of its record's head
        // (`fig1` → `fig3` in `unit fig1`, `fig1.csv` → `fig3.csv`): the
        // checksum covers both. The blob starts after the record line.
        for (needle, skip, expect) in [
            (&b"series,x,y"[..], 0, "file fig1.csv of unit fig1"),
            (b"Figure 1", 0, "stdout of unit fig1"),
            (b"unit fig1 ", 8, "stdout of unit fig3"),
            (b"file fig1.csv", 8, "file fig3.csv of unit fig1"),
        ] {
            let mut corrupt = bytes.clone();
            let at = corrupt
                .windows(needle.len())
                .position(|w| w == needle)
                .unwrap()
                + skip;
            corrupt[at] ^= 0x02;
            let line_at = corrupt[..at].iter().rposition(|&b| b == b'\n').unwrap() + 1;
            let blob_at = if skip == 0 {
                line_at
            } else {
                at + corrupt[at..].iter().position(|&b| b == b'\n').unwrap() + 1
            };
            let err = Checkpoint::decode(&corrupt).unwrap_err().to_string();
            assert!(err.contains("checksum mismatch"), "{err}");
            assert!(err.contains(expect), "{err}");
            assert!(
                err.contains(&format!("blob at byte offset {blob_at}")),
                "expected offset {blob_at} in: {err}"
            );
            assert!(err.contains("mid-file corruption"), "{err}");
        }
    }

    #[test]
    fn conflicting_duplicate_unit_is_rejected() {
        let ck = sample();
        let mut bytes = ck.encode();
        // The same unit twice is harmless; two versions of it are not.
        let twice = [bytes.clone(), ck.units["calib"].encode("calib")].concat();
        assert_eq!(decode_whole(&twice).unwrap().units, ck.units);
        let other = UnitResult {
            stdout: "other".into(),
            files: vec![],
        };
        bytes.extend(other.encode("calib"));
        let err = Checkpoint::decode(&bytes).unwrap_err().to_string();
        assert!(err.contains("unit calib differs"), "{err}");
    }

    #[test]
    fn log_appends_units_and_resume_truncates_a_torn_tail() {
        let dir = std::env::temp_dir().join(format!("bb_ckpt_log_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ck = sample();
        let mut log = Checkpoint::create(&dir, &key()).unwrap();
        for (name, unit) in &ck.units {
            log.append(&[&unit.encode(name)]).unwrap();
        }
        drop(log);
        let path = dir.join(MANIFEST_NAME);
        assert_eq!(std::fs::read(&path).unwrap(), ck.encode());
        assert!(!dir.join(format!("{MANIFEST_NAME}.tmp")).exists());

        // Tear the last unit: resume keeps calib, cuts the file back to it,
        // and appends after it.
        let bytes = ck.encode();
        std::fs::write(&path, &bytes[..bytes.len() - 16]).unwrap();
        let (pre, torn, mut log) = Checkpoint::resume(&dir, &key()).unwrap();
        assert_eq!(pre.units.keys().collect::<Vec<_>>(), ["calib"]);
        let calib_end = bytes.windows(10).position(|w| w == b"unit fig1 ").unwrap();
        assert_eq!(torn as usize, bytes.len() - 16 - calib_end);
        assert_eq!(std::fs::metadata(&path).unwrap().len() as usize, calib_end);
        log.append(&[&ck.units["fig1"].encode("fig1")]).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), bytes);

        // A stale key is refused and leaves the file alone.
        let mut other = key();
        other.seed = 7;
        let err = Checkpoint::resume(&dir, &other).unwrap_err().to_string();
        assert!(err.contains("seed mismatch"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        // A fresh log replaces the checkpoint with a bare header.
        drop(Checkpoint::create(&dir, &key()).unwrap());
        assert_eq!(std::fs::read(&path).unwrap(), Checkpoint::header(&key()));
        std::fs::remove_dir_all(&dir).ok();
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
    fn older_format_version_is_rejected_naming_it() {
        let mut v1 = b"bbck/v1\n".to_vec();
        v1.extend_from_slice(&sample().encode()["bbck/v2\n".len()..]);
        let err = Checkpoint::decode(&v1).unwrap_err().to_string();
        assert!(err.contains("unsupported format \"bbck/v1\""), "{err}");
        assert!(err.contains("bbck/v2"), "{err}");
    }

    #[test]
    fn merge_shards_reassembles_the_campaign() {
        let mut full = sample(); // key covers calib,fig1,fig2 — add fig2
        full.record(
            "fig2",
            UnitResult {
                stdout: "Figure 2\n".to_string(),
                files: vec![],
            },
        );
        let mut a = Checkpoint::new(key());
        a.record("calib", full.units["calib"].clone());
        a.record("fig1", full.units["fig1"].clone());
        let mut b = Checkpoint::new(key());
        b.record("fig2", full.units["fig2"].clone());

        let merged = merge_shards(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(merged.units, full.units);
        // Order-independent (byte-identical encoding either way).
        let again = merge_shards(&[b.clone(), a.clone()]).unwrap();
        assert_eq!(again.encode(), merged.encode());
        // Duplicate shards are tolerated when their units agree byte-for-byte.
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
    fn missing_checkpoint_is_io_not_checkpoint() {
        let err = Checkpoint::load(Path::new("/nonexistent_bb_ckpt")).unwrap_err();
        assert!(matches!(err, BbError::Io { .. }), "{err:?}");
    }
}
