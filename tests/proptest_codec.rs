//! Mutation tests of the persisted-state decoders: `bbck/v1` checkpoint
//! manifests, `bbsn/v1` serve snapshots, the `bbsv/v1` serve-state blob
//! they carry, and the `bbjn/v1` serve journal.
//!
//! Encoded values are damaged by random truncation, bit flips and splices.
//! Whatever the damage, a decoder returns — it never panics and never
//! aborts on an allocation sized by a damaged count. Beyond that:
//!
//! * a truncated manifest is an error to the strict decoder, and the
//!   salvaging decoder either rejects it or keeps a prefix of the
//!   original units, reporting the salvage;
//! * a truncated snapshot or state blob is always an error;
//! * a journal cut anywhere past its header decodes to a prefix of its
//!   whole records (a torn tail), and one cut inside the header is an
//!   error;
//! * a flipped byte inside a checksummed blob is always an error, and for
//!   a journal record it names the record's byte offset;
//! * a journal whose epochs are not contiguous is an error.
//!
//! Header fields carry no checksum, so a flipped digit there may decode to
//! a different value; nothing here asserts otherwise. Three crafted
//! inputs — a huge blob length, file count and target count — are named
//! cases.

use beating_bgp::core::checkpoint::{fnv1a, CampaignKey, Checkpoint, UnitResult};
use beating_bgp::core::serve::{ServeMode, ServeState};
use beating_bgp::core::snapshot::{Journal, ServeKey, Snapshot};
use beating_bgp::geo::CityId;
use beating_bgp::measure::WindowRow;
use beating_bgp::netsim::Window;
use beating_bgp::workload::PrefixId;
use proptest::prelude::*;
use std::ops::Range;

/// Deterministic content source (xorshift64*), so one sampled seed fixes a
/// whole encoded value.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(seed | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Raw bytes, newlines and NULs included.
    fn bytes(&mut self, max: u64) -> Vec<u8> {
        let n = self.below(max + 1);
        (0..n).map(|_| self.next() as u8).collect()
    }

    /// Printable text with newlines, like a unit's stdout.
    fn text(&mut self, max: u64) -> String {
        let n = self.below(max + 1);
        (0..n)
            .map(|_| match self.below(12) {
                0 => '\n',
                _ => (b' ' + self.below(95) as u8) as char,
            })
            .collect()
    }
}

const EXPERIMENTS: [&str; 5] = ["calib", "fig1", "fig2", "fig3", "xpeer"];

fn checkpoint(seed: u64) -> Checkpoint {
    let mut g = Gen::new(seed);
    let key = CampaignKey::new(g.next(), "test", "heavy", EXPERIMENTS.join(","), true);
    let mut ck = Checkpoint::new(key);
    ck.windows_done = g.below(1 << 20);
    for name in EXPERIMENTS {
        if g.below(4) == 0 {
            continue;
        }
        let files = (0..g.below(3))
            .map(|i| (format!("{name}_{i}.csv"), g.bytes(64)))
            .collect();
        let unit = UnitResult {
            stdout: g.text(96),
            files,
        };
        ck.record(name, unit);
    }
    ck
}

/// Byte ranges of every blob in `ck.encode()`, laid out independently of
/// the decoder from the documented `bbck/v1` shape.
fn blob_ranges(ck: &Checkpoint) -> Vec<Range<usize>> {
    let header = Checkpoint::new(ck.key.clone()).encode().len() - "end\n".len();
    let header = header + ck.windows_done.to_string().len() - 1;
    let mut pos = header;
    let mut ranges = Vec::new();
    let mut blob = |line: String, bytes: &[u8], pos: &mut usize| {
        *pos += line.len();
        ranges.push(*pos..*pos + bytes.len());
        *pos += bytes.len() + 1;
    };
    for (name, unit) in &ck.units {
        let stdout = unit.stdout.as_bytes();
        let line = format!(
            "unit {name} {} {} {:016x}\n",
            unit.files.len(),
            stdout.len(),
            fnv1a(stdout)
        );
        blob(line, stdout, &mut pos);
        for (fname, bytes) in &unit.files {
            let line = format!("file {fname} {} {:016x}\n", bytes.len(), fnv1a(bytes));
            blob(line, bytes, &mut pos);
        }
    }
    ranges.retain(|r| !r.is_empty());
    ranges
}

fn rows(g: &mut Gen, n_routes: usize, windows: Range<u32>) -> Vec<WindowRow> {
    windows
        .map(|w| {
            let mut medians: Vec<f64> = (0..n_routes).map(|_| g.below(20_000) as f64 / 100.0).collect();
            if g.below(8) == 0 {
                medians[0] = f64::NAN;
            }
            WindowRow {
                window: Window(w),
                pop: CityId(g.below(50) as u32),
                prefix: PrefixId(g.below(500) as u32),
                route_util: medians.iter().map(|_| g.below(100) as f64 / 100.0).collect(),
                route_samples: medians.iter().map(|_| 5).collect(),
                route_median_ms: medians,
                volume: g.below(1000) as f64 / 10.0,
            }
        })
        .collect()
}

fn serve_state(seed: u64) -> ServeState {
    let mut g = Gen::new(seed);
    let mode = match g.below(2) {
        0 => ServeMode::Exact,
        _ => ServeMode::Sketch { eps: 0.02 },
    };
    let routes: Vec<usize> = (0..1 + g.below(3)).map(|_| 1 + g.below(3) as usize).collect();
    let mut state = ServeState::new(mode, &routes);
    let n = 1 + g.below(6) as u32;
    let chunk = routes.iter().map(|&r| rows(&mut g, r, 0..n)).collect();
    state.ingest(chunk, n as u64);
    state
}

fn snapshot(seed: u64) -> Snapshot {
    let state = serve_state(seed);
    Snapshot {
        key: ServeKey::new(seed, "test", "off", state.mode().eps(), 8, seed % 2 == 0),
        windows_done: state.windows_done(),
        epochs: 1 + seed % 5,
        coarsenings: seed % 3,
        state: state.encode(),
    }
}

/// Journal bytes: a header based on a small epoch, then a few records of
/// raw bytes (the decoder never interprets them).
fn journal(seed: u64) -> Vec<u8> {
    let mut g = Gen::new(seed);
    let key = ServeKey::new(seed, "full", "off", 0.01, 8, false);
    let base_epoch = g.below(100);
    let blobs: Vec<Vec<u8>> = (0..g.below(6)).map(|_| g.bytes(96)).collect();
    Journal {
        key,
        base_epoch,
        records: (base_epoch + 1..).zip(blobs.iter().map(Vec::as_slice)).collect(),
        intact_len: 0,
    }
    .encode()
}

/// Index `frac` of the way into `0..len` (`len > 0`).
fn at(frac: f64, len: usize) -> usize {
    ((frac * len as f64) as usize).min(len - 1)
}

/// Flip one bit of byte `i`.
fn flipped(bytes: &[u8], i: usize, bit: u8) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[i] ^= 1 << bit;
    out
}

/// Copy `len` bytes from `from` over (or, with `insert`, into) `to`.
fn spliced(bytes: &[u8], from: usize, len: usize, to: usize, insert: bool) -> Vec<u8> {
    let piece = bytes[from..(from + len).min(bytes.len())].to_vec();
    let mut out = bytes.to_vec();
    if insert {
        out.splice(to..to, piece);
    } else {
        let end = (to + piece.len()).min(out.len());
        out.splice(to..end, piece);
    }
    out
}

/// Every decoder on `bytes`; each must return, whatever it returns.
fn decode_all(bytes: &[u8]) {
    let _ = Checkpoint::decode(bytes);
    let _ = Checkpoint::decode_salvaging(bytes);
    let _ = Snapshot::decode(bytes);
    let _ = ServeState::decode(bytes);
    let _ = Journal::decode(bytes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A cut manifest never decodes strictly; salvaged, it keeps a prefix
    /// of the original units and says so.
    #[test]
    fn truncated_checkpoint_is_rejected_or_salvaged_to_a_prefix(
        seed in 0u64..u64::MAX,
        cut in 0.0f64..1.0,
    ) {
        let ck = checkpoint(seed);
        let bytes = ck.encode();
        let torn = &bytes[..at(cut, bytes.len())];
        prop_assert!(Checkpoint::decode(torn).is_err());
        if let Ok((pre, salvage)) = Checkpoint::decode_salvaging(torn) {
            prop_assert!(salvage.is_some(), "a cut manifest decoded without a salvage");
            prop_assert_eq!(&pre.key, &ck.key);
            let kept: Vec<_> = pre.units.iter().collect();
            let prefix: Vec<_> = ck.units.iter().take(kept.len()).collect();
            prop_assert_eq!(kept, prefix);
        }
    }

    /// A flipped bit inside any stdout or file blob fails its checksum.
    #[test]
    fn flipped_checkpoint_blob_byte_is_rejected(
        seed in 0u64..u64::MAX,
        pick in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let ck = checkpoint(seed);
        let bytes = ck.encode();
        prop_assert_eq!(Checkpoint::decode(&bytes).unwrap().units, ck.units.clone());
        let blobs: Vec<usize> = blob_ranges(&ck).into_iter().flatten().collect();
        if !blobs.is_empty() {
            let bad = flipped(&bytes, blobs[at(pick, blobs.len())], bit);
            let err = Checkpoint::decode(&bad).unwrap_err().to_string();
            prop_assert!(err.contains("checksum mismatch"), "{}", err);
            prop_assert!(Checkpoint::decode_salvaging(&bad).is_err());
        }
    }

    /// A cut snapshot is always rejected, and so is a flipped bit in its
    /// state blob.
    #[test]
    fn truncated_or_flipped_snapshot_is_rejected(
        seed in 0u64..u64::MAX,
        cut in 0.0f64..1.0,
        pick in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let snap = snapshot(seed);
        let bytes = snap.encode();
        prop_assert_eq!(Snapshot::decode(&bytes).unwrap().encode(), bytes.clone());
        prop_assert!(Snapshot::decode(&bytes[..at(cut, bytes.len())]).is_err());
        let state_end = bytes.len() - "\nend\n".len();
        let state_at = state_end - snap.state.len();
        let bad = flipped(&bytes, state_at + at(pick, snap.state.len()), bit);
        prop_assert!(Snapshot::decode(&bad).is_err());
    }

    /// A cut state blob is always rejected; a flipped or spliced one may
    /// decode to another state, but the decoder returns.
    #[test]
    fn damaged_serve_state_never_panics(
        seed in 0u64..u64::MAX,
        cut in 0.0f64..1.0,
        pick in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let state = serve_state(seed);
        let bytes = state.encode();
        // NaN medians make `==` useless here; the codec is canonical.
        prop_assert_eq!(ServeState::decode(&bytes).unwrap().encode(), bytes.clone());
        prop_assert!(ServeState::decode(&bytes[..at(cut, bytes.len())]).is_err());
        let _ = ServeState::decode(&flipped(&bytes, at(pick, bytes.len()), bit));
        let from = at(pick, bytes.len());
        let _ = ServeState::decode(&spliced(&bytes, from, 8, at(cut, bytes.len()), true));
    }

    /// A journal cut past its header keeps a prefix of its whole records
    /// and reports where the intact bytes end; cut inside it, it is an
    /// error.
    #[test]
    fn truncated_journal_is_salvaged_to_whole_records(
        seed in 0u64..u64::MAX,
        cut in 0.0f64..1.0,
    ) {
        let bytes = journal(seed);
        let whole = Journal::decode(&bytes).unwrap();
        prop_assert_eq!(whole.intact_len, bytes.len());
        prop_assert_eq!(whole.encode(), bytes.clone());
        // Byte offset where each count of whole records ends.
        let mut ends = vec![Journal::header(&whole.key, whole.base_epoch).len()];
        for &(epoch, blob) in &whole.records {
            let record = Journal::record_head(epoch, blob).len() + blob.len() + 1;
            ends.push(ends[ends.len() - 1] + record);
        }
        let cut = at(cut, bytes.len());
        match Journal::decode(&bytes[..cut]) {
            Err(_) => prop_assert!(cut < ends[0], "cut at {} past the header", cut),
            Ok(pre) => {
                let kept = ends.iter().filter(|&&end| end <= cut).count() - 1;
                prop_assert_eq!(&pre.records[..], &whole.records[..kept]);
                prop_assert_eq!(pre.intact_len, ends[kept]);
            }
        }
    }

    /// A flipped bit inside a whole journal record's blob (or the newline
    /// closing it) is an error naming the blob's byte offset.
    #[test]
    fn flipped_journal_record_byte_names_its_offset(
        seed in 0u64..u64::MAX,
        pick in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let bytes = journal(seed);
        let whole = Journal::decode(&bytes).unwrap();
        let mut pos = Journal::header(&whole.key, whole.base_epoch).len();
        let mut targets = Vec::new();
        for &(epoch, blob) in &whole.records {
            pos += Journal::record_head(epoch, blob).len();
            targets.extend((pos..=pos + blob.len()).map(|i| (i, pos)));
            pos += blob.len() + 1;
        }
        if !targets.is_empty() {
            let (i, blob_at) = targets[at(pick, targets.len())];
            let err = Journal::decode(&flipped(&bytes, i, bit)).unwrap_err().to_string();
            prop_assert!(err.contains(&format!("byte offset {blob_at}")), "{}", err);
        }
    }

    /// Records whose epochs skip, repeat or go back are an error.
    #[test]
    fn non_contiguous_journal_epochs_are_rejected(
        seed in 0u64..u64::MAX,
        pick in 0.0f64..1.0,
        shift in 1u64..5,
        back in 0u8..2,
    ) {
        let bytes = journal(seed);
        let mut j = Journal::decode(&bytes).unwrap();
        if !j.records.is_empty() {
            let i = at(pick, j.records.len());
            let epoch = &mut j.records[i].0;
            *epoch = if back == 1 { epoch.saturating_sub(shift) } else { *epoch + shift };
            let err = Journal::decode(&j.encode()).unwrap_err().to_string();
            prop_assert!(err.contains("gap in the epoch sequence"), "{}", err);
        }
    }

    /// Bit flips and splices anywhere in any encoding: every decoder
    /// returns.
    #[test]
    fn mutated_bytes_never_panic_any_decoder(
        seed in 0u64..u64::MAX,
        a in 0.0f64..1.0,
        b in 0.0f64..1.0,
        len in 1usize..64,
        bit in 0u8..8,
    ) {
        for bytes in [
            checkpoint(seed).encode(),
            snapshot(seed).encode(),
            serve_state(seed).encode(),
            journal(seed),
        ] {
            let n = bytes.len();
            decode_all(&flipped(&bytes, at(a, n), bit));
            decode_all(&spliced(&bytes, at(a, n), len, at(b, n), true));
            decode_all(&spliced(&bytes, at(a, n), len, at(b, n), false));
            decode_all(&bytes[at(b, n)..]);
        }
    }
}

const CALIB_HEADER: &str = "bbck/v1\nseed 42\nscale test\nfaults off\nexperiments calib\n\
                            csv 0\ncode_schema 1\nwindows_done 0\n";

#[test]
fn crafted_huge_blob_length_is_rejected() {
    let bytes = format!("{CALIB_HEADER}unit calib 0 18446744073709551615 0\nend\n");
    for err in [
        Checkpoint::decode(bytes.as_bytes()).unwrap_err(),
        Checkpoint::decode_salvaging(bytes.as_bytes()).unwrap_err(),
    ] {
        let err = err.to_string();
        assert!(err.contains("impossible length"), "{err}");
        assert!(err.contains("unit calib"), "{err}");
    }
}

#[test]
fn crafted_huge_file_count_is_rejected() {
    let bytes = format!("{CALIB_HEADER}unit calib 99999999999999999 0 cbf29ce484222325\n\nend\n");
    for err in [
        Checkpoint::decode(bytes.as_bytes()).unwrap_err(),
        Checkpoint::decode_salvaging(bytes.as_bytes()).unwrap_err(),
    ] {
        let err = err.to_string();
        assert!(err.contains("expected `file` in unit calib"), "{err}");
    }
}

#[test]
fn crafted_huge_target_count_is_rejected() {
    for seed in [1, 2] {
        let mut bytes = serve_state(seed).encode();
        // Magic (8), mode (1), eps (8), windows_done (8), then the target
        // count.
        bytes[25..29].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = ServeState::decode(&bytes).unwrap_err().to_string();
        assert!(err.contains("corrupt serve state"), "{err}");
    }
}
