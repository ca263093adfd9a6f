//! Mutation tests of the persisted-state decoders: `bbck/v2` campaign
//! checkpoints, `bbsn/v2` serve snapshots, the `bbsv/v1` serve-state blob
//! they carry, and the `bbjn/v2` serve journal — and of the CAIDA
//! AS-relationship reader `--snapshot` feeds.
//!
//! Encoded values are damaged by random truncation, bit flips and splices.
//! Whatever the damage, a decoder returns — it never panics and never
//! aborts on an allocation sized by a damaged count. Beyond that:
//!
//! * a checkpoint or journal cut anywhere past its header decodes to a
//!   prefix of its whole units or records (a torn tail), and one cut
//!   inside the header is an error;
//! * a truncated snapshot or state blob is always an error;
//! * a flipped byte inside a checksummed blob is always an error, and for
//!   a journal record it names the record's byte offset;
//! * a flipped byte in a checkpoint record's head (its unit or file name
//!   and file count) is an error: the record checksum covers the head;
//! * a flipped byte anywhere in a checkpoint, snapshot or journal header
//!   is an error: the header checksum covers every field;
//! * a journal whose epochs are not contiguous is an error.
//!
//! A flipped blob *length* in the last record may read as a record cut
//! off by end of file: that is the torn-tail rule, and it drops the unit
//! rather than replaying it. Four crafted inputs — a huge blob length,
//! file count and target count, and a row of more routes than a row
//! holds — are named cases.
//!
//! A damaged CAIDA snapshot parses and builds to a `CaidaError` or a
//! topology, never a panic, and `repro calib --snapshot` on one exits 0 or
//! 2. A self link, a duplicate link, an unknown relationship code, an ASN
//! past `u32` and non-UTF-8 bytes are named cases.

use beating_bgp::core::checkpoint::{CampaignKey, Checkpoint, UnitResult};
use beating_bgp::core::framed::fnv1a;
use beating_bgp::core::serve::{ServeMode, ServeState};
use beating_bgp::core::snapshot::{Journal, ServeKey, Snapshot};
use beating_bgp::geo::CityId;
use beating_bgp::measure::{WindowRow, MAX_ROUTES};
use beating_bgp::netsim::Window;
use beating_bgp::topology::{build_from_snapshot, load_snapshot_file, parse_caida};
use beating_bgp::topology::{CaidaError, SnapshotConfig};
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

/// A campaign checkpoint as a run leaves it: the header, then some of the
/// experiments' units in a seed-chosen completion order.
struct Campaign {
    key: CampaignKey,
    units: Vec<(String, UnitResult)>,
    bytes: Vec<u8>,
}

fn campaign(seed: u64) -> Campaign {
    let mut g = Gen::new(seed);
    let key = CampaignKey::new(g.next(), "test", "heavy", EXPERIMENTS.join(","), true);
    let mut names: Vec<&str> = EXPERIMENTS.to_vec();
    for i in (1..names.len()).rev() {
        names.swap(i, g.below(i as u64 + 1) as usize);
    }
    let mut units = Vec::new();
    for name in names {
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
        units.push((name.to_string(), unit));
    }
    let mut bytes = Checkpoint::header(&key);
    for (name, unit) in &units {
        bytes.extend(unit.encode(name));
    }
    Campaign { key, units, bytes }
}

/// Where each part of a checkpoint's records lies, laid out independently
/// of the decoder from the documented `bbck/v2` shape.
#[derive(Default)]
struct Layout {
    /// Byte offset where each count of whole units ends (`[0]`: header).
    ends: Vec<usize>,
    /// Every blob's bytes.
    blobs: Vec<Range<usize>>,
    /// Every record head's `unit NAME NFILES` / `file NAME` bytes.
    heads: Vec<Range<usize>>,
}

fn layout(c: &Campaign) -> Layout {
    let mut pos = c.bytes.windows(5).position(|w| w == b"\nsum ").unwrap() + 1;
    pos += c.bytes[pos..].iter().position(|&b| b == b'\n').unwrap() + 1;
    let mut out = Layout {
        ends: vec![pos],
        ..Layout::default()
    };
    let mut record = |head: String, bytes: &[u8], pos: &mut usize| {
        // The checksum covers the line up to it, then the blob.
        let covered = format!("{head} {} ", bytes.len());
        let line = format!("{covered}{:016x}\n", fnv1a(&[covered.as_bytes(), bytes]));
        assert_eq!(&c.bytes[*pos..*pos + line.len()], line.as_bytes());
        out.heads.push(*pos..*pos + head.len());
        *pos += line.len();
        out.blobs.push(*pos..*pos + bytes.len());
        *pos += bytes.len() + 1;
    };
    for (name, unit) in &c.units {
        let stdout = unit.stdout.as_bytes();
        record(format!("unit {name} {}", unit.files.len()), stdout, &mut pos);
        for (fname, bytes) in &unit.files {
            record(format!("file {fname}"), bytes, &mut pos);
        }
        out.ends.push(pos);
    }
    assert_eq!(pos, c.bytes.len());
    out.blobs.retain(|r| !r.is_empty());
    out
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
                route_median_ms: medians.into_iter().collect(),
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

/// A well-formed CAIDA snapshot of up to 40 ASes: comments, blank lines,
/// provider→customer links only from earlier to later ASes (so the first
/// AS heads a hierarchy), peer links between unlinked pairs, and repeated
/// lines.
fn caida_text(seed: u64) -> String {
    let mut g = Gen::new(seed);
    let n = 2 + g.below(39) as usize;
    let asns: Vec<u64> = (0..n as u64).map(|i| 1 + i * 7 + g.below(7)).collect();
    let mut linked = std::collections::BTreeSet::new();
    let mut text = String::from("# source: generated\n");
    for i in 1..n {
        let provider = g.below(i as u64) as usize;
        linked.insert((provider, i));
        text += &format!("{}|{}|-1\n", asns[provider], asns[i]);
        match g.below(4) {
            0 => text += "\n",
            1 => {
                let peer = g.below(i as u64) as usize;
                if linked.insert((peer, i)) {
                    text += &format!("{}|{}|0\n", asns[i], asns[peer]);
                }
            }
            2 => text += &format!("{}|{}|-1\n", asns[provider], asns[i]),
            _ => {}
        }
    }
    text
}

/// A small atlas, so a build costs little.
fn caida_cfg(seed: u64) -> SnapshotConfig {
    let mut cfg = SnapshotConfig {
        seed,
        ..SnapshotConfig::default()
    };
    cfg.atlas.city_density = 0.3;
    cfg
}

/// Parse and build `bytes` as a snapshot; each must return. A snapshot
/// that parses has as many ASes as it names, unless the build rejects it.
fn read_caida(bytes: &[u8], seed: u64) {
    let text = String::from_utf8_lossy(bytes);
    let parsed = parse_caida(&text);
    let built = build_from_snapshot(&text, &caida_cfg(seed));
    match (parsed, built) {
        (Ok(graph), Ok(topo)) => assert_eq!(graph.asns.len(), topo.as_count()),
        (Err(e), Ok(_)) => panic!("parse failed ({e}) but the build succeeded"),
        _ => {}
    }
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
    let _ = Snapshot::decode(bytes);
    let _ = ServeState::decode(bytes);
    let _ = Journal::decode(bytes);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A checkpoint cut past its header keeps the whole units before the
    /// cut, in completion order, and reports where the intact bytes end;
    /// cut inside it, it is an error.
    #[test]
    fn truncated_checkpoint_is_rejected_or_salvaged_to_a_prefix(
        seed in 0u64..u64::MAX,
        cut in 0.0f64..1.0,
    ) {
        let c = campaign(seed);
        let ends = layout(&c).ends;
        let (whole, intact) = Checkpoint::decode(&c.bytes).unwrap();
        prop_assert_eq!(intact, c.bytes.len());
        prop_assert_eq!(whole.units.len(), c.units.len());
        let cut = at(cut, c.bytes.len());
        match Checkpoint::decode(&c.bytes[..cut]) {
            Err(_) => prop_assert!(cut < ends[0], "cut at {} past the header", cut),
            Ok((pre, intact)) => {
                let kept = ends.iter().filter(|&&end| end <= cut).count() - 1;
                prop_assert_eq!(&pre.key, &c.key);
                let want = c.units[..kept].iter().cloned().collect();
                prop_assert_eq!(pre.units, want);
                prop_assert_eq!(intact, ends[kept]);
            }
        }
    }

    /// A flipped bit inside any stdout or file blob fails its checksum,
    /// naming the blob's byte offset.
    #[test]
    fn flipped_checkpoint_blob_byte_is_rejected(
        seed in 0u64..u64::MAX,
        pick in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let c = campaign(seed);
        let blobs: Vec<(usize, usize)> = layout(&c)
            .blobs
            .into_iter()
            .flat_map(|r| r.clone().map(move |i| (i, r.start)))
            .collect();
        if !blobs.is_empty() {
            let (i, blob_at) = blobs[at(pick, blobs.len())];
            let err = Checkpoint::decode(&flipped(&c.bytes, i, bit)).unwrap_err().to_string();
            prop_assert!(err.contains("checksum mismatch"), "{}", err);
            prop_assert!(err.contains(&format!("blob at byte offset {blob_at}")), "{}", err);
        }
    }

    /// A flipped bit in a record's head — `unit NAME NFILES` or `file NAME`
    /// — is an error naming a byte offset, never a unit replayed under
    /// another name.
    #[test]
    fn flipped_checkpoint_head_byte_is_rejected(
        seed in 0u64..u64::MAX,
        pick in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let c = campaign(seed);
        let heads: Vec<usize> = layout(&c).heads.into_iter().flatten().collect();
        if !heads.is_empty() {
            let i = heads[at(pick, heads.len())];
            let err = Checkpoint::decode(&flipped(&c.bytes, i, bit)).unwrap_err().to_string();
            prop_assert!(err.contains("byte offset"), "{}", err);
        }
    }

    /// A flipped bit anywhere in a header — format line, key fields, other
    /// fields, the checksum line — is an error, for every framed kind.
    #[test]
    fn flipped_header_byte_is_rejected(
        seed in 0u64..u64::MAX,
        pick in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let header_len = |bytes: &[u8]| {
            let sum = bytes.windows(5).position(|w| w == b"\nsum ").unwrap() + 1;
            sum + bytes[sum..].iter().position(|&b| b == b'\n').unwrap() + 1
        };
        let c = campaign(seed);
        let i = at(pick, header_len(&c.bytes));
        prop_assert!(Checkpoint::decode(&flipped(&c.bytes, i, bit)).is_err());
        let snap = snapshot(seed).encode();
        let i = at(pick, header_len(&snap));
        prop_assert!(Snapshot::decode(&flipped(&snap, i, bit)).is_err());
        let journal = journal(seed);
        let i = at(pick, header_len(&journal));
        prop_assert!(Journal::decode(&flipped(&journal, i, bit)).is_err());
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
            campaign(seed).bytes,
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

    /// A generated snapshot parses and builds; truncated, bit-flipped and
    /// spliced, it still returns a topology or a `CaidaError`.
    #[test]
    fn mutated_caida_snapshot_never_panics(
        seed in 0u64..u64::MAX,
        a in 0.0f64..1.0,
        b in 0.0f64..1.0,
        len in 1usize..64,
        bit in 0u8..8,
    ) {
        let text = caida_text(seed);
        let graph = parse_caida(&text).expect("a generated snapshot parses");
        let topo = build_from_snapshot(&text, &caida_cfg(seed)).expect("and builds");
        prop_assert_eq!(graph.asns.len(), topo.as_count());
        let bytes = text.into_bytes();
        let n = bytes.len();
        read_caida(&bytes[..at(a, n)], seed);
        read_caida(&flipped(&bytes, at(a, n), bit), seed);
        read_caida(&spliced(&bytes, at(a, n), len, at(b, n), true), seed);
        read_caida(&spliced(&bytes, at(a, n), len, at(b, n), false), seed);
    }
}

/// The named CAIDA cases: each is a `CaidaError` naming its line, or (an
/// identical repeat) the line is dropped.
#[test]
fn crafted_caida_lines_are_rejected_or_deduplicated() {
    let syntax = |text: &str, want: &str| match parse_caida(text) {
        Err(CaidaError::Syntax { line: 2, msg }) => assert!(msg.contains(want), "{text:?}: {msg}"),
        other => panic!("{text:?}: {other:?}"),
    };
    syntax("1|2|-1\n3|3|-1\n", "self-loop on AS3");
    syntax("1|2|-1\n2|3|1\n", "unknown relationship code \"1\"");
    syntax("1|2|-1\n2|3|-2\n", "unknown relationship code \"-2\"");
    syntax("1|2|-1\n2|3|\n", "unknown relationship code \"\"");
    syntax("1|2|-1\n2|4294967296|-1\n", "bad ASN \"4294967296\"");
    syntax("1|2|-1\n2|3\n", "expected 3 '|'-separated fields, got 2");
    let repeated = parse_caida("1|2|-1\n1|2|-1\n2|3|0\n3|2|0\n").expect("repeats are dropped");
    assert_eq!(repeated.edges.len(), 2);
    for text in ["1|2|-1\n2|1|-1\n", "1|2|-1\n1|2|0\n"] {
        match parse_caida(text) {
            Err(CaidaError::Conflict { line: 2, .. }) => {}
            other => panic!("{text:?}: {other:?}"),
        }
    }
    // Non-UTF-8 bytes fail to read, named as an I/O error.
    let dir = std::env::temp_dir().join(format!("bb_caida_utf8_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("as-rel.txt");
    std::fs::write(&path, b"1|2|-1\n\xff\xfe|3|-1\n").unwrap();
    match load_snapshot_file(&path, &caida_cfg(1)) {
        Err(CaidaError::Io(e)) => assert!(e.contains("as-rel.txt"), "{e}"),
        other => panic!("non-UTF-8 snapshot: {:?}", other.map(|t| t.as_count())),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `repro calib --snapshot` over damaged snapshots: every run builds a
/// world and succeeds (exit 0) or names a usage error (exit 2), never
/// panics (exit 101).
#[test]
fn repro_on_a_mutated_caida_snapshot_exits_0_or_2() {
    let dir = std::env::temp_dir().join(format!("bb_caida_repro_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut g = Gen::new(0xca1d);
    let mut exits = Vec::new();
    for case in 0..25u64 {
        let bytes = caida_text(case).into_bytes();
        let n = bytes.len() as u64;
        let (i, j) = (g.below(n) as usize, g.below(n) as usize);
        let damaged = match case % 5 {
            0 => bytes[..i].to_vec(),
            // Cut after a whole line: a smaller snapshot that still parses.
            1 => bytes[..=i + bytes[i..].iter().position(|&b| b == b'\n').unwrap()].to_vec(),
            2 => flipped(&bytes, i, g.below(8) as u8),
            3 => spliced(&bytes, i, 1 + g.below(32) as usize, j, true),
            _ => b"1|2|-1\n\xff|3|-1\n".to_vec(),
        };
        let path = dir.join(format!("case{case}.txt"));
        std::fs::write(&path, &damaged).unwrap();
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["calib", "--scale", "test", "--snapshot"])
            .arg(&path)
            .env_remove("BB_INJECT")
            .output()
            .expect("spawn repro");
        let code = out.status.code();
        assert!(
            matches!(code, Some(0 | 2)),
            "case {case} exited {code:?}:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        exits.push(code);
    }
    // Both outcomes occur, so the cases reach past the parser.
    assert!(
        exits.contains(&Some(0)) && exits.contains(&Some(2)),
        "{exits:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The header `repro calib --scale test --seed 42 --checkpoint` writes.
const CALIB_HEADER: &str = "bbck/v2\nseed 42\nscale test\nfaults off\nexperiments calib\n\
                            csv 0\ncode_schema 1\nsum 8fd23227b7c455e0\n";

#[test]
fn crafted_huge_blob_length_is_rejected() {
    let bytes = format!("{CALIB_HEADER}unit calib 0 18446744073709551615 0\nend\n");
    let err = Checkpoint::decode(bytes.as_bytes()).unwrap_err().to_string();
    assert!(err.contains("impossible length"), "{err}");
    assert!(err.contains("unit calib"), "{err}");
}

#[test]
fn crafted_huge_file_count_is_rejected() {
    let bytes = format!("{CALIB_HEADER}unit calib 99999999999999999 0 888277013a417429\n\nend\n");
    let err = Checkpoint::decode(bytes.as_bytes()).unwrap_err().to_string();
    assert!(err.contains("expected `file` in unit calib"), "{err}");
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

/// An exact-mode state blob of one target and one well-formed row that
/// claims `routes` routes and carries every value they need.
fn one_row_state(routes: u32) -> Vec<u8> {
    let mut bytes = b"bbsv/v1\n".to_vec();
    bytes.push(0); // exact mode
    bytes.extend_from_slice(&0f64.to_bits().to_le_bytes());
    bytes.extend_from_slice(&1u64.to_le_bytes()); // windows_done
    bytes.extend_from_slice(&1u32.to_le_bytes()); // targets
    bytes.extend_from_slice(&1u32.to_le_bytes()); // rows of target 0
    for field in [0u32, 3, 7, routes] {
        bytes.extend_from_slice(&field.to_le_bytes()); // window, pop, prefix, routes
    }
    for _ in 0..routes {
        bytes.extend_from_slice(&40f64.to_bits().to_le_bytes()); // medians
    }
    for _ in 0..routes {
        bytes.extend_from_slice(&0.5f64.to_bits().to_le_bytes()); // utils
    }
    for _ in 0..routes {
        bytes.extend_from_slice(&5u32.to_le_bytes()); // samples
    }
    bytes.extend_from_slice(&1f64.to_bits().to_le_bytes()); // volume
    bytes
}

#[test]
fn crafted_row_of_four_routes_is_rejected() {
    let fits = one_row_state(MAX_ROUTES as u32);
    assert_eq!(ServeState::decode(&fits).expect("a 3-route row").encode(), fits);
    let err = ServeState::decode(&one_row_state(MAX_ROUTES as u32 + 1))
        .unwrap_err()
        .to_string();
    assert!(err.contains("corrupt serve state"), "{err}");
}
