//! Streaming campaign state for `repro serve`.
//!
//! A serve run advances the §3.1 spray campaign window by window on a
//! simulated clock, forever. The batch pipeline retains every
//! [`WindowRow`] and analyzes at the end; a daemon cannot, so serve runs
//! in one of two modes:
//!
//! * **Exact** (`--epsilon 0`): retain every row, exactly like batch.
//!   Memory grows linearly with windows, and the final figure is computed
//!   by the *batch* analyzer ([`crate::study_egress::analyze`]) over the
//!   accumulated dataset — byte-identical to a batch run over the same
//!   windows by construction.
//! * **Sketch** (`--epsilon ε > 0`): fold each window into fixed-size
//!   mergeable [`QuantileSketch`]es per ⟨PoP, prefix⟩ group (one for the
//!   preferred−best-alternate diff, one per route median — the paper's
//!   ⟨PoP, prefix, route⟩ aggregation key). Memory is O(1) per key no
//!   matter how many windows stream through; the figure carries a
//!   declared ε and an explicit sketch-mode disclosure.
//!
//! Both representations serialize to a canonical binary blob
//! ([`ServeState::encode`]) carried inside the `bbsn/v2` snapshot, and each
//! epoch's rows to a record that [`EpochStore`] appends to the `bbjn/v2`
//! journal ([`crate::snapshot`]). Every float crosses as raw IEEE bits, so
//! a kill-and-resume run —
//! snapshot decoded, journal records replayed through
//! [`ServeState::ingest`] — reconstructs bit-identical accumulator state
//! and its eventual output matches an uninterrupted run byte for byte.
//!
//! The [`Governor`] is the degraded-mode lever: when sketch memory
//! (counter-based accounting, no allocator hooks) crosses the high-water
//! mark it coarsens every sketch one level — halving memory, doubling ε —
//! rather than letting the daemon grow toward an OOM kill. Decisions land
//! only at epoch boundaries, which the snapshot key pins, so degradation
//! is as deterministic and resumable as everything else.

use crate::error::{BbError, BbResult};
use crate::export::AppendFile;
use crate::figures::{Coverage, Fig1};
use crate::framed;
use crate::snapshot::{
    save_in, Journal, ServeKey, Snapshot, COMPACT_RATIO, JOURNAL_FORMAT, JOURNAL_NAME,
    SNAPSHOT_NAME,
};
use crate::study_egress::{Fig1Point, WindowGate};
use bb_measure::{RouteVals, SprayTarget, WindowRow, MAX_ROUTES};
use bb_netsim::Window;
use bb_stats::QuantileSketch;
use std::path::{Path, PathBuf};

/// How a serve run aggregates the window stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServeMode {
    /// Retain every row; final figure via the batch analyzer.
    Exact,
    /// Bounded-memory sketches with declared relative error `eps`.
    Sketch { eps: f64 },
}

impl ServeMode {
    /// `--epsilon` flag value → mode (`0` = exact).
    pub fn from_eps(eps: f64) -> ServeMode {
        if eps == 0.0 {
            ServeMode::Exact
        } else {
            ServeMode::Sketch { eps }
        }
    }

    pub fn eps(&self) -> f64 {
        match self {
            ServeMode::Exact => 0.0,
            ServeMode::Sketch { eps } => *eps,
        }
    }
}

/// Bounded-memory aggregate of one ⟨PoP, prefix⟩ group (sketch mode).
#[derive(Debug, Clone, PartialEq)]
struct GroupSketch {
    /// Per-window preferred − best-alternate diffs, weight 1 per window
    /// (the batch analyzer's `window_diffs`, sketched).
    diff: QuantileSketch,
    /// Per-route window-median sketches — the ⟨PoP, prefix, route⟩ keys.
    routes: Vec<QuantileSketch>,
    /// Total traffic volume of kept windows (sequential accumulation in
    /// window order: chunking never reorders it, so resume is
    /// bit-identical).
    volume: f64,
    /// Windows with ≥2 routes (the batch analyzer's denominator).
    windows_total: u64,
    /// Windows where preferred and an alternate both survived.
    windows_kept: u64,
}

impl GroupSketch {
    fn new(eps: f64, n_routes: usize) -> Self {
        GroupSketch {
            diff: QuantileSketch::new(eps),
            routes: (0..n_routes).map(|_| QuantileSketch::new(eps)).collect(),
            volume: 0.0,
            windows_total: 0,
            windows_kept: 0,
        }
    }
}

/// Per-target accumulated state, exact or sketched.
#[derive(Debug, Clone, PartialEq)]
enum Repr {
    Exact { rows: Vec<Vec<WindowRow>> },
    Sketch { groups: Vec<GroupSketch> },
}

/// The full accumulated state of a serve run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeState {
    mode: ServeMode,
    repr: Repr,
    /// Windows fully ingested (across all targets).
    windows_done: u64,
}

/// A serve run picked up by [`ServeState::resume`]: its checked state, the
/// epochs and coarsening rounds flushed before the restart, and the store
/// that persists the epochs after it.
#[derive(Debug)]
pub struct Resumed {
    pub state: ServeState,
    pub epochs: u64,
    pub coarsenings: u64,
    /// Journal records replayed on top of the snapshot.
    pub replayed: u64,
    /// Bytes of a torn last journal record, truncated away.
    pub torn_bytes: u64,
    pub store: EpochStore,
}

/// Serialization magic for [`ServeState::encode`].
const STATE_MAGIC: &[u8; 8] = b"bbsv/v1\n";

/// Governor coarsening never pushes a sketch past this level: each level
/// halves the buckets, so 16 levels reduce any realistic sketch to a
/// handful of buckets and further rounds would only destroy accuracy
/// without freeing measurable memory.
const MAX_COARSEN_LEVEL: u32 = 16;

impl ServeState {
    /// Fresh state for `mode` over targets with the given per-target
    /// route counts (sketch mode pre-sizes one sketch per route).
    pub fn new(mode: ServeMode, route_counts: &[usize]) -> Self {
        let repr = match mode {
            ServeMode::Exact => Repr::Exact {
                rows: route_counts.iter().map(|_| Vec::new()).collect(),
            },
            ServeMode::Sketch { eps } => Repr::Sketch {
                groups: route_counts
                    .iter()
                    .map(|&n| GroupSketch::new(eps, n))
                    .collect(),
            },
        };
        ServeState {
            mode,
            repr,
            windows_done: 0,
        }
    }

    pub fn mode(&self) -> ServeMode {
        self.mode
    }

    /// Windows ingested so far.
    pub fn windows_done(&self) -> u64 {
        self.windows_done
    }

    /// Fold one sampled window chunk in. `per_target` is
    /// [`bb_measure::SprayEngine::sample_windows`] output: index-aligned
    /// with the engine's targets, rows window-ordered within each target.
    /// `n_windows` is the chunk's window count (the per-target row count).
    pub fn ingest(&mut self, per_target: Vec<Vec<WindowRow>>, n_windows: u64) {
        match &mut self.repr {
            Repr::Exact { rows } => {
                assert_eq!(rows.len(), per_target.len(), "target count changed");
                for (acc, chunk) in rows.iter_mut().zip(per_target) {
                    acc.extend(chunk);
                }
            }
            Repr::Sketch { groups } => {
                assert_eq!(groups.len(), per_target.len(), "target count changed");
                for (g, chunk) in groups.iter_mut().zip(&per_target) {
                    for row in chunk {
                        // The batch analyzer's row gate.
                        let gate = WindowGate::of(&row.route_median_ms);
                        if gate == WindowGate::NoAlternate {
                            continue;
                        }
                        g.windows_total += 1;
                        for (ri, &m) in row.route_median_ms.iter().enumerate() {
                            if m.is_finite() {
                                g.routes[ri].add(m, 1.0);
                            }
                        }
                        let WindowGate::Kept { preferred, best_alt } = gate else {
                            continue;
                        };
                        g.windows_kept += 1;
                        g.diff.add(preferred - best_alt, 1.0);
                        g.volume += row.volume;
                    }
                }
            }
        }
        self.windows_done += n_windows;
    }

    /// Encode one epoch's rows as its journal record into `out` (cleared
    /// first): the window count, a zero placeholder for the governor's
    /// coarsening rounds (bytes 8..16, which [`EpochStore::commit`] fills
    /// in), then exactly what [`ingest`](Self::ingest) reads of each row —
    /// in exact mode the whole row, in sketch mode its route medians and
    /// volume (route counts come from the state's shape). Call it before
    /// `ingest` consumes the rows.
    fn encode_record(&self, per_target: &[Vec<WindowRow>], n_windows: u64, out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(&n_windows.to_le_bytes());
        out.extend_from_slice(&0u64.to_le_bytes());
        let routes = self.record_routes();
        assert_eq!(routes.len(), per_target.len(), "target count changed");
        for (n_routes, chunk) in routes.into_iter().zip(per_target) {
            assert_eq!(chunk.len() as u64, n_windows, "one row per window and target");
            for row in chunk {
                let Some(n_routes) = n_routes else {
                    put_row(out, row);
                    continue;
                };
                assert_eq!(row.route_median_ms.len(), n_routes, "route count changed");
                for &m in &row.route_median_ms {
                    out.extend_from_slice(&m.to_bits().to_le_bytes());
                }
                out.extend_from_slice(&row.volume.to_bits().to_le_bytes());
            }
        }
    }

    /// Per target, what a record row holds: `None` for a whole exact-mode
    /// row, `Some(n)` for a sketch-mode row of `n` route medians.
    fn record_routes(&self) -> Vec<Option<usize>> {
        match &self.repr {
            Repr::Exact { rows } => vec![None; rows.len()],
            Repr::Sketch { groups } => groups.iter().map(|g| Some(g.routes.len())).collect(),
        }
    }

    /// Replay epoch `epoch`'s [`encode_record`](Self::encode_record) blob:
    /// ingest its rows, then re-apply its coarsening rounds (without
    /// consulting a governor). Returns the rounds. A record that does not
    /// fit this state's shape, or claims more rounds than the sketches can
    /// take, is an error.
    fn replay_record(&mut self, epoch: u64, blob: &[u8]) -> BbResult<u64> {
        let bad = |what: &str| {
            BbError::checkpoint(format!("corrupt journal record for epoch {epoch}: {what}"))
        };
        let mut c = ByteCursor { rest: blob, pos: 0 };
        let n_windows = c.u64().ok_or_else(|| bad("missing window count"))?;
        let rounds = c.u64().ok_or_else(|| bad("missing coarsening rounds"))?;
        // Row counts come off the record: rows are read one at a time, so a
        // damaged count runs out of bytes, not out of memory.
        let mut per_target = Vec::new();
        for n_routes in self.record_routes() {
            let mut chunk = Vec::new();
            for _ in 0..n_windows {
                let row = match n_routes {
                    None => c.row(),
                    Some(n) => c.sketch_row(n),
                };
                chunk.push(row.ok_or_else(|| bad("truncated row"))?);
            }
            per_target.push(chunk);
        }
        if c.pos != c.rest.len() {
            return Err(bad("trailing bytes"));
        }
        if self.windows_done.checked_add(n_windows).is_none() {
            return Err(bad("window count overflows"));
        }
        self.ingest(per_target, n_windows);
        for round in 0..rounds {
            if !self.coarsen_all() {
                return Err(bad(&format!(
                    "{rounds} coarsening rounds recorded, but the sketches bottomed out \
                     after {round}"
                )));
            }
        }
        Ok(rounds)
    }

    /// Resident memory of the accumulated state, in bytes — counter-based
    /// accounting (struct sizes + sketch bucket counts), the governor's
    /// input. Exact mode reports its (unbounded) retained-row footprint so
    /// the telemetry makes the mode trade-off visible.
    pub fn resident_bytes(&self) -> u64 {
        match &self.repr {
            Repr::Exact { rows } => rows
                .iter()
                .map(|r| {
                    r.iter()
                        .map(|row| 96 + 20 * row.route_median_ms.len() as u64)
                        .sum::<u64>()
                })
                .sum(),
            Repr::Sketch { groups } => groups
                .iter()
                .map(|g| {
                    48 + g.diff.resident_bytes()
                        + g.routes.iter().map(|s| s.resident_bytes()).sum::<u64>()
                })
                .sum(),
        }
    }

    /// Coarsen every sketch one level (sketch mode; no-op in exact mode).
    /// Returns `true` if anything changed.
    pub fn coarsen_all(&mut self) -> bool {
        match &mut self.repr {
            Repr::Exact { .. } => false,
            Repr::Sketch { groups } => {
                let mut any = false;
                for g in groups.iter_mut() {
                    for s in std::iter::once(&mut g.diff).chain(g.routes.iter_mut()) {
                        if s.level() < MAX_COARSEN_LEVEL {
                            s.coarsen();
                            any = true;
                        }
                    }
                }
                any
            }
        }
    }

    /// The ε currently in force (grows as the governor coarsens); `0` in
    /// exact mode.
    pub fn current_eps(&self) -> f64 {
        match &self.repr {
            Repr::Exact { .. } => 0.0,
            Repr::Sketch { groups } => groups
                .iter()
                .flat_map(|g| std::iter::once(&g.diff).chain(g.routes.iter()))
                .map(|s| s.eps())
                .fold(self.mode.eps(), f64::max),
        }
    }

    /// Exact mode: surrender the retained rows, flattened target-major
    /// (the batch `spray()` row order), for the batch analyzer. Errors in
    /// sketch mode — the rows were never retained.
    pub fn into_rows(self) -> BbResult<Vec<WindowRow>> {
        match self.repr {
            Repr::Exact { rows } => Ok(rows.into_iter().flatten().collect()),
            Repr::Sketch { .. } => Err(BbError::checkpoint(
                "serve state is a sketch: retained rows were never kept \
                 (run with --epsilon 0 for exact mode)"
            )),
        }
    }

    /// Sketch mode: build Figure 1 from the group sketches.
    ///
    /// Per group, the point estimate is the sketched median diff and the
    /// band is the sketched interquartile range — **not** the batch
    /// bootstrap CI (a sketch retains no samples to resample), which is
    /// why the figure's render carries an explicit sketch disclosure. The
    /// headline fractions use the same CDF thresholds as the batch
    /// analyzer. Targets are only needed for their count symmetry check.
    pub fn sketch_fig1(&self, targets: &[SprayTarget]) -> BbResult<Fig1> {
        let groups = match &self.repr {
            Repr::Sketch { groups } => groups,
            Repr::Exact { .. } => {
                return Err(BbError::checkpoint(
                    "serve state is exact: use the batch analyzer, not sketch_fig1",
                ))
            }
        };
        assert_eq!(groups.len(), targets.len(), "target count changed");
        Self::fig1_of_groups(groups)
    }

    fn fig1_of_groups(groups: &[GroupSketch]) -> BbResult<Fig1> {
        let mut point = Vec::new();
        let mut band = Vec::new();
        let mut windows_total = 0u64;
        let mut windows_kept = 0u64;
        for g in groups {
            windows_total += g.windows_total;
            windows_kept += g.windows_kept;
            if g.windows_kept == 0 {
                continue;
            }
            let q = |p| g.diff.quantile(p).expect("kept windows imply data");
            point.push((q(0.5), g.volume));
            band.push((q(0.25), q(0.75), g.volume));
        }
        Fig1Point::new(&point, Coverage::new(windows_kept, windows_total))?.with_band(&band)
    }

    /// The disclosure lines a sketch-mode figure must carry: declared ε,
    /// ε in force after coarsening, and the memory bound that bought it.
    pub fn sketch_disclosure(&self) -> Option<String> {
        match &self.repr {
            Repr::Exact { .. } => None,
            Repr::Sketch { .. } => Some(format!(
                "  [sketch mode: quantiles within eps={} declared ({} in force); \
                 band is sketched IQR, not a bootstrap CI; {} resident bytes]\n",
                self.mode.eps(),
                self.current_eps(),
                self.resident_bytes()
            )),
        }
    }

    /// Pick a serve run up from the snapshot and journal in `dir`, `None`
    /// if there is no snapshot (a fresh start). The journal's records past
    /// the snapshot's epoch are replayed in order, and a torn last record
    /// is truncated from the file. A stale key, damaged bytes, an epoch
    /// out of sequence, a journal without a snapshot, or a state that
    /// disagrees with the header's window count, the key's mode or the
    /// engine's `route_counts` is an error: resuming from state we cannot
    /// trust would poison every epoch after it.
    pub fn resume(
        dir: &Path,
        key: &ServeKey,
        route_counts: &[usize],
    ) -> BbResult<Option<Resumed>> {
        let has_journal = dir.join(JOURNAL_NAME).exists();
        if !dir.join(SNAPSHOT_NAME).exists() {
            if has_journal {
                return Err(BbError::checkpoint(format!(
                    "{JOURNAL_NAME} without {SNAPSHOT_NAME}: the snapshot it extends is \
                     gone — refusing to resume"
                )));
            }
            return Ok(None);
        }
        let bytes = framed::read(dir, SNAPSHOT_NAME)?;
        let mut snap = Snapshot::decode(&bytes)?;
        snap.validate(key)?;
        let state = ServeState::decode(&std::mem::take(&mut snap.state))?;
        if state.windows_done != snap.windows_done {
            return Err(BbError::checkpoint(format!(
                "snapshot header says {} windows but state blob carries {} — \
                 refusing to resume",
                snap.windows_done,
                state.windows_done
            )));
        }
        let mut store = EpochStore::new(dir, key);
        store.snapshot = Some((snap.epochs, bytes.len() as u64));
        let mut r = Resumed {
            state,
            epochs: snap.epochs,
            coarsenings: snap.coarsenings,
            replayed: 0,
            torn_bytes: 0,
            store,
        };
        if has_journal {
            r.replay_journal(key)?;
        }
        r.state.check_shape(ServeMode::from_eps(key.eps()), route_counts)?;
        Ok(Some(r))
    }

    /// Reject a state whose mode, target count or any target's route count
    /// differs from the run resuming it: ingesting into it would index
    /// past its routes or build the wrong figure.
    fn check_shape(&self, mode: ServeMode, route_counts: &[usize]) -> BbResult<()> {
        let fits = |ti: usize, n: usize| match &self.repr {
            Repr::Exact { rows } => rows[ti].iter().all(|r| r.route_median_ms.len() == n),
            Repr::Sketch { groups } => groups[ti].routes.len() == n,
        };
        let targets = match &self.repr {
            Repr::Exact { rows } => rows.len(),
            Repr::Sketch { groups } => groups.len(),
        };
        let fitting = targets == route_counts.len()
            && route_counts.iter().enumerate().all(|(ti, &n)| fits(ti, n));
        if self.mode != mode || !fitting {
            return Err(BbError::checkpoint(format!(
                "serve state ({:?}, {targets} targets) does not match this run ({mode:?}, \
                 {} targets with their route counts) — refusing to resume",
                self.mode,
                route_counts.len()
            )));
        }
        Ok(())
    }

    /// Canonical binary encoding: every float as raw IEEE bits, sketches
    /// via their own canonical codec. Equal state ⇒ equal bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(STATE_MAGIC);
        out.push(match self.mode {
            ServeMode::Exact => 0,
            ServeMode::Sketch { .. } => 1,
        });
        out.extend_from_slice(&self.mode.eps().to_bits().to_le_bytes());
        out.extend_from_slice(&self.windows_done.to_le_bytes());
        match &self.repr {
            Repr::Exact { rows } => {
                out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
                for target_rows in rows {
                    out.extend_from_slice(&(target_rows.len() as u32).to_le_bytes());
                    for row in target_rows {
                        put_row(&mut out, row);
                    }
                }
            }
            Repr::Sketch { groups } => {
                out.extend_from_slice(&(groups.len() as u32).to_le_bytes());
                for g in groups {
                    out.extend_from_slice(&g.windows_total.to_le_bytes());
                    out.extend_from_slice(&g.windows_kept.to_le_bytes());
                    out.extend_from_slice(&g.volume.to_bits().to_le_bytes());
                    let diff = g.diff.encode();
                    out.extend_from_slice(&(diff.len() as u32).to_le_bytes());
                    out.extend_from_slice(&diff);
                    out.extend_from_slice(&(g.routes.len() as u32).to_le_bytes());
                    for s in &g.routes {
                        let b = s.encode();
                        out.extend_from_slice(&(b.len() as u32).to_le_bytes());
                        out.extend_from_slice(&b);
                    }
                }
            }
        }
        out
    }

    /// Decode [`encode`](Self::encode)'s output. Strict: any structural
    /// mismatch rejects (the blob travels inside a checksummed snapshot,
    /// so damage here means a codec bug or foreign bytes). Counts come off
    /// the blob, so nothing is preallocated from them: a damaged count
    /// runs out of bytes instead of out of memory.
    pub fn decode(bytes: &[u8]) -> BbResult<ServeState> {
        let bad = |what: &str| BbError::checkpoint(format!("corrupt serve state: {what}"));
        let rest = bytes
            .strip_prefix(STATE_MAGIC.as_slice())
            .ok_or_else(|| bad("bad magic"))?;
        let mut c = ByteCursor { rest, pos: 0 };
        let mode_tag = c.u8().ok_or_else(|| bad("missing mode"))?;
        let eps = f64::from_bits(c.u64().ok_or_else(|| bad("missing eps"))?);
        let windows_done = c.u64().ok_or_else(|| bad("missing windows_done"))?;
        let n_targets = c.u32().ok_or_else(|| bad("missing target count"))? as usize;
        let (mode, repr) = match mode_tag {
            0 => {
                let mut rows = Vec::new();
                for _ in 0..n_targets {
                    let n_rows = c.u32().ok_or_else(|| bad("missing row count"))? as usize;
                    let mut target_rows = Vec::new();
                    for _ in 0..n_rows {
                        target_rows.push(c.row().ok_or_else(|| bad("truncated row"))?);
                    }
                    rows.push(target_rows);
                }
                (ServeMode::Exact, Repr::Exact { rows })
            }
            1 => {
                let mut groups = Vec::new();
                for _ in 0..n_targets {
                    let windows_total = c.u64().ok_or_else(|| bad("group windows_total"))?;
                    let windows_kept = c.u64().ok_or_else(|| bad("group windows_kept"))?;
                    let volume = f64::from_bits(c.u64().ok_or_else(|| bad("group volume"))?);
                    let diff_len = c.u32().ok_or_else(|| bad("diff sketch length"))? as usize;
                    let diff = QuantileSketch::decode(
                        c.take(diff_len).ok_or_else(|| bad("diff sketch bytes"))?,
                    )
                    .ok_or_else(|| bad("diff sketch"))?;
                    let n_routes = c.u32().ok_or_else(|| bad("route sketch count"))? as usize;
                    let mut routes = Vec::new();
                    for _ in 0..n_routes {
                        let len = c.u32().ok_or_else(|| bad("route sketch length"))? as usize;
                        routes.push(
                            QuantileSketch::decode(
                                c.take(len).ok_or_else(|| bad("route sketch bytes"))?,
                            )
                            .ok_or_else(|| bad("route sketch"))?,
                        );
                    }
                    groups.push(GroupSketch {
                        diff,
                        routes,
                        volume,
                        windows_total,
                        windows_kept,
                    });
                }
                (ServeMode::Sketch { eps }, Repr::Sketch { groups })
            }
            other => return Err(bad(&format!("unknown mode tag {other}"))),
        };
        if c.pos != c.rest.len() {
            return Err(bad("trailing bytes"));
        }
        if mode.eps() != eps {
            return Err(bad("mode/eps disagreement"));
        }
        Ok(ServeState {
            mode,
            repr,
            windows_done,
        })
    }
}

/// One row in the exact-mode encoding: window, PoP, prefix, route count,
/// then per route its median, utilization and sample count, then volume.
fn put_row(out: &mut Vec<u8>, row: &WindowRow) {
    out.extend_from_slice(&row.window.0.to_le_bytes());
    out.extend_from_slice(&row.pop.0.to_le_bytes());
    out.extend_from_slice(&row.prefix.0.to_le_bytes());
    out.extend_from_slice(&(row.route_median_ms.len() as u32).to_le_bytes());
    for &m in &row.route_median_ms {
        out.extend_from_slice(&m.to_bits().to_le_bytes());
    }
    for &u in &row.route_util {
        out.extend_from_slice(&u.to_bits().to_le_bytes());
    }
    for &n in &row.route_samples {
        out.extend_from_slice(&n.to_le_bytes());
    }
    out.extend_from_slice(&row.volume.to_bits().to_le_bytes());
}

struct ByteCursor<'a> {
    rest: &'a [u8],
    pos: usize,
}

impl<'a> ByteCursor<'a> {
    fn u8(&mut self) -> Option<u8> {
        let b = *self.rest.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }
    fn u32(&mut self) -> Option<u32> {
        let chunk: [u8; 4] = self.rest.get(self.pos..self.pos + 4)?.try_into().ok()?;
        self.pos += 4;
        Some(u32::from_le_bytes(chunk))
    }
    fn u64(&mut self) -> Option<u64> {
        let chunk: [u8; 8] = self.rest.get(self.pos..self.pos + 8)?.try_into().ok()?;
        self.pos += 8;
        Some(u64::from_le_bytes(chunk))
    }
    fn take(&mut self, len: usize) -> Option<&'a [u8]> {
        let b = self.rest.get(self.pos..self.pos + len)?;
        self.pos += len;
        Some(b)
    }
    fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }
    /// A [`put_row`] row. Its route count comes off the bytes; one above
    /// [`MAX_ROUTES`] is damage, never a row.
    fn row(&mut self) -> Option<WindowRow> {
        let window = Window(self.u32()?);
        let pop = bb_geo::CityId(self.u32()?);
        let prefix = bb_workload::PrefixId(self.u32()?);
        let n_routes = self.u32()? as usize;
        if n_routes > MAX_ROUTES {
            return None;
        }
        let route_median_ms = (0..n_routes).map(|_| self.f64()).collect::<Option<_>>()?;
        let route_util = (0..n_routes).map(|_| self.f64()).collect::<Option<_>>()?;
        let route_samples = (0..n_routes).map(|_| self.u32()).collect::<Option<_>>()?;
        Some(WindowRow {
            window,
            pop,
            prefix,
            route_median_ms,
            route_util,
            route_samples,
            volume: self.f64()?,
        })
    }
    /// A sketch-mode record row: `n_routes` medians and the volume — all
    /// that sketch-mode [`ServeState::ingest`] reads, so the rest is left
    /// empty. `n_routes` comes off a decoded state, so one above
    /// [`MAX_ROUTES`] is damage too.
    fn sketch_row(&mut self, n_routes: usize) -> Option<WindowRow> {
        if n_routes > MAX_ROUTES {
            return None;
        }
        Some(WindowRow {
            window: Window(0),
            pop: bb_geo::CityId(0),
            prefix: bb_workload::PrefixId(0),
            route_median_ms: (0..n_routes).map(|_| self.f64()).collect::<Option<_>>()?,
            route_util: RouteVals::default(),
            route_samples: RouteVals::default(),
            volume: self.f64()?,
        })
    }
}

impl Resumed {
    /// Replay the journal's records past the snapshot into the state and
    /// leave the store ready to append after the last intact one.
    fn replay_journal(&mut self, key: &ServeKey) -> BbResult<()> {
        let dir = self.store.dir.clone();
        let bytes = framed::read(&dir, JOURNAL_NAME)?;
        let journal = Journal::decode(&bytes)?;
        framed::validate(&JOURNAL_FORMAT, &journal.key, key)?;
        let (base, snapshot_epoch) = (journal.base_epoch, self.epochs);
        if base > snapshot_epoch {
            return Err(BbError::checkpoint(format!(
                "journal extends epoch {base}, but the snapshot is at epoch \
                 {snapshot_epoch} — refusing to resume"
            )));
        }
        // Records at or below the snapshot's epoch were folded into it by
        // a compaction that crashed before resetting the journal.
        for &(epoch, blob) in journal.records.iter().filter(|r| r.0 > snapshot_epoch) {
            if base < snapshot_epoch {
                return Err(BbError::checkpoint(format!(
                    "journal based on epoch {base} carries epoch {epoch}, past the \
                     snapshot's epoch {snapshot_epoch} — refusing to resume"
                )));
            }
            self.coarsenings += self.state.replay_record(epoch, blob)?;
            self.epochs = epoch;
            self.replayed += 1;
        }
        self.torn_bytes = (bytes.len() - journal.intact_len) as u64;
        // A journal based on an older snapshot is replaced by the next
        // append; one based on this snapshot is appended to, after its
        // torn tail (if any) is cut off.
        if base == snapshot_epoch {
            let path = dir.join(JOURNAL_NAME);
            let torn = self.torn_bytes > 0;
            self.store.journal = Some(AppendFile::reopen(&path, journal.intact_len as u64, torn)?);
        }
        Ok(())
    }
}

/// What [`EpochStore::commit`] wrote for one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flush {
    /// A snapshot: the first epoch with none on disk.
    Snapshot,
    /// One journal record, `bytes` long with its record line.
    Journal { bytes: u64 },
    /// A snapshot of the whole state, then a header-only journal.
    Compaction,
}

/// A serve run's epochs on disk: the last snapshot, plus the journal of
/// the epochs flushed since (see [`crate::snapshot`]).
#[derive(Debug)]
pub struct EpochStore {
    dir: PathBuf,
    key: ServeKey,
    /// Epoch and byte size of the snapshot on disk; `None` before the first.
    snapshot: Option<(u64, u64)>,
    /// The journal open for appends; `None` when the next record must
    /// create it (none yet, or it extends an older snapshot).
    journal: Option<AppendFile>,
    /// The staged epoch record, reused across epochs.
    record: Vec<u8>,
}

impl EpochStore {
    /// A store for a fresh run in `dir` (no snapshot yet).
    pub fn new(dir: &Path, key: &ServeKey) -> Self {
        EpochStore {
            dir: dir.to_path_buf(),
            key: key.clone(),
            snapshot: None,
            journal: None,
            record: Vec::new(),
        }
    }

    /// Encode the epoch's rows as its journal record — exactly what
    /// [`ServeState::ingest`] reads of them — before `ingest` consumes them.
    pub fn stage(&mut self, state: &ServeState, per_target: &[Vec<WindowRow>], n_windows: u64) {
        state.encode_record(per_target, n_windows, &mut self.record);
    }

    /// Persist epoch `epoch`, whose staged rows `state` has ingested and
    /// whose governor applied `rounds` coarsening rounds (`coarsenings` in
    /// all). Appends the staged record to the journal, or writes a
    /// snapshot when there is none yet or the journal would outgrow
    /// [`COMPACT_RATIO`] times the last one. An error comes with the
    /// write that failed; the epochs flushed before it stay intact.
    pub fn commit(
        &mut self,
        state: &ServeState,
        epoch: u64,
        coarsenings: u64,
        rounds: u64,
    ) -> Result<Flush, (&'static str, BbError)> {
        self.record[8..16].copy_from_slice(&rounds.to_le_bytes());
        let head = Journal::record_head(epoch, &self.record);
        let bytes = (head.len() + self.record.len() + 1) as u64;
        if let Some((base, snapshot_len)) = self.snapshot {
            let journal_len = match &self.journal {
                Some(journal) => journal.len(),
                None => Journal::header(&self.key, base).len() as u64,
            };
            if journal_len + bytes <= COMPACT_RATIO * snapshot_len {
                self.append(base, &head).map_err(|e| ("journal append", e))?;
                return Ok(Flush::Journal { bytes });
            }
        }
        let snap = Snapshot {
            key: self.key.clone(),
            windows_done: state.windows_done(),
            epochs: epoch,
            coarsenings,
            state: state.encode(),
        }
        .encode();
        save_in(&self.dir, SNAPSHOT_NAME, &snap).map_err(|e| ("snapshot flush", e))?;
        let compaction = self.snapshot.is_some();
        self.snapshot = Some((epoch, snap.len() as u64));
        self.journal = None;
        if !compaction {
            return Ok(Flush::Snapshot);
        }
        let header = Journal::header(&self.key, epoch);
        let journal = AppendFile::create(&self.dir.join(JOURNAL_NAME), &header)
            .map_err(|e| ("journal reset", e))?;
        self.journal = Some(journal);
        Ok(Flush::Compaction)
    }

    /// Append the staged record under its record line `head`, creating
    /// the journal (based on snapshot epoch `base`) if the store has none
    /// open.
    fn append(&mut self, base: u64, head: &str) -> BbResult<()> {
        if let Some(journal) = &mut self.journal {
            return journal.append(&[head.as_bytes(), &self.record, b"\n"]);
        }
        let header = Journal::header(&self.key, base);
        let bytes = [&header, head.as_bytes(), &self.record, b"\n"].concat();
        self.journal = Some(AppendFile::create(&self.dir.join(JOURNAL_NAME), &bytes)?);
        Ok(())
    }
}

/// High-water memory backpressure for sketch-mode serve runs.
///
/// Counter-based accounting only ([`ServeState::resident_bytes`]): no
/// allocator hooks, no sampling, so the decision is a pure function of
/// state and therefore deterministic and resumable. When the state
/// crosses `limit_bytes`, every sketch coarsens one level per round until
/// the state fits or coarsening bottoms out. Exact mode is never
/// coarsened — its growth is the documented price of `--epsilon 0`.
#[derive(Debug, Clone, Copy)]
pub struct Governor {
    pub limit_bytes: u64,
}

impl Governor {
    pub fn new(limit_bytes: u64) -> Self {
        Governor { limit_bytes }
    }

    /// Shed resolution until the state fits. Returns coarsening rounds
    /// applied (0 = already within budget).
    pub fn enforce(&self, state: &mut ServeState) -> u64 {
        let mut rounds = 0u64;
        while state.resident_bytes() > self.limit_bytes {
            if !state.coarsen_all() {
                break; // exact mode or fully coarsened: nothing left to shed
            }
            rounds += 1;
        }
        rounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(window: u32, medians: &[f64], volume: f64) -> WindowRow {
        WindowRow {
            window: Window(window),
            pop: bb_geo::CityId(3),
            prefix: bb_workload::PrefixId(7),
            route_median_ms: medians.iter().copied().collect(),
            route_util: medians.iter().map(|_| 0.5).collect(),
            route_samples: medians.iter().map(|_| 5).collect(),
            volume,
        }
    }

    fn chunk(windows: std::ops::Range<u32>) -> Vec<Vec<WindowRow>> {
        vec![windows
            .map(|w| row(w, &[40.0 + w as f64, 38.0, 45.0], 1.5 + w as f64 * 0.1))
            .collect()]
    }

    #[test]
    fn exact_roundtrip_is_bit_identical() {
        let mut s = ServeState::new(ServeMode::Exact, &[3]);
        let mut c = chunk(0..8);
        // NaN medians (degraded windows) must roundtrip too.
        c[0][2] = row(2, &[42.0, f64::NAN, 45.0], c[0][2].volume);
        s.ingest(c, 8);
        let bytes = s.encode();
        let back = ServeState::decode(&bytes).expect("roundtrip");
        assert_eq!(back.encode(), bytes);
        assert_eq!(back.windows_done(), 8);
        let rows = back.into_rows().expect("exact mode retains rows");
        assert_eq!(rows.len(), 8);
        assert!(rows[2].route_median_ms[1].is_nan());
    }

    #[test]
    fn chunked_ingest_matches_single_ingest() {
        let mut whole = ServeState::new(ServeMode::Sketch { eps: 0.02 }, &[3]);
        whole.ingest(chunk(0..20), 20);
        let mut parts = ServeState::new(ServeMode::Sketch { eps: 0.02 }, &[3]);
        parts.ingest(chunk(0..7), 7);
        parts.ingest(chunk(7..13), 6);
        parts.ingest(chunk(13..20), 7);
        assert_eq!(whole.encode(), parts.encode());
    }

    #[test]
    fn resume_from_encoded_state_is_bit_identical() {
        let mut straight = ServeState::new(ServeMode::Sketch { eps: 0.05 }, &[3]);
        straight.ingest(chunk(0..30), 30);
        let mut first = ServeState::new(ServeMode::Sketch { eps: 0.05 }, &[3]);
        first.ingest(chunk(0..11), 11);
        let mut resumed = ServeState::decode(&first.encode()).expect("resume");
        resumed.ingest(chunk(11..30), 19);
        assert_eq!(straight.encode(), resumed.encode());
    }

    #[test]
    fn sketch_fig1_matches_exact_shape() {
        let mut s = ServeState::new(ServeMode::Sketch { eps: 0.02 }, &[3]);
        s.ingest(chunk(0..40), 40);
        let groups = match &s.repr {
            Repr::Sketch { groups } => groups,
            _ => unreachable!(),
        };
        let fig = ServeState::fig1_of_groups(groups).expect("figure");
        assert!(fig.groups == 1);
        assert!(fig.frac_improvable_5ms >= 0.0 && fig.frac_improvable_5ms <= 1.0);
        assert!(fig.coverage.kept > 0);
        // diffs are 40+w − 38 ≥ 2ms, mostly ≥ 5ms ⇒ improvable fraction high
        assert!(fig.frac_improvable_5ms > 0.5, "{}", fig.frac_improvable_5ms);
        assert!(s.sketch_disclosure().unwrap().contains("sketch mode"));
    }

    #[test]
    fn governor_sheds_to_coarser_sketches_never_grows() {
        let mut s = ServeState::new(ServeMode::Sketch { eps: 0.005 }, &[3]);
        s.ingest(chunk(0..60), 60);
        let before = s.resident_bytes();
        let gov = Governor::new(before / 2);
        let rounds = gov.enforce(&mut s);
        assert!(rounds >= 1);
        assert!(s.resident_bytes() < before);
        assert!(s.current_eps() > 0.005);
        // Exact mode: governor must refuse to touch it.
        let mut e = ServeState::new(ServeMode::Exact, &[3]);
        e.ingest(chunk(0..60), 60);
        assert_eq!(Governor::new(1).enforce(&mut e), 0);
    }

    #[test]
    fn mode_mismatch_calls_are_rejected() {
        let s = ServeState::new(ServeMode::Exact, &[3]);
        assert!(s.sketch_fig1(&[]).is_err());
        let s = ServeState::new(ServeMode::Sketch { eps: 0.1 }, &[3]);
        assert!(s.into_rows().is_err());
    }

    #[test]
    fn resume_checks_mode_and_route_counts_against_the_run() {
        for mode in [ServeMode::Exact, ServeMode::Sketch { eps: 0.02 }] {
            let mut s = ServeState::new(mode, &[3, 2]);
            s.ingest(vec![chunk(0..4).remove(0), vec![row(0, &[40.0, 38.0], 1.0)]], 4);
            s.check_shape(mode, &[3, 2]).expect("matching shape");
            for routes in [&[3][..], &[3, 3], &[2, 2], &[3, 2, 1]] {
                assert!(s.check_shape(mode, routes).is_err(), "{routes:?}");
            }
            let other = ServeMode::from_eps(if mode.eps() == 0.0 { 0.02 } else { 0.0 });
            assert!(s.check_shape(other, &[3, 2]).is_err());
        }
    }

    #[test]
    fn replayed_records_match_ingest_and_governor() {
        for mode in [ServeMode::Exact, ServeMode::Sketch { eps: 0.005 }] {
            let mut live = ServeState::new(mode, &[3]);
            let mut replayed = live.clone();
            let mut record = Vec::new();
            for (i, windows) in [0..8, 8..16, 16..24].into_iter().enumerate() {
                let c = chunk(windows);
                live.encode_record(&c, 8, &mut record);
                live.ingest(c, 8);
                let gov = Governor::new(if i == 1 { live.resident_bytes() / 2 } else { u64::MAX });
                let rounds = gov.enforce(&mut live);
                record[8..16].copy_from_slice(&rounds.to_le_bytes());
                assert_eq!(replayed.replay_record(i as u64, &record).unwrap(), rounds);
                assert_eq!(replayed.encode(), live.encode(), "{mode:?} epoch {i}");
            }
            assert!(replayed.replay_record(3, &record[..record.len() - 1]).is_err());
            record.push(0);
            assert!(replayed.replay_record(3, &record).is_err());
        }
        // A record claiming more coarsening rounds than the sketches take.
        let mut s = ServeState::new(ServeMode::Sketch { eps: 0.02 }, &[3]);
        let mut record = Vec::new();
        s.encode_record(&chunk(0..2), 2, &mut record);
        record[8..16].copy_from_slice(&(MAX_COARSEN_LEVEL as u64 + 1).to_le_bytes());
        let err = s.replay_record(1, &record).unwrap_err().to_string();
        assert!(err.contains("bottomed out"), "{err}");
    }

    #[test]
    fn records_of_more_routes_than_a_row_holds_are_corrupt() {
        let routes = MAX_ROUTES + 1;
        let f64s = |n: usize| (0..n).flat_map(|_| 40f64.to_bits().to_le_bytes());
        // Sketch mode: a state whose target has 4 route sketches (only a
        // damaged snapshot can hold one) and a record of 4 medians and
        // the volume.
        let mut s = ServeState::new(ServeMode::Sketch { eps: 0.02 }, &[routes]);
        let mut record = [1u64.to_le_bytes(), 0u64.to_le_bytes()].concat();
        record.extend(f64s(routes + 1));
        let err = s.replay_record(1, &record).unwrap_err().to_string();
        assert!(err.contains("corrupt journal record for epoch 1"), "{err}");
        // Exact mode: a whole row claiming 4 routes, values and all.
        let mut e = ServeState::new(ServeMode::Exact, &[3]);
        let mut record = [1u64.to_le_bytes(), 0u64.to_le_bytes()].concat();
        for field in [0u32, 3, 7, routes as u32] {
            record.extend_from_slice(&field.to_le_bytes());
        }
        record.extend(f64s(2 * routes));
        record.extend((0..routes).flat_map(|_| 5u32.to_le_bytes()));
        record.extend(f64s(1));
        let err = e.replay_record(1, &record).unwrap_err().to_string();
        assert!(err.contains("corrupt journal record for epoch 1"), "{err}");
    }

    #[test]
    fn epoch_store_compacts_and_resumes_bit_identically() {
        let dir = std::env::temp_dir().join(format!("bb-epochs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key = ServeKey::new(1, "test", "off", 0.0, 1, false);
        let mut state = ServeState::new(ServeMode::Exact, &[3]);
        let mut store = EpochStore::new(&dir, &key);
        let mut flushes = Vec::new();
        for epoch in 1..=30u64 {
            let c = chunk(epoch as u32..epoch as u32 + 1);
            store.stage(&state, &c, 1);
            state.ingest(c, 1);
            flushes.push(store.commit(&state, epoch, 0, 0).unwrap());
            let r = ServeState::resume(&dir, &key, &[3]).unwrap().expect("resumable");
            assert_eq!((r.epochs, r.torn_bytes), (epoch, 0));
            assert_eq!(r.state.encode(), state.encode(), "epoch {epoch}");
        }
        assert_eq!(flushes[0], Flush::Snapshot);
        assert!(flushes.contains(&Flush::Compaction), "{flushes:?}");
        assert!(matches!(flushes[29], Flush::Journal { .. }), "{flushes:?}");
        // A run with another key is refused, naming the field.
        let mut other = key.clone();
        other.mem_limit = 1;
        let err = ServeState::resume(&dir, &other, &[3]).unwrap_err().to_string();
        assert!(err.contains("mem_limit mismatch"), "{err}");
        // A journal whose snapshot is gone is refused.
        std::fs::remove_file(dir.join(SNAPSHOT_NAME)).unwrap();
        assert!(ServeState::resume(&dir, &key, &[3]).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_state_is_rejected() {
        let mut s = ServeState::new(ServeMode::Sketch { eps: 0.02 }, &[2]);
        s.ingest(
            vec![vec![row(0, &[40.0, 38.0], 1.0)]],
            1,
        );
        let bytes = s.encode();
        assert!(ServeState::decode(&bytes[..bytes.len() - 1]).is_err());
        assert!(ServeState::decode(b"nope").is_err());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(ServeState::decode(&extra).is_err());
    }
}
