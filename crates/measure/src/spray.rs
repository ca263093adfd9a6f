//! Facebook-style egress spraying (§2.3.1, §3.1).
//!
//! For every client prefix we pick its serving PoP (the nearest provider
//! PoP, as the provider's global load balancer would), take BGP's top-k
//! routes from that PoP's RIB, realize each route's wire path once (routes
//! are stable over the ten days), and then sample sessions per 15-minute
//! window on every route. The output row is the paper's aggregation unit:
//! median MinRTT per ⟨PoP, prefix, route⟩ per window, plus the window's
//! traffic volume for weighting.

use bb_bgp::{provider_rib, Announcement, ProviderRouteClass};
use bb_cdn::Provider;
use bb_geo::CityId;
use crate::{KernelTally, Sampler, TaskScratch};
use bb_netsim::{
    realize_path, CongestionKey, CongestionModel, FaultPlane, MedianLanes, PathPlanBatch,
    RealizeSpec, RealizedPath, RttModel, SimTime, Window,
};
use bb_topology::{AsId, InterconnectId, Topology};
use bb_workload::{PrefixId, Workload};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Spray campaign configuration.
#[derive(Debug, Clone)]
pub struct SprayConfig {
    pub seed: u64,
    /// Campaign length in days (paper: 10).
    pub days: f64,
    /// Sample every n-th 15-minute window (1 = all 960 windows of 10 days).
    pub window_stride: u32,
    /// Sessions sampled per route per window.
    pub sessions_per_window: usize,
    /// TCP MinRTT samples per session.
    pub rtt_samples_per_session: usize,
    /// Routes sprayed per ⟨PoP, prefix⟩ (paper: top 3). At most
    /// [`MAX_ROUTES`], which rows hold inline; `SprayEngine::new` panics
    /// above it.
    pub top_k: usize,
    /// World fingerprint for the process-wide target memo. `Some(key)`
    /// lets repeat campaigns over a content-identical world (same
    /// topology/provider/workload — e.g. the xablate independent-congestion
    /// arm, which varies only congestion) reuse the first build's targets
    /// instead of recomputing routes. `None` (default) always builds. The
    /// key must capture every
    /// input that shapes the target set (see `ScenarioConfig::world_key`).
    pub targets_memo: Option<u64>,
}

impl Default for SprayConfig {
    fn default() -> Self {
        Self {
            seed: 0x_f1f0_cafe,
            days: 10.0,
            window_stride: 4,
            sessions_per_window: 7,
            rtt_samples_per_session: 5,
            top_k: 3,
            targets_memo: None,
        }
    }
}

/// Process-wide spray-target memo, keyed on
/// `(world fingerprint, provider AS, top_k)`.
static TARGET_CACHE: OnceLock<Mutex<HashMap<(u64, u64, usize), Arc<Vec<SprayTarget>>>>> =
    OnceLock::new();

fn cached_targets(
    world_key: u64,
    topo: &Topology,
    provider: &Provider,
    workload: &Workload,
    top_k: usize,
) -> Arc<Vec<SprayTarget>> {
    let cache = TARGET_CACHE.get_or_init(Default::default);
    let key = (world_key, provider.asn.0 as u64, top_k);
    let mut cache = cache.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(t) = cache.get(&key) {
        bb_exec::timing::add_count("kernel:targets_memo_hits", 1);
        return Arc::clone(t);
    }
    let t = Arc::new(build_targets(topo, provider, workload, top_k));
    cache.insert(key, Arc::clone(&t));
    t
}

/// Per target, the jitter term of every (window, route) median,
/// window-major: `table[ti][wi * routes + ri]`.
type JitterTable = Vec<Vec<f64>>;

/// Everything the jitter term of a window median depends on. Congestion is
/// absent on purpose: it enters the median only through `det`, so campaigns
/// that differ only in congestion share one table. The jitter model is
/// absent because every campaign runs `RttModel::default()`. The memo's
/// `HashMap` compares whole keys by equality, never by hash alone.
#[derive(PartialEq, Eq, Hash)]
struct JitterKey {
    seed: u64,
    sessions_per_window: usize,
    rtt_samples_per_session: usize,
    /// Routes per target, in target order.
    routes: Vec<usize>,
    windows: Vec<Window>,
}

/// Process-wide jitter memo of whole-campaign calls. One cell per key, so
/// concurrent campaigns of the same shape run the jitter pass once and
/// campaigns of different shapes never wait on each other.
static JITTER_CACHE: OnceLock<Mutex<HashMap<JitterKey, Arc<OnceLock<Arc<JitterTable>>>>>> =
    OnceLock::new();

/// Targets per `par_map` of the window loop. `spray` moves each chunk's
/// rows into its output before sampling the next, so at most one chunk's
/// per-target vectors sit beside the output.
const TARGET_CHUNK: usize = 64;

/// RNG seed of one (window, target, route) cell: sampling is keyed on the
/// cell, never on worker schedule or call chunking. Chained SplitMix64
/// mixing keeps the streams of adjacent cells uncorrelated; a single
/// shift-XOR of the indices lets `ri` and `ti` bits cancel.
fn cell_seed(seed: u64, w: Window, ti: usize, ri: usize) -> u64 {
    bb_exec::derive_seed(
        bb_exec::derive_seed(bb_exec::derive_seed(seed, w.0 as u64), ti as u64),
        ri as u64,
    )
}

/// One pre-realized route of a ⟨PoP, prefix⟩.
#[derive(Debug, Clone)]
pub struct SprayRoute {
    pub egress_link: InterconnectId,
    pub class: ProviderRouteClass,
    pub path: RealizedPath,
}

/// All routes of one ⟨PoP, prefix⟩.
#[derive(Debug, Clone)]
pub struct SprayTarget {
    pub pop: CityId,
    pub prefix: PrefixId,
    pub client_as: AsId,
    pub routes: Vec<SprayRoute>,
}

/// Most routes sprayed per ⟨PoP, prefix⟩: the paper's top 3, and the cap
/// on [`SprayConfig::top_k`]. A row holds its per-route values inline.
pub const MAX_ROUTES: usize = 3;

/// Per-route values of one row, stored inline: up to [`MAX_ROUTES`]
/// values, no heap. It reads as the slice of its live values (`Deref`,
/// iteration, `Debug` and `PartialEq` all see `[T]`), so the unused tail
/// never shows.
#[derive(Clone, Copy)]
pub struct RouteVals<T> {
    len: u8,
    vals: [T; MAX_ROUTES],
}

impl<T> RouteVals<T> {
    /// Append one route's value. Panics past [`MAX_ROUTES`]: the engine
    /// caps `top_k` there, and the decoders check route counts first.
    pub fn push(&mut self, v: T) {
        assert!((self.len as usize) < MAX_ROUTES, "more than {MAX_ROUTES} routes");
        self.vals[self.len as usize] = v;
        self.len += 1;
    }
}

impl<T: Copy + Default> Default for RouteVals<T> {
    fn default() -> Self {
        RouteVals {
            len: 0,
            vals: [T::default(); MAX_ROUTES],
        }
    }
}

impl<T> std::ops::Deref for RouteVals<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.vals[..self.len as usize]
    }
}

impl<T: Copy + Default> FromIterator<T> for RouteVals<T> {
    /// Panics on more than [`MAX_ROUTES`] items.
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = RouteVals::default();
        for v in iter {
            out.push(v);
        }
        out
    }
}

impl<'a, T> IntoIterator for &'a RouteVals<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for RouteVals<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

impl<T: PartialEq> PartialEq for RouteVals<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

/// One aggregated measurement row: a fixed-size record, so a campaign's
/// rows are one flat allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowRow {
    pub window: Window,
    pub pop: CityId,
    pub prefix: PrefixId,
    /// Median MinRTT per route, in RIB policy order (index 0 = BGP
    /// preferred).
    pub route_median_ms: RouteVals<f64>,
    /// Egress-link utilization per route at the window midpoint.
    pub route_util: RouteVals<f64>,
    /// Sessions that survived the fault plane per route. Degraded routes
    /// (below the per-window minimum) carry a `NaN` median; fault-free runs
    /// always report the full session count.
    pub route_samples: RouteVals<u32>,
    /// Traffic volume of the prefix in this window (weighting).
    pub volume: f64,
}

/// The full campaign output.
#[derive(Debug, Clone)]
pub struct SprayDataset {
    pub targets: Vec<SprayTarget>,
    pub rows: Vec<WindowRow>,
}

impl SprayDataset {
    /// Route classes of one target, policy order.
    pub fn classes(&self, target: usize) -> Vec<ProviderRouteClass> {
        self.targets[target].routes.iter().map(|r| r.class).collect()
    }
}

/// A spray campaign compiled for repeated (streaming) window sampling.
///
/// `repro serve` advances windows forever; recompiling routes and plans
/// per window chunk would dominate. The engine front-loads everything the
/// per-window loop needs — targets, compiled plan batches, per-target
/// client metadata — and then
/// [`sample_windows`](Self::sample_windows) evaluates any window set
/// against it. The batch entry point [`spray`] is a thin wrapper
/// (build engine, sample the full campaign window list once), so the
/// streaming path is bit-identical to the batch path *by construction*:
/// there is only one sampling loop.
pub struct SprayEngine {
    cfg: SprayConfig,
    targets: Vec<SprayTarget>,
    batches: Vec<PathPlanBatch>,
    /// Per-target `(client UTC offset, prefix weight)` — the only
    /// workload/topology facts the window loop consumes.
    client: Vec<(f64, f64)>,
}

impl SprayEngine {
    /// Compile the campaign: targets, per-route plans, SoA batches.
    pub fn new(
        topo: &Topology,
        provider: &Provider,
        workload: &Workload,
        congestion: &CongestionModel,
        cfg: &SprayConfig,
    ) -> Self {
        // Invariant, not input validation: no flag or file sets `top_k`;
        // only code does, and rows hold at most `MAX_ROUTES` routes inline.
        assert!(
            cfg.top_k <= MAX_ROUTES,
            "top_k {} exceeds MAX_ROUTES {MAX_ROUTES}",
            cfg.top_k
        );
        let targets = bb_exec::timing::time("spray:targets", || match cfg.targets_memo {
            Some(world_key) => {
                (*cached_targets(world_key, topo, provider, workload, cfg.top_k)).clone()
            }
            None => build_targets(topo, provider, workload, cfg.top_k),
        });

        // Compile every target's routes once into a structure-of-arrays
        // batch: the per-window query is a linear pass over flat term
        // lanes, with no topology lookups, no model lock, and no Arc chases
        // on the hot path.
        let batches = bb_exec::timing::time("spray:plan", || {
            bb_exec::par_map(&targets, |_, target| {
                let lastmile = Some(CongestionKey::LastMile(target.prefix.lastmile_code()));
                let routes = target.routes.iter();
                PathPlanBatch::compile(
                    topo,
                    congestion,
                    routes.map(|r| (&r.path, lastmile, Some(r.egress_link))),
                )
            })
        });
        let client: Vec<(f64, f64)> = targets
            .iter()
            .map(|t| {
                let prefix = workload.prefix(t.prefix);
                (
                    topo.atlas.city(prefix.city).region.utc_offset_hours(),
                    prefix.weight,
                )
            })
            .collect();

        SprayEngine {
            cfg: cfg.clone(),
            targets,
            batches,
            client,
        }
    }

    /// The compiled targets, in the order `sample_windows` reports them.
    pub fn targets(&self) -> &[SprayTarget] {
        &self.targets
    }

    /// Consume the engine, yielding the targets (for `SprayDataset`).
    pub fn into_targets(self) -> Vec<SprayTarget> {
        self.targets
    }

    /// The campaign window list of `cfg`: every `window_stride`-th
    /// 15-minute window over `days`, the batch universe. Streaming callers
    /// take a prefix (or extend past the batch horizon with
    /// [`window_at`](Self::window_at)).
    pub fn batch_windows(&self) -> Vec<Window> {
        Window::over(SimTime::from_days(self.cfg.days))
            .filter(|w| w.0 % self.cfg.window_stride == 0)
            .collect()
    }

    /// The `i`-th window of the (unbounded) campaign universe: strided
    /// window indices continue past the batch horizon, so a serve run can
    /// outlive `cfg.days` without changing any window it shares with the
    /// batch run.
    pub fn window_at(&self, i: u64) -> Window {
        Window((i * self.cfg.window_stride as u64) as u32)
    }

    /// Sample `windows` on every target, returning per-target row vectors
    /// (index-aligned with [`targets`](Self::targets); rows window-ordered
    /// within each target). Every RNG stream is keyed on
    /// `(seed, window, target, route)` — never on worker schedule or on
    /// which chunk of windows a call covers — so sampling the campaign in
    /// one call or in chunks yields identical bytes.
    pub fn sample_windows(
        &self,
        windows: &[Window],
        faults: Option<&FaultPlane>,
    ) -> Vec<Vec<WindowRow>> {
        let mut out = Vec::with_capacity(self.targets.len());
        self.sample_chunks(windows, faults, |chunk| out.extend(chunk));
        out
    }

    /// The one sampling loop behind [`sample_windows`](Self::sample_windows)
    /// and [`spray`]. It runs over the targets [`TARGET_CHUNK`] at a time
    /// and hands each chunk's per-target row vectors to `sink`, in target
    /// order, before sampling the next chunk. The jitter table, the diurnal
    /// table, the `spray:windows` span and the tally publishes are per
    /// call, not per chunk. Returns the call's fault tally (published too,
    /// for a faulted call).
    fn sample_chunks(
        &self,
        windows: &[Window],
        faults: Option<&FaultPlane>,
        mut sink: impl FnMut(Vec<Vec<WindowRow>>),
    ) -> crate::FaultTally {
        let cfg = &self.cfg;
        // Diurnal factors for every (window midpoint, region) pair, and for
        // every retry's re-observation instant, are tabulated once per call.
        // The factors depend only on the instant, so chunked tabulation
        // reads the same bits the whole-campaign table would.
        let times: Vec<SimTime> = windows.iter().map(|w| w.midpoint()).collect();
        let sampler = Sampler::new(times, faults, cfg.rtt_samples_per_session);

        // The log-normal jitter map `z ↦ median·exp(sigma·z)` is monotone
        // non-decreasing for sigma, median ≥ 0 (every campaign runs
        // `RttModel::default()`), so (a) each session's min
        // jitter is the jitter of the session's min deviate (one exp per
        // session, as the scalar session walk has always done) and (b)
        // with an odd session count the window median — an exact order
        // statistic under `quantile_select` — commutes with the map and
        // with adding `det`: the median is `det + J`, and the jitter term
        // J depends on the RNG stream alone, never on congestion. So a
        // fault-free odd-session call runs in two passes, same bits: the
        // jitter pass tabulates J (memoized for whole campaigns, see
        // `jitter_table`) and the fold below adds `det`.
        let jitter = (faults.is_none() && cfg.sessions_per_window % 2 == 1)
            .then(|| self.jitter_table(windows));

        // One task per target: its rows, window-ordered.
        let target_rows = |ti: usize, target: &SprayTarget| {
            let (client_offset, prefix_weight) = self.client[ti];
            let batch = &self.batches[ti];
            let routes = target.routes.len();
            let mut task = TaskScratch::default();
            let mut sessions = Vec::with_capacity(cfg.sessions_per_window);
            // Faulted path: churn is a property of the route, not the
            // window, so each route's key and withdrawal intervals resolve
            // once per target.
            let churn: Vec<_> = faults.map_or_else(Vec::new, |fp| {
                (0..routes)
                    .map(|ri| {
                        let key = FaultPlane::stream_key(&[
                            target.pop.0 as u64,
                            target.prefix.0 as u64,
                            ri as u64,
                        ]);
                        (key, fp.route_churn(key))
                    })
                    .collect()
            });
            let mut rows = Vec::with_capacity(windows.len());
            for (wi, &w) in windows.iter().enumerate() {
                let t = sampler.time(wi);
                let drow = sampler.row(wi);
                let mut row = WindowRow {
                    window: w,
                    pop: target.pop,
                    prefix: target.prefix,
                    route_median_ms: RouteVals::default(),
                    route_util: RouteVals::default(),
                    route_samples: RouteVals::default(),
                    volume: prefix_weight
                        * bb_workload::diurnal_activity(t.local_hour(client_offset)),
                };
                for ri in 0..routes {
                    let (median, count) = match faults {
                        None => {
                            let det = batch.det_rtt_ms(ri, t, drow);
                            let median = match &jitter {
                                Some(table) => det + table[ti][wi * routes + ri],
                                None => {
                                    // Even session count: the median
                                    // averages two sessions, so the map
                                    // runs per session.
                                    let seeds = [cell_seed(cfg.seed, w, ti, ri)];
                                    let n = cfg.sessions_per_window;
                                    let out = &mut sessions;
                                    sampler.session_rtts(&mut task, &seeds, n, |_, _| det, out);
                                    bb_stats::quantile::quantile_select(&mut sessions, 0.5)
                                }
                            };
                            (median, cfg.sessions_per_window)
                        }
                        // No path: every session of the window is lost
                        // outright, no retry can help.
                        Some(_) if churn[ri].1.withdrawn_at(t) => {
                            task.faults.lost += cfg.sessions_per_window;
                            task.faults.dropped += 1;
                            (f64::NAN, 0)
                        }
                        Some(fp) => {
                            // The sessions share the (route, window) prefix
                            // of their key; hash it once.
                            let window_key = FaultPlane::stream_key(&[churn[ri].0, w.0 as u64]);
                            let seed = cell_seed(cfg.seed, w, ti, ri);
                            let probes = (0..cfg.sessions_per_window).map(|s| {
                                let probe_key =
                                    FaultPlane::stream_key_extend(window_key, &[s as u64]);
                                (probe_key, bb_exec::derive_seed(seed, s as u64))
                            });
                            let min_kept = fp.config().min_samples_per_window;
                            let cell = (batch, ri, wi);
                            match sampler.faulted(fp, &mut task, cell, &[], probes, min_kept) {
                                (Some(median), n) => (median, n),
                                (None, n) => {
                                    task.faults.dropped += 1;
                                    (f64::NAN, n)
                                }
                            }
                        }
                    };
                    row.route_median_ms.push(median);
                    row.route_samples.push(count as u32);
                    row.route_util.push(batch.probe_util(ri, t, drow));
                }
                rows.push(row);
                crate::progress::window_done();
            }
            (rows, task.faults, task.kernel)
        };

        let mut tally = crate::FaultTally::default();
        let mut ktally = KernelTally::default();
        // Chunks run in target order and `par_map` returns in input order,
        // so rows stay target-major, window-minor.
        bb_exec::timing::time("spray:windows", || {
            for (ci, chunk) in self.targets.chunks(TARGET_CHUNK).enumerate() {
                let first = ci * TARGET_CHUNK;
                let per_target = bb_exec::par_map(chunk, |i, t| target_rows(first + i, t));
                let mut rows = Vec::with_capacity(per_target.len());
                for (target_rows, target_tally, target_ktally) in per_target {
                    rows.push(target_rows);
                    tally.merge(target_tally);
                    ktally.merge(target_ktally);
                }
                sink(rows);
            }
        });
        ktally.publish("spray");
        if faults.is_some() {
            crate::publish_faults(&tally);
        }

        let route_windows: usize =
            self.targets.iter().map(|t| t.routes.len()).sum::<usize>() * windows.len();
        bb_exec::timing::add_count(
            "samples:spray",
            route_windows * cfg.sessions_per_window * cfg.rtt_samples_per_session,
        );
        tally
    }

    /// The jitter table of `windows`. A whole-campaign call goes through
    /// the process-wide memo, so repeat campaigns of the same shape (the
    /// xablate independent-congestion arm after fig1) skip the jitter pass;
    /// any other window list (a streaming chunk, which never repeats)
    /// builds its table and drops it with the call.
    fn jitter_table(&self, windows: &[Window]) -> Arc<JitterTable> {
        if windows != self.batch_windows().as_slice() {
            return Arc::new(self.jitter_pass(windows));
        }
        let cfg = &self.cfg;
        let key = JitterKey {
            seed: cfg.seed,
            sessions_per_window: cfg.sessions_per_window,
            rtt_samples_per_session: cfg.rtt_samples_per_session,
            routes: self.targets.iter().map(|t| t.routes.len()).collect(),
            windows: windows.to_vec(),
        };
        let route_windows = key.routes.iter().sum::<usize>() * windows.len();
        let cell = {
            let cache = JITTER_CACHE.get_or_init(Default::default);
            let mut cache = cache.lock().unwrap_or_else(|e| e.into_inner());
            Arc::clone(cache.entry(key).or_default())
        };
        let mut built = false;
        let table = Arc::clone(cell.get_or_init(|| {
            built = true;
            Arc::new(self.jitter_pass(windows))
        }));
        bb_exec::timing::add_count(
            "kernel:spray:jitter_reused",
            if built { 0 } else { route_windows },
        );
        table
    }

    /// The jitter pass: for every (target, window, route) cell, the jitter
    /// of the median session's min deviate. Fault-free, monotone model,
    /// odd session count only (see `sample_windows`).
    fn jitter_pass(&self, windows: &[Window]) -> JitterTable {
        let cfg = &self.cfg;
        let model = RttModel::default();
        let lanes = MedianLanes::detect();
        let per_target: Vec<(Vec<f64>, KernelTally)> = bb_exec::timing::time("spray:jitter", || {
            bb_exec::par_map(&self.targets, |ti, target| {
                let mut task = TaskScratch::default();
                let routes = target.routes.len();
                let seeds: Vec<u64> = windows
                    .iter()
                    .flat_map(|&w| (0..routes).map(move |ri| cell_seed(cfg.seed, w, ti, ri)))
                    .collect();
                let table = task
                    .median_z(lanes, &seeds, cfg.sessions_per_window, cfg.rtt_samples_per_session)
                    .iter()
                    .map(|&z| model.jitter(z))
                    .collect();
                (table, task.kernel)
            })
        });
        let mut ktally = KernelTally::default();
        let table = per_target
            .into_iter()
            .map(|(jitter, target_ktally)| {
                ktally.merge(target_ktally);
                jitter
            })
            .collect();
        ktally.publish("spray");
        table
    }
}

/// Run the spray campaign.
///
/// With `faults: Some(..)` the campaign runs through the measurement fault
/// plane: sprayed sessions are lost/timed out and retried with bounded
/// backoff, churned-away routes lose whole windows, and routes that keep
/// fewer than `min_samples_per_window` sessions report a `NaN` median
/// (flagged, never averaged). `faults: None` takes the exact pre-fault
/// code path.
pub fn spray(
    topo: &Topology,
    provider: &Provider,
    workload: &Workload,
    congestion: &CongestionModel,
    faults: Option<&FaultPlane>,
    cfg: &SprayConfig,
) -> SprayDataset {
    let engine = SprayEngine::new(topo, provider, workload, congestion, cfg);
    let windows = engine.batch_windows();
    // Rows are written once, into one allocation: each chunk's per-target
    // vectors are moved in and dropped before the next chunk is sampled.
    let mut rows = Vec::with_capacity(engine.targets.len() * windows.len());
    engine.sample_chunks(&windows, faults, |chunk| rows.extend(chunk.into_iter().flatten()));
    SprayDataset {
        targets: engine.into_targets(),
        rows,
    }
}

/// Compute per-prefix spray targets: serving PoP, top-k routes, realized
/// paths.
pub fn build_targets(
    topo: &Topology,
    provider: &Provider,
    workload: &Workload,
    top_k: usize,
) -> Vec<SprayTarget> {
    // One routing computation per client AS, shared by its prefixes. The
    // per-AS tables go through the process-wide route cache (repeat calls
    // for the same world — e.g. fig1 then the fabric controller study —
    // skip propagation entirely) and the misses compute in parallel.
    let mut asns: Vec<AsId> = Vec::new();
    {
        let mut seen: std::collections::HashSet<AsId> = Default::default();
        for prefix in &workload.prefixes {
            if seen.insert(prefix.asn) {
                asns.push(prefix.asn);
            }
        }
    }
    let tables: HashMap<AsId, _> = bb_exec::par_map(&asns, |_, &asn| {
        let ann = Announcement::full(topo, asn);
        let t = bb_exec::cached_routes(topo, &ann);
        let ribs = provider_rib(topo, provider.asn, &t);
        (asn, (t, ribs))
    })
    .into_iter()
    .collect();

    let targets: Vec<Option<SprayTarget>> = bb_exec::par_map(&workload.prefixes, |_, prefix| {
        let (table, ribs) = &tables[&prefix.asn];

        // Serving PoP: nearest PoP that actually has routes to the prefix.
        let by_dist = provider.pops_by_distance(topo, prefix.city);
        let rib = by_dist
            .iter()
            .find_map(|&(pop, _)| ribs.iter().find(|r| r.pop_city == pop))?;

        let routes: Vec<SprayRoute> = rib
            .top_k(top_k)
            .iter()
            .map(|cand| {
                // Wire path: provider PoP → neighbor → … → client AS,
                // ending at the client city.
                let mut as_path = vec![provider.asn];
                if cand.neighbor == prefix.asn {
                    as_path.push(prefix.asn);
                } else {
                    as_path.extend(
                        table
                            .as_path(cand.neighbor)
                            .expect("RIB route implies neighbor reachability"),
                    );
                }
                let spec = RealizeSpec {
                    as_path: &as_path,
                    src_city: rib.pop_city,
                    dst_city: Some(prefix.city),
                    first_link: Some(cand.link),
                    final_entry_links: None,
                };
                SprayRoute {
                    egress_link: cand.link,
                    class: cand.class,
                    path: realize_path(topo, &spec),
                }
            })
            .collect();

        if routes.is_empty() {
            return None;
        }
        Some(SprayTarget {
            pop: rib.pop_city,
            prefix: prefix.id,
            client_as: prefix.asn,
            routes,
        })
    });
    targets.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_cdn::{build_provider, ProviderConfig};
    use bb_netsim::reference::{path_rtt_ms, sample_min_rtt};
    use bb_netsim::CongestionConfig;
    use bb_topology::{generate, TopologyConfig};
    use bb_workload::{generate_workload, WorkloadConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn jitter_memo_entries(seed: u64) -> usize {
        JITTER_CACHE.get().map_or(0, |cache| {
            let cache = cache.lock().unwrap_or_else(|e| e.into_inner());
            cache.keys().filter(|k| k.seed == seed).count()
        })
    }

    /// A Test-scale world (the topology `Scale::Test` generates).
    fn world() -> (Topology, Provider, Workload) {
        let mut topo = generate(&TopologyConfig::small(81));
        let provider = build_provider(&mut topo, &ProviderConfig::facebook_like(8));
        let workload = generate_workload(&topo, &WorkloadConfig::default());
        (topo, provider, workload)
    }

    fn tiny_campaign() -> (Topology, SprayDataset) {
        let (topo, provider, workload) = world();
        let congestion = CongestionModel::new(8, CongestionConfig::default());
        let cfg = SprayConfig {
            days: 0.5,
            window_stride: 8,
            sessions_per_window: 5,
            ..Default::default()
        };
        let ds = spray(&topo, &provider, &workload, &congestion, None, &cfg);
        (topo, ds)
    }

    #[test]
    fn campaign_produces_rows_for_most_prefixes() {
        let (_, ds) = tiny_campaign();
        assert!(!ds.targets.is_empty());
        assert!(!ds.rows.is_empty());
        let windows: std::collections::HashSet<_> = ds.rows.iter().map(|r| r.window).collect();
        assert!(windows.len() >= 2);
    }

    #[test]
    fn most_targets_have_route_diversity() {
        // §2.3.1: "For most clients, the PoP serving the client has at
        // least three routes to the client's prefix."
        let (_, ds) = tiny_campaign();
        let multi = ds.targets.iter().filter(|t| t.routes.len() >= 3).count();
        assert!(
            multi * 2 >= ds.targets.len(),
            "{multi}/{} targets with ≥3 routes",
            ds.targets.len()
        );
    }

    #[test]
    fn rows_have_consistent_shapes() {
        let (_, ds) = tiny_campaign();
        for row in &ds.rows {
            assert_eq!(row.route_median_ms.len(), row.route_util.len());
            assert_eq!(row.route_median_ms.len(), row.route_samples.len());
            assert!(!row.route_median_ms.is_empty());
            assert!(row.volume > 0.0);
            for &m in &row.route_median_ms {
                assert!(m.is_finite() && m > 0.0);
            }
            for &u in &row.route_util {
                assert!((0.0..=1.0).contains(&u));
            }
            for &n in &row.route_samples {
                assert_eq!(n as usize, 5, "fault-free runs keep every session");
            }
        }
    }

    #[test]
    fn faulted_campaign_flags_degraded_windows() {
        use bb_netsim::{FaultConfig, FaultPlane};
        let mut topo = generate(&TopologyConfig::small(81));
        let provider = build_provider(&mut topo, &ProviderConfig::facebook_like(8));
        let workload = generate_workload(&topo, &WorkloadConfig::default());
        let congestion = CongestionModel::new(8, CongestionConfig::default());
        let cfg = SprayConfig {
            days: 0.5,
            window_stride: 8,
            sessions_per_window: 5,
            ..Default::default()
        };
        // Aggressive faults so every failure mode appears at tiny scale.
        let plane = FaultPlane::new(
            13,
            FaultConfig {
                probe_loss: 0.35,
                max_retries: 1,
                churn_events_per_day: 6.0,
                min_samples_per_window: 4,
                ..FaultConfig::heavy()
            },
        );
        let ds = spray(&topo, &provider, &workload, &congestion, Some(&plane), &cfg);

        let mut degraded = 0usize;
        let mut kept = 0usize;
        for row in &ds.rows {
            for (ri, &m) in row.route_median_ms.iter().enumerate() {
                let n = row.route_samples[ri] as usize;
                if m.is_nan() {
                    degraded += 1;
                    assert!(
                        n < plane.config().min_samples_per_window,
                        "NaN median must mean a degraded window, got {n} samples"
                    );
                } else {
                    kept += 1;
                    assert!(m.is_finite() && m > 0.0);
                    assert!(n >= plane.config().min_samples_per_window);
                }
            }
        }
        assert!(degraded > 0, "aggressive faults must degrade some windows");
        assert!(kept > degraded, "most windows still survive");

        // Same plane parameters, fresh plane object: byte-identical rows —
        // the fault draws are pure functions of (seed, stream).
        let plane2 = FaultPlane::new(
            13,
            FaultConfig {
                probe_loss: 0.35,
                max_retries: 1,
                churn_events_per_day: 6.0,
                min_samples_per_window: 4,
                ..FaultConfig::heavy()
            },
        );
        let ds2 = spray(&topo, &provider, &workload, &congestion, Some(&plane2), &cfg);
        assert_eq!(format!("{:?}", ds.rows), format!("{:?}", ds2.rows));
    }

    #[test]
    fn window_row_is_flat() {
        // Rows are fixed-size records: no per-route heap vectors.
        fn copy<T: Copy>() {}
        copy::<WindowRow>();
        assert!(std::mem::size_of::<WindowRow>() <= 104);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_ROUTES")]
    fn top_k_above_max_routes_panics() {
        let (topo, provider, workload) = world();
        let congestion = CongestionModel::new(8, CongestionConfig::default());
        let cfg = SprayConfig {
            top_k: MAX_ROUTES + 1,
            ..Default::default()
        };
        SprayEngine::new(&topo, &provider, &workload, &congestion, &cfg);
    }

    #[test]
    fn spray_rows_are_the_flattened_sample_windows_rows() {
        use bb_netsim::FaultConfig;
        let (topo, provider, workload) = world();
        let congestion = CongestionModel::new(8, CongestionConfig::default());
        let cfg = SprayConfig {
            seed: 0x_7177_0008,
            days: 0.5,
            window_stride: 8,
            sessions_per_window: 5,
            ..Default::default()
        };
        let engine = SprayEngine::new(&topo, &provider, &workload, &congestion, &cfg);
        assert!(engine.targets().len() > TARGET_CHUNK, "the world spans several chunks");
        let windows = engine.batch_windows();
        let heavy = FaultPlane::new(5, FaultConfig::heavy());
        // Debug text, not `==`: degraded windows carry NaN medians.
        let text = |rows: &[WindowRow]| format!("{rows:?}");
        for faults in [None, Some(&heavy)] {
            let mut runs = Vec::new();
            for jobs in [1, 2] {
                bb_exec::set_jobs(jobs);
                let ds = spray(&topo, &provider, &workload, &congestion, faults, &cfg);
                let per_target = engine.sample_windows(&windows, faults);
                let flat: Vec<WindowRow> = per_target.into_iter().flatten().collect();
                assert_eq!(ds.rows.len(), engine.targets().len() * windows.len());
                assert_eq!(text(&ds.rows), text(&flat), "faults {}, jobs {jobs}", faults.is_some());
                runs.push(text(&ds.rows));
            }
            assert_eq!(runs[0], runs[1], "faults {}: --jobs 1 vs 2", faults.is_some());
        }
        bb_exec::set_jobs(0);
    }

    #[test]
    fn preferred_route_is_first_by_policy() {
        let (_, ds) = tiny_campaign();
        for (ti, t) in ds.targets.iter().enumerate() {
            let classes = ds.classes(ti);
            for w in classes.windows(2) {
                assert!(w[0] <= w[1], "routes must stay policy-ordered");
            }
            assert_eq!(t.routes.len(), classes.len());
        }
    }

    #[test]
    fn serving_pop_is_nearby() {
        // Half of traffic within 500 km is checked at the study level; here
        // just assert the PoP is the nearest one with routes, i.e. not
        // absurdly far for most prefixes.
        let (topo, ds) = tiny_campaign();
        let mut near = 0;
        for t in &ds.targets {
            let prefix_city = t
                .routes
                .first()
                .map(|r| r.path.segments.last().unwrap().to)
                .unwrap();
            let d = topo
                .atlas
                .city(t.pop)
                .location
                .distance_km(&topo.atlas.city(prefix_city).location);
            if d < 5000.0 {
                near += 1;
            }
        }
        assert!(near * 10 >= ds.targets.len() * 8);
    }

    #[test]
    fn deterministic() {
        let (_, a) = tiny_campaign();
        let (_, b) = tiny_campaign();
        assert_eq!(a.rows.len(), b.rows.len());
        for (x, y) in a.rows.iter().zip(&b.rows) {
            assert_eq!(x.route_median_ms, y.route_median_ms);
            assert_eq!(x.volume, y.volume);
        }
    }

    #[test]
    fn routes_end_at_client_city() {
        let (topo, ds) = tiny_campaign();
        let _ = topo;
        for t in &ds.targets {
            let end_cities: std::collections::HashSet<_> = t
                .routes
                .iter()
                .map(|r| r.path.segments.last().unwrap().to)
                .collect();
            assert_eq!(end_cities.len(), 1, "all routes reach the same client");
        }
    }

    /// The reference walk's RTT of `engine`'s route `ri` of target `ti`
    /// at `t`.
    fn walk_rtt(
        (topo, model): (&Topology, &CongestionModel),
        engine: &SprayEngine,
        (ti, ri): (usize, usize),
        t: SimTime,
    ) -> f64 {
        let target = &engine.targets[ti];
        let lastmile = Some(CongestionKey::LastMile(target.prefix.lastmile_code()));
        path_rtt_ms(topo, model, &target.routes[ri].path, lastmile, t)
    }

    /// Checks a fault-free call against the scalar oracle, bit for bit:
    /// every session through `sample_min_rtt` on its own seeded stream,
    /// then `quantile_select`. `det` comes from the reference walk, so the
    /// oracle shares neither pass with the engine.
    fn assert_matches_oracle(
        world: (&Topology, &CongestionModel),
        engine: &SprayEngine,
        windows: &[Window],
        rows: &[Vec<WindowRow>],
    ) {
        let cfg = &engine.cfg;
        assert_eq!(rows.len(), engine.targets.len());
        for (ti, target_rows) in rows.iter().enumerate() {
            assert_eq!(target_rows.len(), windows.len());
            for (row, &w) in target_rows.iter().zip(windows) {
                assert_eq!(row.window, w);
                assert_eq!(row.route_median_ms.len(), engine.targets[ti].routes.len());
                for (ri, &got) in row.route_median_ms.iter().enumerate() {
                    let seed = bb_exec::derive_seed(
                        bb_exec::derive_seed(bb_exec::derive_seed(cfg.seed, w.0 as u64), ti as u64),
                        ri as u64,
                    );
                    let mut rng = StdRng::seed_from_u64(seed);
                    let det = walk_rtt(world, engine, (ti, ri), w.midpoint());
                    let mut sessions: Vec<f64> = (0..cfg.sessions_per_window)
                        .map(|_| {
                            sample_min_rtt(
                                det,
                                &RttModel::default(),
                                cfg.rtt_samples_per_session,
                                &mut rng,
                            )
                        })
                        .collect();
                    let want = bb_stats::quantile::quantile_select(&mut sessions, 0.5);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "target {ti} window {} route {ri}: {got} != {want}",
                        w.0
                    );
                }
            }
        }
    }

    /// Samples the whole campaign of `cfg` under `congestion` and checks it
    /// against the oracle.
    fn sample_checked(
        (topo, provider, workload): &(Topology, Provider, Workload),
        congestion: CongestionConfig,
        cfg: &SprayConfig,
    ) {
        let model = CongestionModel::new(8, congestion);
        let engine = SprayEngine::new(topo, provider, workload, &model, cfg);
        let windows = engine.batch_windows();
        let rows = engine.sample_windows(&windows, None);
        assert_matches_oracle((topo, &model), &engine, &windows, &rows);
    }

    // The memo is process-wide and tests run concurrently, so every memo
    // test uses spray seeds of its own and counts only its own entries.

    #[test]
    fn congestion_change_reuses_the_jitter_table_and_matches_the_oracle() {
        let w = world();
        let cfg = SprayConfig {
            seed: 0x_7177_0001,
            days: 0.5,
            window_stride: 8,
            sessions_per_window: 5,
            ..Default::default()
        };
        sample_checked(&w, CongestionConfig::default(), &cfg);
        sample_checked(&w, CongestionConfig::independent(), &cfg);
        assert_eq!(
            jitter_memo_entries(cfg.seed),
            1,
            "the second campaign must reuse the first one's table"
        );
    }

    #[test]
    fn every_key_input_gets_its_own_jitter_table() {
        let w = world();
        let base = SprayConfig {
            seed: 0x_7177_0002,
            days: 0.5,
            window_stride: 8,
            sessions_per_window: 5,
            ..Default::default()
        };
        sample_checked(&w, CongestionConfig::default(), &base);
        // Each variant changes one key input of `base`; a key that missed
        // it would serve `base`'s table.
        let variants = [
            SprayConfig {
                seed: 0x_7177_0003,
                ..base.clone()
            },
            SprayConfig {
                sessions_per_window: 7,
                ..base.clone()
            },
            SprayConfig {
                rtt_samples_per_session: 3,
                ..base.clone()
            },
            SprayConfig {
                window_stride: 4,
                ..base.clone()
            },
            SprayConfig {
                days: 1.0,
                ..base.clone()
            },
            // Two routes per target instead of three: the routes shape.
            SprayConfig {
                top_k: 2,
                ..base.clone()
            },
        ];
        for cfg in &variants {
            sample_checked(&w, CongestionConfig::default(), cfg);
        }
        // `base` and the five variants that keep its seed.
        assert_eq!(jitter_memo_entries(base.seed), 6);
        assert_eq!(jitter_memo_entries(0x_7177_0003), 1);
    }

    #[test]
    fn streaming_chunks_bypass_the_memo_and_match_the_whole_campaign() {
        let (topo, provider, workload) = world();
        let model = CongestionModel::new(8, CongestionConfig::default());
        let cfg = SprayConfig {
            seed: 0x_7177_0004,
            days: 1.0,
            window_stride: 4,
            sessions_per_window: 5,
            ..Default::default()
        };
        let engine = SprayEngine::new(&topo, &provider, &workload, &model, &cfg);
        let windows = engine.batch_windows();
        assert!(windows.len() > 8, "the campaign spans several chunks");
        // `repro serve`'s shape: 8 windows per call.
        let chunked = || {
            let mut rows = vec![Vec::new(); engine.targets().len()];
            for chunk in windows.chunks(8) {
                for (ti, part) in engine.sample_windows(chunk, None).into_iter().enumerate() {
                    rows[ti].extend(part);
                }
            }
            rows
        };
        let first = chunked();
        assert_eq!(jitter_memo_entries(cfg.seed), 0);
        let whole = engine.sample_windows(&windows, None);
        assert_eq!(jitter_memo_entries(cfg.seed), 1);
        assert_eq!(first, whole);
        assert_eq!(chunked(), whole);
        assert_eq!(jitter_memo_entries(cfg.seed), 1);
        assert_matches_oracle((&topo, &model), &engine, &windows, &whole);
    }

    #[test]
    fn even_and_planet_session_counts_match_the_oracle() {
        let w = world();
        // Even: the median averages two sessions, so there is no table.
        let even = SprayConfig {
            seed: 0x_7177_0005,
            days: 0.5,
            window_stride: 8,
            sessions_per_window: 6,
            ..Default::default()
        };
        sample_checked(&w, CongestionConfig::default(), &even);
        assert_eq!(jitter_memo_entries(even.seed), 0);
        // The planet-scale campaign shape.
        let planet = SprayConfig {
            seed: 0x_7177_0006,
            days: 1.0,
            window_stride: 16,
            sessions_per_window: 5,
            ..Default::default()
        };
        sample_checked(&w, CongestionConfig::default(), &planet);
    }

    /// Per target, per window: the route medians and sample counts.
    type OracleRows = Vec<Vec<(Vec<f64>, Vec<u32>)>>;

    /// The faulted path's scalar oracle: per session, `faulted_attempts`
    /// over the route's churn and the reference walk, each attempt through
    /// `sample_min_rtt` on its own stream, then `quantile_select`. Returns
    /// the rows, the fault tally, and the highest attempt index any probe
    /// reached.
    fn faulted_oracle(
        world: (&Topology, &CongestionModel),
        engine: &SprayEngine,
        windows: &[Window],
        fp: &FaultPlane,
    ) -> (OracleRows, crate::FaultTally, u32) {
        let cfg = &engine.cfg;
        let mut tally = crate::FaultTally::default();
        let mut deepest = 0;
        let rows = engine
            .targets
            .iter()
            .enumerate()
            .map(|(ti, target)| {
                windows
                    .iter()
                    .map(|&w| {
                        let t = w.midpoint();
                        let mut medians = Vec::new();
                        let mut counts = Vec::new();
                        for ri in 0..target.routes.len() {
                            let route_key = FaultPlane::stream_key(&[
                                target.pop.0 as u64,
                                target.prefix.0 as u64,
                                ri as u64,
                            ]);
                            if fp.route_churn(route_key).withdrawn_at(t) {
                                tally.lost += cfg.sessions_per_window;
                                tally.dropped += 1;
                                medians.push(f64::NAN);
                                counts.push(0);
                                continue;
                            }
                            let mut kept: Vec<f64> = (0..cfg.sessions_per_window)
                                .filter_map(|s| {
                                    let probe_key =
                                        FaultPlane::stream_key(&[route_key, w.0 as u64, s as u64]);
                                    crate::faulted_attempts(fp, probe_key, &mut tally, |attempt| {
                                        deepest = deepest.max(attempt);
                                        let ta = t + attempt as f64 * fp.config().retry_backoff_min;
                                        let det = walk_rtt(world, engine, (ti, ri), ta);
                                        let seed = bb_exec::derive_seed(
                                            bb_exec::derive_seed(
                                                cell_seed(cfg.seed, w, ti, ri),
                                                s as u64,
                                            ),
                                            attempt as u64,
                                        );
                                        sample_min_rtt(
                                            det,
                                            &RttModel::default(),
                                            cfg.rtt_samples_per_session,
                                            &mut StdRng::seed_from_u64(seed),
                                        )
                                    })
                                })
                                .collect();
                            counts.push(kept.len() as u32);
                            if kept.len() < fp.config().min_samples_per_window {
                                tally.dropped += 1;
                                medians.push(f64::NAN);
                            } else {
                                medians.push(bb_stats::quantile::quantile_select(&mut kept, 0.5));
                            }
                        }
                        (medians, counts)
                    })
                    .collect()
            })
            .collect();
        (rows, tally, deepest)
    }

    #[test]
    fn faulted_windows_match_the_scalar_oracle() {
        use bb_netsim::FaultConfig;
        let (topo, provider, workload) = world();
        let model = CongestionModel::new(8, CongestionConfig::default());
        let cfg = SprayConfig {
            seed: 0x_7177_0007,
            days: 1.0,
            window_stride: 4,
            sessions_per_window: 5,
            ..Default::default()
        };
        let engine = SprayEngine::new(&topo, &provider, &workload, &model, &cfg);
        let windows = engine.batch_windows();
        // Heavy never times out at full scale, so the third config forces
        // timeouts and a second retry (a second retry table).
        let timeouts = FaultConfig {
            max_retries: 2,
            timeout_ms: 70.0,
            ..FaultConfig::heavy()
        };
        for (name, fc) in [
            ("light", FaultConfig::light()),
            ("heavy", FaultConfig::heavy()),
            ("timeouts", timeouts),
        ] {
            let fp = FaultPlane::new(5, fc);
            let mut got = Vec::new();
            let got_tally = engine.sample_chunks(&windows, Some(&fp), |chunk| got.extend(chunk));
            let (want, want_tally, deepest) =
                faulted_oracle((&topo, &model), &engine, &windows, &fp);
            assert_eq!(got_tally, want_tally, "{name}: fault tally");
            assert!(
                want_tally.lost > 0 && want_tally.retries > 0,
                "{name}: {want_tally:?}"
            );
            let bits = |v: &[f64]| v.iter().map(|m| m.to_bits()).collect::<Vec<_>>();
            for (g_rows, w_rows) in got.iter().zip(&want) {
                assert_eq!(g_rows.len(), w_rows.len());
                for (g, (medians, samples)) in g_rows.iter().zip(w_rows) {
                    assert_eq!(&g.route_samples[..], samples, "{name} window {}", g.window.0);
                    assert_eq!(
                        bits(&g.route_median_ms),
                        bits(medians),
                        "{name} window {}: {:?} != {medians:?}",
                        g.window.0,
                        g.route_median_ms,
                    );
                }
            }
            if name == "timeouts" {
                assert!(want_tally.timeouts > 0, "the low timeout must fire");
                assert_eq!(deepest, 2, "some probe must reach its second retry");
                assert!(
                    want.iter()
                        .flatten()
                        .any(|(m, _)| m.iter().any(|m| m.is_finite())),
                    "some windows must survive the timeout"
                );
            }
        }
    }
}
