//! # bb-measure — the measurement systems of the three studies
//!
//! Each sub-module reproduces one data-collection pipeline:
//!
//! * [`spray`] — the Facebook-style load-balancer instrumentation of §3.1:
//!   "A sampled subset of client HTTP sessions are sprayed across different
//!   egress routes, including BGP's most preferred, second-most preferred,
//!   and third-most preferred path that a PoP has to each client prefix",
//!   aggregated as median TCP MinRTT per ⟨PoP, prefix, route⟩ per 15-minute
//!   window, weighted by traffic volume;
//! * [`beacon`] — the Bing-style JavaScript beacons of §3.2: clients
//!   measure the anycast address and several nearby unicast front-ends
//!   side by side;
//! * [`probe`] — the Speedchecker-style vantage-point probing of §3.3:
//!   pings (min of 5) and traceroutes (ingress inference) from ⟨City, AS⟩
//!   vantage points to Premium- and Standard-tier VMs.

//!
//! All three pipelines measure the same way: each compiles its routes into
//! [`PathPlanBatch`]es, reads diurnal factors from one [`Sampler`]'s
//! tables, and draws MinRTT jitter through the lane kernels of
//! [`MedianLanes`]: session minima, window medians and faulted windows,
//! one call per task wherever the task's cells are known up front.
//!
//! All three optionally consume a [`FaultPlane`]: probes are lost, time
//! out, and retry with bounded backoff; routes are withdrawn mid-window by
//! churn. Measurements that do not survive are emitted as `NaN` (never
//! silently averaged) and per-campaign fault tallies land in
//! `bb_exec::timing` counters (`faults:*`). With no fault plane the
//! pipelines run the exact pre-fault code path, byte for byte.

use bb_netsim::{
    DiurnalTable, FaultPlane, FaultTally, FaultedWindow, JitterScratch, MedianLanes,
    PathPlanBatch, RttModel, SimTime,
};

pub mod beacon;
pub mod probe;
pub mod spray;

/// Window-granular campaign progress, for checkpointing inside a study.
///
/// The measurement pipelines tick [`progress::window_done`] once per
/// completed aggregation unit (a spray ⟨target, window⟩, a beacon
/// ⟨prefix, round⟩, a tier probe). A harness that wants intra-experiment
/// liveness registers a hook fired every N ticks; with no hook
/// installed the cost is one relaxed `fetch_add` per window — zero
/// synchronization, zero I/O — so `--checkpoint`-off runs pay nothing.
///
/// The tick count is *telemetry*, not payload: it feeds the heartbeat's
/// `windows` field and progress displays, never figure
/// data, so its (deterministic) value has no byte-identity obligations
/// beyond being stable for a given campaign.
pub mod progress {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, RwLock};

    static WINDOWS: AtomicU64 = AtomicU64::new(0);
    static EVERY: AtomicU64 = AtomicU64::new(0);
    static HOOK: RwLock<Option<Arc<dyn Fn(u64) + Send + Sync>>> = RwLock::new(None);

    /// Record one completed measurement window; fires the hook on every
    /// N-th window when one is installed.
    pub fn window_done() {
        let n = WINDOWS.fetch_add(1, Ordering::Relaxed) + 1;
        let every = EVERY.load(Ordering::Relaxed);
        if every != 0 && n % every == 0 {
            let hook = HOOK.read().unwrap_or_else(|e| e.into_inner()).clone();
            if let Some(h) = hook {
                h(n);
            }
        }
    }

    /// Windows completed so far in this process.
    pub fn windows_done() -> u64 {
        WINDOWS.load(Ordering::Relaxed)
    }

    /// Install `hook`, fired (from whichever worker thread crosses the
    /// boundary) every `every` completed windows. `every == 0` disables.
    pub fn set_hook(every: u64, hook: Arc<dyn Fn(u64) + Send + Sync>) {
        *HOOK.write().unwrap_or_else(|e| e.into_inner()) = Some(hook);
        EVERY.store(every, Ordering::Relaxed);
    }

    /// Remove the hook and reset the counter (tests, campaign boundaries).
    pub fn reset() {
        EVERY.store(0, Ordering::Relaxed);
        *HOOK.write().unwrap_or_else(|e| e.into_inner()) = None;
        WINDOWS.store(0, Ordering::Relaxed);
    }
}

pub use beacon::{run_beacons, BeaconConfig, BeaconMeasurement};
pub use probe::{probe_tiers, select_vantage_points, ProbeConfig, TierProbe, VantagePoint};
pub use spray::{
    spray, RouteVals, SprayConfig, SprayDataset, SprayEngine, SprayTarget, WindowRow, MAX_ROUTES,
};

/// Publish a campaign's fault tally into the timing counters. Called only
/// when a fault plane is active, so fault-free runs keep their counter set
/// unchanged.
pub(crate) fn publish_faults(tally: &FaultTally) {
    bb_exec::timing::add_count("faults:samples_lost", tally.lost);
    bb_exec::timing::add_count("faults:timeouts", tally.timeouts);
    bb_exec::timing::add_count("faults:retries", tally.retries);
    bb_exec::timing::add_count("faults:windows_dropped", tally.dropped);
}

/// When retry `attempt` of a faulted probe re-observes a path first
/// observed at `t`: `attempt` backoffs later.
fn retry_time(fp: &FaultPlane, t: SimTime, attempt: u32) -> SimTime {
    t + attempt as f64 * fp.config().retry_backoff_min
}

/// Lane-kernel counters ([`MedianLanes`]), accumulated per task and merged
/// like [`FaultTally`]; each pipeline publishes its own.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct KernelTally {
    /// Kernel work units: one per session-minima cell, per median cell and
    /// per faulted window.
    pub batches: usize,
    /// Deviates the kernels resolved through libm.
    pub exact_evals: usize,
}

impl KernelTally {
    pub fn merge(&mut self, other: KernelTally) {
        self.batches += other.batches;
        self.exact_evals += other.exact_evals;
    }

    /// Add to `kernel:{pipeline}:batches` and `kernel:{pipeline}:exact_evals`.
    pub fn publish(&self, pipeline: &str) {
        if self.batches > 0 {
            bb_exec::timing::add_count(&format!("kernel:{pipeline}:batches"), self.batches);
            bb_exec::timing::add_count(&format!("kernel:{pipeline}:exact_evals"), self.exact_evals);
        }
    }
}

/// One task's sampling state: the jitter kernels' reused buffers, the
/// faulted path's probe list, and the task's tallies. Nothing allocates
/// per call once the buffers have grown.
#[derive(Default)]
pub(crate) struct TaskScratch {
    jitter: JitterScratch,
    /// The kernels' output.
    z: Vec<f64>,
    probes: Vec<(u64, u64)>,
    pub faults: FaultTally,
    pub kernel: KernelTally,
}

impl TaskScratch {
    /// For each cell seed, the median of its session minima (odd
    /// `sessions`), through the kernel instance `lanes`; see
    /// [`MedianLanes::median_z`].
    pub fn median_z(
        &mut self,
        lanes: MedianLanes,
        seeds: &[u64],
        sessions: usize,
        samples: usize,
    ) -> &[f64] {
        self.kernel.batches += seeds.len();
        self.kernel.exact_evals +=
            lanes.median_z(seeds, sessions, samples, &mut self.jitter, &mut self.z);
        &self.z
    }
}

/// The sample times of one campaign call, tabulated for every attempt a
/// probe can make, and the MinRTT sampling all three pipelines share.
///
/// Built once per call, before the `par_map`: attempt 0 observes the
/// sample times themselves, and under a fault plane retry `a` re-observes
/// them `a` backoffs later. Each attempt gets one [`DiurnalTable`], so no
/// attempt evaluates a sine.
pub(crate) struct Sampler {
    rtt_model: RttModel,
    /// The lane-kernel instance every draw runs.
    lanes: MedianLanes,
    /// Draws per session.
    samples: usize,
    /// Per attempt: the instants it observes and their diurnal table.
    attempts: Vec<(Vec<SimTime>, DiurnalTable)>,
}

impl Sampler {
    pub fn new(times: Vec<SimTime>, faults: Option<&FaultPlane>, samples: usize) -> Self {
        let retries = faults.map_or(Vec::new(), |fp| {
            (1..=fp.config().max_retries)
                .map(|a| times.iter().map(|&t| retry_time(fp, t, a)).collect())
                .collect()
        });
        let attempts = std::iter::once(times)
            .chain(retries)
            .map(|at: Vec<SimTime>| {
                let table = DiurnalTable::build(&at);
                (at, table)
            })
            .collect();
        Sampler {
            rtt_model: RttModel::default(),
            lanes: MedianLanes::detect(),
            samples,
            attempts,
        }
    }

    /// The `i`-th sample time.
    pub fn time(&self, i: usize) -> SimTime {
        self.attempts[0].0[i]
    }

    /// The diurnal factors of the `i`-th sample time.
    pub fn row(&self, i: usize) -> &[f64] {
        self.attempts[0].1.row(i)
    }

    /// Deterministic RTT of `route` as attempt `attempt` observes sample
    /// `i`.
    pub fn det(&self, batch: &PathPlanBatch, route: usize, i: usize, attempt: u32) -> f64 {
        let (times, table) = &self.attempts[attempt as usize];
        batch.det_rtt_ms(route, times[i], table.row(i))
    }

    /// The MinRTTs of `sessions` sessions per cell of `seeds`, cell-major,
    /// into `out`: session `s` of cell `c` reports `det(c, s)` plus the
    /// jitter of the minimum of `samples` deviates drawn from the cell's
    /// seed; see [`MedianLanes::min_z`].
    pub fn session_rtts(
        &self,
        task: &mut TaskScratch,
        seeds: &[u64],
        sessions: usize,
        det: impl Fn(usize, usize) -> f64,
        out: &mut Vec<f64>,
    ) {
        task.kernel.batches += seeds.len();
        task.kernel.exact_evals +=
            self.lanes.min_z(seeds, sessions, self.samples, &mut task.jitter, &mut task.z);
        out.clear();
        out.extend(task.z.iter().enumerate().map(|(i, &z)| {
            det(i / sessions, i % sessions) + self.rtt_model.jitter(z)
        }));
    }

    /// Faulted probes of `route` at sample `i`, one per `(probe key,
    /// seed)` in `probes`: the median RTT of those that report, or `None`
    /// when fewer than `min_kept` do, and how many reported. Attempt `a` of
    /// a probe draws one session from `derive_seed(seed, a)` over the
    /// route's RTT at the attempt's instant plus `extras`, added in order;
    /// see [`MedianLanes::faulted_median`].
    pub fn faulted(
        &self,
        fp: &FaultPlane,
        task: &mut TaskScratch,
        (batch, route, i): (&PathPlanBatch, usize, usize),
        extras: &[f64],
        probes: impl IntoIterator<Item = (u64, u64)>,
        min_kept: usize,
    ) -> (Option<f64>, usize) {
        debug_assert_eq!(self.attempts.len(), fp.config().max_retries as usize + 1);
        task.probes.clear();
        task.probes.extend(probes);
        let window = FaultedWindow {
            plane: fp,
            model: &self.rtt_model,
            samples: self.samples,
            min_kept,
            probes: &task.probes,
        };
        let det = |attempt| {
            let det = self.det(batch, route, i, attempt);
            extras.iter().fold(det, |det, &x| det + x)
        };
        let got = self.lanes.faulted_median(&window, det, &mut task.faults, &mut task.jitter);
        task.kernel.batches += 1;
        task.kernel.exact_evals += got.exact_evals;
        (got.median, got.kept)
    }
}

// The scalar retry walk the oracles check the faulted path against.
#[cfg(test)]
pub(crate) use bb_netsim::reference::faulted_attempts;
