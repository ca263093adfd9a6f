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
//! tables, and draws MinRTT jitter through the batched kernel.
//!
//! All three optionally consume a [`FaultPlane`]: probes are lost, time
//! out, and retry with bounded backoff; routes are withdrawn mid-window by
//! churn. Measurements that do not survive are emitted as `NaN` (never
//! silently averaged) and per-campaign fault tallies land in
//! `bb_exec::timing` counters (`faults:*`). With no fault plane the
//! pipelines run the exact pre-fault code path, byte for byte.

use bb_netsim::{
    batch_session_min_z, DiurnalTable, FaultPlane, JitterScratch, MedianLanes, PathPlanBatch,
    RttModel, SimTime,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub mod beacon;
pub mod probe;
pub mod spray;

/// Window-granular campaign progress, for checkpointing inside a study.
///
/// The measurement pipelines tick [`progress::window_done`] once per
/// completed aggregation unit (a spray ⟨target, window⟩, a beacon
/// ⟨prefix, round⟩, a tier probe). A harness that wants intra-experiment
/// checkpoints registers a hook fired every N ticks; with no hook
/// installed the cost is one relaxed `fetch_add` per window — zero
/// synchronization, zero I/O — so `--checkpoint`-off runs pay nothing.
///
/// The tick count is *telemetry*, not payload: it feeds the checkpoint
/// manifest's `windows_done` field and progress displays, never figure
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
pub use spray::{spray, SprayConfig, SprayDataset, SprayEngine, SprayTarget, WindowRow};

/// Per-campaign fault bookkeeping, accumulated inside `par_map` tasks and
/// merged into the process-wide `timing` counters once per campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct FaultTally {
    /// Probe attempts that never reported (lost in flight or timed out).
    pub lost: usize,
    /// Of `lost`, attempts censored by the measurement timeout — split out
    /// so a timeout preset eating legitimate long-haul RTTs shows up in
    /// the telemetry rather than hiding inside generic loss.
    pub timeouts: usize,
    /// Retry attempts issued after a lost/timed-out probe.
    pub retries: usize,
    /// Aggregation windows flagged degraded (below min-sample threshold or
    /// route withdrawn).
    pub dropped: usize,
}

impl FaultTally {
    pub fn merge(&mut self, other: FaultTally) {
        self.lost += other.lost;
        self.timeouts += other.timeouts;
        self.retries += other.retries;
        self.dropped += other.dropped;
    }

    /// Publish into the timing counters. Called only when a fault plane is
    /// active, so fault-free runs keep their counter set unchanged.
    pub fn publish(&self) {
        bb_exec::timing::add_count("faults:samples_lost", self.lost);
        bb_exec::timing::add_count("faults:timeouts", self.timeouts);
        bb_exec::timing::add_count("faults:retries", self.retries);
        bb_exec::timing::add_count("faults:windows_dropped", self.dropped);
    }
}

/// One faulted measurement: run up to `1 + max_retries` attempts of
/// `attempt -> rtt`, skipping attempts lost in flight and discarding RTTs
/// above the measurement timeout. Returns the first surviving RTT; `tally`
/// absorbs losses, timeouts and retries.
pub(crate) fn faulted_attempts(
    fp: &FaultPlane,
    probe_key: u64,
    tally: &mut FaultTally,
    mut attempt_rtt: impl FnMut(u32) -> f64,
) -> Option<f64> {
    for attempt in 0..=fp.config().max_retries {
        if attempt > 0 {
            tally.retries += 1;
        }
        if fp.lost(probe_key, attempt) {
            tally.lost += 1;
            continue;
        }
        let rtt = attempt_rtt(attempt);
        if fp.timed_out(rtt) {
            tally.lost += 1;
            tally.timeouts += 1;
            continue;
        }
        return Some(rtt);
    }
    None
}

/// When retry `attempt` of a faulted probe re-observes a path first
/// observed at `t`: `attempt` backoffs later.
fn retry_time(fp: &FaultPlane, t: SimTime, attempt: u32) -> SimTime {
    t + attempt as f64 * fp.config().retry_backoff_min
}

/// The log-normal jitter of a standard-normal deviate `z`.
pub(crate) fn jitter_of(model: &RttModel, z: f64) -> f64 {
    model.jitter_median_ms * (model.jitter_sigma * z).exp()
}

/// Batch jitter-kernel counters, accumulated per task and merged like
/// [`FaultTally`]. Only spray publishes them.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct KernelTally {
    /// Batch kernel invocations.
    pub batches: usize,
    /// Deviates the batch kernels resolved through libm.
    pub exact_evals: usize,
}

impl KernelTally {
    pub fn merge(&mut self, other: KernelTally) {
        self.batches += other.batches;
        self.exact_evals += other.exact_evals;
    }

    pub fn publish(&self) {
        if self.batches > 0 {
            bb_exec::timing::add_count("kernel:spray:batches", self.batches);
            bb_exec::timing::add_count("kernel:spray:exact_evals", self.exact_evals);
        }
    }
}

/// One task's sampling state: the jitter kernel's reused buffers, the
/// faulted path's per-attempt RTT memo and kept-session buffer, and the
/// task's tallies. Nothing allocates per call once the buffers have grown.
#[derive(Default)]
pub(crate) struct TaskScratch {
    jitter: JitterScratch,
    min_z: Vec<f64>,
    attempt_det: Vec<Option<f64>>,
    kept: Vec<f64>,
    pub faults: FaultTally,
    pub kernel: KernelTally,
}

impl TaskScratch {
    /// The minimum deviate of each of `sessions` sessions of `samples`
    /// draws from `rng`, in the scalar session walk's stream order.
    pub fn min_z(&mut self, rng: &mut StdRng, sessions: usize, samples: usize) -> &[f64] {
        self.kernel.batches += 1;
        self.kernel.exact_evals +=
            batch_session_min_z(rng, sessions, samples, &mut self.jitter, &mut self.min_z);
        &self.min_z
    }

    /// For each cell seed, the median of the session minima
    /// [`min_z`](Self::min_z) would draw from `StdRng::seed_from_u64(seed)`
    /// (odd `sessions`), through the kernel instance `lanes`.
    pub fn median_z(
        &mut self,
        lanes: MedianLanes,
        seeds: &[u64],
        sessions: usize,
        samples: usize,
    ) -> &[f64] {
        self.kernel.batches += seeds.len();
        self.kernel.exact_evals +=
            lanes.median_z(seeds, sessions, samples, &mut self.jitter, &mut self.min_z);
        &self.min_z
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

    /// The MinRTTs of `out.len()` sessions over `det`: each the jitter of
    /// the minimum of `samples` deviates drawn from `rng`.
    pub fn min_rtts(&self, task: &mut TaskScratch, rng: &mut StdRng, det: f64, out: &mut [f64]) {
        let min_z = task.min_z(rng, out.len(), self.samples);
        for (rtt, &z) in out.iter_mut().zip(min_z) {
            *rtt = det + jitter_of(&self.rtt_model, z);
        }
    }

    /// One session's MinRTT over `det`.
    pub fn min_rtt(&self, task: &mut TaskScratch, rng: &mut StdRng, det: f64) -> f64 {
        let mut rtt = [0.0];
        self.min_rtts(task, rng, det, &mut rtt);
        rtt[0]
    }

    /// Faulted probes of `route` at sample `i`, one per `(probe key,
    /// seed)` in `probes`; returns the RTTs that survive. Each probe runs
    /// [`faulted_attempts`], attempt `a` drawing one session from
    /// `derive_seed(seed, a)` over the route's RTT at the attempt's
    /// instant plus `extras`, added in order. Each attempt's RTT is
    /// computed on first use and shared by every probe of the call.
    pub fn faulted<'t>(
        &self,
        fp: &FaultPlane,
        task: &'t mut TaskScratch,
        (batch, route, i): (&PathPlanBatch, usize, usize),
        extras: &[f64],
        probes: impl IntoIterator<Item = (u64, u64)>,
    ) -> &'t mut [f64] {
        debug_assert_eq!(self.attempts.len(), fp.config().max_retries as usize + 1);
        task.attempt_det.clear();
        task.attempt_det.resize(self.attempts.len(), None);
        task.kept.clear();
        for (probe_key, seed) in probes {
            // A copy, because the attempt closure borrows all of `task`.
            let mut faults = task.faults;
            let got = faulted_attempts(fp, probe_key, &mut faults, |attempt| {
                let det = *task.attempt_det[attempt as usize].get_or_insert_with(|| {
                    let det = self.det(batch, route, i, attempt);
                    extras.iter().fold(det, |det, &x| det + x)
                });
                let mut rng = StdRng::seed_from_u64(bb_exec::derive_seed(seed, attempt as u64));
                self.min_rtt(task, &mut rng, det)
            });
            task.faults = faults;
            task.kept.extend(got);
        }
        &mut task.kept
    }
}
