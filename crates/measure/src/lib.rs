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
//! All three pipelines optionally consume a
//! [`FaultPlane`](bb_netsim::FaultPlane): probes are lost, time out, and
//! retry with bounded backoff; routes are withdrawn mid-window by churn.
//! Measurements that do not survive are emitted as `NaN` (never silently
//! averaged) and per-campaign fault tallies land in `bb_exec::timing`
//! counters (`faults:*`). With no fault plane the pipelines run the exact
//! pre-fault code path, byte for byte.

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

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::sync::atomic::AtomicUsize;

        #[test]
        fn hook_fires_every_n_windows() {
            // Serialize against other tests via the write lock semantics:
            // this test owns the global hook for its duration.
            reset();
            let fired = Arc::new(AtomicUsize::new(0));
            let f = fired.clone();
            set_hook(
                3,
                Arc::new(move |_| {
                    f.fetch_add(1, Ordering::Relaxed);
                }),
            );
            let base = windows_done();
            for _ in 0..10 {
                window_done();
            }
            assert_eq!(windows_done() - base, 10);
            // 10 ticks at every=3 crosses at least three multiples of 3.
            assert!(fired.load(Ordering::Relaxed) >= 3);
            reset();
            let before = fired.load(Ordering::Relaxed);
            window_done();
            window_done();
            window_done();
            assert_eq!(fired.load(Ordering::Relaxed), before, "reset removes hook");
        }
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
/// `attempt -> Option<rtt>` (the closure returns `None` for a sample that
/// exceeded the measurement timeout), skipping attempts lost in flight.
/// Returns the first surviving RTT; `tally` absorbs losses and retries.
pub(crate) fn faulted_attempts(
    fp: &bb_netsim::FaultPlane,
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
