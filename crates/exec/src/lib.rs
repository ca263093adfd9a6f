//! Deterministic parallel execution for the studies.
//!
//! Two ideas, one crate:
//!
//! 1. [`par_map`] — a scoped work-claiming map over a slice. Workers claim
//!    indexes from an atomic counter and write results into pre-allocated
//!    per-item slots, so the output vector is always in input order and the
//!    result is **bit-identical** to a sequential run. Every study's RNG is
//!    already seeded per item (see [`derive_seed`]), so parallelism never
//!    changes which random draws an item sees — only when they happen.
//!
//! 2. [`cached_routes`] — a process-wide memo of
//!    [`bb_bgp::compute_routes`] keyed on `(topology content fingerprint,
//!    announcement content)`. Route propagation dominates every study's
//!    runtime, and the
//!    same announcement (a full-table unicast origin, an anycast deployment
//!    under evaluation) is recomputed across spray target building,
//!    catchment evaluation, tier comparison, and the grooming/site-count/
//!    availability loops. The cache hands out `Arc<RoutingTable>` clones.
//!
//! [`set_jobs`] / [`jobs`] control the worker count (`--jobs N`);
//! [`timing`] collects per-label wall-clock and cache hit/miss counts for
//! `--timing` reports.

use bb_bgp::{try_compute_routes, Announcement, AnnouncementError, Offer, RoutingTable};
use bb_topology::{InterconnectId, Topology};

pub mod orchestrator;
pub mod supervisor;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Worker-count control
// ---------------------------------------------------------------------------

/// 0 = "not set, use available cores".
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Set the worker count used by [`par_map`]. `0` resets to the default
/// (available cores). Typically called once from `--jobs N`.
pub fn set_jobs(n: usize) {
    JOBS.store(n, Ordering::Relaxed);
}

/// Current worker count: the value from [`set_jobs`], or available cores.
pub fn jobs() -> usize {
    match JOBS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
}

// ---------------------------------------------------------------------------
// Deterministic per-item seeding
// ---------------------------------------------------------------------------

/// Derive an independent per-item seed from a base seed and an item index.
///
/// SplitMix64 finalizer over `seed ^ index`: adjacent indexes land far
/// apart, and the result depends only on `(seed, index)` — never on thread
/// schedule — which is what makes parallel runs reproduce sequential ones.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------------
// Scoped work-claiming parallel map
// ---------------------------------------------------------------------------

/// Map `f` over `items` on up to [`jobs`] scoped worker threads, returning
/// results **in input order**.
///
/// `f` receives `(index, &item)`. Each worker claims the next unprocessed
/// index from a shared atomic counter (dynamic load balancing: one slow
/// item does not idle the other workers behind a static partition) and
/// writes the result into that index's slot. Because each item's work is a
/// pure function of `(index, item)` — callers derive any RNG from
/// [`derive_seed`] — the output is identical for every worker count,
/// including `jobs = 1`, which short-circuits to a plain sequential loop.
///
/// Panics in `f` propagate after all workers stop claiming new items.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = jobs().min(n.max(1));
    if workers <= 1 || n <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let cursor = AtomicUsize::new(0);

    // Hand each worker a disjoint view of the slots through a raw pointer;
    // the claim counter guarantees every index is written by exactly one
    // worker, and the scope joins all workers before `slots` is read.
    struct SlotPtr<R>(*mut Option<R>);
    unsafe impl<R: Send> Sync for SlotPtr<R> {}
    let slot_ptr = SlotPtr(slots.as_mut_ptr());
    let slot_ref = &slot_ptr;

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = f(i, &items[i]);
                // SAFETY: `i` came from a unique fetch_add claim, so no two
                // workers ever touch the same slot, and the enclosing scope
                // outlives every worker.
                unsafe {
                    *slot_ref.0.add(i) = Some(out);
                }
            });
        }
    });

    slots
        .into_iter()
        .map(|s| s.expect("par_map slot unfilled"))
        .collect()
}

// ---------------------------------------------------------------------------
// Panic isolation
// ---------------------------------------------------------------------------

/// Why the last attempt of a supervised item failed: it panicked, or (for
/// an orchestrated shard) its process crashed or hung.
#[derive(Debug, Clone)]
pub struct ItemFailure {
    /// Input index of the failed item.
    pub index: usize,
    /// Panic payload, if it was a `&str`/`String`, or the attempt's error.
    pub message: String,
    /// Wall-clock the failing attempt ran before dying — supervision
    /// reports and `=== EXPERIMENT FAILED ===` blocks can say which unit
    /// died and how long it lived.
    pub elapsed: std::time::Duration,
}

impl std::fmt::Display for ItemFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "item {} (after {:.3}s): {}",
            self.index,
            self.elapsed.as_secs_f64(),
            self.message
        )
    }
}

/// Panics caught and converted to [`ItemFailure`]s since process start.
static PANICS_ISOLATED: AtomicUsize = AtomicUsize::new(0);

/// Process-wide count of panics [`run_attempt`] absorbed.
pub fn panics_isolated() -> usize {
    PANICS_ISOLATED.load(Ordering::Relaxed)
}

/// Run one attempt of item `i` under `catch_unwind`: a panic becomes an
/// [`ItemFailure`] and bumps [`panics_isolated`].
pub(crate) fn run_attempt<R>(i: usize, f: impl FnOnce() -> R) -> Result<R, ItemFailure> {
    let start = Instant::now();
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        PANICS_ISOLATED.fetch_add(1, Ordering::Relaxed);
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic with non-string payload".to_string());
        ItemFailure {
            index: i,
            message,
            elapsed: start.elapsed(),
        }
    })
}

// ---------------------------------------------------------------------------
// Route-table cache
// ---------------------------------------------------------------------------

/// Content key for one `compute_routes` call: topology content plus the
/// announcement's full configuration.
///
/// The topology contributes its [`Topology::fingerprint`] (a fold of the
/// construction sequence), not its process-unique `uid`: two loads of the
/// same CAIDA snapshot — or the same generator config — produce the same
/// key and share cached tables, while any mutation changes the
/// fingerprint and keys a fresh entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct AnnouncementKey {
    topo_content: u64,
    origin: bb_topology::AsId,
    offers: Vec<(InterconnectId, Offer)>,
}

impl AnnouncementKey {
    fn new(topo: &Topology, ann: &Announcement) -> Self {
        AnnouncementKey {
            topo_content: topo.fingerprint(),
            origin: ann.origin,
            // offers_detailed iterates the BTreeMap, so the Vec is canonical.
            offers: ann.offers_detailed().collect(),
        }
    }
}

struct RouteCache {
    tables: RwLock<HashMap<AnnouncementKey, Arc<RoutingTable>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

fn route_cache() -> &'static RouteCache {
    static CACHE: OnceLock<RouteCache> = OnceLock::new();
    CACHE.get_or_init(|| RouteCache {
        tables: RwLock::new(HashMap::new()),
        hits: AtomicUsize::new(0),
        misses: AtomicUsize::new(0),
    })
}

/// Memoized [`bb_bgp::compute_routes`].
///
/// Returns a shared routing table for `(topo, ann)`, computing it on first
/// use. Correctness rests on two invariants: `Topology::fingerprint`
/// changes on every topology mutation, and `compute_routes` is a pure
/// function of `(topology, announcement)`. Concurrent misses on the same
/// key may both compute; one result wins the insert and both callers get
/// equal tables.
///
/// Panics on an announcement that does not belong to `topo`; runtime
/// paths that can see foreign announcements (loaded snapshots) use
/// [`try_cached_routes`].
pub fn cached_routes(topo: &Topology, ann: &Announcement) -> Arc<RoutingTable> {
    try_cached_routes(topo, ann).unwrap_or_else(|e| panic!("{e}"))
}

/// [`cached_routes`], surfacing a mismatched announcement as an error the
/// caller maps to a usage failure instead of panicking a worker.
///
/// Each cache miss also publishes the table's RIB-memory and propagation
/// work under the `rib:*` timing counters, which `--timing-json` rolls up
/// into the perf report's `rib` section.
pub fn try_cached_routes(
    topo: &Topology,
    ann: &Announcement,
) -> Result<Arc<RoutingTable>, AnnouncementError> {
    let cache = route_cache();
    let key = AnnouncementKey::new(topo, ann);
    if let Some(table) = cache.tables.read().get(&key) {
        cache.hits.fetch_add(1, Ordering::Relaxed);
        return Ok(Arc::clone(table));
    }
    cache.misses.fetch_add(1, Ordering::Relaxed);
    let table = Arc::new(try_compute_routes(topo, ann)?);
    let (considered, installed) = table.work();
    timing::add_count("rib:tables", 1);
    timing::add_count("rib:interned_bytes", table.interned_path_bytes());
    timing::add_count("rib:naive_bytes", table.naive_path_bytes());
    timing::add_count("rib:entry_pool_bytes", table.entry_pool_bytes());
    timing::add_count("rib:candidates_considered", considered as usize);
    timing::add_count("rib:candidates_installed", installed as usize);
    let mut w = cache.tables.write();
    Ok(Arc::clone(w.entry(key).or_insert(table)))
}

/// Drop every cached table (e.g. between unrelated experiment suites, or
/// in tests that want cold-cache behavior). Hit/miss counters survive.
pub fn clear_route_cache() {
    route_cache().tables.write().clear();
}

/// `(hits, misses, resident tables)` since process start.
pub fn cache_stats() -> (usize, usize, usize) {
    let cache = route_cache();
    (
        cache.hits.load(Ordering::Relaxed),
        cache.misses.load(Ordering::Relaxed),
        cache.tables.read().len(),
    )
}

// ---------------------------------------------------------------------------
// Timing instrumentation
// ---------------------------------------------------------------------------

pub mod timing {
    //! Opt-in wall-clock accounting for `--timing`.
    //!
    //! Labels accumulate total duration and call count; [`report`] renders
    //! them in label order plus the route-cache hit rate. Collection is
    //! always on (a mutex push per labelled region, negligible next to
    //! route propagation); rendering is the caller's choice.

    use parking_lot::Mutex;
    use std::collections::BTreeMap;
    use std::sync::OnceLock;
    use std::time::{Duration, Instant};

    struct Entry {
        total: Duration,
        calls: usize,
    }

    fn registry() -> &'static Mutex<BTreeMap<String, Entry>> {
        static REG: OnceLock<Mutex<BTreeMap<String, Entry>>> = OnceLock::new();
        REG.get_or_init(|| Mutex::new(BTreeMap::new()))
    }

    fn counter_registry() -> &'static Mutex<BTreeMap<String, u64>> {
        static REG: OnceLock<Mutex<BTreeMap<String, u64>>> = OnceLock::new();
        REG.get_or_init(|| Mutex::new(BTreeMap::new()))
    }

    /// Add `n` to the named event counter (e.g. RTT samples drawn). Called
    /// once per batch, never per event.
    pub fn add_count(label: &str, n: usize) {
        let mut reg = counter_registry().lock();
        *reg.entry(label.to_string()).or_insert(0) += n as u64;
    }

    /// All counters accumulated since the last [`reset`], label-sorted.
    pub fn counters() -> Vec<(String, u64)> {
        counter_registry()
            .lock()
            .iter()
            .map(|(k, &v)| (k.clone(), v))
            .collect()
    }

    /// All timing phases accumulated since the last [`reset`]:
    /// `(label, total seconds, calls)`, label-sorted.
    pub fn snapshot() -> Vec<(String, f64, usize)> {
        registry()
            .lock()
            .iter()
            .map(|(k, e)| (k.clone(), e.total.as_secs_f64(), e.calls))
            .collect()
    }

    /// Add one observation of `label` taking `elapsed`.
    pub fn record(label: &str, elapsed: Duration) {
        let mut reg = registry().lock();
        let e = reg.entry(label.to_string()).or_insert(Entry {
            total: Duration::ZERO,
            calls: 0,
        });
        e.total += elapsed;
        e.calls += 1;
    }

    /// Time `f` under `label`, passing through its result.
    pub fn time<R>(label: &str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        record(label, start.elapsed());
        out
    }

    /// Forget all recorded timings and counters (tests; between repro
    /// invocations).
    pub fn reset() {
        registry().lock().clear();
        counter_registry().lock().clear();
    }

    /// Render the timing table plus route-cache counters.
    pub fn report() -> String {
        let reg = registry().lock();
        let mut out = String::from("--- timing ---\n");
        let width = reg.keys().map(|k| k.len()).max().unwrap_or(8).max(8);
        for (label, e) in reg.iter() {
            out.push_str(&format!(
                "{label:<width$}  {:>9.3}s  ({} calls)\n",
                e.total.as_secs_f64(),
                e.calls
            ));
        }
        for (label, n) in counters() {
            out.push_str(&format!("{label:<width$}  {n:>10} events\n"));
        }
        let (hits, misses, resident) = super::cache_stats();
        let total = hits + misses;
        let rate = if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64 * 100.0
        };
        out.push_str(&format!(
            "route cache: {hits} hits / {misses} misses ({rate:.1}% hit rate), {resident} tables resident\n"
        ));
        out
    }
}

/// Advisory deadline telemetry for long-running loops (`repro serve`).
///
/// A streaming daemon cannot let a slow epoch change its output — killing
/// or retrying work on a wall-clock signal would make results depend on
/// machine speed, breaking byte-identity. So the watchdog is strictly
/// *observational*: each missed deadline bumps a counter (visible in
/// `--timing`/`--timing-json`, and as `deadline_misses` in `repro serve`'s
/// report) and warns on stderr, and the epoch's results land unchanged.
pub mod watchdog {
    use std::time::{Duration, Instant};

    /// Per-iteration deadline observer. Counts misses; never intervenes.
    #[derive(Debug, Clone, Copy)]
    pub struct Watchdog {
        budget: Duration,
        label: &'static str,
    }

    impl Watchdog {
        /// A watchdog that considers any iteration longer than `budget`
        /// a miss, reported under `{label}:deadline_missed`.
        pub fn new(label: &'static str, budget: Duration) -> Self {
            Watchdog { budget, label }
        }

        /// Observe one completed iteration that started at `start`.
        /// Returns `true` (and bumps the counter) on a miss.
        pub fn observe(&self, start: Instant) -> bool {
            let elapsed = start.elapsed();
            if elapsed <= self.budget {
                return false;
            }
            super::timing::add_count(&format!("{}:deadline_missed", self.label), 1);
            eprintln!(
                "watchdog: {} iteration took {:.3}s (budget {:.3}s) — \
                 continuing; results are unaffected",
                self.label,
                elapsed.as_secs_f64(),
                self.budget.as_secs_f64()
            );
            true
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn misses_are_counted_and_hits_are_not() {
            let wd = Watchdog::new("wdtest", Duration::from_secs(3600));
            assert!(!wd.observe(Instant::now()));
            let wd = Watchdog::new("wdtest", Duration::ZERO);
            let t = Instant::now() - Duration::from_millis(5);
            assert!(wd.observe(t));
            let n = crate::timing::counters()
                .into_iter()
                .find(|(l, _)| l == "wdtest:deadline_missed")
                .map(|(_, n)| n)
                .unwrap_or(0);
            assert!(n >= 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map(&items, |i, &x| {
            assert_eq!(i as u64, x);
            x * 2
        });
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_matches_sequential_for_any_job_count() {
        let items: Vec<u64> = (0..257).collect();
        let f = |i: usize, &x: &u64| derive_seed(x, i as u64);
        set_jobs(1);
        let seq = par_map(&items, f);
        for jobs in [2, 3, 8] {
            set_jobs(jobs);
            assert_eq!(par_map(&items, f), seq, "jobs={jobs}");
        }
        set_jobs(0);
    }

    #[test]
    fn par_map_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(&empty, |_, &x| x).is_empty());
        assert_eq!(par_map(&[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn derive_seed_decorrelates_indexes() {
        let a = derive_seed(42, 0);
        let b = derive_seed(42, 1);
        assert_ne!(a, b);
        assert_ne!(derive_seed(42, 0), derive_seed(43, 0));
        // Stable across calls.
        assert_eq!(derive_seed(42, 7), derive_seed(42, 7));
    }

    #[test]
    fn jobs_defaults_to_cores() {
        set_jobs(0);
        assert!(jobs() >= 1);
        set_jobs(5);
        assert_eq!(jobs(), 5);
        set_jobs(0);
    }

    #[test]
    fn cached_routes_matches_fresh_compute() {
        let topo = bb_topology::generate(&bb_topology::TopologyConfig::small(17));
        let asn = topo.ases()[0].id;
        let ann = Announcement::full(&topo, asn);

        let (h0, m0, _) = cache_stats();
        let cached = cached_routes(&topo, &ann);
        let fresh = bb_bgp::compute_routes(&topo, &ann);
        assert_eq!(
            format!("{cached:?}"),
            format!("{fresh:?}"),
            "cache must hand out exactly what compute_routes produces"
        );

        let again = cached_routes(&topo, &ann);
        assert!(Arc::ptr_eq(&cached, &again), "second lookup shares the table");
        let (h1, m1, _) = cache_stats();
        assert_eq!(m1 - m0, 1, "one distinct key, one miss");
        assert!(h1 - h0 >= 1, "second lookup hits");

        // Mutating the topology refreshes its uid, so the same announcement
        // keys a different entry.
        let mut mutated = topo.clone();
        mutated.set_exit_fidelity(asn, 0.5);
        assert_ne!(topo.uid(), mutated.uid());
        let (_, m2, _) = cache_stats();
        let _ = cached_routes(&mutated, &ann);
        let (_, m3, _) = cache_stats();
        assert_eq!(m3 - m2, 1, "mutated topology misses");
    }

    #[test]
    fn cache_shared_across_identical_constructions() {
        // Two separate loads of the same world (what a CAIDA snapshot
        // re-read looks like) have different uids but the same content
        // fingerprint, so the second propagation is a cache hit.
        let cfg = bb_topology::TopologyConfig::small(19);
        let t1 = bb_topology::generate(&cfg);
        let t2 = bb_topology::generate(&cfg);
        assert_ne!(t1.uid(), t2.uid());
        assert_eq!(t1.fingerprint(), t2.fingerprint());
        let ann = Announcement::full(&t1, t1.ases()[0].id);
        let a = cached_routes(&t1, &ann);
        let (h0, _, _) = cache_stats();
        let b = cached_routes(&t2, &ann);
        let (h1, _, _) = cache_stats();
        assert!(Arc::ptr_eq(&a, &b), "identical content shares the table");
        assert_eq!(h1 - h0, 1);
    }

    #[test]
    fn try_cached_routes_rejects_foreign_announcement() {
        let topo = bb_topology::generate(&bb_topology::TopologyConfig::small(23));
        let ghost = bb_topology::AsId(topo.as_count() as u32);
        let err = try_cached_routes(&topo, &Announcement::empty(ghost)).unwrap_err();
        assert!(err.to_string().contains("not in this topology"), "{err}");
    }

    #[test]
    fn try_cached_routes_rejects_oversized_prepend() {
        let topo = bb_topology::generate(&bb_topology::TopologyConfig::small(23));
        let origin = topo.ases()[0].id;
        let link = topo.adjacency(origin)[0].1;
        let mut ann = Announcement::full(&topo, origin);
        ann.prepend_link(link, u32::MAX);
        let expected = bb_bgp::AnnouncementError::PrependTooLong {
            origin,
            link,
            prepend: u32::MAX,
        };
        assert_eq!(try_cached_routes(&topo, &ann).unwrap_err(), expected);
        // Nothing was cached under the rejected key: a retry fails again.
        assert_eq!(try_cached_routes(&topo, &ann).unwrap_err(), expected);
    }

    #[test]
    fn try_cached_routes_rejects_provider_cycle() {
        use bb_topology::{AsClass, BusinessRel, ExitPolicy, LinkKind, Topology};
        // A tier-1 above a 3-cycle of customer→provider edges; no
        // validation runs on a hand-built world.
        let atlas = bb_topology::generate(&bb_topology::TopologyConfig::small(23)).atlas;
        let c0 = atlas.cities[0].id;
        let mut topo = Topology::new(atlas);
        let mut add = |name: &str, class| {
            topo.add_as(class, name, vec![c0], ExitPolicy::EarlyExit, 1.2, None, 0.0)
        };
        let t1 = add("t", AsClass::Tier1);
        let cycle = ["x", "y", "z"].map(|name| add(name, AsClass::Transit));
        let [x, y, z] = cycle;
        for (a, b) in [(x, t1), (x, y), (y, z), (z, x)] {
            topo.add_interconnect(a, b, BusinessRel::CustomerOf, LinkKind::Transit, c0, 10.0);
        }
        let (_, misses0, _) = cache_stats();
        for _ in 0..2 {
            let err = try_cached_routes(&topo, &Announcement::full(&topo, t1)).unwrap_err();
            assert!(
                matches!(err, AnnouncementError::ProviderCycle { origin, at }
                    if origin == t1 && cycle.contains(&at)),
                "{err:?}"
            );
        }
        // Nothing was cached: each call computed, and failed, afresh.
        let (_, misses1, _) = cache_stats();
        assert!(misses1 - misses0 >= 2);
    }

    #[test]
    fn miss_publishes_rib_counters() {
        let topo = bb_topology::generate(&bb_topology::TopologyConfig::small(29));
        let ann = Announcement::full(&topo, topo.ases()[1].id);
        let before: u64 = timing::counters()
            .into_iter()
            .find(|(l, _)| l == "rib:interned_bytes")
            .map(|(_, n)| n)
            .unwrap_or(0);
        let table = cached_routes(&topo, &ann);
        let after: u64 = timing::counters()
            .into_iter()
            .find(|(l, _)| l == "rib:interned_bytes")
            .map(|(_, n)| n)
            .unwrap_or(0);
        assert_eq!(after - before, table.interned_path_bytes() as u64);
        assert!(
            table.interned_path_bytes() * 4 <= table.naive_path_bytes(),
            "interned storage must stay ≤ 25% of the naive layout"
        );
    }

    #[test]
    fn timing_accumulates() {
        timing::reset();
        timing::record("unit", std::time::Duration::from_millis(5));
        timing::record("unit", std::time::Duration::from_millis(5));
        let report = timing::report();
        assert!(report.contains("unit"));
        assert!(report.contains("(2 calls)"));
        assert!(report.contains("route cache:"));
    }
}
