//! Supervised execution: retries, deterministic backoff, graceful drain.
//!
//! [`supervise`] runs each item as the closure of
//! [`par_map`](crate::par_map), so it shares that work-claiming loop,
//! isolates each attempt's panic, and adds a supervision policy:
//!
//! * **a panicked item is re-run** with bounded per-item retries and a
//!   campaign-wide retry budget;
//! * **backoff is deterministic**: the delay before attempt `k` of item `i`
//!   is `base · 2^(k-1)` scaled by jitter derived from
//!   `(jitter_seed, i, k)` via [`derive_seed`](crate::derive_seed) — never
//!   from wall clock or thread schedule — so a retried campaign runs the
//!   same attempt pattern for every `--jobs` value;
//! * **cancellation is a drain, not an abort**: when `cancel()` turns true,
//!   workers stop claiming new items but finish (and retry) the ones in
//!   flight, so every item ends in a definite disposition;
//! * every final disposition is delivered to an `on_final` callback as soon
//!   as it is known (the driver checkpoints completed units there, without
//!   waiting for the whole campaign), and the returned
//!   [`SupervisionReport`] records attempts, absorbed panics, and the final
//!   disposition per item for `--timing-json`.
//!
//! Retry-budget exhaustion is the one schedule-dependent part: which item
//! claims the last budget unit depends on worker interleaving. It affects
//! only telemetry and how often a deterministic failure is retried — never
//! the value a successful item produces — so stdout/CSV byte-identity
//! across `--jobs` is preserved.
//!
//! The budget, the per-item cap, the backoff sleep and the tallies live in
//! one retry ledger, [`Ledger`]. [`orchestrator`](crate::orchestrator)
//! restarts whole shard *processes* through the same ledger: a crashed or
//! hung shard is an attempt that returned `Err`.

use crate::{par_map, run_attempt, ItemFailure};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Retry policy for one supervised campaign.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries allowed per item after its first attempt.
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub backoff_base: Duration,
    /// Campaign-wide cap on total retries across all items. Exhausting it
    /// stops further retries (items fail with their last error) but never
    /// aborts first attempts.
    pub retry_budget: u32,
    /// Keys the deterministic backoff jitter; pass the campaign seed.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 2,
            backoff_base: Duration::from_millis(50),
            retry_budget: 32,
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retrying item `index` after `failed_attempts`
    /// attempts have failed (so `failed_attempts >= 1`). Exponential in the
    /// attempt count with multiplicative jitter in `[0.5, 1.0)`, derived
    /// purely from `(jitter_seed, index, failed_attempts)` — byte-identical
    /// across runs, worker counts, and machines.
    pub fn backoff(&self, index: usize, failed_attempts: u32) -> Duration {
        let exp = failed_attempts.saturating_sub(1).min(16);
        let base = self.backoff_base.as_secs_f64() * (1u64 << exp) as f64;
        let bits = crate::derive_seed(
            self.jitter_seed,
            ((index as u64) << 8) | failed_attempts as u64,
        );
        // Top 53 bits → uniform in [0, 1).
        let unit = (bits >> 11) as f64 / (1u64 << 53) as f64;
        Duration::from_secs_f64(base * (0.5 + 0.5 * unit))
    }
}

/// How a supervised item ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Disposition {
    /// Succeeded on the first attempt.
    Succeeded,
    /// Failed, then a retry succeeded.
    Recovered { retries: u32 },
    /// Exhausted its retries (or the campaign budget) without succeeding.
    Failed { retries: u32 },
    /// Never started: the campaign drained before this item was claimed.
    Skipped,
}

impl Disposition {
    /// Stable one-word label for reports and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            Disposition::Succeeded => "succeeded",
            Disposition::Recovered { .. } => "recovered",
            Disposition::Failed { .. } => "failed",
            Disposition::Skipped => "skipped",
        }
    }
}

/// Structured outcome of one [`supervise`] campaign.
#[derive(Debug, Clone)]
pub struct SupervisionReport {
    /// Each item's disposition, in input order.
    pub items: Vec<Disposition>,
    /// Total attempts run across all items.
    pub attempts: u64,
    /// Total retries (attempts beyond each item's first).
    pub retries: u64,
    /// Panics absorbed across all attempts.
    pub panics_absorbed: u64,
    /// True when a retry was denied because the budget ran out.
    pub budget_exhausted: bool,
}

impl SupervisionReport {
    pub fn count(&self, want: &str) -> usize {
        self.items.iter().filter(|d| d.label() == want).count()
    }
}

/// The retry ledger one campaign's items share: the campaign-wide budget,
/// the per-item cap, the backoff sleep and the campaign's tallies.
/// [`supervise`] runs each work item through it, and
/// [`orchestrate`](crate::orchestrator::orchestrate) each shard process.
pub(crate) struct Ledger<'p> {
    policy: &'p RetryPolicy,
    budget: AtomicI64,
    budget_exhausted: AtomicBool,
    attempts: AtomicU64,
    retries: AtomicU64,
    panics: AtomicU64,
}

impl<'p> Ledger<'p> {
    pub(crate) fn new(policy: &'p RetryPolicy) -> Self {
        Self {
            policy,
            budget: AtomicI64::new(policy.retry_budget as i64),
            budget_exhausted: AtomicBool::new(false),
            attempts: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            panics: AtomicU64::new(0),
        }
    }

    /// Run item `index` until an attempt succeeds or a retry is denied,
    /// returning the final outcome and how many attempts ran. `attempt(k)`
    /// runs attempt `k` (from 0); it fails by panicking or by returning
    /// `Err(message)`, and both cost a retry alike. Only panics count
    /// toward `panics_absorbed`.
    pub(crate) fn run<R>(
        &self,
        index: usize,
        mut attempt: impl FnMut(u32) -> Result<R, String>,
    ) -> (Result<R, ItemFailure>, u32) {
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            self.attempts.fetch_add(1, Ordering::Relaxed);
            let started = Instant::now();
            let fail = match run_attempt(index, || attempt(attempts - 1)) {
                Ok(Ok(r)) => return (Ok(r), attempts),
                Ok(Err(message)) => ItemFailure {
                    index,
                    message,
                    elapsed: started.elapsed(),
                },
                Err(fail) => {
                    self.panics.fetch_add(1, Ordering::Relaxed);
                    fail
                }
            };
            if attempts > self.policy.max_retries {
                return (Err(fail), attempts);
            }
            // Claim one unit of the campaign-wide retry budget.
            if self.budget.fetch_sub(1, Ordering::Relaxed) <= 0 {
                self.budget.fetch_add(1, Ordering::Relaxed);
                self.budget_exhausted.store(true, Ordering::Relaxed);
                return (Err(fail), attempts);
            }
            self.retries.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(self.policy.backoff(index, attempts));
        }
    }

    /// The campaign's tallies, with `items` as the per-item dispositions.
    pub(crate) fn report(&self, items: Vec<Disposition>) -> SupervisionReport {
        SupervisionReport {
            items,
            attempts: self.attempts.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            panics_absorbed: self.panics.load(Ordering::Relaxed),
            budget_exhausted: self.budget_exhausted.load(Ordering::Relaxed),
        }
    }
}

/// Run `f` over `items` with panic isolation, supervised retries, and
/// drain-style cancellation. See the module docs for the policy.
///
/// `f` receives `(index, attempt, &item)` with `attempt` starting at 0, so
/// callers can make attempt-dependent behavior (or test hooks) explicit.
/// Only a panic fails an attempt: whatever `f` returns, an `Err` included,
/// is the item's result. `on_final(index, &outcome)` fires exactly once per
/// *finalized* item, from
/// the worker that ran it, as soon as its disposition is known; it is never
/// called for skipped items. The returned vector is in input order; `None`
/// marks an item skipped by cancellation.
pub fn supervise<T, R, F>(
    items: &[T],
    policy: &RetryPolicy,
    cancel: &(dyn Fn() -> bool + Sync),
    on_final: &(dyn Fn(usize, &Result<R, ItemFailure>) + Sync),
    f: F,
) -> (Vec<Option<Result<R, ItemFailure>>>, SupervisionReport)
where
    T: Sync,
    R: Send,
    F: Fn(usize, u32, &T) -> R + Sync,
{
    let ledger = Ledger::new(policy);
    // Each finalized item's outcome and attempt count; `None` once the
    // campaign drains.
    let slots = par_map(items, |i, item| {
        if cancel() {
            return None;
        }
        let (outcome, attempts) = ledger.run(i, |attempt| Ok(f(i, attempt, item)));
        on_final(i, &outcome);
        Some((outcome, attempts))
    });

    let (results, items) = slots
        .into_iter()
        .map(|slot| match slot {
            Some((outcome, attempts)) => {
                let disposition = match (&outcome, attempts - 1) {
                    (Ok(_), 0) => Disposition::Succeeded,
                    (Ok(_), retries) => Disposition::Recovered { retries },
                    (Err(_), retries) => Disposition::Failed { retries },
                };
                (Some(outcome), disposition)
            }
            None => (None, Disposition::Skipped),
        })
        .unzip();
    (results, ledger.report(items))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn quiet_policy() -> RetryPolicy {
        RetryPolicy {
            backoff_base: Duration::from_millis(1),
            jitter_seed: 42,
            ..Default::default()
        }
    }

    /// Silence the default panic hook for a scope that panics on purpose.
    fn hushed<R>(f: impl FnOnce() -> R) -> R {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(prev);
        out
    }

    #[test]
    fn retry_recovers_transiently_poisoned_item() {
        let items: Vec<u64> = (0..8).collect();
        let (results, report) = hushed(|| {
            supervise(
                &items,
                &quiet_policy(),
                &|| false,
                &|_, _| {},
                |_, attempt, &x| {
                    // Item 3 panics on its first attempt only.
                    if x == 3 && attempt == 0 {
                        panic!("transient fault");
                    }
                    x * 2
                },
            )
        });
        for (i, r) in results.iter().enumerate() {
            assert_eq!(
                *r.as_ref().unwrap().as_ref().unwrap(),
                i as u64 * 2,
                "item {i}"
            );
        }
        assert_eq!(report.items[3], Disposition::Recovered { retries: 1 });
        assert_eq!(report.attempts, 9, "item 3 ran twice");
        assert_eq!(report.panics_absorbed, 1);
        assert_eq!(report.count("recovered"), 1);
        assert_eq!(report.count("succeeded"), 7);
        assert_eq!(report.retries, 1);
        assert_eq!(report.count("skipped"), 0);
        assert!(!report.budget_exhausted);
    }

    #[test]
    fn persistent_failure_exhausts_bounded_retries() {
        let items = [1u64];
        let (results, report) = hushed(|| {
            supervise(
                &items,
                &quiet_policy(),
                &|| false,
                &|_, _| {},
                |_, _, _| -> u64 { panic!("always broken") },
            )
        });
        let fail = results[0].as_ref().unwrap().as_ref().unwrap_err();
        assert!(fail.message.contains("always broken"));
        assert_eq!(report.items[0], Disposition::Failed { retries: 2 });
        assert_eq!(report.attempts, 3, "1 attempt + max_retries");
        assert_eq!(report.retries, 2);
        assert_eq!(report.panics_absorbed, 3);
    }

    #[test]
    fn zero_budget_means_no_retries() {
        let items: Vec<u64> = (0..4).collect();
        let policy = RetryPolicy {
            retry_budget: 0,
            ..quiet_policy()
        };
        let (_, report) = hushed(|| {
            supervise(
                &items,
                &policy,
                &|| false,
                &|_, _| {},
                |_, _, _| -> u64 { panic!("broken") },
            )
        });
        assert_eq!(report.retries, 0, "budget 0 denies every retry");
        assert!(report.budget_exhausted);
        assert_eq!(report.attempts, 4, "one attempt per item");
        for item in &report.items {
            assert_eq!(*item, Disposition::Failed { retries: 0 });
        }
    }

    #[test]
    fn budget_caps_total_retries_across_items() {
        let items: Vec<u64> = (0..6).collect();
        let policy = RetryPolicy {
            retry_budget: 3,
            ..quiet_policy()
        };
        let (_, report) = hushed(|| {
            supervise(
                &items,
                &policy,
                &|| false,
                &|_, _| {},
                |_, _, _| -> u64 { panic!("broken") },
            )
        });
        assert_eq!(report.retries, 3, "exactly the budget is spent");
        assert!(report.budget_exhausted);
        assert_eq!(report.count("failed"), 6);
    }

    #[test]
    fn cancel_drains_instead_of_aborting() {
        let items: Vec<u64> = (0..10).collect();
        for jobs in [1usize, 2] {
            crate::set_jobs(jobs);
            let finals: Vec<AtomicUsize> = items.iter().map(|_| AtomicUsize::new(0)).collect();
            let finalized = AtomicUsize::new(0);
            let (results, report) = supervise(
                &items,
                &RetryPolicy { max_retries: 0, ..Default::default() },
                &|| finalized.load(Ordering::Relaxed) >= 3,
                &|i, _| {
                    finals[i].fetch_add(1, Ordering::Relaxed);
                    finalized.fetch_add(1, Ordering::Relaxed);
                },
                |_, _, &x| x + 1,
            );
            crate::set_jobs(0);
            let done = results.iter().filter(|r| r.is_some()).count();
            if jobs == 1 {
                assert_eq!(done, 3, "drain finishes in-flight items, claims no more");
            } else {
                // Each worker finishes the item it holds when cancel turns.
                assert!((3..items.len()).contains(&done), "jobs={jobs}: {done} finalized");
            }
            assert_eq!(report.count("skipped"), items.len() - done, "jobs={jobs}");
            assert_eq!(report.attempts, done as u64, "jobs={jobs}");
            for (i, r) in results.iter().enumerate() {
                match r {
                    Some(outcome) => {
                        assert_eq!(*outcome.as_ref().unwrap(), i as u64 + 1, "jobs={jobs}");
                        assert_eq!(report.items[i], Disposition::Succeeded, "jobs={jobs}");
                        assert_eq!(finals[i].load(Ordering::Relaxed), 1, "jobs={jobs}: item {i}");
                    }
                    None => {
                        assert_eq!(report.items[i], Disposition::Skipped, "jobs={jobs}");
                        assert_eq!(finals[i].load(Ordering::Relaxed), 0, "jobs={jobs}: item {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn on_final_fires_once_per_finalized_item() {
        let items: Vec<u64> = (0..32).collect();
        let calls = AtomicUsize::new(0);
        let (results, _) = supervise(
            &items,
            &RetryPolicy { max_retries: 0, ..Default::default() },
            &|| false,
            &|i, outcome| {
                calls.fetch_add(1, Ordering::Relaxed);
                assert_eq!(*outcome.as_ref().unwrap(), i as u64 * 3);
            },
            |_, _, &x| x * 3,
        );
        assert_eq!(calls.load(Ordering::Relaxed), items.len());
        assert!(results.iter().all(|r| r.is_some()));
    }

    #[test]
    fn backoff_is_deterministic_exponential_with_jitter() {
        let policy = RetryPolicy {
            backoff_base: Duration::from_millis(100),
            jitter_seed: 7,
            ..Default::default()
        };
        for index in [0usize, 3, 17] {
            for attempt in 1..=4u32 {
                let d = policy.backoff(index, attempt);
                assert_eq!(d, policy.backoff(index, attempt), "stable across calls");
                let base = 0.1 * (1u64 << (attempt - 1)) as f64;
                let s = d.as_secs_f64();
                assert!(s >= base * 0.5 && s < base, "attempt {attempt}: {s}s");
            }
        }
        // Jitter decorrelates items and seeds.
        assert_ne!(policy.backoff(0, 1), policy.backoff(1, 1));
        let other = RetryPolicy {
            jitter_seed: 8,
            ..policy.clone()
        };
        assert_ne!(policy.backoff(0, 1), other.backoff(0, 1));
    }

    #[test]
    fn results_identical_across_job_counts() {
        let items: Vec<u64> = (0..64).collect();
        let mut runs: Vec<String> = Vec::new();
        for jobs in [1usize, 4] {
            crate::set_jobs(jobs);
            let (results, _) = hushed(|| {
                supervise(
                    &items,
                    &quiet_policy(),
                    &|| false,
                    &|_, _| {},
                    |i, attempt, &x| {
                        // Item 11 recovers on retry; item 42 always fails.
                        if x == 11 && attempt == 0 {
                            panic!("transient");
                        }
                        if x == 42 {
                            panic!("permanent");
                        }
                        crate::derive_seed(x, i as u64)
                    },
                )
            });
            let rendered: Vec<String> = results
                .iter()
                .map(|r| match r {
                    Some(Ok(v)) => format!("ok:{v}"),
                    Some(Err(e)) => format!("err:{}:{}", e.index, e.message),
                    None => "skipped".to_string(),
                })
                .collect();
            runs.push(rendered.join(","));
        }
        crate::set_jobs(0);
        assert_eq!(runs[0], runs[1]);
    }

    #[test]
    fn ledger_charges_an_error_like_a_panic() {
        let policy = RetryPolicy {
            max_retries: 1,
            retry_budget: 2,
            backoff_base: Duration::from_millis(40),
            jitter_seed: 42,
        };
        let ledger = Ledger::new(&policy);
        let backoff = policy.backoff(0, 1);
        // Item 0 twice over: once failing by `Err` on both attempts, once
        // panicking first and returning `Err` on its retry. Each hits the
        // per-item cap after one retry and waits `backoff(0, 1)` before it.
        let mut starts: Vec<Vec<Instant>> = vec![Vec::new(), Vec::new()];
        let (errs, err_attempts) = ledger.run(0, |_| -> Result<(), String> {
            starts[0].push(Instant::now());
            Err("refused".to_string())
        });
        let (panics, panic_attempts) = hushed(|| {
            ledger.run(0, |attempt| -> Result<(), String> {
                starts[1].push(Instant::now());
                if attempt == 0 {
                    panic!("crashed");
                }
                Err("refused again".to_string())
            })
        });
        assert_eq!((err_attempts, panic_attempts), (2, 2), "1 attempt + max_retries");
        assert_eq!(errs.unwrap_err().message, "refused");
        assert_eq!(panics.unwrap_err().message, "refused again");
        for (kind, s) in ["err", "panic"].iter().zip(&starts) {
            assert!(s[1] - s[0] >= backoff, "{kind}: waited {:?} < {backoff:?}", s[1] - s[0]);
        }
        // Both retries came out of the budget of 2: a third item gets none.
        let (_, attempts) = ledger.run(1, |_| -> Result<(), String> { Err("no".to_string()) });
        assert_eq!(attempts, 1, "budget spent");
        let report = ledger.report(Vec::new());
        assert_eq!(report.attempts, 5);
        assert_eq!(report.retries, 2);
        assert_eq!(report.panics_absorbed, 1, "only the panic counts");
        assert!(report.budget_exhausted);
    }

    #[test]
    fn empty_input_yields_empty_report() {
        let items: Vec<u64> = vec![];
        let (results, report) =
            supervise(&items, &RetryPolicy::default(), &|| false, &|_, _| {}, |_, _, &x| x);
        assert!(results.is_empty());
        assert!(report.items.is_empty());
        assert_eq!(report.attempts, 0);
    }
}
