//! Process-level supervision: whole shard **processes** restarted through
//! the [`supervisor`](crate::supervisor) retry ledger.
//!
//! [`supervise`](crate::supervisor::supervise) keeps *threads* honest inside
//! one process; [`orchestrate`] keeps whole worker **processes** honest. The
//! orchestrator runs one scoped thread per shard, so every shard runs at
//! once whatever the `par_map` worker count. Each thread spawns its child
//! (via a caller-supplied closure — this module knows nothing about argv or
//! checkpoints) and blocks on it, classifying every way a worker can go
//! wrong:
//!
//! * **crash** — the child exits nonzero (or dies to a signal), or the
//!   spawn fails. Retryable: the shard is respawned after deterministic
//!   backoff and resumes from its own checkpoint.
//! * **hang** — the child is alive but its heartbeat file's *content* stops
//!   changing for longer than `hang_timeout`. The orchestrator kills it and
//!   retries it like a crash. Staleness is judged against the orchestrator's
//!   own monotonic clock from the moment the content last changed — the
//!   timestamp inside the heartbeat is never parsed, so writer and watcher
//!   need no clock agreement.
//! * **fatal** — the child exits with the repo's usage/config code
//!   ([`FATAL_EXIT`] = 2). Deterministic: respawning reproduces it, so the
//!   shard fails immediately without burning the restart budget.
//!
//! A crash or hang is an attempt that returned `Err` to the supervisor's
//! retry ledger, which owns the rest: the per-shard `max_retries`, the
//! campaign-wide `retry_budget`, and the [`RetryPolicy::backoff`] sleep
//! before restart `k` of shard `i` — derived purely from
//! `(jitter_seed, i, k)`, so a chaos run replays the same restart schedule
//! every time.
//!
//! Cancellation kills all running children and reports the campaign
//! cancelled; because workers checkpoint after every finalized unit, a
//! later orchestrated run resumes from what the dead workers had saved.

use crate::supervisor::{Ledger, RetryPolicy};
use std::path::{Path, PathBuf};
use std::process::Child;
use std::time::{Duration, Instant};

/// Exit code treated as deterministic (usage/stale-checkpoint) failure:
/// restarting the child would reproduce it, so the orchestrator does not
/// retry. Mirrors the repo-wide exit-code contract (2 = usage error).
pub const FATAL_EXIT: i32 = 2;

/// One shard to orchestrate: everything the monitor needs to watch it.
/// What the child *does* lives entirely in the spawn closure.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Display label for reports (e.g. `shard 0/3`).
    pub label: String,
    /// Heartbeat file whose content changing proves the worker is alive.
    /// It need not exist at spawn time; a worker that never produces it
    /// is declared hung after `hang_timeout`.
    pub heartbeat: PathBuf,
}

/// Restart policy for one orchestrated campaign.
#[derive(Debug, Clone)]
pub struct OrchestratorPolicy {
    /// Restarts and their backoff, exactly as for thread-level retries:
    /// `max_retries` restarts per shard after its first launch, at most
    /// `retry_budget` across the campaign, backoff doubling from
    /// `backoff_base` with jitter keyed on `(jitter_seed, shard, attempt)`.
    pub retry: RetryPolicy,
    /// A running child whose heartbeat content is unchanged for this long
    /// is killed and restarted.
    pub hang_timeout: Duration,
    /// Sleep between one shard's liveness checks.
    pub poll_interval: Duration,
}

impl Default for OrchestratorPolicy {
    fn default() -> Self {
        Self {
            retry: RetryPolicy {
                retry_budget: 8,
                ..RetryPolicy::default()
            },
            hang_timeout: Duration::from_secs(30),
            poll_interval: Duration::from_millis(25),
        }
    }
}

/// How one orchestrated shard ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardOutcome {
    /// Exited 0 (possibly after restarts).
    Completed,
    /// Exhausted its restarts (or the campaign budget) without exiting 0.
    Failed,
    /// Exited [`FATAL_EXIT`]: deterministic failure, never retried.
    Fatal,
    /// Killed by cancellation before reaching a terminal state.
    Cancelled,
}

impl ShardOutcome {
    /// Stable one-word label for reports and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            ShardOutcome::Completed => "completed",
            ShardOutcome::Failed => "failed",
            ShardOutcome::Fatal => "fatal",
            ShardOutcome::Cancelled => "cancelled",
        }
    }
}

/// Per-shard record in an [`OrchestratorReport`].
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Input index of the shard.
    pub index: usize,
    /// Label copied from the [`ShardSpec`].
    pub label: String,
    /// Attempts the retry ledger ran (first launch + restarts). A spawn
    /// error is an attempt, and so is a restart that cancellation stopped
    /// before it launched.
    pub attempts: u32,
    /// Crash events observed (nonzero exits, signal deaths, spawn errors).
    pub crashes: u32,
    /// Hang events observed (stale heartbeat → kill).
    pub hangs: u32,
    /// Total wall-clock across all launches of this shard, seconds.
    pub elapsed_s: f64,
    pub outcome: ShardOutcome,
    /// Last failure description, for failed/fatal shards (and recovered
    /// ones — it names what the final successful restart recovered from).
    pub error: Option<String>,
}

/// Structured outcome of one [`orchestrate`] campaign.
#[derive(Debug, Clone)]
pub struct OrchestratorReport {
    /// One entry per input shard, in input order.
    pub shards: Vec<ShardReport>,
    /// Total attempts across all shards (each shard's first + restarts).
    pub attempts: u64,
    /// Total restarts (launches beyond each shard's first).
    pub restarts: u64,
    /// Crash events across all shards.
    pub crashes_detected: u64,
    /// Hang events across all shards.
    pub hangs_detected: u64,
    /// The campaign's restart budget, for context in reports.
    pub restart_budget: u32,
    /// True when a restart was denied because the budget ran out.
    pub budget_exhausted: bool,
    /// True when cancellation killed at least one running shard.
    pub cancelled: bool,
}

impl OrchestratorReport {
    pub fn count(&self, want: &str) -> usize {
        self.shards
            .iter()
            .filter(|s| s.outcome.label() == want)
            .count()
    }

    /// True when every shard completed.
    pub fn all_completed(&self) -> bool {
        self.count("completed") == self.shards.len()
    }
}

/// How one launch of a shard ended.
enum Exit {
    Code(Option<i32>),
    Hung,
    Cancelled,
}

/// Block on `child` until it exits, its heartbeat goes stale, or `cancel()`
/// turns true; a hung or cancelled child is killed.
fn watch(
    child: &mut Child,
    heartbeat: &Path,
    policy: &OrchestratorPolicy,
    cancel: &dyn Fn() -> bool,
) -> Exit {
    // The heartbeat's content as last read, and when it last changed by
    // the orchestrator's own monotonic clock.
    let read = || std::fs::read(heartbeat).unwrap_or_default();
    let (mut content, mut changed_at) = (read(), Instant::now());
    let exit = loop {
        if cancel() {
            break Exit::Cancelled;
        }
        match child.try_wait() {
            Ok(Some(status)) => return Exit::Code(status.code()),
            Ok(None) => {
                let now = read();
                if now != content {
                    content = now;
                    changed_at = Instant::now();
                }
                if changed_at.elapsed() > policy.hang_timeout {
                    break Exit::Hung;
                }
                std::thread::sleep(policy.poll_interval);
            }
            // try_wait error: the child is lost to us — kill it and treat
            // it as a signal death.
            Err(_) => break Exit::Code(None),
        }
    };
    let _ = child.kill();
    let _ = child.wait();
    exit
}

/// Spawn and supervise one child process per shard until every shard is
/// complete, permanently failed, or cancelled. See the module docs for the
/// crash/hang/fatal taxonomy and the restart policy.
///
/// `spawn(shard, attempt)` launches the child for `attempt` (0 = first
/// launch); it owns all child-specific setup — argv, env hooks, resume
/// decisions, pre-launch checkpoint salvage — and is called from each
/// shard's own thread. A spawn error counts as a crash of that attempt.
/// `cancel()` turning true kills all running children; a shard whose
/// restart is due after that is not launched, and the attempt counts as
/// cancelled.
pub fn orchestrate(
    specs: &[ShardSpec],
    policy: &OrchestratorPolicy,
    cancel: &(dyn Fn() -> bool + Sync),
    spawn: &(dyn Fn(usize, u32) -> std::io::Result<Child> + Sync),
) -> OrchestratorReport {
    let ledger = Ledger::new(&policy.retry);
    let shards: Vec<ShardReport> = std::thread::scope(|scope| {
        let threads: Vec<_> = specs
            .iter()
            .enumerate()
            .map(|(index, spec)| {
                let ledger = &ledger;
                scope.spawn(move || run_shard(index, spec, policy, ledger, cancel, spawn))
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("shard watcher panicked outside the ledger"))
            .collect()
    });

    let totals = ledger.report(Vec::new());
    OrchestratorReport {
        attempts: totals.attempts,
        restarts: totals.retries,
        crashes_detected: shards.iter().map(|s| s.crashes as u64).sum(),
        hangs_detected: shards.iter().map(|s| s.hangs as u64).sum(),
        restart_budget: policy.retry.retry_budget,
        budget_exhausted: totals.budget_exhausted,
        cancelled: shards.iter().any(|s| s.outcome == ShardOutcome::Cancelled),
        shards,
    }
}

/// Launch and watch shard `index` through the ledger until it completes,
/// fails for good, exits fatally, or is cancelled.
fn run_shard(
    index: usize,
    spec: &ShardSpec,
    policy: &OrchestratorPolicy,
    ledger: &Ledger,
    cancel: &dyn Fn() -> bool,
    spawn: &dyn Fn(usize, u32) -> std::io::Result<Child>,
) -> ShardReport {
    let (mut crashes, mut hangs, mut elapsed_s) = (0u32, 0u32, 0.0f64);
    let mut error: Option<String> = None;
    let (outcome, attempts) = ledger.run(index, |attempt| {
        if cancel() {
            return Ok(ShardOutcome::Cancelled);
        }
        let mut child = match spawn(index, attempt) {
            Ok(child) => child,
            Err(e) => {
                crashes += 1;
                return Err(format!("spawn failed: {e}"));
            }
        };
        let started = Instant::now();
        let exit = watch(&mut child, &spec.heartbeat, policy, cancel);
        elapsed_s += started.elapsed().as_secs_f64();
        let fail = match exit {
            Exit::Cancelled => return Ok(ShardOutcome::Cancelled),
            Exit::Code(Some(0)) => return Ok(ShardOutcome::Completed),
            Exit::Code(Some(FATAL_EXIT)) => {
                error = Some(format!("exit {FATAL_EXIT} (deterministic, not retried)"));
                return Ok(ShardOutcome::Fatal);
            }
            Exit::Code(code) => {
                crashes += 1;
                match code {
                    Some(c) => format!("exit {c}"),
                    None => "killed by signal".to_string(),
                }
            }
            Exit::Hung => {
                hangs += 1;
                format!(
                    "heartbeat stale for {:.1}s (hung, killed)",
                    policy.hang_timeout.as_secs_f64()
                )
            }
        };
        // A recovered shard keeps naming what its last restart recovered from.
        error = Some(fail.clone());
        Err(fail)
    });
    let outcome = outcome.unwrap_or_else(|fail| {
        error = Some(fail.message);
        ShardOutcome::Failed
    });
    ShardReport {
        index,
        label: spec.label.clone(),
        attempts,
        crashes,
        hangs,
        elapsed_s,
        outcome,
        error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::process::Command;

    fn sh(script: &str) -> std::io::Result<Child> {
        Command::new("sh").arg("-c").arg(script).spawn()
    }

    fn quick_policy() -> OrchestratorPolicy {
        OrchestratorPolicy {
            retry: RetryPolicy {
                backoff_base: Duration::from_millis(1),
                jitter_seed: 42,
                ..OrchestratorPolicy::default().retry
            },
            hang_timeout: Duration::from_secs(10),
            poll_interval: Duration::from_millis(5),
        }
    }

    fn specs(n: usize, tag: &str) -> (Vec<ShardSpec>, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("bb_orch_{}_{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let specs = (0..n)
            .map(|i| ShardSpec {
                label: format!("shard {i}/{n}"),
                heartbeat: dir.join(format!("hb{i}")),
            })
            .collect();
        (specs, dir)
    }

    #[test]
    fn crash_is_restarted_until_success() {
        let (specs, dir) = specs(2, "crash");
        let report = orchestrate(&specs, &quick_policy(), &|| false, &|i, attempt| {
            // Shard 1 crashes on its first launch only.
            if i == 1 && attempt == 0 {
                sh("exit 7")
            } else {
                sh("true")
            }
        });
        assert!(report.all_completed(), "{report:?}");
        assert_eq!(report.shards[0].attempts, 1);
        assert_eq!(report.shards[1].attempts, 2);
        assert_eq!(report.restarts, 1);
        assert_eq!(report.crashes_detected, 1);
        assert_eq!(report.hangs_detected, 0);
        assert!(report.shards[1].error.as_deref().unwrap().contains("exit 7"));
        assert!(!report.budget_exhausted);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spawn_error_counts_as_crash_and_is_retried() {
        let (specs, dir) = specs(1, "spawnerr");
        let report = orchestrate(&specs, &quick_policy(), &|| false, &|_, attempt| {
            if attempt == 0 {
                Err(std::io::Error::other("no such binary"))
            } else {
                sh("true")
            }
        });
        assert!(report.all_completed(), "{report:?}");
        assert_eq!(report.shards[0].attempts, 2);
        assert_eq!(report.crashes_detected, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_heartbeat_is_killed_and_restarted() {
        let (specs, dir) = specs(1, "hang");
        let policy = OrchestratorPolicy {
            hang_timeout: Duration::from_millis(200),
            ..quick_policy()
        };
        let started = Instant::now();
        let report = orchestrate(&specs, &policy, &|| false, &|_, attempt| {
            // First launch hangs forever without ever beating; the restart
            // completes instantly.
            if attempt == 0 {
                sh("sleep 60")
            } else {
                sh("true")
            }
        });
        assert!(report.all_completed(), "{report:?}");
        assert_eq!(report.hangs_detected, 1);
        assert_eq!(report.restarts, 1);
        assert!(
            report.shards[0].error.as_deref().unwrap().contains("hung"),
            "{report:?}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "hang must be detected by timeout, not by the child finishing"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn advancing_heartbeat_prevents_the_kill() {
        let (specs, dir) = specs(1, "beat");
        let policy = OrchestratorPolicy {
            hang_timeout: Duration::from_millis(400),
            ..quick_policy()
        };
        let hb = specs[0].heartbeat.display().to_string();
        // Runs ~1s total (well past hang_timeout) but beats every ~100ms,
        // so the content keeps changing and the watcher stays satisfied.
        let script =
            format!("i=0; while [ $i -lt 10 ]; do i=$((i+1)); echo $i > {hb}; sleep 0.1; done");
        let report = orchestrate(&specs, &policy, &|| false, &|_, _| sh(&script));
        assert!(report.all_completed(), "{report:?}");
        assert_eq!(report.hangs_detected, 0, "{report:?}");
        assert_eq!(report.restarts, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fatal_exit_is_not_retried() {
        let (specs, dir) = specs(2, "fatal");
        let report = orchestrate(&specs, &quick_policy(), &|| false, &|i, _| {
            if i == 0 {
                sh("exit 2")
            } else {
                sh("true")
            }
        });
        assert!(!report.all_completed());
        assert_eq!(report.shards[0].outcome, ShardOutcome::Fatal);
        assert_eq!(report.shards[0].attempts, 1, "fatal exits burn no restarts");
        assert_eq!(report.shards[1].outcome, ShardOutcome::Completed);
        assert_eq!(report.count("fatal"), 1);
        assert_eq!(report.count("completed"), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restart_budget_caps_total_restarts() {
        let (specs, dir) = specs(2, "budget");
        let quick = quick_policy();
        let policy = OrchestratorPolicy {
            retry: RetryPolicy {
                max_retries: 5,
                retry_budget: 1,
                ..quick.retry
            },
            ..quick
        };
        let report = orchestrate(&specs, &policy, &|| false, &|_, _| sh("exit 1"));
        assert_eq!(report.count("failed"), 2);
        assert!(report.budget_exhausted);
        assert_eq!(report.restarts, 1, "exactly the budget is spent");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn per_shard_restart_cap_holds() {
        let (specs, dir) = specs(1, "cap");
        let report = orchestrate(&specs, &quick_policy(), &|| false, &|_, _| sh("exit 3"));
        assert_eq!(report.shards[0].outcome, ShardOutcome::Failed);
        assert_eq!(report.shards[0].attempts, 3, "1 launch + max_retries");
        assert_eq!(report.shards[0].crashes, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cancel_kills_running_children() {
        let (specs, dir) = specs(2, "cancel");
        let started = Instant::now();
        let report = orchestrate(
            &specs,
            &quick_policy(),
            &|| started.elapsed() > Duration::from_millis(150),
            &|_, _| sh("sleep 60"),
        );
        assert!(report.cancelled);
        assert_eq!(report.count("cancelled"), 2);
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "cancel must kill, not wait for the children"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_shard_runs_at_once_whatever_the_worker_count() {
        // One shard more than `par_map` would run at once by default: each
        // shard drops a marker and waits for every other shard's, so the
        // campaign completes only if all of them are alive together.
        let n = std::thread::available_parallelism().map_or(1, |p| p.get()) + 1;
        let (specs, dir) = specs(n, "together");
        let d = dir.display();
        let policy = quick_policy();
        let started = Instant::now();
        let report = orchestrate(&specs, &policy, &|| false, &|i, _| {
            sh(&format!(
                "touch {d}/m{i}; while [ $(ls {d}/m* | wc -l) -lt {n} ]; do sleep 0.02; done"
            ))
        });
        assert!(report.all_completed(), "{report:?}");
        assert_eq!(report.restarts, 0, "{report:?}");
        assert!(
            started.elapsed() < policy.hang_timeout / 2,
            "shards waited on each other for {:?}",
            started.elapsed()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_input_is_a_completed_campaign() {
        let report = orchestrate(&[], &quick_policy(), &|| false, &|_, _| sh("true"));
        assert!(report.all_completed());
        assert_eq!(report.attempts, 0);
        assert!(!report.cancelled);
    }
}
