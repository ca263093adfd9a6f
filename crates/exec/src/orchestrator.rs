//! Process-level supervision: the [`supervisor`](crate::supervisor) ledger
//! design, one level up.
//!
//! [`supervise`](crate::supervisor::supervise) keeps *threads* honest inside
//! one process; [`orchestrate`] keeps whole worker **processes** honest. The
//! orchestrator spawns one child per shard (via a caller-supplied closure —
//! this module knows nothing about argv or checkpoints), then runs a poll
//! loop that classifies every way a worker can go wrong:
//!
//! * **crash** — the child exits nonzero (or dies to a signal). Retryable:
//!   the shard is respawned after deterministic backoff and resumes from
//!   its own checkpoint.
//! * **hang** — the child is alive but its heartbeat file's *content* stops
//!   changing for longer than `hang_timeout`. The orchestrator kills it and
//!   treats it as a crash. Staleness is judged against the orchestrator's
//!   own monotonic clock from the moment the content last changed — the
//!   timestamp inside the heartbeat is never parsed, so writer and watcher
//!   need no clock agreement.
//! * **fatal** — the child exits with the repo's usage/config code
//!   ([`FATAL_EXIT`] = 2). Deterministic: respawning reproduces it, so the
//!   shard fails immediately without burning the restart budget.
//!
//! Restarts are bounded twice by the same [`RetryPolicy`] thread-level
//! retries use: a per-shard `max_retries` and a campaign-wide
//! `retry_budget`. Backoff
//! before restart `k` of shard `i` reuses [`RetryPolicy::backoff`] — the
//! delay is derived purely from `(jitter_seed, i, k)`, so a chaos run
//! replays the same restart schedule every time.
//!
//! Cancellation kills all running children and reports the campaign
//! cancelled; because workers checkpoint after every finalized unit, a
//! later orchestrated run resumes from what the dead workers had saved.

use crate::supervisor::RetryPolicy;
use std::path::PathBuf;
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
    /// Poll-loop sleep between liveness sweeps.
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
    /// Launches actually performed (first launch + restarts).
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
    /// Total child launches across all shards.
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

/// Heartbeat watch: last observed content and when it last changed,
/// against the orchestrator's own monotonic clock.
struct HbWatch {
    content: Vec<u8>,
    changed_at: Instant,
}

impl HbWatch {
    fn start(path: &PathBuf) -> Self {
        Self {
            content: std::fs::read(path).unwrap_or_default(),
            changed_at: Instant::now(),
        }
    }

    /// Re-read the heartbeat; returns how long the content has been static.
    fn staleness(&mut self, path: &PathBuf) -> Duration {
        let now = std::fs::read(path).unwrap_or_default();
        if now != self.content {
            self.content = now;
            self.changed_at = Instant::now();
        }
        self.changed_at.elapsed()
    }
}

enum State {
    /// Waiting to (re)launch: `attempt` is the next launch's index.
    Pending { attempt: u32, not_before: Instant },
    Running {
        child: Child,
        attempt: u32,
        started: Instant,
        watch: HbWatch,
    },
    Done(ShardOutcome),
}

/// Everything a liveness sweep can observe about one child.
enum Event {
    Exited(Option<i32>),
    Hung,
    StillRunning,
}

/// Spawn and supervise one child process per shard until every shard is
/// complete, permanently failed, or cancelled. See the module docs for the
/// crash/hang/fatal taxonomy and the restart policy.
///
/// `spawn(shard, attempt)` launches the child for `attempt` (0 = first
/// launch); it owns all child-specific setup — argv, env hooks, resume
/// decisions, pre-launch checkpoint salvage. A spawn error counts as a crash
/// of that attempt. `cancel()` turning true kills all running children.
pub fn orchestrate(
    specs: &[ShardSpec],
    policy: &OrchestratorPolicy,
    cancel: &dyn Fn() -> bool,
    spawn: &mut dyn FnMut(usize, u32) -> std::io::Result<Child>,
) -> OrchestratorReport {
    let retry = &policy.retry;
    let mut budget = retry.retry_budget as i64;
    let mut budget_exhausted = false;
    let mut cancelled = false;

    struct Stat {
        attempts: u32,
        crashes: u32,
        hangs: u32,
        elapsed_s: f64,
        error: Option<String>,
    }
    let mut stats: Vec<Stat> = specs
        .iter()
        .map(|_| Stat {
            attempts: 0,
            crashes: 0,
            hangs: 0,
            elapsed_s: 0.0,
            error: None,
        })
        .collect();
    let now = Instant::now();
    let mut states: Vec<State> = specs
        .iter()
        .map(|_| State::Pending {
            attempt: 0,
            not_before: now,
        })
        .collect();

    loop {
        if !cancelled && cancel() {
            cancelled = true;
            for (i, state) in states.iter_mut().enumerate() {
                if let State::Running { child, started, .. } = state {
                    let _ = child.kill();
                    let _ = child.wait();
                    stats[i].elapsed_s += started.elapsed().as_secs_f64();
                }
                if !matches!(state, State::Done(_)) {
                    *state = State::Done(ShardOutcome::Cancelled);
                }
            }
        }

        let mut all_done = true;
        for i in 0..specs.len() {
            match &mut states[i] {
                State::Done(_) => continue,
                State::Pending { attempt, not_before } => {
                    all_done = false;
                    if Instant::now() < *not_before {
                        continue;
                    }
                    let attempt = *attempt;
                    stats[i].attempts += 1;
                    match spawn(i, attempt) {
                        Ok(child) => {
                            states[i] = State::Running {
                                child,
                                attempt,
                                started: Instant::now(),
                                watch: HbWatch::start(&specs[i].heartbeat),
                            };
                        }
                        Err(e) => {
                            stats[i].crashes += 1;
                            let msg = format!("spawn failed: {e}");
                            states[i] = next_state(
                                i,
                                attempt,
                                msg,
                                retry,
                                &mut budget,
                                &mut budget_exhausted,
                                &mut stats[i].error,
                            );
                        }
                    }
                }
                State::Running {
                    child,
                    attempt,
                    started,
                    watch,
                } => {
                    all_done = false;
                    let event = match child.try_wait() {
                        Ok(Some(status)) => Event::Exited(status.code()),
                        Ok(None) => {
                            if watch.staleness(&specs[i].heartbeat) > policy.hang_timeout {
                                let _ = child.kill();
                                let _ = child.wait();
                                Event::Hung
                            } else {
                                Event::StillRunning
                            }
                        }
                        // try_wait error: the child is lost to us — kill and
                        // treat as a signal-death crash.
                        Err(_) => {
                            let _ = child.kill();
                            let _ = child.wait();
                            Event::Exited(None)
                        }
                    };
                    let attempt = *attempt;
                    match event {
                        Event::StillRunning => {}
                        Event::Exited(Some(0)) => {
                            stats[i].elapsed_s += started.elapsed().as_secs_f64();
                            states[i] = State::Done(ShardOutcome::Completed);
                        }
                        Event::Exited(Some(FATAL_EXIT)) => {
                            stats[i].elapsed_s += started.elapsed().as_secs_f64();
                            stats[i].error =
                                Some(format!("exit {FATAL_EXIT} (deterministic, not retried)"));
                            states[i] = State::Done(ShardOutcome::Fatal);
                        }
                        Event::Exited(code) => {
                            stats[i].elapsed_s += started.elapsed().as_secs_f64();
                            stats[i].crashes += 1;
                            let msg = match code {
                                Some(c) => format!("exit {c}"),
                                None => "killed by signal".to_string(),
                            };
                            states[i] = next_state(
                                i,
                                attempt,
                                msg,
                                retry,
                                &mut budget,
                                &mut budget_exhausted,
                                &mut stats[i].error,
                            );
                        }
                        Event::Hung => {
                            stats[i].elapsed_s += started.elapsed().as_secs_f64();
                            stats[i].hangs += 1;
                            let msg = format!(
                                "heartbeat stale for {:.1}s (hung, killed)",
                                policy.hang_timeout.as_secs_f64()
                            );
                            states[i] = next_state(
                                i,
                                attempt,
                                msg,
                                retry,
                                &mut budget,
                                &mut budget_exhausted,
                                &mut stats[i].error,
                            );
                        }
                    }
                }
            }
        }
        if all_done {
            break;
        }
        std::thread::sleep(policy.poll_interval);
    }

    let mut attempts = 0u64;
    let mut restarts = 0u64;
    let mut crashes = 0u64;
    let mut hangs = 0u64;
    let shards: Vec<ShardReport> = states
        .into_iter()
        .zip(stats)
        .enumerate()
        .map(|(index, (state, stat))| {
            let outcome = match state {
                State::Done(o) => o,
                // Unreachable: the loop only exits when every state is Done.
                _ => ShardOutcome::Cancelled,
            };
            attempts += stat.attempts as u64;
            restarts += stat.attempts.saturating_sub(1) as u64;
            crashes += stat.crashes as u64;
            hangs += stat.hangs as u64;
            ShardReport {
                index,
                label: specs[index].label.clone(),
                attempts: stat.attempts,
                crashes: stat.crashes,
                hangs: stat.hangs,
                elapsed_s: stat.elapsed_s,
                outcome,
                error: stat.error,
            }
        })
        .collect();

    OrchestratorReport {
        shards,
        attempts,
        restarts,
        crashes_detected: crashes,
        hangs_detected: hangs,
        restart_budget: policy.retry.retry_budget,
        budget_exhausted,
        cancelled,
    }
}

/// Decide what follows a failed attempt: a backoff-delayed restart, or a
/// permanent `Failed` when the shard's restarts or the campaign budget are
/// exhausted. `attempt` is the index of the launch that just failed.
fn next_state(
    index: usize,
    attempt: u32,
    msg: String,
    retry: &RetryPolicy,
    budget: &mut i64,
    budget_exhausted: &mut bool,
    error: &mut Option<String>,
) -> State {
    *error = Some(msg);
    if attempt >= retry.max_retries {
        return State::Done(ShardOutcome::Failed);
    }
    if *budget <= 0 {
        *budget_exhausted = true;
        return State::Done(ShardOutcome::Failed);
    }
    *budget -= 1;
    State::Pending {
        attempt: attempt + 1,
        not_before: Instant::now() + retry.backoff(index, attempt + 1),
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
        let report = orchestrate(&specs, &quick_policy(), &|| false, &mut |i, attempt| {
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
        let report = orchestrate(&specs, &quick_policy(), &|| false, &mut |_, attempt| {
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
        let report = orchestrate(&specs, &policy, &|| false, &mut |_, attempt| {
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
        let report = orchestrate(&specs, &policy, &|| false, &mut |_, _| sh(&script));
        assert!(report.all_completed(), "{report:?}");
        assert_eq!(report.hangs_detected, 0, "{report:?}");
        assert_eq!(report.restarts, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fatal_exit_is_not_retried() {
        let (specs, dir) = specs(2, "fatal");
        let report = orchestrate(&specs, &quick_policy(), &|| false, &mut |i, _| {
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
        let report = orchestrate(&specs, &policy, &|| false, &mut |_, _| sh("exit 1"));
        assert_eq!(report.count("failed"), 2);
        assert!(report.budget_exhausted);
        assert_eq!(report.restarts, 1, "exactly the budget is spent");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn per_shard_restart_cap_holds() {
        let (specs, dir) = specs(1, "cap");
        let report = orchestrate(&specs, &quick_policy(), &|| false, &mut |_, _| sh("exit 3"));
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
            &mut |_, _| sh("sleep 60"),
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
    fn empty_input_is_a_completed_campaign() {
        let report = orchestrate(&[], &quick_policy(), &|| false, &mut |_, _| sh("true"));
        assert!(report.all_completed());
        assert_eq!(report.attempts, 0);
        assert!(!report.cancelled);
    }
}
