//! Performance telemetry for the `repro` driver.
//!
//! This library holds the structured perf report that
//! `repro --timing-json PATH` emits after a run. The report captures per-phase wall-clock, sample-throughput
//! counters, plan-compile vs query time, and cache statistics so perf
//! regressions show up as a diffable artifact (`BENCH_<scale>.json`)
//! instead of an anecdote.
//!
//! The JSON writer is hand-rolled: the workspace intentionally vendors no
//! JSON dependency, and the schema is flat enough that escaping strings and
//! formatting numbers is all that is needed.

/// Aggregated wall-clock for one timing label.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTiming {
    pub label: String,
    pub total_s: f64,
    pub calls: usize,
}

/// One named event counter (e.g. `samples:spray`).
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSample {
    pub label: String,
    pub count: u64,
}

/// Route-table cache statistics for the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RouteCacheStats {
    pub hits: u64,
    pub misses: u64,
    pub resident: u64,
}

impl RouteCacheStats {
    /// Hit rate in [0, 1]; 0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Route-cache delta attributed to one experiment: lookups observed while
/// that experiment's closure was running. Exact at `--jobs 1`; with
/// concurrent experiments the process-wide counters interleave, so a
/// lookup lands on whichever closure was on the clock when it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentCacheStats {
    pub experiment: String,
    pub hits: u64,
    pub misses: u64,
}

impl ExperimentCacheStats {
    /// Hit rate in [0, 1]; 0 when the experiment did no lookups.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Fault-plane statistics for the run (all zero when `--faults off`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Probe samples lost to injected loss, timeouts, or route churn.
    pub samples_lost: u64,
    /// Of `samples_lost`, attempts censored by the measurement timeout —
    /// split out so a timeout preset quietly eating legitimate long-haul
    /// RTTs is visible in the report, not folded into generic loss.
    pub timeouts: u64,
    /// Retransmissions attempted after a lost sample.
    pub retries: u64,
    /// Measurement windows dropped for falling below the minimum-sample
    /// threshold.
    pub windows_dropped: u64,
    /// Experiment panics contained by the isolation wrapper
    /// (`--keep-going`).
    pub panics_isolated: u64,
}

/// Supervision telemetry for the run: how the campaign's retry policy
/// exercised (all zero for a clean run with no retries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SupervisionStats {
    /// Total experiment attempts run (≥ the experiment count when
    /// anything was retried).
    pub attempts: u64,
    /// Attempts beyond each experiment's first.
    pub retries: u64,
    /// Panics absorbed across all attempts.
    pub panics_absorbed: u64,
    /// Experiments that failed at least once, then succeeded on retry.
    pub recovered: u64,
    /// Experiments that exhausted their retries without succeeding.
    pub failed: u64,
    /// Experiments never started because the campaign drained early
    /// (SIGINT/SIGTERM or a unit limit).
    pub skipped: u64,
    /// True when a retry was denied because the campaign-wide retry
    /// budget ran out.
    pub budget_exhausted: bool,
}

/// Wall-clock and outcome of one orchestrated shard process, summed over
/// all of its launches.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardWall {
    /// Shard label, e.g. `shard 0/3`.
    pub label: String,
    /// Child launches performed (first launch + restarts).
    pub attempts: u64,
    /// Total wall-clock across all launches, seconds.
    pub wall_s: f64,
    /// Final outcome label: completed | failed | fatal | cancelled.
    pub outcome: String,
}

/// Orchestration telemetry for `repro orchestrate`: how the process-level
/// supervisor exercised. Emitted only by orchestrated runs — the key is
/// absent from ordinary reports, keeping `bb-perf-report/v1` additive.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OrchestrationStats {
    /// Shard processes in the campaign.
    pub shards: u64,
    /// Total child launches across all shards.
    pub attempts: u64,
    /// Launches beyond each shard's first (crash/hang recoveries).
    pub restarts: u64,
    /// Nonzero child exits, signal deaths, and spawn errors observed.
    pub crashes_detected: u64,
    /// Stale-heartbeat kills.
    pub hangs_detected: u64,
    /// Torn shard manifests recovered by prefix salvage before resume.
    pub salvages: u64,
    /// True when a restart was denied because the campaign budget ran out.
    pub budget_exhausted: bool,
    /// Per-shard wall-clock and outcome, in shard order.
    pub per_shard: Vec<ShardWall>,
}

/// Streaming-daemon telemetry for `repro serve`: progress, sketch memory,
/// and degraded-mode activity. Emitted only by serve runs — the key is
/// absent from ordinary reports, keeping `bb-perf-report/v1` additive.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServeStats {
    /// Aggregation mode: `exact` or `sketch`.
    pub mode: String,
    /// Declared sketch ε (`0` in exact mode).
    pub epsilon: f64,
    /// ε in force at the end of the run (grows with coarsening).
    pub epsilon_in_force: f64,
    /// Measurement windows fully ingested.
    pub windows_done: u64,
    /// Snapshot epochs flushed.
    pub epochs_flushed: u64,
    /// Resident state bytes at the end of the run (counter-based
    /// accounting, see `ServeState::resident_bytes`).
    pub resident_bytes: u64,
    /// High-water resident state bytes across all epoch boundaries.
    pub peak_resident_bytes: u64,
    /// Governor coarsening rounds applied across the run's lifetime
    /// (resumed runs carry the count forward from the snapshot).
    pub governor_coarsenings: u64,
    /// Epoch deadline misses observed by the watchdog (telemetry only).
    pub deadline_misses: u64,
    /// True when this run resumed from an existing snapshot.
    pub resumed: bool,
}

/// RIB-memory and propagation-work telemetry, rolled up from the `rib:*`
/// counters the route cache publishes on every miss. Emitted only when the
/// run computed at least one routing table — the key is absent otherwise,
/// keeping `bb-perf-report/v1` additive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RibStats {
    /// Routing tables computed (cache misses).
    pub tables: u64,
    /// Bytes held by the shared-suffix interned-path arenas.
    pub interned_bytes: u64,
    /// Bytes the same tables would spend on naive per-AS `Vec<AsId>` paths.
    pub naive_bytes: u64,
    /// Bytes held by the announcement entry-link pools.
    pub entry_pool_bytes: u64,
    /// Candidate routes offered to the decision process.
    pub candidates_considered: u64,
    /// Candidates that won and were installed.
    pub candidates_installed: u64,
}

impl RibStats {
    /// Interned-arena bytes as a fraction of the naive layout; 0 when no
    /// tables were computed.
    pub fn interned_ratio(&self) -> f64 {
        if self.naive_bytes == 0 {
            0.0
        } else {
            self.interned_bytes as f64 / self.naive_bytes as f64
        }
    }
}

/// Schema tag embedded in every report so downstream tooling can detect
/// layout changes.
pub const PERF_SCHEMA: &str = "bb-perf-report/v1";

/// Structured perf report for one `repro` invocation. `Default` is the
/// all-zero report: callers set the sections their run produced.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PerfReport {
    pub experiment: String,
    pub scale: String,
    pub seed: u64,
    pub jobs: usize,
    /// End-to-end wall-clock of the run, seconds.
    pub wall_s: f64,
    /// Per-label aggregated timings, sorted by label.
    pub phases: Vec<PhaseTiming>,
    /// Event counters (sample counts etc.), sorted by label.
    pub counters: Vec<CounterSample>,
    /// Total RTT samples drawn (sum of `samples:*` counters).
    pub total_samples: u64,
    /// `total_samples / wall_s`; headline throughput number.
    pub samples_per_sec: f64,
    /// Time spent compiling congestion/path plans (sum of `*:plan` labels).
    pub plan_compile_s: f64,
    /// Time spent querying compiled plans in measurement hot loops
    /// (sum of `*:windows` labels).
    pub plan_query_s: f64,
    pub route_cache: RouteCacheStats,
    /// Per-experiment route-cache deltas, in campaign output order. An
    /// additive section: consumers of `bb-perf-report/v1` that ignore
    /// unknown keys keep parsing.
    pub route_cache_by_experiment: Vec<ExperimentCacheStats>,
    /// Fault-injection telemetry (`--faults light|heavy`, `--keep-going`).
    pub faults: FaultStats,
    /// Supervised-retry telemetry (attempts, recoveries, drain skips).
    pub supervision: SupervisionStats,
    /// Process-level orchestration telemetry (`repro orchestrate`). `None`
    /// for ordinary runs; the JSON key is emitted only when present, so
    /// existing report consumers and diffs are untouched.
    pub orchestration: Option<OrchestrationStats>,
    /// Streaming-daemon telemetry (`repro serve`). Same additive contract
    /// as `orchestration`: the key exists only when the run was a serve.
    pub serve: Option<ServeStats>,
    /// RIB-memory telemetry, derived by [`PerfReport::finalize`] from the
    /// `rib:*` counters. Same additive contract: the key exists only when
    /// the run computed routing tables.
    pub rib: Option<RibStats>,
    /// Congestion-process double-materializations avoided by the
    /// write-lock double-check (nonzero only under `--jobs > 1`).
    pub congestion_races_closed: u64,
}

impl PerfReport {
    /// Derive the roll-up fields (`total_samples`, `samples_per_sec`,
    /// `plan_compile_s`, `plan_query_s`) from `phases` and `counters`.
    pub fn finalize(mut self) -> Self {
        self.total_samples = self
            .counters
            .iter()
            .filter(|c| c.label.starts_with("samples:"))
            .map(|c| c.count)
            .sum();
        self.samples_per_sec = if self.wall_s > 0.0 {
            self.total_samples as f64 / self.wall_s
        } else {
            0.0
        };
        self.plan_compile_s = self
            .phases
            .iter()
            .filter(|p| p.label.ends_with(":plan"))
            .map(|p| p.total_s)
            .sum();
        self.plan_query_s = self
            .phases
            .iter()
            .filter(|p| p.label.ends_with(":windows"))
            .map(|p| p.total_s)
            .sum();
        let rib_counter = |label: &str| {
            self.counters
                .iter()
                .find(|c| c.label == label)
                .map_or(0, |c| c.count)
        };
        if self.counters.iter().any(|c| c.label.starts_with("rib:")) {
            self.rib = Some(RibStats {
                tables: rib_counter("rib:tables"),
                interned_bytes: rib_counter("rib:interned_bytes"),
                naive_bytes: rib_counter("rib:naive_bytes"),
                entry_pool_bytes: rib_counter("rib:entry_pool_bytes"),
                candidates_considered: rib_counter("rib:candidates_considered"),
                candidates_installed: rib_counter("rib:candidates_installed"),
            });
        }
        self
    }

    /// Render as pretty-printed JSON (two-space indent, stable key order).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("{\n");
        json_kv_str(&mut out, "schema", PERF_SCHEMA, true);
        json_kv_str(&mut out, "experiment", &self.experiment, true);
        json_kv_str(&mut out, "scale", &self.scale, true);
        json_kv_raw(&mut out, "seed", &self.seed.to_string(), true);
        json_kv_raw(&mut out, "jobs", &self.jobs.to_string(), true);
        json_kv_raw(&mut out, "wall_s", &json_f64(self.wall_s), true);
        json_kv_raw(&mut out, "total_samples", &self.total_samples.to_string(), true);
        json_kv_raw(&mut out, "samples_per_sec", &json_f64(self.samples_per_sec), true);
        json_kv_raw(&mut out, "plan_compile_s", &json_f64(self.plan_compile_s), true);
        json_kv_raw(&mut out, "plan_query_s", &json_f64(self.plan_query_s), true);

        out.push_str("  \"phases\": [\n");
        for (i, p) in self.phases.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"label\": {}, \"total_s\": {}, \"calls\": {}}}",
                json_str(&p.label),
                json_f64(p.total_s),
                p.calls
            ));
            if i + 1 < self.phases.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ],\n");

        out.push_str("  \"counters\": [\n");
        for (i, c) in self.counters.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"label\": {}, \"count\": {}}}",
                json_str(&c.label),
                c.count
            ));
            if i + 1 < self.counters.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ],\n");

        out.push_str(&format!(
            "  \"route_cache\": {{\"hits\": {}, \"misses\": {}, \"resident\": {}, \"hit_rate\": {}}},\n",
            self.route_cache.hits,
            self.route_cache.misses,
            self.route_cache.resident,
            json_f64(self.route_cache.hit_rate())
        ));

        out.push_str("  \"route_cache_by_experiment\": [\n");
        for (i, e) in self.route_cache_by_experiment.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"experiment\": {}, \"hits\": {}, \"misses\": {}, \"hit_rate\": {}}}",
                json_str(&e.experiment),
                e.hits,
                e.misses,
                json_f64(e.hit_rate())
            ));
            if i + 1 < self.route_cache_by_experiment.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ],\n");

        out.push_str(&format!(
            "  \"faults\": {{\"samples_lost\": {}, \"timeouts\": {}, \"retries\": {}, \"windows_dropped\": {}, \"panics_isolated\": {}}},\n",
            self.faults.samples_lost,
            self.faults.timeouts,
            self.faults.retries,
            self.faults.windows_dropped,
            self.faults.panics_isolated
        ));

        out.push_str(&format!(
            "  \"supervision\": {{\"attempts\": {}, \"retries\": {}, \"panics_absorbed\": {}, \
             \"recovered\": {}, \"failed\": {}, \"skipped\": {}, \"budget_exhausted\": {}}},\n",
            self.supervision.attempts,
            self.supervision.retries,
            self.supervision.panics_absorbed,
            self.supervision.recovered,
            self.supervision.failed,
            self.supervision.skipped,
            self.supervision.budget_exhausted
        ));

        if let Some(orch) = &self.orchestration {
            out.push_str(&format!(
                "  \"orchestration\": {{\"shards\": {}, \"attempts\": {}, \"restarts\": {}, \
                 \"crashes_detected\": {}, \"hangs_detected\": {}, \"salvages\": {}, \
                 \"budget_exhausted\": {}, \"per_shard\": [",
                orch.shards,
                orch.attempts,
                orch.restarts,
                orch.crashes_detected,
                orch.hangs_detected,
                orch.salvages,
                orch.budget_exhausted
            ));
            for (i, s) in orch.per_shard.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "{{\"label\": {}, \"attempts\": {}, \"wall_s\": {}, \"outcome\": {}}}",
                    json_str(&s.label),
                    s.attempts,
                    json_f64(s.wall_s),
                    json_str(&s.outcome)
                ));
            }
            out.push_str("]},\n");
        }

        if let Some(s) = &self.serve {
            out.push_str(&format!(
                "  \"serve\": {{\"mode\": {}, \"epsilon\": {}, \"epsilon_in_force\": {}, \
                 \"windows_done\": {}, \"epochs_flushed\": {}, \"resident_bytes\": {}, \
                 \"peak_resident_bytes\": {}, \"governor_coarsenings\": {}, \
                 \"deadline_misses\": {}, \"resumed\": {}}},\n",
                json_str(&s.mode),
                json_f64(s.epsilon),
                json_f64(s.epsilon_in_force),
                s.windows_done,
                s.epochs_flushed,
                s.resident_bytes,
                s.peak_resident_bytes,
                s.governor_coarsenings,
                s.deadline_misses,
                s.resumed
            ));
        }

        if let Some(r) = &self.rib {
            out.push_str(&format!(
                "  \"rib\": {{\"tables\": {}, \"interned_bytes\": {}, \"naive_bytes\": {}, \
                 \"entry_pool_bytes\": {}, \"interned_ratio\": {}, \
                 \"candidates_considered\": {}, \"candidates_installed\": {}}},\n",
                r.tables,
                r.interned_bytes,
                r.naive_bytes,
                r.entry_pool_bytes,
                json_f64(r.interned_ratio()),
                r.candidates_considered,
                r.candidates_installed
            ));
        }

        json_kv_raw(
            &mut out,
            "congestion_races_closed",
            &self.congestion_races_closed.to_string(),
            false,
        );
        out.push_str("}\n");
        out
    }
}

/// Format an f64 as a JSON number. NaN/inf have no JSON representation;
/// they become null (they only arise from a zero-duration run).
fn json_f64(x: f64) -> String {
    // An empty `Iterator::sum::<f64>()` is -0.0; render it as plain 0.
    let x = if x == 0.0 { 0.0 } else { x };
    if x.is_finite() {
        // Enough digits to round-trip timings; trailing zeros trimmed for
        // stable, readable diffs.
        let s = format!("{x:.6}");
        let s = s.trim_end_matches('0');
        let s = s.strip_suffix('.').unwrap_or(s);
        s.to_string()
    } else {
        "null".to_string()
    }
}

/// Escape a string per JSON (RFC 8259 §7).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_kv_str(out: &mut String, key: &str, val: &str, comma: bool) {
    json_kv_raw(out, key, &json_str(val), comma);
}

fn json_kv_raw(out: &mut String, key: &str, val: &str, comma: bool) {
    out.push_str(&format!("  \"{key}\": {val}"));
    if comma {
        out.push(',');
    }
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> PerfReport {
        PerfReport {
            experiment: "all".into(),
            scale: "test".into(),
            seed: 42,
            jobs: 1,
            wall_s: 2.0,
            phases: vec![
                PhaseTiming {
                    label: "spray:plan".into(),
                    total_s: 0.002,
                    calls: 3,
                },
                PhaseTiming {
                    label: "spray:windows".into(),
                    total_s: 1.25,
                    calls: 3,
                },
            ],
            counters: vec![
                CounterSample {
                    label: "samples:spray".into(),
                    count: 1_000_000,
                },
                CounterSample {
                    label: "samples:probe".into(),
                    count: 500_000,
                },
            ],
            total_samples: 0,
            samples_per_sec: 0.0,
            plan_compile_s: 0.0,
            plan_query_s: 0.0,
            route_cache: RouteCacheStats {
                hits: 10,
                misses: 30,
                resident: 30,
            },
            route_cache_by_experiment: vec![
                ExperimentCacheStats {
                    experiment: "fig1".into(),
                    hits: 10,
                    misses: 20,
                },
                ExperimentCacheStats {
                    experiment: "fig2".into(),
                    hits: 0,
                    misses: 10,
                },
            ],
            faults: FaultStats {
                samples_lost: 7,
                timeouts: 2,
                retries: 3,
                windows_dropped: 1,
                panics_isolated: 0,
            },
            supervision: SupervisionStats {
                attempts: 19,
                retries: 2,
                panics_absorbed: 2,
                recovered: 1,
                failed: 1,
                skipped: 0,
                budget_exhausted: false,
            },
            orchestration: None,
            serve: None,
            rib: None,
            congestion_races_closed: 0,
        }
        .finalize()
    }

    #[test]
    fn finalize_rolls_up_derived_fields() {
        let r = sample_report();
        assert_eq!(r.total_samples, 1_500_000);
        assert_eq!(r.samples_per_sec, 750_000.0);
        assert_eq!(r.plan_compile_s, 0.002);
        assert_eq!(r.plan_query_s, 1.25);
    }

    #[test]
    fn json_contains_schema_and_keys() {
        let j = sample_report().to_json();
        for key in [
            "\"schema\": \"bb-perf-report/v1\"",
            "\"experiment\": \"all\"",
            "\"scale\": \"test\"",
            "\"seed\": 42",
            "\"jobs\": 1",
            "\"wall_s\": 2",
            "\"total_samples\": 1500000",
            "\"samples_per_sec\": 750000",
            "\"plan_compile_s\": 0.002",
            "\"plan_query_s\": 1.25",
            "\"phases\": [",
            "\"counters\": [",
            "\"route_cache\": {",
            "\"hit_rate\": 0.25",
            "\"route_cache_by_experiment\": [",
            "{\"experiment\": \"fig1\", \"hits\": 10, \"misses\": 20, \"hit_rate\": 0.333333}",
            "\"faults\": {",
            "\"samples_lost\": 7",
            "\"timeouts\": 2",
            "\"retries\": 3",
            "\"windows_dropped\": 1",
            "\"panics_isolated\": 0",
            "\"supervision\": {",
            "\"attempts\": 19",
            "\"recovered\": 1",
            "\"budget_exhausted\": false",
            "\"congestion_races_closed\": 0",
        ] {
            assert!(j.contains(key), "missing {key} in:\n{j}");
        }
        // Crude but effective structural checks for hand-rolled JSON.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert!(!j.contains(",\n}"), "trailing comma before object close");
        assert!(!j.contains(",\n  ]"), "trailing comma before array close");
    }

    #[test]
    fn orchestration_section_is_emitted_only_when_present() {
        // Ordinary runs: no key at all, so existing report diffs are stable.
        let j = sample_report().to_json();
        assert!(!j.contains("\"orchestration\""), "{j}");

        let mut r = sample_report();
        r.orchestration = Some(OrchestrationStats {
            shards: 3,
            attempts: 5,
            restarts: 2,
            crashes_detected: 1,
            hangs_detected: 1,
            salvages: 1,
            budget_exhausted: false,
            per_shard: vec![
                ShardWall {
                    label: "shard 0/3".into(),
                    attempts: 1,
                    wall_s: 1.25,
                    outcome: "completed".into(),
                },
                ShardWall {
                    label: "shard 1/3".into(),
                    attempts: 2,
                    wall_s: 2.5,
                    outcome: "completed".into(),
                },
            ],
        });
        let j = r.to_json();
        for key in [
            "\"orchestration\": {\"shards\": 3",
            "\"restarts\": 2",
            "\"crashes_detected\": 1",
            "\"hangs_detected\": 1",
            "\"salvages\": 1",
            "\"per_shard\": [",
            "{\"label\": \"shard 0/3\", \"attempts\": 1, \"wall_s\": 1.25, \"outcome\": \"completed\"}",
        ] {
            assert!(j.contains(key), "missing {key} in:\n{j}");
        }
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert!(!j.contains(",\n}"), "trailing comma before object close");
    }

    #[test]
    fn serve_section_is_emitted_only_when_present() {
        let j = sample_report().to_json();
        assert!(!j.contains("\"serve\""), "{j}");

        let mut r = sample_report();
        r.serve = Some(ServeStats {
            mode: "sketch".into(),
            epsilon: 0.02,
            epsilon_in_force: 0.04,
            windows_done: 200,
            epochs_flushed: 8,
            resident_bytes: 65536,
            peak_resident_bytes: 131072,
            governor_coarsenings: 1,
            deadline_misses: 0,
            resumed: true,
        });
        let j = r.to_json();
        for key in [
            "\"serve\": {\"mode\": \"sketch\"",
            "\"epsilon\": 0.02",
            "\"epsilon_in_force\": 0.04",
            "\"windows_done\": 200",
            "\"epochs_flushed\": 8",
            "\"resident_bytes\": 65536",
            "\"peak_resident_bytes\": 131072",
            "\"governor_coarsenings\": 1",
            "\"deadline_misses\": 0",
            "\"resumed\": true",
        ] {
            assert!(j.contains(key), "missing {key} in:\n{j}");
        }
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(!j.contains(",\n}"), "trailing comma before object close");
    }

    #[test]
    fn rib_section_rolls_up_from_counters() {
        // No rib:* counters -> no key: pre-existing reports diff clean.
        let j = sample_report().to_json();
        assert!(!j.contains("\"rib\""), "{j}");

        let mut r = sample_report();
        r.counters.extend([
            CounterSample {
                label: "rib:tables".into(),
                count: 3,
            },
            CounterSample {
                label: "rib:interned_bytes".into(),
                count: 2_000,
            },
            CounterSample {
                label: "rib:naive_bytes".into(),
                count: 16_000,
            },
            CounterSample {
                label: "rib:entry_pool_bytes".into(),
                count: 256,
            },
            CounterSample {
                label: "rib:candidates_considered".into(),
                count: 900,
            },
            CounterSample {
                label: "rib:candidates_installed".into(),
                count: 300,
            },
        ]);
        let r = r.finalize();
        let rib = r.rib.expect("rib counters present");
        assert_eq!(rib.tables, 3);
        assert_eq!(rib.interned_ratio(), 0.125);
        let j = r.to_json();
        for key in [
            "\"rib\": {\"tables\": 3",
            "\"interned_bytes\": 2000",
            "\"naive_bytes\": 16000",
            "\"entry_pool_bytes\": 256",
            "\"interned_ratio\": 0.125",
            "\"candidates_considered\": 900",
            "\"candidates_installed\": 300",
        ] {
            assert!(j.contains(key), "missing {key} in:\n{j}");
        }
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(!j.contains(",\n}"), "trailing comma before object close");
        assert_eq!(RibStats::default().interned_ratio(), 0.0);
    }

    #[test]
    fn json_escapes_strings() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn json_f64_trims_and_handles_nonfinite() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(2.0), "2");
        assert_eq!(json_f64(0.000001), "0.000001");
        assert_eq!(json_f64(-0.0), "0");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }

    #[test]
    fn hit_rate_handles_empty_cache() {
        assert_eq!(RouteCacheStats::default().hit_rate(), 0.0);
    }
}
