//! Performance telemetry for the `repro` driver.
//!
//! This library holds the structured perf report that
//! `repro --timing-json PATH` emits after a run. The report captures per-phase wall-clock, sample-throughput
//! counters, plan-compile vs query time, and cache statistics so perf
//! regressions show up as a diffable artifact (`BENCH_<scale>.json`)
//! instead of an anecdote.
//!
//! Every section that the process-wide registries can answer is derived
//! here by [`PerfReport::finalize`]; a subcommand supplies only the
//! sections no registry holds (its supervision tallies, its orchestration
//! or serve state). The JSON writer is hand-rolled: the workspace
//! intentionally vendors no JSON dependency, and the schema is flat enough
//! that escaping strings and formatting numbers is all that is needed.

/// Schema tag embedded in every report so downstream tooling can detect
/// layout changes.
pub const PERF_SCHEMA: &str = "bb-perf-report/v1";

/// One JSON value. Objects keep their keys in insertion order, which is
/// the order the report writes them in.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    U64(u64),
    F64(f64),
    Bool(bool),
    Str(String),
    List(Vec<Json>),
    Obj(Vec<(&'static str, Json)>),
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::U64(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::U64(v as u64)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::F64(x)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

/// Build a [`Json::Obj`] from `"key": value` pairs, in order; each value
/// goes through `Json::from`.
#[macro_export]
macro_rules! obj {
    ($($key:literal: $val:expr),* $(,)?) => {
        $crate::Json::Obj(vec![$(($key, $crate::Json::from($val))),*])
    };
}

impl Json {
    /// Render as a report file: the top-level object and its lists put one
    /// entry per line (two-space indent, an empty list is `[\n  ]`), every
    /// nested value is inline with `, ` separators.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        let (open, close, entries): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::U64(v) => return out.push_str(&v.to_string()),
            Json::F64(x) => return out.push_str(&json_f64(*x)),
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Json::Str(s) => return out.push_str(&json_str(s)),
            Json::List(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Obj(fields) => (
                '{',
                '}',
                fields.iter().map(|(k, v)| (Some(*k), v)).collect(),
            ),
        };
        let multiline = depth == 0 || (depth == 1 && open == '[');
        out.push(open);
        for (i, (key, val)) in entries.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            if multiline {
                out.push('\n');
                out.push_str(&"  ".repeat(depth + 1));
            } else if i > 0 {
                out.push(' ');
            }
            if let Some(key) = key {
                out.push_str(&json_str(key));
                out.push_str(": ");
            }
            val.write(out, depth + 1);
        }
        if multiline {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        }
        out.push(close);
    }
}

/// `num / den`, or 0 when `den` is 0 (a cache with no lookups, a run that
/// computed no routing tables).
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// What the process-wide registries held when the run ended. `repro`
/// reads them (`timing::snapshot`, `timing::counters`, `cache_stats`, ...)
/// and hands them over, so this crate needs no dependency.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    /// `(label, total seconds, calls)` per timing label, label-sorted.
    pub phases: Vec<(String, f64, usize)>,
    /// `(label, count)` per event counter, label-sorted.
    pub counters: Vec<(String, u64)>,
    /// Route-table cache `(hits, misses, resident tables)`.
    pub route_cache: (usize, usize, usize),
    /// Experiment panics contained by the isolation wrapper
    /// (`--keep-going`).
    pub panics_isolated: usize,
    /// Congestion-process double-materializations avoided by the
    /// write-lock double-check (nonzero only under `--jobs > 1`).
    pub congestion_races_closed: usize,
}

/// Structured perf report for one `repro` invocation: the run's identity
/// plus the sections only its subcommand knows.
#[derive(Debug, Clone, Default)]
pub struct PerfReport {
    pub experiment: String,
    pub scale: String,
    pub seed: u64,
    pub jobs: usize,
    /// End-to-end wall-clock of the run, seconds.
    pub wall_s: f64,
    /// Peak resident set of the process, MiB ([`peak_rss_mb`]); the report
    /// omits the field when it is `None`.
    pub peak_rss_mb: Option<f64>,
    /// The caller's own sections, keyed by one of `route_cache_by_experiment`
    /// (per-experiment route-cache deltas, in campaign output order),
    /// `supervision` (supervised-retry tallies), `orchestration` (`repro
    /// orchestrate`) or `serve` (`repro serve`). The first two are in every
    /// report (a run without a campaign writes an empty list and an idle
    /// supervision section); the others appear only when supplied, which
    /// keeps `bb-perf-report/v1` additive.
    pub sections: Vec<(&'static str, Json)>,
}

impl PerfReport {
    /// The full report: the caller's sections in their slots, everything
    /// else derived from `reg`. Derived roll-ups: `total_samples` sums the
    /// `samples:*` counters, `plan_compile_s` the `*:plan` phases,
    /// `plan_query_s` the `*:windows` phases; `faults` reads the `faults:*`
    /// counters and `rib` (present only when a `rib:*` counter is) the
    /// `rib:*` ones.
    pub fn finalize(self, reg: &Registry) -> Json {
        let mut sections = self.sections;
        let mut take = |key: &str| {
            let i = sections.iter().position(|(k, _)| *k == key)?;
            Some(sections.swap_remove(i).1)
        };
        let counter = |label: &str| {
            reg.counters
                .iter()
                .find(|(l, _)| l == label)
                .map_or(0, |&(_, n)| n)
        };
        let phase_s = |suffix: &str| -> f64 {
            reg.phases
                .iter()
                .filter(|(l, ..)| l.ends_with(suffix))
                .map(|&(_, s, _)| s)
                .sum()
        };
        let total_samples: u64 = reg
            .counters
            .iter()
            .filter(|(l, _)| l.starts_with("samples:"))
            .map(|&(_, n)| n)
            .sum();
        let samples_per_sec = if self.wall_s > 0.0 {
            total_samples as f64 / self.wall_s
        } else {
            0.0
        };
        let phases = reg.phases.iter().map(|(label, total_s, calls)| {
            obj! { "label": label.as_str(), "total_s": *total_s, "calls": *calls }
        });
        let counters = reg
            .counters
            .iter()
            .map(|(label, count)| obj! { "label": label.as_str(), "count": *count });
        let (hits, misses, resident) = reg.route_cache;
        let mut doc = vec![
            ("schema", PERF_SCHEMA.into()),
            ("experiment", self.experiment.as_str().into()),
            ("scale", self.scale.as_str().into()),
            ("seed", self.seed.into()),
            ("jobs", self.jobs.into()),
            ("wall_s", self.wall_s.into()),
        ];
        doc.extend(self.peak_rss_mb.map(|mb| ("peak_rss_mb", mb.into())));
        doc.extend([
            ("total_samples", total_samples.into()),
            ("samples_per_sec", samples_per_sec.into()),
            ("plan_compile_s", phase_s(":plan").into()),
            ("plan_query_s", phase_s(":windows").into()),
            ("phases", Json::List(phases.collect())),
            ("counters", Json::List(counters.collect())),
            (
                "route_cache",
                obj! {
                    "hits": hits,
                    "misses": misses,
                    "resident": resident,
                    "hit_rate": ratio(hits as u64, (hits + misses) as u64),
                },
            ),
            (
                "route_cache_by_experiment",
                take("route_cache_by_experiment").unwrap_or(Json::List(Vec::new())),
            ),
            (
                "faults",
                obj! {
                    "samples_lost": counter("faults:samples_lost"),
                    "timeouts": counter("faults:timeouts"),
                    "retries": counter("faults:retries"),
                    "windows_dropped": counter("faults:windows_dropped"),
                    "panics_isolated": reg.panics_isolated,
                },
            ),
            (
                "supervision",
                take("supervision").unwrap_or_else(|| {
                    obj! {
                        "attempts": 0u64,
                        "retries": 0u64,
                        "panics_absorbed": 0u64,
                        "recovered": 0u64,
                        "failed": 0u64,
                        "skipped": 0u64,
                        "budget_exhausted": false,
                    }
                }),
            ),
        ]);
        for key in ["orchestration", "serve"] {
            doc.extend(take(key).map(|section| (key, section)));
        }
        assert!(
            sections.is_empty(),
            "unknown perf-report sections {sections:?}"
        );
        if reg.counters.iter().any(|(l, _)| l.starts_with("rib:")) {
            let (interned, naive) = (counter("rib:interned_bytes"), counter("rib:naive_bytes"));
            doc.push((
                "rib",
                obj! {
                    "tables": counter("rib:tables"),
                    "interned_bytes": interned,
                    "naive_bytes": naive,
                    "entry_pool_bytes": counter("rib:entry_pool_bytes"),
                    "interned_ratio": ratio(interned, naive),
                    "candidates_considered": counter("rib:candidates_considered"),
                    "candidates_installed": counter("rib:candidates_installed"),
                },
            ));
        }
        doc.push((
            "congestion_races_closed",
            reg.congestion_races_closed.into(),
        ));
        Json::Obj(doc)
    }
}

/// The process's peak resident set (`VmHWM` in `/proc/self/status`), in
/// MiB; `None` where that file is unreadable.
pub fn peak_rss_mb() -> Option<f64> {
    vm_hwm_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// The `VmHWM:  <n> kB` line of a `/proc/<pid>/status` text, in MiB.
fn vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: u64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kib as f64 / 1024.0)
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
            peak_rss_mb: None,
            sections: vec![
                (
                    "route_cache_by_experiment",
                    Json::List(vec![
                        obj! { "experiment": "fig1", "hits": 10u64, "misses": 20u64, "hit_rate": ratio(10, 30) },
                        obj! { "experiment": "fig2", "hits": 0u64, "misses": 10u64, "hit_rate": ratio(0, 10) },
                    ]),
                ),
                (
                    "supervision",
                    obj! {
                        "attempts": 19u64,
                        "retries": 2u64,
                        "panics_absorbed": 2u64,
                        "recovered": 1u64,
                        "failed": 1u64,
                        "skipped": 0u64,
                        "budget_exhausted": false,
                    },
                ),
            ],
        }
    }

    fn sample_registry() -> Registry {
        Registry {
            phases: vec![
                ("spray:plan".into(), 0.002, 3),
                ("spray:windows".into(), 1.25, 3),
            ],
            counters: vec![
                ("faults:retries".into(), 3),
                ("faults:samples_lost".into(), 7),
                ("faults:timeouts".into(), 2),
                ("faults:windows_dropped".into(), 1),
                ("samples:spray".into(), 1_000_000),
                ("samples:probe".into(), 500_000),
            ],
            route_cache: (10, 30, 30),
            ..Registry::default()
        }
    }

    /// `report`'s top-level value under `key`.
    fn field<'a>(report: &'a Json, key: &str) -> &'a Json {
        let Json::Obj(fields) = report else {
            panic!("not an object: {report:?}")
        };
        &fields.iter().find(|(k, _)| *k == key).expect(key).1
    }

    /// A report carrying every section, with the values that stress the
    /// writer: an empty and non-empty top-level arrays, a NaN, a `-0.0`,
    /// and strings that need escaping.
    fn golden_report() -> Json {
        let counters = [
            ("faults:retries", 3),
            ("faults:samples_lost", 11),
            ("faults:timeouts", 2),
            ("faults:windows_dropped", 1),
            ("rib:candidates_considered", 900),
            ("rib:candidates_installed", 300),
            ("rib:entry_pool_bytes", 256),
            ("rib:interned_bytes", 2_000),
            ("rib:naive_bytes", 16_000),
            ("rib:tables", 3),
            ("samples:probe", 200),
            ("samples:spray", 1_000),
        ];
        let registry = Registry {
            phases: vec![
                ("line\nbreak".into(), -0.0, 0),
                ("spray:plan".into(), f64::NAN, 1),
                ("spray:windows".into(), 0.5, 4),
            ],
            counters: counters
                .iter()
                .map(|&(label, count)| (label.into(), count))
                .collect(),
            route_cache: (3, 1, 1),
            panics_isolated: 1,
            congestion_races_closed: 5,
        };
        PerfReport {
            experiment: "all \"quoted\" \\ tab\t".into(),
            scale: "test".into(),
            seed: 7,
            jobs: 2,
            wall_s: 4.0,
            peak_rss_mb: Some(48.5),
            sections: vec![
                (
                    "supervision",
                    obj! {
                        "attempts": 20u64,
                        "retries": 2u64,
                        "panics_absorbed": 1u64,
                        "recovered": 1u64,
                        "failed": 0u64,
                        "skipped": 1u64,
                        "budget_exhausted": true,
                    },
                ),
                (
                    "orchestration",
                    obj! {
                        "shards": 2u64,
                        "attempts": 3u64,
                        "restarts": 1u64,
                        "crashes_detected": 1u64,
                        "hangs_detected": 0u64,
                        "salvages": 1u64,
                        "budget_exhausted": false,
                        "per_shard": Json::List(vec![
                            obj! { "label": "shard 0/2", "attempts": 2u64, "wall_s": 1.125, "outcome": "completed" },
                            obj! { "label": "shard 1/2", "attempts": 1u64, "wall_s": 0.0000004, "outcome": "failed" },
                        ]),
                    },
                ),
                (
                    "serve",
                    obj! {
                        "mode": "sketch",
                        "epsilon": 0.05,
                        "epsilon_in_force": -0.0,
                        "windows_done": 40u64,
                        "epochs_flushed": 5u64,
                        "resident_bytes": 4096u64,
                        "peak_resident_bytes": 8192u64,
                        "governor_coarsenings": 1u64,
                        "deadline_misses": 2u64,
                        "resumed": false,
                    },
                ),
            ],
        }
        .finalize(&registry)
    }

    /// `golden_report()` as the writer renders it, byte for byte.
    const GOLDEN: &str = r#"{
  "schema": "bb-perf-report/v1",
  "experiment": "all \"quoted\" \\ tab\t",
  "scale": "test",
  "seed": 7,
  "jobs": 2,
  "wall_s": 4,
  "peak_rss_mb": 48.5,
  "total_samples": 1200,
  "samples_per_sec": 300,
  "plan_compile_s": null,
  "plan_query_s": 0.5,
  "phases": [
    {"label": "line\nbreak", "total_s": 0, "calls": 0},
    {"label": "spray:plan", "total_s": null, "calls": 1},
    {"label": "spray:windows", "total_s": 0.5, "calls": 4}
  ],
  "counters": [
    {"label": "faults:retries", "count": 3},
    {"label": "faults:samples_lost", "count": 11},
    {"label": "faults:timeouts", "count": 2},
    {"label": "faults:windows_dropped", "count": 1},
    {"label": "rib:candidates_considered", "count": 900},
    {"label": "rib:candidates_installed", "count": 300},
    {"label": "rib:entry_pool_bytes", "count": 256},
    {"label": "rib:interned_bytes", "count": 2000},
    {"label": "rib:naive_bytes", "count": 16000},
    {"label": "rib:tables", "count": 3},
    {"label": "samples:probe", "count": 200},
    {"label": "samples:spray", "count": 1000}
  ],
  "route_cache": {"hits": 3, "misses": 1, "resident": 1, "hit_rate": 0.75},
  "route_cache_by_experiment": [
  ],
  "faults": {"samples_lost": 11, "timeouts": 2, "retries": 3, "windows_dropped": 1, "panics_isolated": 1},
  "supervision": {"attempts": 20, "retries": 2, "panics_absorbed": 1, "recovered": 1, "failed": 0, "skipped": 1, "budget_exhausted": true},
  "orchestration": {"shards": 2, "attempts": 3, "restarts": 1, "crashes_detected": 1, "hangs_detected": 0, "salvages": 1, "budget_exhausted": false, "per_shard": [{"label": "shard 0/2", "attempts": 2, "wall_s": 1.125, "outcome": "completed"}, {"label": "shard 1/2", "attempts": 1, "wall_s": 0, "outcome": "failed"}]},
  "serve": {"mode": "sketch", "epsilon": 0.05, "epsilon_in_force": 0, "windows_done": 40, "epochs_flushed": 5, "resident_bytes": 4096, "peak_resident_bytes": 8192, "governor_coarsenings": 1, "deadline_misses": 2, "resumed": false},
  "rib": {"tables": 3, "interned_bytes": 2000, "naive_bytes": 16000, "entry_pool_bytes": 256, "interned_ratio": 0.125, "candidates_considered": 900, "candidates_installed": 300},
  "congestion_races_closed": 5
}
"#;

    #[test]
    fn writer_matches_golden_bytes() {
        let j = golden_report().to_json();
        assert_eq!(j, GOLDEN, "writer output drifted:\n{j}");
    }

    #[test]
    fn finalize_rolls_up_derived_fields() {
        let r = sample_report().finalize(&sample_registry());
        assert_eq!(field(&r, "total_samples"), &Json::U64(1_500_000));
        assert_eq!(field(&r, "samples_per_sec"), &Json::F64(750_000.0));
        assert_eq!(field(&r, "plan_compile_s"), &Json::F64(0.002));
        assert_eq!(field(&r, "plan_query_s"), &Json::F64(1.25));
    }

    #[test]
    fn json_contains_schema_and_keys() {
        let j = sample_report().finalize(&sample_registry()).to_json();
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
        let j = sample_report().finalize(&sample_registry()).to_json();
        assert!(!j.contains("\"orchestration\""), "{j}");

        let mut r = sample_report();
        r.sections.push((
            "orchestration",
            obj! {
                "shards": 3u64,
                "attempts": 5u64,
                "restarts": 2u64,
                "crashes_detected": 1u64,
                "hangs_detected": 1u64,
                "salvages": 1u64,
                "budget_exhausted": false,
                "per_shard": Json::List(vec![
                    obj! { "label": "shard 0/3", "attempts": 1u64, "wall_s": 1.25, "outcome": "completed" },
                    obj! { "label": "shard 1/3", "attempts": 2u64, "wall_s": 2.5, "outcome": "completed" },
                ]),
            },
        ));
        let j = r.finalize(&sample_registry()).to_json();
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
        let j = sample_report().finalize(&sample_registry()).to_json();
        assert!(!j.contains("\"serve\""), "{j}");

        let mut r = sample_report();
        r.sections.push((
            "serve",
            obj! {
                "mode": "sketch",
                "epsilon": 0.02,
                "epsilon_in_force": 0.04,
                "windows_done": 200u64,
                "epochs_flushed": 8u64,
                "resident_bytes": 65536u64,
                "peak_resident_bytes": 131072u64,
                "governor_coarsenings": 1u64,
                "deadline_misses": 0u64,
                "resumed": true,
            },
        ));
        let j = r.finalize(&sample_registry()).to_json();
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
        let j = sample_report().finalize(&sample_registry()).to_json();
        assert!(!j.contains("\"rib\""), "{j}");

        let mut reg = sample_registry();
        reg.counters.extend([
            ("rib:tables".into(), 3),
            ("rib:interned_bytes".into(), 2_000),
            ("rib:naive_bytes".into(), 16_000),
            ("rib:entry_pool_bytes".into(), 256),
            ("rib:candidates_considered".into(), 900),
            ("rib:candidates_installed".into(), 300),
        ]);
        let r = sample_report().finalize(&reg);
        let rib = field(&r, "rib");
        assert_eq!(field(rib, "tables"), &Json::U64(3));
        assert_eq!(field(rib, "interned_ratio"), &Json::F64(0.125));
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
        assert_eq!(ratio(0, 0), 0.0);
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
    fn peak_rss_is_read_from_vm_hwm_and_omitted_when_unknown() {
        let status = "Name:\trepro\nVmPeak:\t  90000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(vm_hwm_mb(status), Some(50.0));
        assert_eq!(vm_hwm_mb("VmRSS:\t 1024 kB\n"), None);
        assert_eq!(vm_hwm_mb("VmHWM:\t lots kB\n"), None);
        if let Some(mb) = peak_rss_mb() {
            assert!(mb > 0.0, "{mb}");
        }
        let j = sample_report().finalize(&sample_registry()).to_json();
        assert!(!j.contains("peak_rss_mb"), "{j}");
    }

    #[test]
    fn hit_rate_handles_empty_cache() {
        let r = PerfReport::default().finalize(&Registry::default());
        assert_eq!(field(field(&r, "route_cache"), "hit_rate"), &Json::F64(0.0));
    }
}
