//! `benchmark trace`: per-layer numbers from traced in-process replays.
//!
//! Each replay runs in a process of its own (`benchmark replay`), so the
//! process-wide route cache and spray-target memo start cold, as they do
//! in `repro`. Until the time budget is spent, the trace alternates a
//! `repro` invocation with a replay; a replay whose stdout differs from
//! `repro`'s fails.

use crate::json::{self, Json};
use crate::metrics::PER_LAYER;
use crate::replay::{self, Replay};
use crate::run::{self, Series};
use crate::spans::{self, Span};
use crate::stats;
use crate::workloads::Workload;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use std::time::Duration;

/// Layer metrics of one replay: name → (value, unit).
type Layers = BTreeMap<String, (f64, String)>;

/// Process-wide counters read around the replay.
struct Counters {
    cache_hits: u64,
    cache_misses: u64,
    considered: u64,
    installed: u64,
    interned_bytes: u64,
}

impl Counters {
    fn now() -> Counters {
        let (hits, misses, _) = beating_bgp::exec::cache_stats();
        let counters = beating_bgp::exec::timing::counters();
        let get = |label: &str| {
            counters
                .iter()
                .find(|(l, _)| l == label)
                .map_or(0, |&(_, n)| n)
        };
        Counters {
            cache_hits: hits as u64,
            cache_misses: misses as u64,
            considered: get("rib:candidates_considered"),
            installed: get("rib:candidates_installed"),
            interned_bytes: get("rib:interned_bytes"),
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Every layer metric of one replay, from its spans and counts: the self
/// time of every span name, and the derived metrics of `PER_LAYER`.
fn layer_metrics(spans: &[Span], rep: &Replay, before: &Counters, after: &Counters) -> Layers {
    let mut out = Layers::new();
    let mut put = |name: &str, value: f64, unit: &str| {
        out.insert(name.to_string(), (value, unit.to_string()));
    };
    let own = spans::self_s_by_name(spans);
    for (name, &s) in own.iter().filter(|(n, _)| **n != "replay") {
        put(&format!("{name}_s"), s, "s");
    }
    let core: f64 = own
        .iter()
        .filter(|(n, _)| n.starts_with("core."))
        .map(|(_, s)| s)
        .sum();
    put("core.self_s", core, "s");
    if own.keys().any(|n| replay::is_experiment(n)) {
        let other: f64 = own
            .iter()
            .filter(|(n, _)| replay::is_experiment(n) && !replay::NAMED_EXPERIMENTS.contains(n))
            .map(|(_, s)| s)
            .sum();
        put("core.other_experiments_s", other, "s");
    }

    let hits = (after.cache_hits - before.cache_hits) as f64;
    let misses = (after.cache_misses - before.cache_misses) as f64;
    let considered = (after.considered - before.considered) as f64;
    let installed = (after.installed - before.installed) as f64;
    put("bgp.tables_computed", misses, "count");
    put("bgp.cache_hit_rate", ratio(hits, hits + misses), "ratio");
    put("bgp.candidates_considered", considered, "count");
    put("bgp.install_ratio", ratio(installed, considered), "ratio");
    put(
        "bgp.interned_bytes",
        (after.interned_bytes - before.interned_bytes) as f64,
        "bytes",
    );

    let t = &rep.tally;
    let sample_spans: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name == "measure.sample")
        .collect();
    let sample_ns: u64 = sample_spans.iter().map(|s| s.dur_ns()).sum();
    let sample_cpu_ns: u64 = sample_spans.iter().map(|s| s.cpu_ns).sum();
    put("measure.samples", t.samples as f64, "count");
    put("measure.sample_calls", t.calls as f64, "count");
    put(
        "measure.ns_per_sample",
        ratio(sample_ns as f64, t.samples as f64),
        "ns",
    );
    put(
        "measure.session_yield",
        ratio(t.sessions_kept as f64, t.sessions_total as f64),
        "ratio",
    );
    put(
        "measure.window_yield",
        ratio(t.medians_finite as f64, t.medians_total as f64),
        "ratio",
    );
    put(
        "exec.sample_parallelism",
        ratio(sample_cpu_ns as f64, sample_ns as f64),
        "ratio",
    );
    put("core.snapshot_bytes", rep.snapshot_bytes as f64, "bytes");
    put(
        "stats.sketch_resident_bytes",
        rep.sketch_resident_bytes as f64,
        "bytes",
    );
    let epochs: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "core.serve_epoch")
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect();
    if !epochs.is_empty() {
        let deciles = stats::quantiles(&epochs, 10);
        put("core.epoch_p50_ms", deciles[4], "ms");
        put("core.epoch_p90_ms", deciles[8], "ms");
    }

    let root = spans
        .iter()
        .find(|s| s.name == "replay" && s.parent.is_none())
        .expect("the replay runs inside its root span");
    let top = spans
        .iter()
        .filter(|s| s.parent == Some(root.id))
        .map(|s| (s.start_ns, s.end_ns));
    let wall = root.dur_ns() as f64;
    put(
        "exec.replay_parallelism",
        ratio(root.cpu_ns as f64, wall),
        "ratio",
    );
    put("trace.wall_s", wall / 1e9, "s");
    put(
        "trace.coverage",
        ratio(
            spans::union_ns(top, root.start_ns, root.end_ns) as f64,
            wall,
        ),
        "ratio",
    );
    out
}

/// `benchmark replay`: one traced replay in this process. Writes the
/// replay's stdout, its spans and its layer metrics under `out`.
pub fn replay_main(w: Workload, seed: u64, out: &Path) -> Result<(), String> {
    std::fs::create_dir_all(out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let before = Counters::now();
    let result = spans::span("replay", || replay::run(w, seed, &out.join("serve")));
    let after = Counters::now();
    let spans = spans::take();
    let rep = result.map_err(|e| format!("replay: {e}"))?;
    let trace_id = format!("{}-{seed}-{}", w.name(), std::process::id());
    let lines: String = spans
        .iter()
        .map(|s| spans::to_json_line(&trace_id, s) + "\n")
        .collect();
    let layers: Vec<Series> = layer_metrics(&spans, &rep, &before, &after)
        .into_iter()
        .map(|(name, (v, unit))| Series::new(&name, &unit, vec![v]))
        .collect();
    run::write_file(&out.join("stdout.txt"), &rep.stdout)?;
    run::write_file(&out.join(format!("{}.spans.jsonl", w.name())), &lines)?;
    run::write_file(
        &out.join(format!("{}.layers.json", w.name())),
        &run::result_doc(&[], &layers),
    )
}

/// Spawn `benchmark replay` and read back its stdout and layer metrics.
fn replay_child(w: Workload, seed: u64, dir: &Path) -> Result<(String, Layers), String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let stderr_path = dir.with_extension("stderr");
    let stderr = std::fs::File::create(&stderr_path)
        .map_err(|e| format!("create {}: {e}", stderr_path.display()))?;
    let args = [
        "replay",
        "--workload",
        w.name(),
        "--seed",
        &seed.to_string(),
        "--out",
        &dir.display().to_string(),
    ];
    let fin = crate::sys::run_child(Command::new(me).args(args), stderr)
        .map_err(|e| format!("spawn replay: {e}"))?;
    if fin.code != Some(0) {
        return Err(format!("replay exit status {:?}", fin.code));
    }
    let read = |name: String| {
        let path = dir.join(name);
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))
    };
    let stdout = read("stdout.txt".into())?;
    let doc = json::parse(&read(format!("{}.layers.json", w.name()))?)?;
    let metrics = doc
        .get("metrics")
        .and_then(Json::obj)
        .ok_or("layers.json lacks metrics")?;
    let layers = metrics
        .iter()
        .map(|(name, v)| {
            let value = v.get("median").and_then(Json::num).unwrap_or(f64::NAN);
            let unit = v.get("unit").and_then(Json::str).unwrap_or("").to_string();
            (name.clone(), (value, unit))
        })
        .collect();
    Ok((stdout, layers))
}

pub fn trace(w: Workload, seed: u64, seconds: u64, out: Option<&Path>) -> Result<(), String> {
    let repro = run::repro_path()?;
    let work = run::work_dir(w, seed, "trace")?;
    let (mut attempted, mut failed) = (0usize, 0usize);

    // Each step runs `repro` and then one traced replay, so that every
    // replay is compared, output and wall time, with an invocation made
    // seconds before it: the machine's speed drifts over minutes. Step 0
    // runs `repro` alone, for the reference output.
    let mut reference = None;
    let mut expected: Option<Vec<u8>> = None;
    let mut repro_wall = Vec::new();
    let mut values: BTreeMap<String, (Vec<f64>, String)> = BTreeMap::new();
    let mut spans_kept = false;
    let mut step = |k: usize| -> Result<(), String> {
        let fin = run::invoke_repro(&repro, w, seed, &work, k)?;
        attempted += 1;
        let wall = match run::check_output(w, seed, &fin, &mut reference) {
            Ok(()) => {
                repro_wall.push(fin.wall.as_secs_f64());
                expected.get_or_insert(fin.stdout);
                Some(fin.wall.as_secs_f64())
            }
            Err(why) => {
                failed += 1;
                run::report_failure(
                    &format!("{} repro {k}", w.name()),
                    &why,
                    &work.join(format!("repro-{k}.stderr")),
                );
                None
            }
        };
        if k == 0 {
            return Ok(());
        }
        let expected = expected
            .as_deref()
            .ok_or_else(|| format!("{}: repro failed, nothing to replay against", w.name()))?;
        let dir = work.join(format!("replay-{k}"));
        attempted += 1;
        let outcome = replay_child(w, seed, &dir).and_then(|(stdout, layers)| {
            if stdout.as_bytes() == expected {
                Ok(layers)
            } else {
                Err("replay stdout differs from repro's".to_string())
            }
        });
        match outcome {
            Ok(mut layers) => {
                if let Some(wall) = wall {
                    let e2e = layers["trace.wall_s"].0 / wall;
                    layers.insert("trace.e2e_ratio".into(), (e2e, "ratio".into()));
                }
                for (name, (v, unit)) in layers {
                    values
                        .entry(name)
                        .or_insert_with(|| (Vec::new(), unit))
                        .0
                        .push(v);
                }
                if let (Some(o), false) = (out, spans_kept) {
                    let name = format!("{}.spans.jsonl", w.name());
                    let text = std::fs::read_to_string(dir.join(&name))
                        .map_err(|e| format!("read spans: {e}"))?;
                    run::write_file(&o.join(name), &text)?;
                    spans_kept = true;
                }
            }
            Err(why) => {
                failed += 1;
                run::report_failure(
                    &format!("{} replay {k}", w.name()),
                    &why,
                    &dir.with_extension("stderr"),
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    };
    eprintln!("[benchmark] {}: reference invocation of repro", w.name());
    step(0)?;
    eprintln!(
        "[benchmark] {}: repro and a traced replay in turn for {seconds} s",
        w.name()
    );
    let spent = run::repeat_for(Duration::from_secs(seconds), 1, |k| step(k + 1))?;
    let _ = std::fs::remove_dir_all(&work);
    let reps = values.get("trace.wall_s").map_or(0, |(v, _)| v.len());
    if reps == 0 {
        return Err(format!("{}: every replay failed", w.name()));
    }
    let repro_wall = stats::median(&repro_wall);

    println!(
        "{} seed {seed}: {reps} traced replays in {:.1} s, each after a repro invocation \
         (median wall {repro_wall:.4} s); {failed} of {attempted} runs failed",
        w.name(),
        spent.as_secs_f64()
    );
    if let Some(o) = out {
        let all: Vec<Series> = values
            .iter()
            .map(|(name, (v, unit))| Series::new(name, unit, v.clone()))
            .collect();
        let head = [
            ("mode", json::string("trace")),
            ("workload", json::string(w.name())),
            ("seed", seed.to_string()),
            ("seconds", seconds.to_string()),
            ("reps", reps.to_string()),
            ("attempted", attempted.to_string()),
            ("failed", failed.to_string()),
            ("repro_wall_s", json::num(repro_wall)),
        ];
        run::write_file(
            &o.join(format!("{}.layers.json", w.name())),
            &run::result_doc(&head, &all),
        )?;
    }
    let series: Vec<Series> = PER_LAYER
        .iter()
        .map(|m| {
            let v = values
                .get(m.name)
                .map_or_else(|| vec![0.0], |(v, _)| v.clone());
            Series::new(m.name, m.unit, v)
        })
        .collect();
    run::print_result(&series, failed == 0, attempted, failed);
    Ok(())
}
