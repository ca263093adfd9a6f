//! `benchmark run`: time the real `repro` binary as a closed loop — one
//! client, one child at a time — after one discarded warm-up invocation,
//! and measure set-up in process between the invocations.

use crate::json;
use crate::metrics::{END_TO_END, FAIL_FRAC};
use crate::stats;
use crate::sys;
use crate::workloads::{self, Workload, PINNED_SEED};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// Timed reps per run even when the budget is smaller.
const MIN_REPS: usize = 3;

/// A fresh work directory for one benchmark process, inside the
/// build directory so that a checkout's ignore rules cover it.
pub fn work_dir(w: Workload, seed: u64, mode: &str) -> Result<PathBuf, String> {
    let dir = PathBuf::from(".bench_build").join("work").join(format!(
        "{}-{mode}-{seed}-{}",
        w.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// `repro`, built by the same `cargo build --release` next to this binary.
pub fn repro_path() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let repro = me.with_file_name("repro");
    if repro.is_file() {
        Ok(repro)
    } else {
        Err(format!(
            "{} not found: build it into the same target directory (benchmark/run.sh does)",
            repro.display()
        ))
    }
}

/// Run `repro` once for `w` with a fresh serve directory.
pub fn invoke_repro(
    repro: &Path,
    w: Workload,
    seed: u64,
    work: &Path,
    rep: usize,
) -> Result<sys::Finished, String> {
    let serve_dir = work.join(format!("serve-{rep}"));
    let stderr_path = work.join(format!("repro-{rep}.stderr"));
    let stderr = std::fs::File::create(&stderr_path)
        .map_err(|e| format!("create {}: {e}", stderr_path.display()))?;
    let fin = sys::run_child(
        Command::new(repro).args(w.repro_args(seed, &serve_dir)),
        stderr,
    )
    .map_err(|e| format!("spawn {}: {e}", repro.display()))?;
    let _ = std::fs::remove_dir_all(&serve_dir);
    Ok(fin)
}

/// Check one invocation: exit 0, the workload's marker line, and stdout
/// equal to the pinned digest at the pinned seed, else to the first good
/// invocation of this run (which `reference` then holds).
pub fn check_output(
    w: Workload,
    seed: u64,
    fin: &sys::Finished,
    reference: &mut Option<String>,
) -> Result<(), String> {
    if fin.code != Some(0) {
        return Err(format!("exit status {:?}", fin.code));
    }
    if !String::from_utf8_lossy(&fin.stdout).contains(w.marker()) {
        return Err(format!("stdout lacks {:?}", w.marker()));
    }
    let md5 = crate::md5::md5_hex(&fin.stdout);
    if seed == PINNED_SEED && md5 != w.pinned_md5() {
        return Err(format!("stdout md5 {md5}, pinned {}", w.pinned_md5()));
    }
    match reference {
        Some(r) if *r != md5 => Err(format!(
            "stdout md5 {md5} differs from this run's first {r}"
        )),
        Some(_) => Ok(()),
        None => {
            *reference = Some(md5);
            Ok(())
        }
    }
}

/// Loop `once` until one more rep of average length would overrun
/// `budget`, running it at least `min` times. Returns the time spent.
pub fn repeat_for(
    budget: Duration,
    min: usize,
    mut once: impl FnMut(usize) -> Result<(), String>,
) -> Result<Duration, String> {
    let t0 = Instant::now();
    let mut n = 0;
    loop {
        once(n)?;
        n += 1;
        let spent = t0.elapsed();
        if n >= min && spent + spent / n as u32 > budget {
            return Ok(spent);
        }
    }
}

pub fn report_failure(what: &str, why: &str, stderr: &Path) {
    eprintln!("[benchmark] {what} failed: {why}");
    if let Ok(text) = std::fs::read_to_string(stderr) {
        let lines: Vec<&str> = text.lines().collect();
        for l in &lines[lines.len().saturating_sub(10)..] {
            eprintln!("    {l}");
        }
    }
}

/// The values of one metric over a run's reps.
pub struct Series {
    pub name: String,
    pub unit: String,
    pub values: Vec<f64>,
}

impl Series {
    pub fn new(name: &str, unit: &str, values: Vec<f64>) -> Series {
        Series {
            name: name.to_string(),
            unit: unit.to_string(),
            values,
        }
    }

    /// `"name": {unit, median, q1, q3, values}`, one field of a recorded
    /// result file.
    pub fn json_field(&self) -> String {
        let (q1, med, q3) = stats::quartiles(&self.values);
        let values: Vec<String> = self.values.iter().map(|&v| json::num(v)).collect();
        format!(
            "    {}: {{\"unit\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"values\": [{}]}}",
            json::string(&self.name),
            json::string(&self.unit),
            json::num(med),
            json::num(q1),
            json::num(q3),
            values.join(", ")
        )
    }
}

/// A recorded result file: `head` fields, then every series under
/// `metrics`.
pub fn result_doc(head: &[(&str, String)], series: &[Series]) -> String {
    let mut fields: Vec<String> = head
        .iter()
        .map(|(k, v)| format!("  {}: {v}", json::string(k)))
        .collect();
    let metrics: Vec<String> = series.iter().map(Series::json_field).collect();
    fields.push(format!("  \"metrics\": {{\n{}\n  }}", metrics.join(",\n")));
    format!("{{\n{}\n}}\n", fields.join(",\n"))
}

/// Print each series' median and quartiles, then the result line: one
/// JSON object, the last line of stdout.
pub fn print_result(series: &[Series], correct: bool, attempted: usize, failed: usize) {
    for s in series {
        let (q1, med, q3) = stats::quartiles(&s.values);
        println!(
            "  {:<28} {:>14.6} {:<6} [q1 {:.6}, q3 {:.6}, n={}]",
            s.name,
            med,
            s.unit,
            q1,
            q3,
            s.values.len()
        );
    }
    let metrics: Vec<String> = series
        .iter()
        .map(|s| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(&s.name),
                json::num(stats::median(&s.values)),
                json::string(&s.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
}

pub fn run(w: Workload, seed: u64, seconds: u64, out: Option<&Path>) -> Result<(), String> {
    let repro = repro_path()?;
    let work = work_dir(w, seed, "run")?;

    // The first set-up warms this process and yields the sample count; it
    // is not timed.
    let setup = || workloads::setup(w, seed).map_err(|e| format!("set-up: {e}"));
    let (_, scenario, engine) = setup()?;
    let samples = workloads::samples_per_invocation(w, &scenario, engine.as_ref());
    drop((scenario, engine));
    let mut setup_s = Vec::new();

    let (mut attempted, mut failed) = (0usize, 0usize);
    let mut reference = None;
    let mut reps: Vec<sys::Finished> = Vec::new();
    // Every invocation is followed by one in-process set-up, so the
    // set-ups sample the same stretch of machine time as the reps do.
    let mut one = |rep: usize, timed: bool| -> Result<(), String> {
        let fin = invoke_repro(&repro, w, seed, &work, rep)?;
        attempted += 1;
        match check_output(w, seed, &fin, &mut reference) {
            Ok(()) if timed => reps.push(fin),
            Ok(()) => {}
            Err(why) => {
                failed += 1;
                report_failure(
                    &format!("{} rep {rep}", w.name()),
                    &why,
                    &work.join(format!("repro-{rep}.stderr")),
                );
            }
        }
        setup_s.push(setup()?.0.as_secs_f64());
        Ok(())
    };
    eprintln!("[benchmark] {}: warm-up invocation", w.name());
    one(0, false)?;
    eprintln!("[benchmark] {}: timing for {seconds} s", w.name());
    let spent = repeat_for(Duration::from_secs(seconds), MIN_REPS, |n| one(n + 1, true))?;
    let _ = std::fs::remove_dir_all(&work);
    if reps.is_empty() {
        return Err(format!("{}: every invocation failed", w.name()));
    }

    let wall: Vec<f64> = reps.iter().map(|f| f.wall.as_secs_f64()).collect();
    let values = [
        wall.clone(),
        reps.iter().map(|f| f.cpu.as_secs_f64()).collect(),
        reps.iter().map(|f| f.maxrss_kib as f64 / 1024.0).collect(),
        wall.iter().map(|s| samples as f64 / s).collect(),
        setup_s,
    ];
    let series: Vec<Series> = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, values)| Series::new(m.name, m.unit, values))
        .collect();

    println!(
        "{} seed {seed}: {} timed reps in {:.1} s after 1 warm-up; {failed} of {attempted} invocations failed; \
         {samples} RTT samples per invocation",
        w.name(),
        reps.len(),
        spent.as_secs_f64()
    );
    if let Some(dir) = out {
        let head = [
            ("mode", json::string("run")),
            ("workload", json::string(w.name())),
            ("seed", seed.to_string()),
            ("seconds", seconds.to_string()),
            ("reps", reps.len().to_string()),
            ("attempted", attempted.to_string()),
            ("failed", failed.to_string()),
            (FAIL_FRAC, json::num(failed as f64 / attempted as f64)),
            (
                "stdout_md5",
                json::string(reference.as_deref().unwrap_or("")),
            ),
            ("samples_per_invocation", samples.to_string()),
        ];
        write_file(
            &dir.join(format!("{}.json", w.name())),
            &result_doc(&head, &series),
        )?;
    }
    print_result(&series, failed == 0, attempted, failed);
    Ok(())
}

pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("create {}: {e}", parent.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}
