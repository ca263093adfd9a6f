//! `repro --timing-json PATH` emits a well-formed perf report.
//!
//! This is a schema smoke test, not a perf assertion: it runs a small
//! experiment end to end and checks that the report carries every key the
//! CI bench step and downstream tooling rely on. Timing *values* are
//! machine-dependent and deliberately not checked.

use std::process::Command;

#[test]
fn timing_json_emits_schema_v1() {
    let out_path = std::env::temp_dir().join(format!("bb_perf_{}.json", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig1", "--scale", "test", "--seed", "42", "--jobs", "1", "--timing-json"])
        .arg(&out_path)
        .status()
        .expect("spawn repro");
    assert!(status.success(), "repro exited with {status}");

    let j = std::fs::read_to_string(&out_path).expect("report written");
    std::fs::remove_file(&out_path).ok();

    for key in [
        "\"schema\": \"bb-perf-report/v1\"",
        "\"experiment\": \"fig1\"",
        "\"scale\": \"test\"",
        "\"seed\": 42",
        "\"jobs\": 1",
        "\"wall_s\":",
        "\"total_samples\":",
        "\"samples_per_sec\":",
        "\"plan_compile_s\":",
        "\"plan_query_s\":",
        "\"phases\": [",
        "\"label\": \"spray:windows\"",
        "\"counters\": [",
        "\"label\": \"samples:spray\"",
        "\"label\": \"kernel:spray:jitter_reused\"",
        "\"label\": \"kernel:spray:exact_evals\"",
        "\"route_cache\": {",
        "\"hit_rate\":",
        "\"faults\": {",
        "\"samples_lost\":",
        "\"timeouts\":",
        "\"retries\":",
        "\"windows_dropped\":",
        "\"panics_isolated\":",
        "\"congestion_races_closed\":",
    ] {
        assert!(j.contains(key), "missing {key} in report:\n{j}");
    }

    // A fault-free run reports zero fault activity.
    assert!(
        j.contains("\"faults\": {\"samples_lost\": 0, \"timeouts\": 0, \"retries\": 0, \"windows_dropped\": 0, \"panics_isolated\": 0}"),
        "fault-free run should report zero fault activity:\n{j}"
    );

    // The orchestration section is emitted only by `repro orchestrate`
    // (zero-cost-when-unused, like the checkpoint phases above), and a
    // plain run writes no heartbeat records either.
    assert!(
        !j.contains("\"orchestration\""),
        "plain run must not carry an orchestration section:\n{j}"
    );
    assert!(!j.contains("checkpoint:heartbeat"), "{j}");

    // Balanced brackets and no trailing commas: cheap structural validity
    // checks for the hand-rolled writer.
    assert_eq!(j.matches('{').count(), j.matches('}').count());
    assert_eq!(j.matches('[').count(), j.matches(']').count());
    assert!(!j.contains(",\n}"));
    assert!(!j.contains(",\n  ]"));
}

#[test]
fn timing_json_counts_fault_activity_under_light_faults() {
    let out_path =
        std::env::temp_dir().join(format!("bb_perf_faults_{}.json", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "fig1",
            "--scale",
            "test",
            "--seed",
            "42",
            "--jobs",
            "1",
            "--faults",
            "light",
            "--timing-json",
        ])
        .arg(&out_path)
        .status()
        .expect("spawn repro");
    assert!(status.success(), "repro exited with {status}");

    let j = std::fs::read_to_string(&out_path).expect("report written");
    std::fs::remove_file(&out_path).ok();

    // Light faults on a full spray campaign must lose *some* samples; the
    // exact counts are covered by the determinism test in
    // fault_injection.rs.
    assert!(
        !j.contains("\"samples_lost\": 0,"),
        "light faults lost no samples:\n{j}"
    );
}

/// The integer that follows the first occurrence of `prefix` in `j`.
fn number_after(j: &str, prefix: &str) -> u64 {
    let at = j.find(prefix).unwrap_or_else(|| panic!("missing {prefix} in report:\n{j}"));
    let rest = &j[at + prefix.len()..];
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().expect("an integer")
}

#[test]
fn serve_reports_fault_activity_under_light_faults() {
    let tag = format!("bb_perf_serve_faults_{}", std::process::id());
    let dir = std::env::temp_dir().join(&tag);
    let out_path = std::env::temp_dir().join(format!("{tag}.json"));
    std::fs::remove_dir_all(&dir).ok();
    let status = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["serve", "--scale", "test", "--seed", "42", "--faults", "light"])
        .args(["--windows", "40", "--epoch", "8", "--dir"])
        .arg(&dir)
        .arg("--timing-json")
        .arg(&out_path)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("spawn repro");
    assert!(status.success(), "repro serve exited with {status}");

    let j = std::fs::read_to_string(&out_path).expect("report written");
    std::fs::remove_file(&out_path).ok();
    std::fs::remove_dir_all(&dir).ok();

    // The `faults` section is the `faults:*` counters, for serve as for
    // every other run.
    let counted = number_after(&j, "{\"label\": \"faults:samples_lost\", \"count\": ");
    let reported = number_after(&j, "\"faults\": {\"samples_lost\": ");
    assert!(counted > 0, "light faults lost no samples:\n{j}");
    assert_eq!(reported, counted, "faults section disagrees with its counter:\n{j}");
}

#[test]
fn beacon_and_probe_kernels_publish_their_counters() {
    for (experiment, pipeline) in [("fig3", "beacon"), ("fig5", "probe")] {
        let out_path = std::env::temp_dir()
            .join(format!("bb_perf_kernel_{experiment}_{}.json", std::process::id()));
        let status = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args([experiment, "--scale", "test", "--seed", "42", "--timing-json"])
            .arg(&out_path)
            .stdout(std::process::Stdio::null())
            .status()
            .expect("spawn repro");
        assert!(status.success(), "repro {experiment} exited with {status}");

        let j = std::fs::read_to_string(&out_path).expect("report written");
        std::fs::remove_file(&out_path).ok();
        for counter in ["batches", "exact_evals"] {
            let label = format!("{{\"label\": \"kernel:{pipeline}:{counter}\", \"count\": ");
            let n = number_after(&j, &label);
            assert!(n > 0, "{experiment}: kernel:{pipeline}:{counter} is 0:\n{j}");
        }
    }
}

#[test]
fn audit_writes_its_report() {
    let out_path = std::env::temp_dir().join(format!("bb_perf_audit_{}.json", std::process::id()));
    std::fs::remove_file(&out_path).ok();
    let status = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["audit", "--scale", "test", "--seed", "42", "--timing-json"])
        .arg(&out_path)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("spawn repro");
    assert!(status.success(), "repro audit exited with {status}");

    let j = std::fs::read_to_string(&out_path).expect("audit wrote its report");
    std::fs::remove_file(&out_path).ok();
    assert!(j.contains("\"schema\": \"bb-perf-report/v1\""), "{j}");
    assert!(j.contains("\"experiment\": \"audit\""), "{j}");
}

/// The `supervision` section of report `j`, up to its closing brace.
fn supervision(j: &str) -> &str {
    let at = j.find("\"supervision\": {").unwrap_or_else(|| panic!("no supervision in:\n{j}"));
    let rest = &j[at..];
    &rest[..=rest.find('}').expect("closed section")]
}

#[test]
fn failed_and_interrupted_campaigns_still_write_their_report() {
    let tag = format!("bb_perf_failed_{}", std::process::id());
    let out_path = std::env::temp_dir().join(format!("{tag}.json"));
    std::fs::remove_file(&out_path).ok();
    // Every attempt of fig5 panics, so the campaign fails (exit 1).
    let status = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig5", "--scale", "test", "--seed", "42", "--jobs", "1", "--timing-json"])
        .arg(&out_path)
        .env("BB_INJECT", "poison:fig5")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("spawn repro");
    assert_eq!(status.code(), Some(1), "a failed campaign exits 1");
    let j = std::fs::read_to_string(&out_path).expect("a failed campaign writes its report");
    std::fs::remove_file(&out_path).ok();
    let sup = supervision(&j);
    assert_eq!(number_after(sup, "\"failed\": "), 1, "{sup}");
    assert_eq!(number_after(sup, "\"attempts\": "), 3, "{sup}");

    // A drain after the first finalized experiment interrupts the
    // campaign (exit 130); the report says what was skipped.
    let status = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["all", "--scale", "test", "--seed", "42", "--jobs", "1", "--timing-json"])
        .arg(&out_path)
        .env("BB_INJECT", "unit-limit:1")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("spawn repro");
    assert_eq!(status.code(), Some(130), "an interrupted campaign exits 130");
    let j = std::fs::read_to_string(&out_path).expect("an interrupted campaign writes its report");
    std::fs::remove_file(&out_path).ok();
    assert!(number_after(supervision(&j), "\"skipped\": ") > 0, "{j}");
}

#[test]
fn orchestrate_reports_the_resolved_worker_count() {
    let tag = format!("bb_perf_orch_{}", std::process::id());
    let dir = std::env::temp_dir().join(&tag);
    let out_path = std::env::temp_dir().join(format!("{tag}.json"));
    std::fs::remove_dir_all(&dir).ok();
    // No --jobs: the shards use every available core, and the report
    // says how many that is, as every other subcommand's does.
    let status = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["orchestrate", "2", "--scale", "test", "--seed", "42", "--dir"])
        .arg(&dir)
        .arg("--timing-json")
        .arg(&out_path)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("spawn repro");
    assert!(status.success(), "repro orchestrate exited with {status}");
    let j = std::fs::read_to_string(&out_path).expect("report written");
    std::fs::remove_file(&out_path).ok();
    std::fs::remove_dir_all(&dir).ok();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    assert_eq!(number_after(&j, "\"jobs\": "), cores, "{j}");
}
