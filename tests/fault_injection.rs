//! The fault plane end to end: determinism, preserved headline shapes,
//! and graceful degradation of a poisoned experiment.
//!
//! Everything here drives the `repro` binary the way a user would, because
//! the contracts under test are command-line contracts: `--faults` output
//! is byte-identical across `--jobs`, `--faults off` is the byte-identical
//! default, and `--keep-going` turns a panicking experiment into a
//! diagnostic plus a nonzero exit instead of a dead run.

use std::process::Command;

fn repro(args: &[&str], envs: &[(&str, &str)]) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("spawn repro")
}

/// (a) Faulted runs are as deterministic as fault-free ones: same seed and
/// level → byte-identical stdout for every worker count.
#[test]
fn faulted_runs_identical_across_job_counts() {
    let run = |jobs: &str| {
        let out = repro(
            &[
                "all", "--scale", "test", "--seed", "42", "--faults", "light", "--jobs", jobs,
            ],
            &[],
        );
        assert!(out.status.success(), "jobs={jobs}: {:?}", out.status);
        out.stdout
    };
    let seq = run("1");
    let par = run("4");
    assert!(!seq.is_empty());
    assert_eq!(
        seq, par,
        "faulted stdout differs between --jobs 1 and --jobs 4"
    );
}

/// `--faults off` must not merely be similar to the default — it must be
/// the byte-identical default.
#[test]
fn faults_off_is_byte_identical_to_no_flag() {
    let base = repro(&["fig1", "--scale", "test", "--seed", "9"], &[]);
    let off = repro(
        &["fig1", "--scale", "test", "--seed", "9", "--faults", "off"],
        &[],
    );
    assert!(base.status.success() && off.status.success());
    assert_eq!(base.stdout, off.stdout);
}

/// (b) The paper's headline shapes survive light faults: Figure 1 still
/// shows BGP-preferred-route dominance and Figure 3 still shows the CCDF
/// head/tail ordering, with the degradation disclosed in a coverage note.
#[test]
fn light_faults_preserve_headline_shapes() {
    let out = repro(
        &[
            "all", "--scale", "test", "--seed", "42", "--faults", "light",
        ],
        &[],
    );
    assert!(out.status.success(), "light-faulted run failed");
    let stdout = String::from_utf8(out.stdout).unwrap();

    // Fig 1: BGP within 1 ms of best alternate for the vast majority.
    let bgp_good = extract_pct(&stdout, "BGP within 1ms-or-better: ");
    assert!(
        bgp_good > 70.0,
        "fig1 preferred-route dominance lost under light faults: {bgp_good}%"
    );
    let improvable = extract_pct(&stdout, "improvable by >=5ms: ");
    assert!(
        improvable < 25.0,
        "fig1 improvable tail exploded under light faults: {improvable}%"
    );

    // Fig 3: anycast near-optimal for most requests, small ≥100 ms tail —
    // the CCDF ordering (head fraction > tail fraction).
    let within = extract_pct(&stdout, "anycast within 10ms of best unicast: ");
    let tail = extract_pct(&stdout, "best unicast >=100ms faster: ");
    assert!(
        within > 50.0 && tail < within,
        "fig3 CCDF ordering lost under light faults: within={within}% tail={tail}%"
    );

    // The degradation is disclosed, not silently averaged over.
    assert!(
        stdout.contains("partial data"),
        "light-faulted figures carry no coverage annotation"
    );
}

/// (c) A poisoned experiment degrades gracefully under `--keep-going`:
/// survivors print byte-identically to an unpoisoned run, the failure gets
/// a diagnostic block on stderr, and the exit code is the documented 1.
#[test]
fn poisoned_experiment_degrades_gracefully() {
    let clean = repro(&["all", "--scale", "test", "--seed", "5"], &[]);
    assert!(clean.status.success());
    let clean_stdout = String::from_utf8(clean.stdout).unwrap();

    let poisoned = repro(
        &["all", "--scale", "test", "--seed", "5", "--keep-going"],
        &[("BB_INJECT", "poison:fig5")],
    );
    assert_eq!(
        poisoned.status.code(),
        Some(1),
        "partial run must exit 1, not {:?}",
        poisoned.status.code()
    );
    let stdout = String::from_utf8(poisoned.stdout).unwrap();
    let stderr = String::from_utf8(poisoned.stderr).unwrap();

    // Diagnostic block names the failed experiment.
    assert!(stderr.contains("=== EXPERIMENT FAILED: fig5 ==="), "{stderr}");
    assert!(stderr.contains("=== END fig5 ==="), "{stderr}");

    // Survivors are byte-stable: poisoned stdout is exactly the clean
    // stdout minus the poisoned experiment's chunk.
    let fig5_chunk_start = clean_stdout.find("Figure 5").expect("clean run has fig5");
    assert!(!stdout.contains("Figure 5"), "poisoned fig5 still printed");
    assert!(stdout.contains("Figure 1"), "fig1 did not survive");
    assert!(stdout.contains("Figure 3"), "fig3 did not survive");
    // Everything before fig5's chunk is untouched.
    assert!(
        stdout.starts_with(&clean_stdout[..fig5_chunk_start]),
        "survivor output preceding the poisoned chunk is not byte-stable"
    );
}

/// Without `--keep-going` a poisoned run prints no figures at all and
/// still exits 1 with the diagnostic.
#[test]
fn poisoned_run_without_keep_going_prints_nothing() {
    let poisoned = repro(
        &["fig1", "--scale", "test", "--seed", "5"],
        &[("BB_INJECT", "poison:fig1")],
    );
    assert_eq!(poisoned.status.code(), Some(1));
    assert!(poisoned.stdout.is_empty(), "failed run must not print partial stdout");
    let stderr = String::from_utf8(poisoned.stderr).unwrap();
    assert!(stderr.contains("=== EXPERIMENT FAILED: fig1 ==="), "{stderr}");
}

/// Pull the percentage that follows `label` in the rendered output.
fn extract_pct(stdout: &str, label: &str) -> f64 {
    let start = stdout
        .find(label)
        .unwrap_or_else(|| panic!("label {label:?} not in output:\n{stdout}"))
        + label.len();
    let rest = &stdout[start..];
    let end = rest.find('%').unwrap_or_else(|| panic!("no %% after {label:?}"));
    rest[..end]
        .trim()
        .parse()
        .unwrap_or_else(|e| panic!("bad number after {label:?}: {e}"))
}
