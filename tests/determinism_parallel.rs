//! Parallel execution must be bit-identical to sequential execution.
//!
//! The engine's contract (see `bb-exec`): every random draw is keyed on
//! `(seed, item)` and `par_map` merges results in input order, so the
//! worker count can never change a figure. This test runs the two
//! heavyweight studies at test scale under `--jobs 1` and `--jobs 4`
//! semantics and compares the exported CSV rows byte for byte.

use beating_bgp::core::{export, study_anycast, study_egress, Scale, Scenario, ScenarioConfig};
use beating_bgp::measure::{BeaconConfig, SprayConfig};

fn read(dir: &std::path::Path, name: &str) -> String {
    std::fs::read_to_string(dir.join(name)).unwrap()
}

#[test]
fn fig1_and_fig3_identical_for_any_job_count() {
    let spray = SprayConfig {
        days: 1.0,
        window_stride: 8,
        ..Default::default()
    };

    let mut outputs: Vec<(String, String)> = Vec::new();
    for jobs in [1usize, 4] {
        let dir = std::env::temp_dir().join(format!(
            "bb_determinism_j{jobs}_{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        beating_bgp::exec::set_jobs(jobs);

        let facebook = Scenario::build(ScenarioConfig::facebook(42, Scale::Test));
        let egress = study_egress::run(&facebook, &spray).unwrap();
        export::write_atomic_bytes(&dir.join("fig1.csv"), &export::fig1_csv_bytes(&egress.fig1))
            .unwrap();

        let microsoft = Scenario::build(ScenarioConfig::microsoft(42, Scale::Test));
        let anycast = study_anycast::run(&microsoft, &BeaconConfig::default()).unwrap();
        export::write_atomic_bytes(&dir.join("fig3.csv"), &export::fig3_csv_bytes(&anycast.fig3))
            .unwrap();

        outputs.push((read(&dir, "fig1.csv"), read(&dir, "fig3.csv")));
    }
    beating_bgp::exec::set_jobs(0);

    let (fig1_seq, fig3_seq) = &outputs[0];
    let (fig1_par, fig3_par) = &outputs[1];
    assert!(fig1_seq.lines().count() > 10, "fig1 export is non-trivial");
    assert!(fig3_seq.lines().count() > 10, "fig3 export is non-trivial");
    assert_eq!(fig1_seq, fig1_par, "fig1 rows differ between jobs=1 and jobs=4");
    assert_eq!(fig3_seq, fig3_par, "fig3 rows differ between jobs=1 and jobs=4");
}

/// The plan-compilation layer must not reintroduce schedule dependence:
/// spray rows — whose RTTs all flow through `PathPlanBatch`es compiled
/// inside `par_map` — are identical for jobs=1 and jobs=4. Rows are
/// compared via `Debug`, which prints f64 with round-trip precision, so
/// equality here is bit-equality of every median/utilization/volume.
#[test]
fn spray_rows_with_planned_paths_identical_across_job_counts() {
    let cfg = SprayConfig {
        days: 0.5,
        window_stride: 8,
        ..Default::default()
    };
    let scenario = Scenario::build(ScenarioConfig::facebook(7, Scale::Test));

    let mut runs: Vec<String> = Vec::new();
    for jobs in [1usize, 4] {
        beating_bgp::exec::set_jobs(jobs);
        let ds = beating_bgp::measure::spray(
            &scenario.topo,
            &scenario.provider,
            &scenario.workload,
            &scenario.congestion,
            None,
            &cfg,
        );
        assert!(!ds.rows.is_empty(), "spray produced no rows");
        runs.push(format!("{:?}", ds.rows));
    }
    beating_bgp::exec::set_jobs(0);

    assert_eq!(
        runs[0], runs[1],
        "planned-path spray rows differ between jobs=1 and jobs=4"
    );
}

fn repro_stdout(args: &[&str]) -> String {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro");
    assert!(out.status.success(), "repro {args:?} exited with {}", out.status);
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// xablate's default-congestion arm is the shared fig1 study, so a lone
/// `repro xablate` builds that cell itself while `repro all` reuses the
/// fig1 build — at 2 workers xablate may block on the cell while another
/// worker fills it. Either way the block must be byte-identical.
#[test]
fn xablate_alone_matches_its_block_in_all_for_any_job_count() {
    for jobs in ["1", "2"] {
        let common = ["--scale", "test", "--seed", "5", "--jobs", jobs];
        let alone = repro_stdout(&[&["xablate"], &common[..]].concat());
        let all = repro_stdout(&[&["all"], &common[..]].concat());
        let start = all.find("X-ABLATE:").expect("all prints an X-ABLATE block");
        let block = match all[start..].find("\n\n") {
            Some(end) => &all[start..start + end + 2],
            None => &all[start..],
        };
        assert!(block.contains("independent"), "{block}");
        assert_eq!(alone, block, "xablate differs from its block in all at --jobs {jobs}");
    }
}
