//! Cross-process sharding integration tests.
//!
//! The contract under test (ISSUE 7 acceptance criteria): a campaign split
//! into shards with `--shard I/N --checkpoint DIR` and stitched back with
//! `repro merge DIR...` produces stdout and CSV exports **byte-identical**
//! to the unsharded run at the same seed/scale — for `--jobs 1` and
//! `--jobs 4` alike — shards print nothing on stdout, and mismatched or
//! incomplete shard sets are rejected with exit 2, never silently merged.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bb_shard_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(args: &[&str]) -> Output {
    let mut cmd = repro();
    cmd.args(args);
    cmd.output().expect("spawn repro")
}

fn read_csvs(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "csv"))
        .map(|p| {
            (
                p.file_name().unwrap().to_string_lossy().into_owned(),
                std::fs::read(&p).unwrap(),
            )
        })
        .collect();
    files.sort();
    files
}

#[test]
fn three_shards_merge_byte_identical_across_job_counts() {
    for jobs in ["1", "4"] {
        let base = tmpdir(&format!("merge_j{jobs}"));
        let full_csv = base.join("full-csv");
        let merged_csv = base.join("merged-csv");

        let full = run(&[
            "all", "--scale", "test", "--seed", "42", "--jobs", jobs,
            "--csv", full_csv.to_str().unwrap(),
        ]);
        assert!(full.status.success(), "unsharded run failed (jobs {jobs})");

        let mut shard_dirs: Vec<PathBuf> = Vec::new();
        for i in 0..3 {
            let dir = base.join(format!("shard{i}"));
            let shard_csv = base.join(format!("shard{i}-csv"));
            let out = run(&[
                "all", "--scale", "test", "--seed", "42", "--jobs", jobs,
                "--shard", &format!("{i}/3"),
                "--checkpoint", dir.to_str().unwrap(),
                "--csv", shard_csv.to_str().unwrap(),
            ]);
            assert!(out.status.success(), "shard {i}/3 failed (jobs {jobs})");
            assert!(
                out.stdout.is_empty(),
                "shard {i}/3 printed {} bytes on stdout; shards must stay silent",
                out.stdout.len()
            );
            shard_dirs.push(dir);
        }

        let mut args: Vec<&str> = vec!["merge"];
        let dir_strs: Vec<String> = shard_dirs
            .iter()
            .map(|d| d.to_str().unwrap().to_string())
            .collect();
        args.extend(dir_strs.iter().map(String::as_str));
        args.extend(["--csv", merged_csv.to_str().unwrap()]);
        let merged = run(&args);
        assert!(merged.status.success(), "merge failed (jobs {jobs})");

        assert_eq!(
            merged.stdout, full.stdout,
            "merged stdout differs from unsharded run (jobs {jobs})"
        );
        assert_eq!(
            read_csvs(&merged_csv),
            read_csvs(&full_csv),
            "merged CSV exports differ from unsharded run (jobs {jobs})"
        );

        let _ = std::fs::remove_dir_all(&base);
    }
}

#[test]
fn merge_rejects_mismatched_and_incomplete_shards() {
    let base = tmpdir("reject");

    // Two of three shards of a seed-42 campaign, one shard of a seed-43 one.
    let mut dirs: Vec<PathBuf> = Vec::new();
    for (i, seed) in [(0usize, "42"), (1, "42"), (2, "43")] {
        let dir = base.join(format!("s{i}_{seed}"));
        let out = run(&[
            "all", "--scale", "test", "--seed", seed, "--jobs", "1",
            "--shard", &format!("{i}/3"),
            "--checkpoint", dir.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "shard {i}/3 seed {seed} failed");
        dirs.push(dir);
    }

    // A foreign shard in the set: keys mismatch, exit 2.
    let out = run(&[
        "merge",
        dirs[0].to_str().unwrap(),
        dirs[1].to_str().unwrap(),
        dirs[2].to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2), "mismatched shard set must exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("seed mismatch"), "stderr: {err}");
    assert!(out.stdout.is_empty(), "a rejected merge must print nothing");

    // A coverage gap (only 2 of 3 same-campaign shards): exit 2, names the
    // missing experiments.
    let out = run(&["merge", dirs[0].to_str().unwrap(), dirs[1].to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "incomplete shard set must exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("missing"), "stderr: {err}");
    assert!(out.stdout.is_empty(), "a rejected merge must print nothing");

    // A missing manifest directory: exit 2.
    let out = run(&["merge", base.join("nonexistent").to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "unreadable manifest must exit 2");

    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn crafted_manifests_fail_closed_in_merge() {
    let base = tmpdir("crafted");
    let header = "bbck/v2\nseed 42\nscale test\nfaults off\nexperiments calib\n\
                  csv 0\ncode_schema 1\nsum 8fd23227b7c455e0\n";
    // A blob length no file can hold, and a file count far past the
    // records present: the strict decoder names the bad record, exit 2.
    for (record, named) in [
        ("unit calib 0 18446744073709551615 0\nend\n", "impossible length"),
        ("unit calib 99999999999999999 0 888277013a417429\n\nend\n", "expected `file`"),
    ] {
        std::fs::write(base.join("checkpoint.bbck"), format!("{header}{record}")).unwrap();
        let out = run(&["merge", base.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(2), "{record:?}: {out:?}");
        assert!(out.stdout.is_empty(), "a rejected merge must print nothing");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(named) && err.contains("unit calib"), "{err}");
    }
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn shard_without_checkpoint_is_a_usage_error() {
    let out = run(&["all", "--scale", "test", "--shard", "0/3"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--shard requires --checkpoint"), "stderr: {err}");

    for bad in ["3/3", "4/3", "x/3", "1", "1/0", "/", ""] {
        let out = run(&["all", "--scale", "test", "--shard", bad, "--checkpoint", "/tmp/x"]);
        assert_eq!(out.status.code(), Some(2), "spec {bad:?} must exit 2");
    }
}
