//! Deterministic disk-full injection (`BB_INJECT=enospc:<n>`): the n-th
//! durable write of the process fails with an injected ENOSPC *before*
//! anything touches the filesystem. Every durable writer — CSV exports,
//! checkpoint headers and unit appends, heartbeats, serve snapshots, serve
//! journal appends — must fail closed: exit 1, the failing path named on stderr,
//! the previous artifact intact, and no `.tmp` sibling left behind. The
//! orchestrator scrubs `BB_INJECT` from its children so a parent-level
//! injection never cascades into shards. (A malformed count is a usage error on every subcommand, too:
//! `harness_errors.rs` holds that table.)

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bb_enospc_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run<S: AsRef<std::ffi::OsStr>>(args: &[S], env: &[(&str, &str)]) -> Output {
    let mut cmd = repro();
    cmd.args(args);
    cmd.env_remove("BB_INJECT");
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("spawn repro")
}

fn no_tmp_files(dir: &Path) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        assert!(
            path.extension().is_none_or(|x| x != "tmp"),
            "stray temp file survived the failed write: {}",
            path.display()
        );
    }
}

#[test]
fn csv_export_enospc_fails_closed() {
    let base = tmpdir("csv");
    let csv = base.join("csv");
    std::fs::create_dir_all(&csv).unwrap();
    let out = run(
        &["fig1", "--scale", "test", "--seed", "42", "--jobs", "1",
          "--csv", csv.to_str().unwrap()],
        &[("BB_INJECT", "enospc:1")],
    );
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("fig1.csv"), "failing path not named:\n{err}");
    assert!(err.contains("No space left on device"), "{err}");
    assert!(!csv.join("fig1.csv").exists(), "partial export must not exist");
    no_tmp_files(&csv);
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn checkpoint_flush_enospc_fails_closed_then_resumes_identically() {
    let base = tmpdir("ckpt");
    let ck = base.join("ck");

    let clean = run(&["all", "--scale", "test", "--seed", "42", "--jobs", "1"], &[]);
    assert!(clean.status.success(), "{clean:?}");

    // Trip the fifth durable write — the header (#1), the startup beat
    // (#2), the first unit's append (#3) and its beat (#4) have landed — so
    // the second unit's append fails with a prior artifact to protect.
    let tripped = run(
        &["all", "--scale", "test", "--seed", "42", "--jobs", "1",
          "--checkpoint", ck.to_str().unwrap()],
        &[("BB_INJECT", "enospc:5")],
    );
    assert_eq!(tripped.status.code(), Some(1), "{tripped:?}");
    let err = String::from_utf8_lossy(&tripped.stderr);
    assert!(err.contains("checkpoint flush failed"), "{err}");
    assert!(err.contains("No space left on device"), "{err}");
    assert!(err.contains(&ck.display().to_string()), "failing dir not named:\n{err}");
    assert!(ck.join("checkpoint.bbck").exists(), "prior manifest must survive");
    no_tmp_files(&ck);

    // The surviving manifest is genuinely resumable once space frees up.
    let resumed = run(
        &["all", "--scale", "test", "--seed", "42", "--jobs", "1",
          "--resume", ck.to_str().unwrap()],
        &[],
    );
    assert!(resumed.status.success(), "{resumed:?}");
    assert_eq!(clean.stdout, resumed.stdout, "resume after ENOSPC diverged");

    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn serve_snapshot_enospc_fails_closed_with_empty_dir() {
    let base = tmpdir("snap");
    let dir = base.join("sd");
    // Write #1 is the first epoch's snapshot: nothing must land at all.
    let out = run(
        &["serve", "--scale", "test", "--seed", "42", "--jobs", "1",
          "--windows", "16", "--epoch", "8", "--dir", dir.to_str().unwrap()],
        &[("BB_INJECT", "enospc:1")],
    );
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("snapshot flush failed"), "{err}");
    assert!(err.contains("snapshot.bbsn"), "failing path not named:\n{err}");
    assert!(err.contains("rerun the same command to resume"), "{err}");
    assert!(!dir.join("snapshot.bbsn").exists());
    no_tmp_files(&dir);
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn serve_second_epoch_enospc_fails_closed_then_resumes_identically() {
    let base = tmpdir("epoch2");
    let dir = base.join("sd");

    let clean = run(
        &["serve", "--scale", "test", "--seed", "42", "--jobs", "1",
          "--windows", "16", "--epoch", "8",
          "--dir", base.join("clean").to_str().unwrap()],
        &[],
    );
    assert!(clean.status.success(), "{clean:?}");

    // Write #1 is epoch 1's snapshot, write #2 epoch 2's journal (exact
    // mode): the snapshot survives the journal failure and seeds the resume.
    let tripped = run(
        &["serve", "--scale", "test", "--seed", "42", "--jobs", "1",
          "--windows", "16", "--epoch", "8", "--dir", dir.to_str().unwrap()],
        &[("BB_INJECT", "enospc:2")],
    );
    assert_eq!(tripped.status.code(), Some(1), "{tripped:?}");
    let err = String::from_utf8_lossy(&tripped.stderr);
    assert!(err.contains("journal append failed"), "{err}");
    assert!(err.contains("journal.bbjn"), "failing path not named:\n{err}");
    assert!(dir.join("snapshot.bbsn").exists(), "epoch snapshot must survive");
    no_tmp_files(&dir);

    let resumed = run(
        &["serve", "--scale", "test", "--seed", "42", "--jobs", "1",
          "--windows", "16", "--epoch", "8", "--dir", dir.to_str().unwrap()],
        &[],
    );
    assert!(resumed.status.success(), "{resumed:?}");
    assert_eq!(clean.stdout, resumed.stdout, "resume after ENOSPC diverged");

    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn serve_journal_append_enospc_fails_closed_then_resumes_identically() {
    let base = tmpdir("journal");
    let dir = base.join("sd");
    let args = |dir: &Path| {
        [
            "serve", "--scale", "test", "--seed", "42", "--jobs", "1",
            "--windows", "32", "--epoch", "8", "--epsilon", "0.05",
            "--dir", dir.to_str().unwrap(),
        ]
        .map(String::from)
    };
    let run_in = |dir: &Path, env: &[(&str, &str)]| run(&args(dir), env);
    let clean = run_in(&base.join("clean"), &[]);
    assert!(clean.status.success(), "{clean:?}");

    // Epoch 1 writes the snapshot (#1) and epoch 2 creates the journal
    // (#2): write #3 is epoch 3's append.
    let tripped = run_in(&dir, &[("BB_INJECT", "enospc:3")]);
    assert_eq!(tripped.status.code(), Some(1), "{tripped:?}");
    let err = String::from_utf8_lossy(&tripped.stderr);
    assert!(err.contains("journal append failed"), "{err}");
    assert!(err.contains("journal.bbjn"), "failing path not named:\n{err}");
    assert!(err.contains("rerun the same command to resume"), "{err}");
    no_tmp_files(&dir);

    let resumed = run_in(&dir, &[]);
    assert!(resumed.status.success(), "{resumed:?}");
    let err = String::from_utf8_lossy(&resumed.stderr);
    assert!(err.contains("resuming at window 16/32"), "{err}");
    assert_eq!(clean.stdout, resumed.stdout, "resume after ENOSPC diverged");
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn malformed_enospc_count_is_a_usage_error_even_without_writes() {
    // `fig1` without --csv performs no atomic writes; the spec must still
    // be validated eagerly at startup rather than silently ignored.
    let out = run(
        &["fig1", "--scale", "test", "--seed", "42"],
        &[("BB_INJECT", "enospc:banana")],
    );
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("BB_INJECT") && err.contains("banana"), "{err}");
}

#[test]
fn orchestrator_scrubs_the_injection_from_children() {
    let base = tmpdir("orch");
    let clean = run(
        &["orchestrate", "2", "--scale", "test", "--seed", "42",
          "--dir", base.join("a").to_str().unwrap()],
        &[],
    );
    assert!(clean.status.success(), "{clean:?}");

    // Were the hook inherited, every child's first flush would die; the
    // parent itself performs no atomic writes, so the run must complete
    // with byte-identical output.
    let scrubbed = run(
        &["orchestrate", "2", "--scale", "test", "--seed", "42",
          "--dir", base.join("b").to_str().unwrap()],
        &[("BB_INJECT", "enospc:1")],
    );
    assert!(scrubbed.status.success(), "{scrubbed:?}");
    assert_eq!(clean.stdout, scrubbed.stdout, "injection leaked into shards");

    std::fs::remove_dir_all(&base).ok();
}
