//! Integration tests for `repro serve`, the crash-tolerant streaming
//! campaign daemon (ISSUE 9 acceptance criteria):
//!
//! - a serve killed mid-campaign (`BB_INJECT=crash:N` exits 101 right after
//!   the N-th epoch snapshot lands — the deterministic stand-in for
//!   `kill -9`) and then restarted without the fault produces stdout and live CSV
//!   byte-identical to an uninterrupted serve, for `--jobs 1` and
//!   `--jobs 4` alike, including under a heavy fault storm;
//! - exact mode (`--epsilon 0`) reproduces the batch `fig1` pipeline
//!   byte-for-byte, stdout and CSV both;
//! - sketch mode memory stays flat while the window count grows 10x;
//! - a snapshot keyed on a different seed/epsilon/epoch is rejected with
//!   exit 2, never silently reused.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bb_serve_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(args: &[&str]) -> Output {
    run_with(args, None)
}

/// Run `repro args` with `BB_INJECT` set to `inject`, or unset.
fn run_with(args: &[&str], inject: Option<&str>) -> Output {
    let mut cmd = repro();
    cmd.args(args).env_remove("BB_INJECT");
    if let Some(spec) = inject {
        cmd.env("BB_INJECT", spec);
    }
    cmd.output().expect("spawn repro")
}

/// A seed-keyed crash point: exit 101 after epoch `1 + seed % 3`.
fn crash_spec(seed: u64) -> String {
    format!("crash:{}", 1 + seed % 3)
}

fn read_file(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn chaos_crash_and_restart_is_byte_identical_across_job_counts() {
    for jobs in ["1", "4"] {
        let base = tmpdir(&format!("chaos_j{jobs}"));
        let clean_csv = base.join("clean-csv");
        let crash_csv = base.join("crash-csv");

        // Uninterrupted reference serve at the same (seed, scale, windows).
        let clean = run(&[
            "serve", "--scale", "test", "--seed", "42", "--jobs", jobs,
            "--windows", "40", "--epoch", "8",
            "--dir", base.join("clean").to_str().unwrap(),
            "--csv", clean_csv.to_str().unwrap(),
        ]);
        assert!(clean.status.success(), "clean serve failed: {clean:?}");
        assert!(!clean.stdout.is_empty());

        // Chaos run: crashes (exit 101) right after a seed-keyed epoch's
        // snapshot is flushed, leaving the snapshot whole and no .tmp.
        let crash_dir = base.join("crash");
        let serve_args = [
            "serve", "--scale", "test", "--seed", "42", "--jobs", jobs,
            "--windows", "40", "--epoch", "8",
            "--dir", crash_dir.to_str().unwrap(),
            "--csv", crash_csv.to_str().unwrap(),
        ];
        let crashed = run_with(&serve_args, Some(&crash_spec(42)));
        assert_eq!(
            crashed.status.code(),
            Some(101),
            "chaos serve must exit 101: {crashed:?}"
        );
        assert!(crash_dir.join("snapshot.bbsn").exists(), "snapshot not flushed");
        assert!(
            !crash_dir.join("snapshot.bbsn.tmp").exists(),
            "tmp file must not survive the atomic rename"
        );

        // Restart with the same command, without the fault.
        let resumed = run(&serve_args);
        assert!(resumed.status.success(), "resumed serve failed: {resumed:?}");
        let stderr = String::from_utf8_lossy(&resumed.stderr);
        assert!(
            stderr.contains("serve: resuming at window"),
            "resume must report its starting window:\n{stderr}"
        );
        assert_eq!(
            clean.stdout, resumed.stdout,
            "resumed serve stdout differs from uninterrupted serve (jobs {jobs})"
        );
        assert_eq!(
            read_file(&clean_csv.join("fig1.csv")),
            read_file(&crash_csv.join("fig1.csv")),
            "resumed serve CSV differs from uninterrupted serve (jobs {jobs})"
        );

        std::fs::remove_dir_all(&base).ok();
    }
}

#[test]
fn chaos_crash_and_restart_survives_a_heavy_fault_storm() {
    let base = tmpdir("storm");
    let clean = run(&[
        "serve", "--scale", "test", "--seed", "43", "--jobs", "4",
        "--faults", "heavy", "--windows", "40", "--epoch", "8",
        "--dir", base.join("clean").to_str().unwrap(),
    ]);
    assert!(clean.status.success(), "{clean:?}");

    let dir = base.join("crash");
    let serve_args = [
        "serve", "--scale", "test", "--seed", "43", "--jobs", "4",
        "--faults", "heavy", "--windows", "40", "--epoch", "8",
        "--dir", dir.to_str().unwrap(),
    ];
    let crashed = run_with(&serve_args, Some(&crash_spec(43)));
    assert_eq!(crashed.status.code(), Some(101), "{crashed:?}");

    let resumed = run(&serve_args);
    assert!(resumed.status.success(), "{resumed:?}");
    assert_eq!(
        clean.stdout, resumed.stdout,
        "heavy-fault serve must resume byte-identical"
    );

    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn exact_serve_matches_the_batch_fig1_pipeline_byte_for_byte() {
    let base = tmpdir("exact");
    let batch_csv = base.join("batch-csv");
    let serve_csv = base.join("serve-csv");

    let batch = run(&[
        "fig1", "--scale", "test", "--seed", "7",
        "--csv", batch_csv.to_str().unwrap(),
    ]);
    assert!(batch.status.success(), "{batch:?}");

    // Default --epsilon is 0 (exact) and the default window target is the
    // batch horizon, so serve must reduce to exactly the batch study.
    let serve = run(&[
        "serve", "--scale", "test", "--seed", "7", "--epoch", "5",
        "--dir", base.join("sd").to_str().unwrap(),
        "--csv", serve_csv.to_str().unwrap(),
    ]);
    assert!(serve.status.success(), "{serve:?}");
    assert_eq!(batch.stdout, serve.stdout, "serve stdout differs from batch fig1");
    assert_eq!(
        read_file(&batch_csv.join("fig1.csv")),
        read_file(&serve_csv.join("fig1.csv")),
        "serve fig1.csv differs from batch fig1.csv"
    );

    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn sketch_memory_stays_flat_while_windows_grow_tenfold() {
    let base = tmpdir("flat");
    let peak = |tag: &str, windows: &str| -> (u64, u64) {
        let json = base.join(format!("{tag}.json"));
        let out = run(&[
            "serve", "--scale", "test", "--seed", "42", "--epsilon", "0.05",
            "--windows", windows, "--epoch", "8",
            "--dir", base.join(tag).to_str().unwrap(),
            "--timing-json", json.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "{out:?}");
        let text = String::from_utf8(read_file(&json)).unwrap();
        let grab = |key: &str| -> u64 {
            let at = text.find(key).unwrap_or_else(|| panic!("{key} missing:\n{text}"));
            text[at + key.len()..]
                .trim_start_matches([':', ' '])
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect::<String>()
                .parse()
                .unwrap()
        };
        (grab("\"windows_done\""), grab("\"peak_resident_bytes\""))
    };

    let (small_windows, small_peak) = peak("w40", "40");
    let (big_windows, big_peak) = peak("w400", "400");
    assert_eq!(small_windows, 40);
    assert_eq!(big_windows, 400);
    assert!(small_peak > 0);
    // Bounded-memory contract: 10x the stream, at most 2x the footprint
    // (the sketch bucket set saturates; it does not grow with the stream).
    assert!(
        big_peak <= 2 * small_peak,
        "sketch memory grew with the stream: {small_peak} bytes at 40 windows, \
         {big_peak} bytes at 400"
    );

    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn stale_snapshot_is_rejected_not_reused() {
    let base = tmpdir("stale");
    let dir = base.join("sd");
    let seeded = run(&[
        "serve", "--scale", "test", "--seed", "42",
        "--windows", "16", "--epoch", "8",
        "--dir", dir.to_str().unwrap(),
    ]);
    assert!(seeded.status.success(), "{seeded:?}");

    // Each mismatching key field is named; exit 2; stdout stays silent.
    for (args, field) in [
        (vec!["--seed", "7", "--windows", "16", "--epoch", "8"], "seed"),
        (vec!["--seed", "42", "--windows", "16", "--epoch", "4"], "epoch_windows"),
        (
            vec!["--seed", "42", "--windows", "16", "--epoch", "8", "--epsilon", "0.05"],
            "eps",
        ),
    ] {
        let mut argv = vec!["serve", "--scale", "test", "--dir", dir.to_str().unwrap()];
        argv.extend(args);
        let out = run(&argv);
        assert_eq!(out.status.code(), Some(2), "{field}: {out:?}");
        assert!(out.stdout.is_empty(), "{field}: stdout must stay silent");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("{field} mismatch")),
            "{field} not named:\n{err}"
        );
    }

    // A torn snapshot (mid-file corruption) is rejected too — serve
    // snapshots have no salvage path; the contract is rerun-to-resume
    // from the previous whole epoch, never a guess.
    let snap = dir.join("snapshot.bbsn");
    let mut bytes = read_file(&snap);
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&snap, &bytes).unwrap();
    let torn = run(&[
        "serve", "--scale", "test", "--seed", "42",
        "--windows", "16", "--epoch", "8",
        "--dir", dir.to_str().unwrap(),
    ]);
    assert_eq!(torn.status.code(), Some(2), "{torn:?}");

    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn crafted_state_blob_fails_closed_on_resume() {
    use beating_bgp::core::checkpoint::fnv1a;
    let base = tmpdir("crafted");
    let dir = base.join("sd");
    let args = |windows| {
        [
            "serve", "--scale", "test", "--seed", "42",
            "--windows", windows, "--epoch", "8",
            "--dir", dir.to_str().unwrap(),
        ]
    };
    let seeded = run(&args("8"));
    assert!(seeded.status.success(), "{seeded:?}");

    // Set the state blob's target count to 0xFFFFFFFF and re-checksum it,
    // so only the serve-state decoder can catch it — without sizing an
    // allocation from the count.
    let snap = dir.join("snapshot.bbsn");
    let bytes = read_file(&snap);
    let line_at = bytes.windows(6).position(|w| w == b"\nstate").unwrap() + 1;
    let blob_at = line_at + bytes[line_at..].iter().position(|&b| b == b'\n').unwrap() + 1;
    let blob_end = bytes.len() - "\nend\n".len();
    let mut state = bytes[blob_at..blob_end].to_vec();
    // Magic (8), mode (1), eps (8), windows_done (8), then the count.
    state[25..29].copy_from_slice(&u32::MAX.to_le_bytes());
    let mut crafted = bytes[..line_at].to_vec();
    crafted.extend(format!("state {} {:016x}\n", state.len(), fnv1a(&state)).bytes());
    crafted.extend(&state);
    crafted.extend(b"\nend\n");
    std::fs::write(&snap, &crafted).unwrap();

    let out = run(&args("16"));
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("corrupt serve state"), "{err}");
    std::fs::remove_dir_all(&base).ok();
}
