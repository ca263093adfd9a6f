//! Integration tests for `repro serve`, the crash-tolerant streaming
//! campaign daemon (ISSUE 9 acceptance criteria):
//!
//! - a serve killed mid-campaign (`BB_INJECT=crash:N` exits 101 right after
//!   the N-th epoch lands on disk — the deterministic stand-in for
//!   `kill -9`) and then restarted without the fault produces stdout and live CSV
//!   byte-identical to an uninterrupted serve, for `--jobs 1` and
//!   `--jobs 4` alike, in exact and sketch mode, including under a heavy
//!   fault storm and with journal records that carry governor coarsening
//!   rounds;
//! - exact mode (`--epsilon 0`) reproduces the batch `fig1` pipeline
//!   byte-for-byte, stdout and CSV both;
//! - sketch mode memory stays flat while the window count grows 10x;
//! - a snapshot keyed on a different seed/epsilon/epoch/memory limit is
//!   rejected with exit 2, never silently reused.

use std::ffi::OsStr;
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

fn run<S: AsRef<OsStr>>(args: &[S]) -> Output {
    run_with(args, None)
}

/// Run `repro args` with `BB_INJECT` set to `inject`, or unset.
fn run_with<S: AsRef<OsStr>>(args: &[S], inject: Option<&str>) -> Output {
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
    // (tag, mode flags, crash point): exact mode crashing after the first
    // epoch's snapshot, and sketch mode under a memory limit and heavy
    // faults crashing after epoch 3 — past the governor's coarsening
    // epochs, so the resume replays journal records carrying their rounds
    // — and after the last epoch, which leaves the governor no later epoch
    // to catch up in: only the replayed rounds coarsen the final state.
    let crash_42 = crash_spec(42);
    let governed: &[&str] = &["--epsilon", "0.05", "--mem-limit", "60000", "--faults", "heavy"];
    let cases: [(&str, &[&str], &str); 3] = [
        ("exact", &[], &crash_42),
        ("sketch", governed, "crash:3"),
        ("sketch_last", governed, "crash:5"),
    ];
    for ((tag, mode, crash), jobs) in cases
        .into_iter()
        .flat_map(|case| ["1", "4"].map(|jobs| (case, jobs)))
    {
        let base = tmpdir(&format!("chaos_{tag}_j{jobs}"));
        let clean_csv = base.join("clean-csv");
        let crash_csv = base.join("crash-csv");
        let args = |dir: &Path, csv: &Path| -> Vec<String> {
            let mut argv: Vec<String> = [
                "serve", "--scale", "test", "--seed", "42", "--jobs", jobs,
                "--windows", "40", "--epoch", "8",
                "--dir", dir.to_str().unwrap(),
                "--csv", csv.to_str().unwrap(),
            ]
            .map(String::from)
            .to_vec();
            argv.extend(mode.iter().map(|a| a.to_string()));
            argv
        };

        // Uninterrupted reference serve at the same (seed, scale, windows).
        let clean = run(&args(&base.join("clean"), &clean_csv));
        assert!(clean.status.success(), "clean serve failed: {clean:?}");
        assert!(!clean.stdout.is_empty());

        // Chaos run: crashes (exit 101) right after the crash point's
        // epoch is flushed, leaving the snapshot whole and no .tmp.
        let crash_dir = base.join("crash");
        let serve_args = args(&crash_dir, &crash_csv);
        let crashed = run_with(&serve_args, Some(crash));
        assert_eq!(
            crashed.status.code(),
            Some(101),
            "chaos serve must exit 101 ({tag}): {crashed:?}"
        );
        assert!(crash_dir.join("snapshot.bbsn").exists(), "snapshot not flushed");
        assert!(
            !crash_dir.join("snapshot.bbsn.tmp").exists(),
            "tmp file must not survive the atomic rename"
        );

        // Restart with the same command, without the fault. Every epoch
        // after the first is a journal record the resume replays.
        let epochs: u64 = crash["crash:".len()..].parse().unwrap();
        let resumed = run(&serve_args);
        assert!(resumed.status.success(), "resumed serve failed: {resumed:?}");
        let stderr = String::from_utf8_lossy(&resumed.stderr);
        assert!(
            stderr.contains("serve: resuming at window")
                && stderr.contains(&format!("{} journal record(s)", epochs - 1)),
            "resume must report its starting window and replayed records:\n{stderr}"
        );
        assert_eq!(
            clean.stdout, resumed.stdout,
            "resumed serve stdout differs from uninterrupted serve ({tag}, jobs {jobs})"
        );
        assert_eq!(
            read_file(&clean_csv.join("fig1.csv")),
            read_file(&crash_csv.join("fig1.csv")),
            "resumed serve CSV differs from uninterrupted serve ({tag}, jobs {jobs})"
        );

        std::fs::remove_dir_all(&base).ok();
    }
}

#[test]
fn chaos_crash_and_restart_survives_a_heavy_fault_storm() {
    // Exact mode; seed 43 crashes after epoch 2, so the resume replays one
    // journal record.
    for jobs in ["1", "4"] {
        let base = tmpdir(&format!("storm_j{jobs}"));
        let clean = run(&[
            "serve", "--scale", "test", "--seed", "43", "--jobs", jobs,
            "--faults", "heavy", "--windows", "40", "--epoch", "8",
            "--dir", base.join("clean").to_str().unwrap(),
        ]);
        assert!(clean.status.success(), "{clean:?}");

        let dir = base.join("crash");
        let serve_args = [
            "serve", "--scale", "test", "--seed", "43", "--jobs", jobs,
            "--faults", "heavy", "--windows", "40", "--epoch", "8",
            "--dir", dir.to_str().unwrap(),
        ];
        let crashed = run_with(&serve_args, Some(&crash_spec(43)));
        assert_eq!(crashed.status.code(), Some(101), "{crashed:?}");

        let resumed = run(&serve_args);
        assert!(resumed.status.success(), "{resumed:?}");
        let stderr = String::from_utf8_lossy(&resumed.stderr);
        assert!(stderr.contains("1 journal record(s)"), "{stderr}");
        assert_eq!(
            clean.stdout, resumed.stdout,
            "heavy-fault serve must resume byte-identical (jobs {jobs})"
        );

        std::fs::remove_dir_all(&base).ok();
    }
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
    let governed = base.join("governed");
    let governor = ["--epsilon", "0.05", "--mem-limit", "60000"];
    for (d, extra) in [(&dir, &[][..]), (&governed, &governor[..])] {
        let mut argv = vec![
            "serve", "--scale", "test", "--seed", "42",
            "--windows", "16", "--epoch", "8",
            "--dir", d.to_str().unwrap(),
        ];
        argv.extend(extra);
        let seeded = run(&argv);
        assert!(seeded.status.success(), "{seeded:?}");
    }

    // Each mismatching key field is named; exit 2; stdout stays silent.
    for (d, args, field) in [
        (&dir, vec!["--seed", "7", "--windows", "16", "--epoch", "8"], "seed"),
        (&dir, vec!["--seed", "42", "--windows", "16", "--epoch", "4"], "epoch_windows"),
        (
            &dir,
            vec!["--seed", "42", "--windows", "16", "--epoch", "8", "--epsilon", "0.05"],
            "eps",
        ),
        (
            &governed,
            vec!["--seed", "42", "--windows", "24", "--epoch", "8", "--epsilon", "0.05"],
            "mem_limit",
        ),
    ] {
        let mut argv = vec!["serve", "--scale", "test", "--dir", d.to_str().unwrap()];
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

#[test]
fn journal_damage_fails_closed_and_a_torn_tail_resumes() {
    let base = tmpdir("journal");
    let args = |dir: &Path| {
        [
            "serve", "--scale", "test", "--seed", "42", "--windows", "40", "--epoch", "8",
            "--epsilon", "0.05", "--dir", dir.to_str().unwrap(),
        ]
        .map(String::from)
    };
    let run_in = |dir: &Path, inject| run_with(&args(dir), inject);
    let clean = run_in(&base.join("clean"), None);
    assert!(clean.status.success(), "{clean:?}");

    // Epoch 1 is the snapshot; epochs 2 and 3 are journal records.
    let crashed = |tag: &str| {
        let dir = base.join(tag);
        let out = run_in(&dir, Some("crash:3"));
        assert_eq!(out.status.code(), Some(101), "{out:?}");
        let bytes = read_file(&dir.join("journal.bbjn"));
        let line = |epoch: u32| {
            let needle = format!("\nepoch {epoch} ");
            bytes.windows(needle.len()).position(|w| w == needle.as_bytes()).unwrap() + 1
        };
        let (second, third) = (line(2), line(3));
        (dir, bytes, second, third)
    };

    // A last record cut short is a torn tail: truncated, and the resume
    // matches the uninterrupted run.
    let (dir, bytes, _, third) = crashed("torn");
    std::fs::write(dir.join("journal.bbjn"), &bytes[..bytes.len() - 7]).unwrap();
    let out = run_in(&dir, None);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(out.stdout, clean.stdout, "resume after a torn tail diverged");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("1 journal record(s)") && err.contains("torn journal tail"), "{err}");
    assert!(read_file(&dir.join("journal.bbjn")).len() > third, "journal not re-extended");

    // Mid-file damage, an epoch gap and a foreign key exit 2, naming why.
    for (tag, damage, want) in [
        ("flip", 0, "checksum mismatch in journal record for epoch 2"),
        ("gap", 1, "is epoch 4, expected 3"),
        ("key", 2, "seed mismatch: journal has 7"),
    ] {
        let (dir, mut bytes, second, third) = crashed(tag);
        match damage {
            0 => {
                let blob = second + bytes[second..].iter().position(|&b| b == b'\n').unwrap() + 1;
                bytes[blob] ^= 0x20;
            }
            1 => bytes[third + "epoch ".len()] = b'4',
            _ => {
                let at = bytes.windows(8).position(|w| w == b"seed 42\n").unwrap();
                bytes.splice(at..at + 8, *b"seed 7\n");
            }
        }
        std::fs::write(dir.join("journal.bbjn"), &bytes).unwrap();
        let out = run_in(&dir, None);
        assert_eq!(out.status.code(), Some(2), "{tag}: {out:?}");
        assert!(out.stdout.is_empty(), "{tag}: stdout must stay silent");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(want), "{tag}:\n{err}");
    }
    std::fs::remove_dir_all(&base).ok();
}
