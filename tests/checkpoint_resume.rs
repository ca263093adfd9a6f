//! Kill-and-resume integration tests for the campaign checkpoint subsystem.
//!
//! The contract under test (ISSUE 4 acceptance criteria): a run stopped
//! mid-campaign and resumed with `--resume` produces stdout and CSV exports
//! **byte-identical** to an uninterrupted run at the same seed/scale — for
//! `--jobs 1` and `--jobs 4` alike — and a stale checkpoint (wrong seed,
//! scale, or schema version) is rejected with exit 2, never silently
//! reused.
//!
//! The mid-campaign stop uses `BB_INJECT=unit-limit:<n>`, the deterministic
//! stand-in for SIGTERM: it flips the same cancel hook the signal handlers
//! set, so the drain/flush/exit-130 path is identical, without the races of
//! killing a half-started process from a test.

use beating_bgp::core::checkpoint::Checkpoint;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bb_ckres_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = repro();
    cmd.args(args);
    for (k, v) in env {
        cmd.env(k, v);
    }
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
fn kill_and_resume_is_byte_identical_across_job_counts() {
    for jobs in ["1", "4"] {
        let base = tmpdir(&format!("base_j{jobs}"));
        let clean_csv = base.join("clean-csv");
        let res_csv = base.join("res-csv");
        let ck = base.join("ck");
        std::fs::create_dir_all(&clean_csv).unwrap();
        std::fs::create_dir_all(&res_csv).unwrap();

        // Uninterrupted reference run.
        let clean = run(
            &[
                "all", "--scale", "test", "--seed", "42", "--jobs", jobs,
                "--csv", clean_csv.to_str().unwrap(),
            ],
            &[],
        );
        assert!(clean.status.success(), "clean run failed: {clean:?}");
        assert!(!clean.stdout.is_empty());

        // Same campaign, cancelled after 3 finalized experiments.
        let interrupted = run(
            &[
                "all", "--scale", "test", "--seed", "42", "--jobs", jobs,
                "--csv", res_csv.to_str().unwrap(),
                "--checkpoint", ck.to_str().unwrap(),
            ],
            &[("BB_INJECT", "unit-limit:3")],
        );
        assert_eq!(
            interrupted.status.code(),
            Some(130),
            "interrupted run must exit 130: {interrupted:?}"
        );
        assert!(
            interrupted.stdout.is_empty(),
            "interrupted run must print nothing on stdout"
        );
        let stderr = String::from_utf8_lossy(&interrupted.stderr);
        assert!(
            stderr.contains("=== INTERRUPTED (resumable) ==="),
            "missing interrupt block:\n{stderr}"
        );
        assert!(ck.join("checkpoint.bbck").exists(), "manifest not flushed");
        assert!(
            !ck.join("checkpoint.bbck.tmp").exists(),
            "tmp file must not survive the atomic rename"
        );

        // Resume: replays completed units, runs the rest, byte-identical.
        let resumed = run(
            &[
                "all", "--scale", "test", "--seed", "42", "--jobs", jobs,
                "--csv", res_csv.to_str().unwrap(),
                "--resume", ck.to_str().unwrap(),
            ],
            &[],
        );
        assert!(resumed.status.success(), "resume failed: {resumed:?}");
        let resumed_err = String::from_utf8_lossy(&resumed.stderr);
        assert!(
            resumed_err.contains("[repro] resuming:"),
            "resume must report replayed units:\n{resumed_err}"
        );
        assert_eq!(
            clean.stdout, resumed.stdout,
            "resumed stdout differs from uninterrupted run (jobs {jobs})"
        );
        let clean_files = read_csvs(&clean_csv);
        let resumed_files = read_csvs(&res_csv);
        assert_eq!(clean_files.len(), 5, "expected fig1..fig5 exports");
        assert_eq!(
            clean_files, resumed_files,
            "resumed CSV exports differ from uninterrupted run (jobs {jobs})"
        );

        std::fs::remove_dir_all(&base).ok();
    }
}

#[test]
fn resume_after_full_completion_is_pure_replay() {
    let base = tmpdir("fullreplay");
    let ck = base.join("ck");

    let first = run(
        &[
            "fig1", "--scale", "test", "--seed", "42",
            "--checkpoint", ck.to_str().unwrap(),
        ],
        &[],
    );
    assert!(first.status.success(), "{first:?}");

    let replayed = run(
        &[
            "fig1", "--scale", "test", "--seed", "42",
            "--resume", ck.to_str().unwrap(),
        ],
        &[],
    );
    assert!(replayed.status.success(), "{replayed:?}");
    assert_eq!(first.stdout, replayed.stdout);
    let stderr = String::from_utf8_lossy(&replayed.stderr);
    assert!(
        !stderr.contains("building"),
        "pure replay must not rebuild any world:\n{stderr}"
    );

    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn stale_checkpoint_is_rejected_not_reused() {
    let base = tmpdir("stale");
    let ck = base.join("ck");

    let seeded = run(
        &[
            "calib", "--scale", "test", "--seed", "42",
            "--checkpoint", ck.to_str().unwrap(),
        ],
        &[],
    );
    assert!(seeded.status.success(), "{seeded:?}");

    // Wrong seed.
    let wrong_seed = run(
        &[
            "calib", "--scale", "test", "--seed", "43",
            "--resume", ck.to_str().unwrap(),
        ],
        &[],
    );
    assert_eq!(wrong_seed.status.code(), Some(2), "{wrong_seed:?}");
    assert!(wrong_seed.stdout.is_empty());
    let err = String::from_utf8_lossy(&wrong_seed.stderr);
    assert!(err.contains("seed mismatch"), "{err}");
    assert!(err.contains("stale"), "{err}");

    // Wrong scale.
    let wrong_scale = run(
        &[
            "calib", "--scale", "full", "--seed", "42",
            "--resume", ck.to_str().unwrap(),
        ],
        &[],
    );
    assert_eq!(wrong_scale.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&wrong_scale.stderr).contains("scale mismatch"));

    // Wrong experiment selection.
    let wrong_exp = run(
        &[
            "fig1", "--scale", "test", "--seed", "42",
            "--resume", ck.to_str().unwrap(),
        ],
        &[],
    );
    assert_eq!(wrong_exp.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&wrong_exp.stderr).contains("experiments mismatch"));

    // Wrong code-schema version: re-encode the checkpoint with another
    // schema as a stand-in for "written by an older build" (its header
    // checksum matches, as an older build's would).
    let manifest = ck.join("checkpoint.bbck");
    let (mut old, _) = Checkpoint::decode(&std::fs::read(&manifest).unwrap()).unwrap();
    old.key.code_schema = 99;
    std::fs::write(&manifest, old.encode()).unwrap();
    let wrong_schema = run(
        &[
            "calib", "--scale", "test", "--seed", "42",
            "--resume", ck.to_str().unwrap(),
        ],
        &[],
    );
    assert_eq!(wrong_schema.status.code(), Some(2), "{wrong_schema:?}");
    let err = String::from_utf8_lossy(&wrong_schema.stderr);
    assert!(err.contains("code_schema"), "{err}");

    // Truncated/corrupt manifest: also rejected, exit 2.
    std::fs::write(&manifest, b"bbck/v2\nseed 42\n").unwrap();
    let corrupt = run(
        &[
            "calib", "--scale", "test", "--seed", "42",
            "--resume", ck.to_str().unwrap(),
        ],
        &[],
    );
    assert_eq!(corrupt.status.code(), Some(2), "{corrupt:?}");

    // Missing manifest directory.
    let missing = run(
        &[
            "calib", "--scale", "test", "--seed", "42",
            "--resume", base.join("nonexistent").to_str().unwrap(),
        ],
        &[],
    );
    assert_eq!(missing.status.code(), Some(2), "{missing:?}");

    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn zero_length_manifest_is_rejected_with_diagnosis() {
    let base = tmpdir("zerolen");
    let ck = base.join("ck");
    let seeded = run(
        &[
            "calib", "--scale", "test", "--seed", "42",
            "--checkpoint", ck.to_str().unwrap(),
        ],
        &[],
    );
    assert!(seeded.status.success(), "{seeded:?}");

    // An atomic writer can never produce a 0-byte manifest, so this is
    // filesystem damage, not a torn tail — diagnosed, never salvaged.
    std::fs::write(ck.join("checkpoint.bbck"), b"").unwrap();
    let out = run(
        &[
            "calib", "--scale", "test", "--seed", "42",
            "--resume", ck.to_str().unwrap(),
        ],
        &[],
    );
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("empty"), "{err}");
    assert!(err.contains("byte offset 0"), "{err}");
    assert!(err.contains("refusing to salvage"), "{err}");

    std::fs::remove_dir_all(&base).ok();
}

/// The header `repro calib --scale test --seed 42 --checkpoint` writes.
const CALIB_HEADER: &str = "bbck/v2\nseed 42\nscale test\nfaults off\nexperiments calib\n\
                            csv 0\ncode_schema 1\nsum 8fd23227b7c455e0\n";

#[test]
fn crafted_manifests_fail_closed_on_resume() {
    let base = tmpdir("crafted");
    let ck = base.join("ck");
    std::fs::create_dir_all(&ck).unwrap();
    // A blob length no file can hold, and a file count far past the
    // records present: neither may index past the bytes or size an
    // allocation; both must be named as the bad record.
    for (record, named) in [
        ("unit calib 0 18446744073709551615 0\nend\n", "impossible length"),
        ("unit calib 99999999999999999 0 888277013a417429\n\nend\n", "expected `file`"),
    ] {
        std::fs::write(ck.join("checkpoint.bbck"), format!("{CALIB_HEADER}{record}")).unwrap();
        let out = run(
            &[
                "calib", "--scale", "test", "--seed", "42",
                "--resume", ck.to_str().unwrap(),
            ],
            &[],
        );
        assert_eq!(out.status.code(), Some(2), "{record:?}: {out:?}");
        assert!(out.stdout.is_empty());
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(named) && err.contains("unit calib"), "{err}");
    }
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn mid_file_corruption_is_rejected_with_byte_offset_not_salvaged() {
    let base = tmpdir("midcorrupt");
    let ck = base.join("ck");
    let seeded = run(
        &[
            "calib", "--scale", "test", "--seed", "42",
            "--checkpoint", ck.to_str().unwrap(),
        ],
        &[],
    );
    assert!(seeded.status.success(), "{seeded:?}");

    // Flip one byte inside the first unit's stdout blob (just past its
    // `unit ...` record-header line). The bytes are all present, so this
    // is mid-file corruption: a checksum mismatch naming the blob's byte
    // offset, never a salvage of the damaged prefix.
    let manifest = ck.join("checkpoint.bbck");
    let seeded = std::fs::read(&manifest).unwrap();
    let mut bytes = seeded.clone();
    let rec = bytes
        .windows(6)
        .position(|w| w == b"\nunit ")
        .expect("manifest has a unit record");
    let blob_at = rec + 1 + bytes[rec + 1..].iter().position(|&b| b == b'\n').unwrap() + 1;
    bytes[blob_at + 2] ^= 0x20;
    std::fs::write(&manifest, &bytes).unwrap();

    let resume = || {
        let out = run(
            &[
                "calib", "--scale", "test", "--seed", "42",
                "--resume", ck.to_str().unwrap(),
            ],
            &[],
        );
        assert_eq!(out.status.code(), Some(2), "{out:?}");
        assert!(out.stdout.is_empty());
        String::from_utf8_lossy(&out.stderr).into_owned()
    };
    let err = resume();
    assert!(err.contains("checksum mismatch"), "{err}");
    assert!(err.contains(&format!("byte offset {blob_at}")), "{err}");
    assert!(err.contains("mid-file corruption"), "{err}");

    // `seed 42` → `seed 43` in the header: a well-formed value only the
    // header checksum catches, named with its sum line's byte offset.
    let mut bytes = seeded.clone();
    bytes["bbck/v2\nseed 4".len()] ^= 1;
    std::fs::write(&manifest, &bytes).unwrap();
    let err = resume();
    let sum_at = seeded.windows(5).position(|w| w == b"\nsum ").unwrap() + 1;
    assert!(err.contains("header checksum mismatch"), "{err}");
    assert!(err.contains(&format!("byte offset {sum_at}")), "{err}");

    // The same checkpoint under the previous format line: no v1 reader.
    let mut bytes = b"bbck/v1".to_vec();
    bytes.extend_from_slice(&seeded["bbck/v2".len()..]);
    std::fs::write(&manifest, &bytes).unwrap();
    let err = resume();
    assert!(err.contains("unsupported format \"bbck/v1\""), "{err}");

    // The last record's length raised past end of file. The bytes after
    // its line still check out as the record under their actual length,
    // so this is a damaged length, not a crash mid-append: refused with
    // both byte offsets, and the file is not cut.
    let rec = seeded.windows(6).rposition(|w| w == b"\nunit ").unwrap() + 1;
    let nl = rec + seeded[rec..].iter().position(|&b| b == b'\n').unwrap();
    let line = std::str::from_utf8(&seeded[rec..nl]).unwrap();
    let mut tokens: Vec<&str> = line.split(' ').collect();
    let len_at = tokens.len() - 2;
    let len: usize = tokens[len_at].parse().unwrap();
    assert_eq!(nl + 1 + len + 1, seeded.len(), "the unit record is the last record");
    let raised = (len + 500).to_string();
    tokens[len_at] = &raised;
    let mut bytes = seeded[..rec].to_vec();
    bytes.extend_from_slice(tokens.join(" ").as_bytes());
    let blob_at = bytes.len() + 1;
    bytes.extend_from_slice(&seeded[nl..]);
    std::fs::write(&manifest, &bytes).unwrap();
    let err = resume();
    assert!(err.contains("a damaged length"), "{err}");
    assert!(err.contains(&format!("blob at byte offset {blob_at}")), "{err}");
    assert!(err.contains(&format!("record line at byte offset {rec}")), "{err}");
    assert_eq!(std::fs::read(&manifest).unwrap(), bytes, "a refused resume must not cut the file");

    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn flipped_unit_name_is_rejected_not_replayed_as_another_unit() {
    let base = tmpdir("headflip");
    let ck = base.join("ck");
    let seeded = run(
        &["all", "--scale", "test", "--seed", "42", "--checkpoint", ck.to_str().unwrap()],
        &[],
    );
    assert!(seeded.status.success(), "{seeded:?}");

    // One bit turns `unit fig3 …` into `unit fig1 …`. Were record heads
    // unchecked, fig3's stdout would replay as Figure 1's block.
    let manifest = ck.join("checkpoint.bbck");
    let mut bytes = std::fs::read(&manifest).unwrap();
    let rec = bytes
        .windows(10)
        .position(|w| w == b"\nunit fig3")
        .expect("checkpoint has a fig3 record")
        + 1;
    bytes[rec + "unit fig".len()] ^= 0x02;
    std::fs::write(&manifest, &bytes).unwrap();
    let out = run(
        &["all", "--scale", "test", "--seed", "42", "--resume", ck.to_str().unwrap()],
        &[],
    );
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "a refused resume must print nothing");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("checksum mismatch in stdout of unit fig1"), "{err}");
    assert!(err.contains(&format!("record line at byte offset {rec}")), "{err}");
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn transient_poison_recovers_via_supervised_retry() {
    // fig5 panics on its first two attempts, succeeds on the third: the
    // supervisor absorbs both panics, and the final output is identical to
    // an unpoisoned run — retries are invisible in stdout.
    let clean = run(&["fig5", "--scale", "test", "--seed", "42"], &[]);
    assert!(clean.status.success(), "{clean:?}");

    let healed = run(
        &["fig5", "--scale", "test", "--seed", "42"],
        &[("BB_INJECT", "poison:fig5:2")],
    );
    assert!(
        healed.status.success(),
        "retry should recover a transient poison: {healed:?}"
    );
    assert_eq!(clean.stdout, healed.stdout);

    // A persistent poison still fails after the retry budget.
    let dead = run(
        &["fig5", "--scale", "test", "--seed", "42"],
        &[("BB_INJECT", "poison:fig5")],
    );
    assert_eq!(dead.status.code(), Some(1), "{dead:?}");
    let err = String::from_utf8_lossy(&dead.stderr);
    assert!(err.contains("=== EXPERIMENT FAILED: fig5 ==="), "{err}");
}

#[test]
fn interrupt_without_checkpoint_discards_and_says_so() {
    let out = run(
        &["all", "--scale", "test", "--seed", "42"],
        &[("BB_INJECT", "unit-limit:1")],
    );
    assert_eq!(out.status.code(), Some(130), "{out:?}");
    assert!(out.stdout.is_empty());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("=== INTERRUPTED ==="), "{err}");
    assert!(!err.contains("resumable"), "{err}");
}
