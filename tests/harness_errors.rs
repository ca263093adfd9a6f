//! Harness error paths: every usage error exits 2 with a one-line
//! diagnostic on stderr and prints nothing on stdout.

use std::process::Command;

/// Run `repro args` with `BB_INJECT` set to `inject`, or unset.
fn repro_with(args: &[&str], inject: Option<&str>) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(args).env_remove("BB_INJECT");
    if let Some(spec) = inject {
        cmd.env("BB_INJECT", spec);
    }
    cmd.output().expect("spawn repro")
}

fn repro(args: &[&str]) -> std::process::Output {
    repro_with(args, None)
}

fn assert_usage_error(args: &[&str], expect_in_stderr: &str) {
    assert_usage_error_with(args, None, expect_in_stderr)
}

fn assert_usage_error_with(args: &[&str], inject: Option<&str>, expect_in_stderr: &str) {
    let out = repro_with(args, inject);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?} (BB_INJECT={inject:?}) should exit 2, got {:?}",
        out.status.code()
    );
    assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains(expect_in_stderr),
        "{args:?} stderr missing {expect_in_stderr:?}:\n{stderr}"
    );
    // One-line diagnostic: users should not get a wall of text for a typo.
    assert_eq!(
        stderr.trim_end().lines().count(),
        1,
        "{args:?} diagnostic is not one line:\n{stderr}"
    );
}

#[test]
fn bad_scale_exits_2() {
    assert_usage_error(&["fig1", "--scale", "huge"], "unknown scale");
    assert_usage_error(&["fig1", "--scale"], "unknown scale");
}

/// A planet-scale campaign's memory grows without bound, so every
/// campaign subcommand refuses `--scale planet` before it builds a world or
/// writes a file; only `repro propagate` accepts it.
#[test]
fn planet_scale_campaigns_exit_2() {
    let dir = std::env::temp_dir().join(format!("bb_planet_refused_{}", std::process::id()));
    let d = dir.to_str().unwrap();
    let cases: [&[&str]; 6] = [
        &["--scale", "planet"],
        &["all", "--scale", "planet"],
        &["fig1", "--scale", "planet", "--seed", "7"],
        &["audit", "--scale", "planet"],
        &["orchestrate", "2", "--scale", "planet", "--dir", d],
        &["serve", "--dir", d, "--scale", "planet"],
    ];
    for args in cases {
        assert_usage_error(args, "--scale planet runs only under `repro propagate`");
    }
    assert!(!dir.exists(), "a refused campaign wrote {d}");
}

#[test]
fn bad_seed_exits_2() {
    assert_usage_error(&["fig1", "--seed", "notanumber"], "--seed needs a number");
    assert_usage_error(&["fig1", "--seed", "-3"], "--seed needs a number");
    assert_usage_error(&["fig1", "--seed"], "--seed needs a number");
}

#[test]
fn bad_jobs_exits_2() {
    assert_usage_error(&["fig1", "--jobs", "many"], "--jobs needs a number");
}

#[test]
fn bad_faults_level_exits_2() {
    assert_usage_error(&["fig1", "--faults", "catastrophic"], "unknown fault level");
    assert_usage_error(&["fig1", "--faults"], "unknown fault level");
}

#[test]
fn unwritable_csv_dir_exits_2() {
    // A path that nests under a regular file can never be created.
    let blocker = std::env::temp_dir().join(format!("bb_csv_blocker_{}", std::process::id()));
    std::fs::write(&blocker, b"not a directory").unwrap();
    let target = blocker.join("sub");
    let out = repro(&[
        "fig1",
        "--scale",
        "test",
        "--csv",
        target.to_str().unwrap(),
    ]);
    std::fs::remove_file(&blocker).ok();
    assert_eq!(out.status.code(), Some(2), "{:?}", out.status.code());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("--csv: cannot create"), "{stderr}");
}

#[test]
fn unknown_experiment_exits_2() {
    assert_usage_error(&["figx"], "unknown experiment 'figx'");
}

#[test]
fn conflicting_checkpoint_and_resume_exits_2() {
    // Silently preferring one directory over the other loses checkpoints;
    // disagreeing flags are a usage error, not a precedence rule.
    assert_usage_error(
        &["all", "--checkpoint", "/tmp/bb_ck_a", "--resume", "/tmp/bb_ck_b"],
        "conflicts with --resume",
    );
}

#[test]
fn audit_with_checkpoint_or_resume_exits_2() {
    assert_usage_error(
        &["audit", "--checkpoint", "/tmp/bb_ck_a"],
        "does not support --checkpoint/--resume",
    );
    assert_usage_error(
        &["audit", "--resume", "/tmp/bb_ck_a"],
        "does not support --checkpoint/--resume",
    );
}

/// Every subcommand goes through the same flag parser: `--help` prints its
/// own usage and exits 0; an unknown flag, a value flag with nothing after
/// it, and a non-finite or non-positive duration are usage errors.
#[test]
fn every_subcommand_parses_flags_the_same_way() {
    // (argv prefix, first words of its --help usage)
    let table: [(&[&str], &str); 5] = [
        (&["all"], "repro [EXPERIMENT]"),
        (&["merge"], "repro merge SHARD_DIR..."),
        (&["orchestrate", "2"], "repro orchestrate N"),
        (&["serve", "--dir", "/nonexistent_bb_serve"], "repro serve --dir DIR"),
        (&["propagate"], "repro propagate ["),
    ];
    for (prefix, usage) in table {
        let with = |extra: &[&'static str]| -> Vec<&'static str> { [prefix, extra].concat() };
        let help = repro(&with(&["--help"]));
        assert_eq!(help.status.code(), Some(0), "{prefix:?} --help");
        let stdout = String::from_utf8(help.stdout).unwrap();
        assert!(stdout.starts_with(usage), "{prefix:?} --help printed:\n{stdout}");

        assert_usage_error(&with(&["--no-such-flag"]), "--no-such-flag");
        let trailing = if prefix[0] == "merge" { "--csv" } else { "--seed" };
        assert_usage_error(&with(&[trailing]), &format!("{trailing} needs"));
    }
    assert_usage_error(&["merge", "shard0", "--seed"], "unknown flag --seed");
}

#[test]
fn bad_durations_exit_2_not_panic() {
    for bad in ["-1", "0", "inf", "NaN"] {
        assert_usage_error(
            &["orchestrate", "1", "--hang-timeout", bad],
            "--hang-timeout needs finite seconds > 0",
        );
        assert_usage_error(
            &["serve", "--dir", "/nonexistent_bb_serve", "--epoch-deadline", bad],
            "--epoch-deadline needs finite seconds > 0",
        );
    }
}

#[test]
fn unknown_audit_violate_rule_exits_2() {
    assert_usage_error_with(
        &["audit", "--scale", "test"],
        Some("violate:no.such.rule"),
        "unknown rule \"no.such.rule\"",
    );
}

/// `BB_INJECT` is parsed once, before any subcommand runs: a malformed
/// token, an unknown kind, an unknown experiment or audit rule, and a kind
/// the subcommand cannot honour each exit 2 with one stderr line naming
/// `BB_INJECT` and the token — also where the fault would never fire
/// (`enospc` on a run that writes nothing).
#[test]
fn bb_inject_fails_closed_on_every_subcommand() {
    // (argv, a kind this subcommand cannot honour)
    let table: [(&[&str], &str); 6] = [
        (&["calib", "--scale", "test"], "violate:cdf.monotone"),
        (&["audit", "--scale", "test"], "poison:fig1"),
        (&["serve", "--dir", "/nonexistent_bb_serve", "--scale", "test"], "poison:fig1"),
        (&["propagate", "--scale", "test"], "crash:1"),
        (&["merge", "/nonexistent_bb_shard"], "stall:fig1:5"),
        (&["orchestrate", "2", "--scale", "test"], "unit-limit:1"),
    ];
    for (args, unhonoured) in table {
        for (spec, why) in [
            ("crash:abc", "expected crash:N"),
            ("enospc:banana", "expected enospc:N"),
            ("bogus:1", "unknown kind"),
            ("poison:fgi5", "unknown experiment \"fgi5\""),
            ("violate:no.such.rule", "unknown rule \"no.such.rule\""),
            (unhonoured, "not honoured by this command"),
        ] {
            let named = format!("BB_INJECT: {spec:?}: {why}");
            assert_usage_error_with(args, Some(spec), &named);
        }
    }
    // The campaign's `crash` fires after a checkpoint flush: without
    // `--checkpoint` it could never fire, so it is refused too.
    let named = "BB_INJECT: \"crash:1\": not honoured by this command";
    assert_usage_error_with(&["calib", "--scale", "test"], Some("crash:1"), named);
}
