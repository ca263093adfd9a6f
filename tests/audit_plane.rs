//! `repro audit` end-to-end: the invariant rules pass on a clean build,
//! every seeded violation flips the exit code, and the report names the
//! rule that fired. The full 14-rule violation sweep runs in CI against
//! the release binary; here two representative hooks (one invariant rule,
//! one metamorphic relation) keep the debug-build cost bounded.

use std::process::Command;

fn audit(violate: Option<&str>) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(["audit", "--scale", "test", "--seed", "7", "--jobs", "1"]);
    match violate {
        Some(rule) => cmd.env("BB_INJECT", format!("violate:{rule}")),
        None => cmd.env_remove("BB_INJECT"),
    };
    cmd.output().expect("spawn repro")
}

#[test]
fn clean_audit_passes_all_rules() {
    let out = audit(None);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(0), "audit failed:\n{stdout}");
    assert!(
        stdout.contains("=== AUDIT PASSED: 14/14 rules"),
        "missing pass footer:\n{stdout}"
    );
    // Every rule in the catalog is present and reported ok.
    for rule in beating_bgp::audit::RULE_NAMES {
        assert!(stdout.contains(rule), "rule {rule} missing from report:\n{stdout}");
    }
    assert!(!stdout.contains("FAIL"), "clean audit reported a FAIL:\n{stdout}");
}

#[test]
fn seeded_invariant_violation_fails_the_audit() {
    let out = audit(Some("cdf.monotone"));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(1), "expected exit 1:\n{stdout}");
    assert!(
        stdout.contains("cdf.monotone") && stdout.contains("FAIL"),
        "cdf.monotone did not fire:\n{stdout}"
    );
    assert!(stdout.contains("=== AUDIT FAILED"), "missing fail footer:\n{stdout}");
}

#[test]
fn seeded_metamorphic_violation_fails_the_audit() {
    let out = audit(Some("meta.faults_off"));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(out.status.code(), Some(1), "expected exit 1:\n{stdout}");
    assert!(
        stdout.contains("meta.faults_off") && stdout.contains("FAIL"),
        "meta.faults_off did not fire:\n{stdout}"
    );
}
