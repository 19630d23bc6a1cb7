//! A bad `--sa-lane` or `--evaluator` value is a usage error on the
//! `arena` and `campaign` binaries: exit status 2, the problem and the
//! usage text on stderr, and no panic.

use std::process::Command;

fn assert_usage_error(bin: &str, args: &[&str], expect: &str) {
    let out = Command::new(bin).args(args).output().expect("run binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(expect), "{args:?}: {stderr}");
    assert!(
        stderr.contains("--sa-lane LANE"),
        "{args:?} prints usage: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn bad_lane_and_evaluator_values_exit_with_usage() {
    for bin in [env!("CARGO_BIN_EXE_arena"), env!("CARGO_BIN_EXE_campaign")] {
        assert_usage_error(bin, &["--sa-lane", "turbo"], "exact, delta-table");
        assert_usage_error(bin, &["--sa-lane"], "--sa-lane needs a value");
        assert_usage_error(bin, &["--evaluator", "bogus"], "unknown evaluator 'bogus'");
        assert_usage_error(bin, &["--evaluator"], "--evaluator needs a value");
    }
}
