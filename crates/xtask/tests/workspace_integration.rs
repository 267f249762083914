//! End-to-end tests of the `xtask lint` CLI: the real workspace must be
//! clean under the default deny set, the bad fixture workspace must
//! fail, and the severity/JSON flags must behave.

use std::path::PathBuf;
use std::process::Command;

fn xtask_cmd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_xtask"))
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn bad_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/bad-workspace")
}

#[test]
fn real_workspace_is_lint_clean_under_deny_all() {
    let out = xtask_cmd()
        .args(["lint", "--deny", "all", "--root"])
        .arg(repo_root())
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "lint must pass on the tree:\n{stdout}");
    assert!(stdout.contains("clean"), "{stdout}");
}

#[test]
fn bad_fixture_workspace_fails_with_every_lint() {
    let out = xtask_cmd().args(["lint", "--root"]).arg(bad_root()).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for tag in [
        "[h1]", "[p1]", "[f1]", "[v1]", "[d1]", "[a1]", "[allow]", "[n1]", "[o1]",
        "[v2]", "[b1]", "[t2]",
    ] {
        assert!(stdout.contains(tag), "missing {tag} in:\n{stdout}");
    }
    assert!(stdout.contains("stale lint:allow(f1)"), "{stdout}");
    assert!(stdout.contains("crates/core/src/lib.rs:"), "{stdout}");
    assert!(stdout.contains("crates/rectpack/src/hotpath.rs:"), "{stdout}");
}

#[test]
fn warn_downgrade_reports_but_exits_zero() {
    let out = xtask_cmd()
        .args(["lint", "--warn", "all", "--root"])
        .arg(bad_root())
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "warnings must not fail the run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("(warning)"), "{stdout}");
    assert!(stdout.contains("0 denied"), "{stdout}");
}

#[test]
fn single_lint_severity_override() {
    // Everything warned except h1: the run still fails, on h1 alone.
    let out = xtask_cmd()
        .args(["lint", "--warn", "all", "--deny", "h1", "--root"])
        .arg(bad_root())
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 denied"), "{stdout}");
}

#[test]
fn json_mode_is_machine_readable() {
    let out = xtask_cmd()
        .args(["lint", "--json", "--root"])
        .arg(bad_root())
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.trim();
    assert!(line.starts_with("{\"v\":1,\"findings\":["), "{line}");
    assert!(line.ends_with('}'), "{line}");
    assert!(line.contains("\"lint\":\"h1\""), "{line}");
    assert!(line.contains("\"level\":\"deny\""), "{line}");
    assert!(line.contains("\"denied\":"), "{line}");
    assert!(line.contains("\"baselined\":0"), "{line}");
}

#[test]
fn json_export_is_byte_identical_across_runs() {
    let run = || {
        let out = xtask_cmd()
            .args(["lint", "--format", "json", "--root"])
            .arg(bad_root())
            .output()
            .unwrap();
        out.stdout
    };
    assert_eq!(run(), run(), "two json exports must match byte for byte");
}

#[test]
fn baseline_round_trip_suppresses_known_findings() {
    let dir = std::env::temp_dir().join(format!("xtask-baseline-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("lint-baseline.json");

    // Write the bad workspace's findings as the baseline…
    let out = xtask_cmd()
        .args(["lint", "--write-baseline"])
        .arg(&file)
        .arg("--root")
        .arg(bad_root())
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stdout));
    assert!(String::from_utf8_lossy(&out.stdout).contains("baselined"));

    // …then a lint against that baseline is clean and exits zero.
    let out = xtask_cmd()
        .args(["lint", "--baseline"])
        .arg(&file)
        .arg("--root")
        .arg(bad_root())
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("clean"), "{stdout}");
    assert!(stdout.contains("baselined)"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn usage_errors_exit_two() {
    let out = xtask_cmd().args(["lint", "--deny", "zz"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = xtask_cmd().args(["frobnicate"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn list_prints_the_lint_set() {
    let out = xtask_cmd().args(["lint", "--list"]).output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in ["h1", "p1", "f1", "v1", "d1"] {
        assert!(stdout.contains(name), "{stdout}");
    }
}
