//! Integration: the `--progress` heartbeat must be observable on
//! stderr and provably absent everywhere else — stdout byte-identical
//! with and without the flag, and recorded artifacts indistinguishable
//! from silent runs (the comparison gate sees zero regressions).

use std::path::Path;
use std::process::Command;

fn fua_in(dir: &Path, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_fua"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("spawn fua binary")
}

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(label: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("fua-progress-test-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn progress_lines_go_to_stderr_and_stdout_is_byte_identical() {
    let tmp = TempDir::new("figure4");
    let silent = fua_in(&tmp.0, &["figure4", "ialu", "--limit", "2000"]);
    let chatty = fua_in(
        &tmp.0,
        &["figure4", "ialu", "--limit", "2000", "--progress"],
    );
    assert!(silent.status.success() && chatty.status.success());

    assert_eq!(
        silent.stdout, chatty.stdout,
        "--progress must not change a single stdout byte"
    );
    let silent_err = String::from_utf8_lossy(&silent.stderr);
    let chatty_err = String::from_utf8_lossy(&chatty.stderr);
    assert!(
        !silent_err.contains("progress:"),
        "no heartbeat without the flag; stderr: {silent_err}"
    );
    assert!(
        chatty_err.contains("progress:"),
        "--progress must emit heartbeat lines; stderr: {chatty_err}"
    );
}

#[test]
fn quiet_is_an_unknown_option() {
    let tmp = TempDir::new("quiet");
    let out = fua_in(&tmp.0, &["figure4", "ialu", "--quiet"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown option: --quiet"), "stderr: {err}");
    assert!(out.stdout.is_empty());
}

#[test]
fn artifacts_recorded_under_progress_are_indistinguishable() {
    let tmp = TempDir::new("bench");
    let silent = fua_in(
        &tmp.0,
        &["bench-suite", "--limit", "1500", "--tag", "silent"],
    );
    let chatty = fua_in(
        &tmp.0,
        &[
            "bench-suite",
            "--limit",
            "1500",
            "--tag",
            "chatty",
            "--progress",
        ],
    );
    assert!(silent.status.success() && chatty.status.success());
    assert!(
        silent.stdout.is_empty() && chatty.stdout.is_empty(),
        "bench-suite keeps stdout machine-clean either way"
    );

    // Model content is identical; only wall-clock measurement differs
    // run to run, with or without the flag. The tolerance gate is the
    // arbiter: zero findings means no model drift at all.
    let report = fua_in(
        &tmp.0,
        &[
            "report",
            "--baseline",
            "BENCH_silent.json",
            "--current",
            "BENCH_chatty.json",
        ],
    );
    assert!(report.status.success());
    let verdict = String::from_utf8_lossy(&report.stdout);
    assert!(
        verdict.contains("PASS: 0 finding(s)"),
        "a --progress artifact must diff clean: {verdict}"
    );
}
