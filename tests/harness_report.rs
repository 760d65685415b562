//! Integration: `fua harness-report` — the harness observing itself.
//!
//! The report's stdout is derived only from deterministic model state,
//! so it must be byte-identical across worker counts; the measured
//! timing lives on stderr and in side files. The side files must be
//! well-formed: the Perfetto timeline parses as JSON with worker thread
//! tracks, and the folded stacks carry one frame path per line.

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
            std::env::temp_dir().join(format!("fua-harness-test-{label}-{}", std::process::id()));
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
fn stdout_is_byte_identical_across_worker_counts() {
    let tmp = TempDir::new("jobs");
    let one = fua_in(
        &tmp.0,
        &["harness-report", "--limit", "2000", "--jobs", "1"],
    );
    let four = fua_in(
        &tmp.0,
        &["harness-report", "--limit", "2000", "--jobs", "4"],
    );
    assert!(
        one.status.success() && four.status.success(),
        "harness-report failed: {}",
        String::from_utf8_lossy(&four.stderr)
    );
    assert_eq!(
        one.stdout, four.stdout,
        "worker count must never leak into the deterministic report"
    );
    let text = String::from_utf8_lossy(&one.stdout);
    assert!(text.contains("simulated cycles"), "report: {text}");
}

#[test]
fn json_report_carries_the_schema_and_only_deterministic_fields() {
    let tmp = TempDir::new("json");
    let out = fua_in(
        &tmp.0,
        &["harness-report", "--limit", "2000", "--jobs", "2", "--json"],
    );
    assert!(out.status.success());
    let json = fua::trace::Json::parse(&String::from_utf8_lossy(&out.stdout))
        .expect("harness-report --json parses");
    assert_eq!(
        json.get("schema").and_then(fua::trace::Json::as_str),
        Some("fua-harness-report/1")
    );
    // The worker count is measurement context, not model output: it must
    // stay off stdout so the report diffs clean across --jobs values.
    assert!(json.get("jobs").is_none());
    let serial = json.get("serial_pass").expect("serial_pass section");
    let parallel = json.get("parallel_sweep").expect("parallel_sweep section");
    for section in [serial, parallel] {
        assert!(
            section.get("cycles").and_then(fua::trace::Json::as_u64) > Some(0),
            "simulated cycles recorded"
        );
    }
    assert_eq!(
        serial.get("cycles").and_then(fua::trace::Json::as_u64),
        parallel.get("cycles").and_then(fua::trace::Json::as_u64),
        "both passes run the same deterministic engine"
    );
}

#[test]
fn side_files_are_well_formed() {
    let tmp = TempDir::new("sidecar");
    let out = fua_in(
        &tmp.0,
        &[
            "harness-report",
            "--limit",
            "2000",
            "--jobs",
            "2",
            "--out",
            "timeline.json",
            "--flame",
            "harness.folded",
        ],
    );
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Perfetto timeline: parses as JSON, and every worker span rides a
    // named thread track.
    let timeline = std::fs::read_to_string(tmp.0.join("timeline.json")).expect("timeline written");
    let json = fua::trace::Json::parse(&timeline).expect("timeline parses");
    let events = json
        .get("traceEvents")
        .and_then(fua::trace::Json::as_arr)
        .expect("traceEvents array");
    assert!(
        events
            .iter()
            .any(|e| { e.get("name").and_then(fua::trace::Json::as_str) == Some("thread_name") }),
        "worker tracks must be named"
    );

    // Folded stacks: every line is `frames... count` with harness root.
    let folded = std::fs::read_to_string(tmp.0.join("harness.folded")).expect("flame written");
    for line in folded.lines() {
        assert!(line.starts_with("harness;"), "stack root: {line}");
        let count = line.rsplit(' ').next().expect("count column");
        count.parse::<u64>().expect("counts are integers");
    }
}
