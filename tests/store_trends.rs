//! Integration: the longitudinal run store and `fua trends`.
//!
//! Exercised through the binary, the way CI drives them: artifacts
//! recorded with `bench-suite --store` must round-trip byte-identically
//! through `store show`, identical configurations must collapse to one
//! manifest key while any knob change splits it, `store gc` must never
//! touch an indexed artifact, and `trends` must pass on a clean history
//! and exit nonzero when the newest stored run regresses.

use std::path::Path;
use std::process::Command;

fn fua_in(dir: &Path, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_fua"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("spawn fua binary")
}

fn stdout_of(out: &std::process::Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(label: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("fua-store-test-{label}-{}", std::process::id()));
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

/// Records one reduced-scale suite run into the store under `dir`.
fn record(dir: &Path, tag: &str, limit: &str) {
    let out = fua_in(
        dir,
        &["bench-suite", "--limit", limit, "--store", "--tag", tag],
    );
    assert!(
        out.status.success(),
        "bench-suite --store failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn stored_artifacts_round_trip_byte_identically() {
    let tmp = TempDir::new("roundtrip");
    record(&tmp.0, "a", "1500");
    record(&tmp.0, "b", "1500");

    // ls sees both runs under one configuration key.
    let ls = fua_in(&tmp.0, &["store", "ls"]);
    assert!(ls.status.success());
    let listing = stdout_of(&ls);
    assert!(
        listing.contains("2 run(s) over 1 configuration(s)"),
        "listing: {listing}"
    );

    // Each stored artifact parses and re-stores byte-identically:
    // putting a shown artifact back must dedup to the same object.
    let shown = stdout_of(&fua_in(&tmp.0, &["store", "show", "2"]));
    assert!(shown.contains("\"schema\": \"fua-bench/1.8\""));
    let copy = tmp.0.join("copy.json");
    std::fs::write(&copy, &shown).unwrap();
    let put = fua_in(&tmp.0, &["store", "put", "copy.json"]);
    assert!(put.status.success());
    assert!(
        stdout_of(&put).contains("deduplicated"),
        "re-putting identical bytes must dedup: {}",
        stdout_of(&put)
    );
    let reshown = stdout_of(&fua_in(&tmp.0, &["store", "show", "3"]));
    assert_eq!(shown, reshown, "put -> show must be byte-identical");
}

#[test]
fn a_config_change_splits_the_manifest_key() {
    let tmp = TempDir::new("keysplit");
    record(&tmp.0, "a", "1500");
    record(&tmp.0, "b", "1600");

    let listing = stdout_of(&fua_in(&tmp.0, &["store", "ls"]));
    assert!(
        listing.contains("2 run(s) over 2 configuration(s)"),
        "different --limit must yield distinct keys: {listing}"
    );

    // Only one run of the newest configuration exists, so trends has
    // no trajectory yet and must say so.
    let trends = fua_in(&tmp.0, &["trends"]);
    assert!(!trends.status.success());
    let stderr = String::from_utf8_lossy(&trends.stderr);
    assert!(
        stderr.contains("need at least 2 comparable runs"),
        "stderr: {stderr}"
    );
}

#[test]
fn gc_removes_orphans_but_never_indexed_artifacts() {
    let tmp = TempDir::new("gc");
    record(&tmp.0, "a", "1500");
    record(&tmp.0, "b", "1500");
    let before_1 = stdout_of(&fua_in(&tmp.0, &["store", "show", "1"]));
    let before_2 = stdout_of(&fua_in(&tmp.0, &["store", "show", "2"]));

    // Plant an orphan object and a stale staging file.
    let objects = tmp.0.join(".fua-store/objects");
    std::fs::write(objects.join("00000000000000000000000000000000.json"), "{}").unwrap();
    std::fs::write(tmp.0.join(".fua-store/tmp/stage-1-1"), "partial").unwrap();

    let gc = fua_in(&tmp.0, &["store", "gc"]);
    assert!(gc.status.success());
    let summary = stdout_of(&gc);
    assert!(
        summary.contains("removed 1 unreferenced object(s) and 1 staging file(s)"),
        "gc summary: {summary}"
    );

    // Indexed artifacts survive, byte for byte.
    assert_eq!(
        before_1,
        stdout_of(&fua_in(&tmp.0, &["store", "show", "1"]))
    );
    assert_eq!(
        before_2,
        stdout_of(&fua_in(&tmp.0, &["store", "show", "2"]))
    );
}

#[test]
fn trends_pass_on_a_clean_history_and_fail_on_a_seeded_regression() {
    let tmp = TempDir::new("trends");
    record(&tmp.0, "a", "1500");
    record(&tmp.0, "b", "1500");

    // Clean history: zero findings, sparkline series rendered.
    let clean = fua_in(&tmp.0, &["trends"]);
    assert!(
        clean.status.success(),
        "clean trends must pass: {}",
        stdout_of(&clean)
    );
    let rendered = stdout_of(&clean);
    assert!(rendered.contains("PASS: 0 finding(s)"), "{rendered}");
    assert!(rendered.contains("headline IALU %"), "{rendered}");
    assert!(
        rendered.contains("stall operand-wait share %"),
        "{rendered}"
    );

    // The JSON rendering agrees and is parseable.
    let json_out = fua_in(&tmp.0, &["trends", "--json"]);
    assert!(json_out.status.success());
    let json = fua::trace::Json::parse(&stdout_of(&json_out)).expect("trends --json parses");
    assert_eq!(
        json.get("schema").and_then(fua::trace::Json::as_str),
        Some("fua-trends/1")
    );
    assert_eq!(
        json.get("passed").and_then(fua::trace::Json::as_bool),
        Some(true)
    );

    // Seed a regressed third run by editing a shown artifact and
    // putting it back — exactly the CI negative test.
    let shown = stdout_of(&fua_in(&tmp.0, &["store", "show", "2"]));
    let needle = "\"ialu_pct\": ";
    let start = shown.find(needle).expect("headline field present") + needle.len();
    let end = start + shown[start..].find(',').expect("number terminated");
    let corrupted = format!("{}1.0{}", &shown[..start], &shown[end..]);
    let bad = tmp.0.join("bad.json");
    std::fs::write(&bad, corrupted).unwrap();
    assert!(fua_in(&tmp.0, &["store", "put", "bad.json"])
        .status
        .success());

    let failing = fua_in(&tmp.0, &["trends"]);
    assert!(
        !failing.status.success(),
        "a regressed newest run must fail trends"
    );
    let rendered = stdout_of(&failing);
    assert!(rendered.contains("trend-regression"), "{rendered}");
    assert!(rendered.contains("FAIL:"), "{rendered}");

    // report --store gates on the same pair (runs #2 and #3).
    let report = fua_in(&tmp.0, &["report", "--store"]);
    assert!(!report.status.success());
    assert!(stdout_of(&report).contains("REGRESSION"));
}
