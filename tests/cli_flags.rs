//! Integration: CLI flag validation. Every positive-integer flag must
//! reject `0` and non-numeric input the same way — a clear message on
//! stderr that names the flag, a nonzero exit code, and nothing on
//! stdout (so a broken invocation can never be mistaken for data by a
//! downstream pipeline).

use std::process::Command;

fn fua(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_fua"))
        .args(args)
        .output()
        .expect("spawn fua binary")
}

/// Runs a known-bad invocation and returns its stderr after checking
/// the exit code and that stdout stayed machine-clean.
fn expect_rejection(args: &[&str]) -> String {
    let out = fua(args);
    assert!(
        !out.status.success(),
        "`fua {}` must exit nonzero",
        args.join(" ")
    );
    assert!(
        out.stdout.is_empty(),
        "`fua {}` must not write data to stdout; got: {}",
        args.join(" "),
        String::from_utf8_lossy(&out.stdout)
    );
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn zero_is_rejected_by_every_positive_integer_flag() {
    let cases: [(&[&str], &str); 9] = [
        (&["tables", "--jobs", "0"], "--jobs"),
        (&["tables", "--limit", "0"], "--limit"),
        (&["tables", "--scale", "0"], "--scale"),
        (&["trace", "compress", "--last", "0"], "--last"),
        (&["trace", "compress", "--window", "0"], "--window"),
        (&["profile-energy", "compress", "--top", "0"], "--top"),
        (&["bench-suite", "--jobs", "0"], "--jobs"),
        (&["estimate", "all", "--jobs", "0"], "--jobs"),
        (&["estimate", "compress", "--limit", "0"], "--limit"),
    ];
    for (args, flag) in cases {
        let stderr = expect_rejection(args);
        assert!(
            stderr.contains(flag),
            "`fua {}`: stderr must name {flag}; got: {stderr}",
            args.join(" ")
        );
        assert!(
            stderr.contains("error:"),
            "`fua {}`: stderr must carry an error line; got: {stderr}",
            args.join(" ")
        );
    }
}

#[test]
fn non_numeric_values_are_rejected_with_the_offending_input() {
    let cases: [(&[&str], &str); 5] = [
        (&["tables", "--jobs", "many"], "--jobs"),
        (&["tables", "--limit", "1e6"], "--limit"),
        (&["trace", "compress", "--window", "wide"], "--window"),
        (&["profile-energy", "compress", "--top", "-3"], "--top"),
        (&["estimate", "all", "--jobs", "some"], "--jobs"),
    ];
    for (args, flag) in cases {
        let stderr = expect_rejection(args);
        assert!(
            stderr.contains(flag),
            "`fua {}`: stderr must name {flag}; got: {stderr}",
            args.join(" ")
        );
        // The offending value is echoed back so the user can see what
        // was actually parsed.
        let value = args.last().unwrap();
        assert!(
            stderr.contains(value),
            "`fua {}`: stderr must echo `{value}`; got: {stderr}",
            args.join(" ")
        );
    }
}

#[test]
fn a_flag_missing_its_value_is_rejected() {
    for args in [&["tables", "--jobs"][..], &["tables", "--limit"][..]] {
        let stderr = expect_rejection(args);
        assert!(
            stderr.contains("needs a value"),
            "`fua {}`: got: {stderr}",
            args.join(" ")
        );
    }
}

#[test]
fn an_unknown_scheme_lists_the_valid_names_on_every_subcommand() {
    let cases: [&[&str]; 6] = [
        &["estimate", "compress", "--scheme", "lut16"],
        &["estimate", "compress", "--compare", "lut16", "lut4"],
        &["profile-energy", "compress", "--scheme", "lut16"],
        &["profile-energy", "compress", "--compare", "lut4", "lut16"],
        &["profile-cycles", "compress", "--scheme", "lut16"],
        &["profile-cycles", "compress", "--compare", "lut16", "lut4"],
    ];
    for args in cases {
        let stderr = expect_rejection(args);
        assert!(
            stderr.contains("unknown scheme: lut16"),
            "`fua {}`: got: {stderr}",
            args.join(" ")
        );
        // The same uniform list everywhere, in Figure-4 order.
        assert!(
            stderr.contains("available schemes: fullham, 1bitham, lut4, lut2, lut8, naive"),
            "`fua {}`: got: {stderr}",
            args.join(" ")
        );
    }
}

#[test]
fn estimate_rejects_mutually_exclusive_flags() {
    for command in ["estimate", "profile-energy", "profile-cycles"] {
        let stderr = expect_rejection(&[
            command,
            "compress",
            "--scheme",
            "lut4",
            "--compare",
            "lut4",
            "naive",
        ]);
        assert!(
            stderr.contains("--scheme and --compare are mutually exclusive"),
            "`fua {command}`: got: {stderr}"
        );
    }
    let stderr = expect_rejection(&[
        "estimate",
        "compress",
        "--verify",
        "--compare",
        "lut4",
        "naive",
    ]);
    assert!(
        stderr.contains("--verify and --compare are mutually exclusive"),
        "got: {stderr}"
    );
}

#[test]
fn json_output_parses_and_carries_requested_sections() {
    use fua::trace::Json;
    // (args, top-level keys the document must carry).
    let cases: [(&[&str], &[&str]); 7] = [
        (&["fig1", "--json", "--limit", "2000"], &[]),
        (&["synth", "--json", "--limit", "2000"], &[]),
        (&["chip", "--json", "--limit", "2000"], &[]),
        (&["figure4", "ialu", "--json", "--limit", "2000"], &[]),
        (&["run", "compress", "--json", "--limit", "2000"], &[]),
        (
            &["headline", "--json", "--metrics", "--limit", "2000"],
            &["report", "metrics"],
        ),
        (
            &["run", "compress", "--json", "--metrics", "--limit", "2000"],
            &["metrics"],
        ),
    ];
    for (args, keys) in cases {
        let out = fua(args);
        assert!(
            out.status.success(),
            "`fua {}` must succeed",
            args.join(" ")
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let doc = Json::parse(&stdout).unwrap_or_else(|e| {
            panic!(
                "`fua {}`: stdout is not JSON: {e}\n{stdout}",
                args.join(" ")
            )
        });
        for key in keys {
            assert!(
                doc.get(key).is_some(),
                "`fua {}`: document lacks `{key}`",
                args.join(" ")
            );
        }
    }
}

#[test]
fn valid_flag_values_still_pass() {
    let out = fua(&["workloads", "--jobs", "2"]);
    assert!(out.status.success(), "control case must succeed");
    assert!(!out.stdout.is_empty());

    let out = fua(&["estimate", "compress", "--scheme", "naive", "--jobs", "2"]);
    assert!(out.status.success(), "estimate control case must succeed");
    assert!(!out.stdout.is_empty());
}

#[test]
fn report_names_the_missing_artifact_path() {
    let stderr = expect_rejection(&["report", "--baseline", "/no/such/BENCH_x.json"]);
    assert!(
        stderr.contains("/no/such/BENCH_x.json"),
        "the offending path must be named: {stderr}"
    );
    assert!(stderr.contains("error:"), "got: {stderr}");
}

#[test]
fn report_schema_mismatch_lists_the_accepted_range() {
    let dir = std::env::temp_dir().join(format!("fua-schema-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("BENCH_future.json");
    std::fs::write(&path, "{\"schema\": \"fua-bench/99\"}\n").unwrap();
    let path_str = path.to_str().unwrap();

    let stderr = expect_rejection(&["report", "--baseline", path_str]);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        stderr.contains(path_str),
        "the offending path must be named: {stderr}"
    );
    assert!(
        stderr.contains("unknown schema: fua-bench/99"),
        "got: {stderr}"
    );
    // The full accepted range, oldest to newest, like the workload and
    // scheme errors list their valid names.
    assert!(
        stderr.contains(
            "accepted schemas: fua-bench/1, fua-bench/1.1, fua-bench/1.2, \
             fua-bench/1.3, fua-bench/1.4, fua-bench/1.5, fua-bench/1.6"
        ),
        "got: {stderr}"
    );
}

#[test]
fn report_store_is_mutually_exclusive_with_explicit_artifacts() {
    let stderr = expect_rejection(&["report", "--store", "--baseline", "BENCH_x.json"]);
    assert!(
        stderr.contains("cannot be combined with --baseline/--current"),
        "got: {stderr}"
    );
}

#[test]
fn store_subcommands_validate_their_arguments() {
    // An unknown store action is a usage error.
    let out = fua(&["store", "frobnicate"]);
    assert!(!out.status.success());

    // A reference into an empty store names the store and what it holds.
    let dir = std::env::temp_dir().join(format!("fua-storeref-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_fua"))
        .current_dir(&dir)
        .args(["store", "show", "7"])
        .output()
        .expect("spawn fua binary");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("no stored artifact matches `7`"),
        "got: {stderr}"
    );

    // A hand-edited index with a short key is an error naming the
    // index, not a panic.
    let dir = std::env::temp_dir().join(format!("fua-storeidx-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let hex = "0123456789abcdef0123456789abcdef";
    let index = format!(
        "{{\"schema\": \"{}\", \"entries\": [{{\"seq\": 1, \"key\": \"abc\", \
         \"content\": \"{hex}\", \"tag\": \"t\", \"bench_schema\": \"fua-bench/1.6\", \
         \"bytes\": 1}}]}}",
        fua::store::STORE_SCHEMA
    );
    std::fs::write(dir.join("index.json"), index).unwrap();
    let out = fua(&["store", "ls", "--store-dir", dir.to_str().unwrap()]);
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.stdout.is_empty(), "got: {stderr}");
    assert_eq!(out.status.code(), Some(1), "got: {stderr}");
    assert!(stderr.contains("error:"), "got: {stderr}");
    assert!(stderr.contains("index.json"), "got: {stderr}");
}
