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
        (&["headline", "--jobs", "0"], "--jobs"),
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
        (&["headline", "--jobs", "many"], "--jobs"),
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
    for args in [&["headline", "--jobs"][..], &["tables", "--limit"][..]] {
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
    let cases: [&[&str]; 5] = [
        &["estimate", "compress", "--scheme", "lut16"],
        &["estimate", "compress", "--compare", "lut16", "lut4"],
        &["profile-energy", "compress", "--scheme", "lut16"],
        &["profile-energy", "compress", "--compare", "lut4", "lut16"],
        &["profile-cycles", "compress", "--scheme", "lut16"],
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
    for command in ["estimate", "profile-energy"] {
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
        (&["fig1", "--json"], &[]),
        (&["synth", "--json"], &[]),
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
    let out = fua(&["workloads", "--scale", "2"]);
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
fn report_rejects_an_out_of_range_number_naming_the_file() {
    let dir = std::env::temp_dir().join(format!("fua-range-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_seed.json"))
        .expect("committed seed artifact");
    let start = doc.find("\"ialu_pct\": ").expect("seed has a headline") + 12;
    let end = start + doc[start..].find(',').expect("field ends");
    doc.replace_range(start..end, "1e999");
    let path = dir.join("BENCH_inf.json");
    std::fs::write(&path, doc).unwrap();
    let path_str = path.to_str().unwrap();
    // Infinity against infinity drifts by NaN, which no band rejects, so
    // the reader must refuse the number.
    let stderr = expect_rejection(&["report", "--baseline", path_str, "--current", path_str]);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(stderr.contains(path_str), "got: {stderr}");
    assert!(stderr.contains("number out of range"), "got: {stderr}");
}

#[test]
fn report_schema_mismatch_lists_the_accepted_range() {
    let dir = std::env::temp_dir().join(format!("fua-schema-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // A future schema and the previous one alike: this build reads only
    // the schema it writes.
    for schema in ["fua-bench/99", "fua-bench/1.7"] {
        let path = dir.join("BENCH_other.json");
        std::fs::write(&path, format!("{{\"schema\": \"{schema}\"}}\n")).unwrap();
        let path_str = path.to_str().unwrap();
        let out = fua(&["report", "--baseline", path_str]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{schema}: {stderr}");
        assert!(out.stdout.is_empty(), "{schema}: nothing on stdout");
        assert!(
            stderr.contains(path_str),
            "the offending path must be named: {stderr}"
        );
        assert!(
            stderr.contains(&format!("unknown schema: {schema}")),
            "got: {stderr}"
        );
        assert!(
            stderr.contains("accepted schema: fua-bench/1.8"),
            "got: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every command, with the positional arguments it needs, and the flags
/// its implementation reads in some mode.
#[rustfmt::skip]
const COMMAND_FLAGS: &[(&[&str], &str)] = &[
    (&["tables"], "--limit --scale"),
    (&["figure4", "ialu"], "--limit --scale --jobs --json --metrics --progress"),
    (&["headline"], "--limit --scale --jobs --json --metrics --progress"),
    (&["fig1"], "--json"),
    (&["synth"], "--json"),
    (&["chip"], "--limit --scale --json"),
    (&["ablation", "modules"], "--limit --scale"),
    (&["breakdown", "fpau"], "--limit --scale --json"),
    (&["sensitivity"], "--limit --scale --json"),
    (&["staticswap", "ialu"], "--limit --scale --json"),
    (&["analyze", "cc1"], "--scale"),
    (&["estimate", "all"], "--limit --scale --jobs --json --scheme --compare --per-block --verify --progress"),
    (&["lint"], "--scale"),
    (&["workloads"], "--scale"),
    (&["run", "go"], "--limit --scale --json --metrics"),
    (&["trace", "li"], "--limit --scale --metrics --out --last --window --csv"),
    (&["profile-energy", "all"], "--limit --scale --jobs --json --scheme --compare --top --flame --progress"),
    (&["profile-cycles", "swim"], "--limit --scale --jobs --json --scheme --top --flame --critical-path --progress"),
    (&["bench-suite"], "--limit --scale --jobs --window --tag --progress"),
    (&["report"], "--limit --scale --jobs --window --baseline --current --progress"),
    (&["harness-report"], "--limit --scale --jobs --json --out --flame --progress"),
];

/// Every flag, followed by valid values, plus `--store` and
/// `--store-dir`, which no command reads: every command must reject
/// them as unknown options.
const FLAGS: [&str; 22] = [
    "--limit 5",
    "--scale 1",
    "--jobs 1",
    "--json",
    "--metrics",
    "--out t.json",
    "--last 1",
    "--window 64",
    "--csv t.csv",
    "--scheme lut4",
    "--compare naive lut4",
    "--per-block",
    "--verify",
    "--top 1",
    "--flame t.folded",
    "--critical-path",
    "--tag t",
    "--baseline b.json",
    "--current c.json",
    "--store",
    "--store-dir s",
    "--progress",
];

#[test]
fn every_command_rejects_the_flags_it_does_not_read() {
    for (command, reads) in COMMAND_FLAGS {
        for flag_and_values in FLAGS {
            // The trailing unknown option fails the parse before the
            // command runs, so an accepted flag is only parsed.
            let tail: Vec<&str> = flag_and_values.split(' ').chain(["--nosuch"]).collect();
            let args = [command, &tail[..]].concat();
            let flag = tail[0];
            let stderr = expect_rejection(&args);
            let read_by = |flags: &str| flags.split(' ').any(|f| f == flag);
            let expected = if read_by(reads) {
                "unknown option: --nosuch".to_string()
            } else if COMMAND_FLAGS.iter().any(|(_, flags)| read_by(flags)) {
                format!("`fua {}` does not read {flag} (", command[0])
            } else {
                format!("unknown option: {flag}")
            };
            assert!(
                stderr.contains(&expected),
                "`fua {}`: expected `{expected}`; got: {stderr}",
                args.join(" ")
            );
        }
    }
}

#[test]
fn the_retired_store_and_trends_commands_are_unknown_commands() {
    let unknown = fua(&["nosuch"]);
    assert_eq!(unknown.status.code(), Some(1));
    for args in [&["store", "ls"][..], &["trends"], &["store", "gc"]] {
        let out = fua(args);
        assert_eq!(out.status.code(), Some(1), "fua {}", args.join(" "));
        assert!(out.stdout.is_empty(), "fua {}", args.join(" "));
        assert_eq!(out.stderr, unknown.stderr, "fua {}", args.join(" "));
    }
}
