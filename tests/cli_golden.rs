//! Golden pin of the `fua` binary's rendered output: for every command
//! whose tables or JSON are rendered by a library type, the exit code
//! and the `content_key` of stdout at a small instruction limit.
//!
//! The values were recorded from the binary that rendered every command
//! inline. Moving a renderer (into the library, next to the type it
//! renders) or merging two renderers must reproduce them byte for byte;
//! only a deliberate change of output may re-record them. The four
//! pins from `figure4 fpau` to `sensitivity` were recorded before those
//! commands' lanes measured only the unit they report; restricting the
//! lanes must reproduce them too. The last five were recorded before
//! their commands' engine runs went through one shared fua-core helper,
//! which must reproduce them as well. On a mismatch the test prints
//! the whole table as Rust source, ready to paste back after such a
//! change.
//!
//! `harness-report` prints the serial pass's allocation counts, which
//! depend on the build (debug or release, allocator, toolchain), so
//! those numbers are masked before hashing.

use std::process::Command;

use fua::store::content_key;

/// (arguments, exit code, `content_key` of stdout as hex).
type Pin = (&'static str, i32, &'static str);

#[rustfmt::skip]
const PINS: [Pin; 30] = [
    ("run compress --limit 2000", 0, "058f20483993fb569cbca9a8f4e9a3a2"),
    ("run compress --json --metrics --limit 2000", 0, "974077b0b4aeb517496e827d4cb08a9e"),
    ("trace compress --last 20 --metrics --limit 2000", 0, "9089961f0e7d77979bb19e8617d7213d"),
    ("profile-energy all --limit 2000", 0, "ae1bac1197044e3cad536a0fee5288dd"),
    ("profile-energy all --json --limit 2000", 0, "7dbf2048144a118fe704bcffd53b1821"),
    ("profile-energy all --compare naive lut4 --limit 2000", 0, "a1ad1117abf33f2c18f98d116fc771b3"),
    ("profile-energy all --compare naive lut4 --json --limit 2000", 0, "d0c4566d9cfd305a4ec23fb5954dada3"),
    ("profile-cycles all --critical-path --limit 2000", 0, "e718d2a7f337e0749d702dcbbba4a436"),
    ("profile-cycles all --critical-path --json --limit 2000", 0, "93a5ec67a14ba7b90d828b1b6ff6326a"),
    ("estimate compress", 0, "7647d1efffeb87ce9610fd8aaad516df"),
    ("estimate all", 0, "680db280fbf33a953158e582ca577425"),
    ("estimate all --per-block", 0, "89739764b02fdc698f1b2afedfc8c039"),
    ("estimate all --json", 0, "b8006e8fb1438e04898996f32957d3c7"),
    ("estimate all --compare naive lut4", 0, "be8396a747d427157b345d70a3fb76b8"),
    ("estimate all --verify --limit 2000", 0, "069f8397e94c05edf4536351013f88fd"),
    ("estimate all --verify --json --limit 2000", 0, "3844d9499d59335765cf41b764d79356"),
    ("harness-report --limit 2000", 0, "4c5e2c6af646380f0268e0e79fc0061b"),
    ("harness-report --json --limit 2000", 0, "f3d96d342c5bf19784965be2812a219e"),
    ("figure4 ialu --metrics --limit 2000", 0, "2aa1383bdb75b53bb0e273e8afa6d3fc"),
    ("headline --json --limit 2000", 0, "c893dd59b7dca8eba2ed413a86031ca5"),
    ("tables --limit 2000", 0, "2f83852aefeebfa529aea15ed816f399"),
    ("figure4 fpau --limit 2000", 0, "4e94a519e3b10a4b5aacb3f4fc97c64f"),
    ("breakdown fpau --limit 2000", 0, "0ffc33b30f65e66e89d7ad24ece5edeb"),
    ("staticswap fpau --limit 2000", 0, "2e816064723320df662ee26ec8eb8f41"),
    ("sensitivity --limit 2000", 0, "22d5b637211543a721ba72b64cff9007"),
    ("chip --limit 2000", 0, "74c817d61a016557e9ac844ffc99d84a"),
    ("breakdown ialu --limit 2000", 0, "aa67de7db60732121bc3359b2f04fe11"),
    ("staticswap ialu --limit 2000", 0, "93ce39137f791388459a178ea4796748"),
    ("ablation homes --limit 2000", 0, "254b06c7aa6997524fac62654bbb0a4d"),
    ("ablation modules --limit 2000", 0, "14f22c0c5231decf834506ad9377a4f1"),
];

/// Replaces the build-dependent allocation counts of `harness-report`
/// (the text line and the JSON object's two fields) with a marker.
fn mask_allocations(stdout: &str) -> String {
    stdout
        .lines()
        .map(|line| {
            let field = line.trim_start();
            if line.starts_with("serial-pass allocations:") {
                "serial-pass allocations: <masked>".to_string()
            } else if field.starts_with("\"allocs\":") || field.starts_with("\"bytes\":") {
                let (key, _) = line.split_once(':').expect("a JSON field");
                let comma = if line.ends_with(',') { "," } else { "" };
                format!("{key}: <masked>{comma}")
            } else {
                line.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Runs `fua <args>` and returns its exit code and the content key of
/// its (masked) stdout.
fn measure(args: &str) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_fua"))
        .args(args.split(' '))
        .output()
        .expect("spawn fua binary");
    let mut stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    if args.starts_with("harness-report") {
        stdout = mask_allocations(&stdout);
    }
    let code = out.status.code().expect("fua exits with a code");
    (code, content_key(stdout.as_bytes()).hex())
}

#[test]
fn every_rendered_command_matches_the_recorded_output() {
    let measured: Vec<(&str, i32, String)> = PINS
        .iter()
        .map(|&(args, ..)| {
            let (code, key) = measure(args);
            (args, code, key)
        })
        .collect();
    let pinned: Vec<(&str, i32, String)> = PINS
        .iter()
        .map(|&(args, code, key)| (args, code, key.to_string()))
        .collect();
    let source: String = measured
        .iter()
        .map(|(args, code, key)| format!("    ({args:?}, {code}, {key:?}),\n"))
        .collect();
    assert_eq!(measured, pinned, "measured:\n{source}");
}
