//! Golden pin of the model's outputs at a small configuration: both
//! Figure-4 units (every row as exact f64 bit patterns, and the baseline
//! switched bits), every static-estimator entry of the bench suite
//! (`pcs`, `bound_bits`, `actual_bits`, `sound`), and the suite profile
//! behind Tables 1–3 (its operand bit patterns and occupancy, as a
//! content key of its `Debug` form).
//!
//! The values were recorded from the engine that re-simulated every
//! Figure-4 suite and every estimator scheme as its own run. Any change
//! to how the runs are organised (lanes, fan-out, fold order) must
//! reproduce them bit for bit; only a deliberate model change may
//! re-record them. On a mismatch the test prints the whole table as
//! Rust source, ready to paste back after such a change.

use fua::core::{profile_suite_jobs, ExperimentConfig};
use fua::exec::Jobs;
use fua::report::{bench_suite_jobs, BenchReport, UnitFigure, DEFAULT_WINDOW_CYCLES};
use fua::store::content_key;
use fua::workloads::WorkloadArena;

const INST_LIMIT: u64 = 3_000;

/// (scheme, base, hardware, hardware + compiler, compiler only), the
/// percentages as `f64::to_bits`.
type Row = (&'static str, u64, u64, u64, u64);

/// (scheme, pcs, bound_bits, actual_bits, sound).
type Entry = (&'static str, u64, u64, u64, bool);

const IALU_BASELINE_BITS: u64 = 255517;
#[rustfmt::skip]
const IALU_ROWS: [Row; 6] = [
    ("Full Ham", 0x403eac03b9181eda, 0x4041fb08dda04b1e, 0x404209830eeac9fa, 0x4040146aa111e48c),
    ("1-bit Ham", 0x4033e24dd11b0392, 0x4035472d62fa4d61, 0x4036ea2af58468a8, 0x4035ad2b72f0174a),
    ("8-bit LUT", 0x4025adabb0e0f3d2, 0x403164cd1a5c5925, 0x40330e9ac4189203, 0x4028d732b151092d),
    ("4-bit LUT", 0x40152b6cc840fa86, 0x40253edc91f59a35, 0x40288a0d6e6c5fdd, 0x4018cf956a37245a),
    ("2-bit LUT", 0x3fcfe9033bac70a0, 0x40138dd839136025, 0x4019fa8c36ec72b2, 0x3fe3260c7d5415c4),
    ("Original", 0x0, 0x3fff3f178fbb704c, 0x400d6498c7beaf55, 0x3fec40d8aa2f6220),
];

const FPAU_BASELINE_BITS: u64 = 208231;
#[rustfmt::skip]
const FPAU_ROWS: [Row; 6] = [
    ("Full Ham", 0x403027d66d2dae55, 0x4034151f0441e6a5, 0x40358c55d13b23f6, 0x403282bcbd94391a),
    ("1-bit Ham", 0x4024175586a3ffff, 0x40256dd893f38db1, 0x402a521de6ccb7c8, 0x4029f6673ceb0e9c),
    ("8-bit LUT", 0x40250c3b390c4b94, 0x4025c6dad75d50c0, 0x402a5ee71103832e, 0x402b1b7e3fabbb55),
    ("4-bit LUT", 0x40251a3f1d7996da, 0x40262d242913abf5, 0x402acc90c000dd8f, 0x402b560345cde820),
    ("2-bit LUT", 0x40208993411a63a0, 0x40219a41ca525f5e, 0x40261da69864fa73, 0x4026ecaeb03eb095),
    ("Original", 0x0, 0x40068d47d7b987c9, 0x4017cde8bf3efe56, 0x4015ebfb9bcb3318),
];

#[rustfmt::skip]
const ESTIMATOR: [Entry; 6] = [
    ("fullham", 480, 3187248, 556881, true),
    ("1bitham", 480, 3187248, 641061, true),
    ("lut4", 480, 3187248, 663106, true),
    ("lut2", 480, 3187248, 693988, true),
    ("lut8", 480, 3187248, 642966, true),
    ("naive", 480, 3159833, 730399, true),
];

/// `content_key` of the suite profile's `Debug` form, as hex.
const SUITE_PROFILE_KEY: &str = "fedb24264906da687821581f2756c957";

fn rows(unit: &UnitFigure) -> Vec<(String, u64, u64, u64, u64)> {
    unit.rows
        .iter()
        .map(|r| {
            (
                r.scheme.clone(),
                r.base_pct.to_bits(),
                r.hardware_pct.to_bits(),
                r.hardware_compiler_pct.to_bits(),
                r.compiler_only_pct.to_bits(),
            )
        })
        .collect()
}

fn pinned_rows(pinned: &[Row]) -> Vec<(String, u64, u64, u64, u64)> {
    pinned
        .iter()
        .map(|&(s, a, b, c, d)| (s.to_string(), a, b, c, d))
        .collect()
}

fn entries(report: &BenchReport) -> Vec<(String, u64, u64, u64, bool)> {
    report
        .estimator
        .as_ref()
        .expect("the bench suite runs the estimator")
        .entries
        .iter()
        .map(|e| {
            (
                e.scheme.clone(),
                e.pcs,
                e.bound_bits,
                e.actual_bits,
                e.sound,
            )
        })
        .collect()
}

/// The measured values as the Rust source of this file's constants.
fn as_source(report: &BenchReport) -> String {
    let mut out = String::new();
    for (name, unit) in [("IALU", &report.ialu), ("FPAU", &report.fpau)] {
        out += &format!(
            "const {name}_BASELINE_BITS: u64 = {};\nconst {name}_ROWS: [Row; 6] = [\n",
            unit.baseline_switched_bits
        );
        for (s, a, b, c, d) in rows(unit) {
            out += &format!("    ({s:?}, {a:#x}, {b:#x}, {c:#x}, {d:#x}),\n");
        }
        out += "];\n";
    }
    out += "const ESTIMATOR: [Entry; 6] = [\n";
    for (s, pcs, bound, actual, sound) in entries(report) {
        out += &format!("    ({s:?}, {pcs}, {bound}, {actual}, {sound}),\n");
    }
    out + "];\n"
}

#[test]
fn figure4_and_estimator_match_the_recorded_values() {
    let config = ExperimentConfig {
        inst_limit: INST_LIMIT,
        ..ExperimentConfig::quick()
    };
    let report = bench_suite_jobs("golden", &config, DEFAULT_WINDOW_CYCLES, Jobs::serial());
    let source = as_source(&report);
    assert_eq!(
        report.ialu.baseline_switched_bits, IALU_BASELINE_BITS,
        "measured:\n{source}"
    );
    assert_eq!(
        rows(&report.ialu),
        pinned_rows(&IALU_ROWS),
        "measured:\n{source}"
    );
    assert_eq!(
        report.fpau.baseline_switched_bits, FPAU_BASELINE_BITS,
        "measured:\n{source}"
    );
    assert_eq!(
        rows(&report.fpau),
        pinned_rows(&FPAU_ROWS),
        "measured:\n{source}"
    );
    let pinned: Vec<_> = ESTIMATOR
        .iter()
        .map(|&(s, pcs, bound, actual, sound)| (s.to_string(), pcs, bound, actual, sound))
        .collect();
    assert_eq!(entries(&report), pinned, "measured:\n{source}");
}

#[test]
fn the_suite_profile_matches_the_recorded_key() {
    let config = ExperimentConfig {
        inst_limit: INST_LIMIT,
        ..ExperimentConfig::quick()
    };
    let arena = WorkloadArena::build(config.scale);
    let (profile, _) = profile_suite_jobs(&config, &arena, Jobs::serial());
    let key = content_key(format!("{profile:?}").as_bytes()).hex();
    assert_eq!(key, SUITE_PROFILE_KEY, "measured: {key}");
}
