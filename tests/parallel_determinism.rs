//! Integration: the parallel executor's headline guarantee. A sweep run
//! with `--jobs N` must produce artifacts that are **byte-identical** to
//! the serial (`--jobs 1`) run once the wall-clock-only sections are set
//! aside — and `fua report` must diff the two to exactly zero findings.

use std::process::Command;

use fua::core::{figure4_jobs, headline_jobs, ExperimentConfig, Unit};
use fua::exec::Jobs;
use fua::report::{bench_suite_jobs, compare, BenchReport, Tolerance};

fn tiny_config() -> ExperimentConfig {
    ExperimentConfig {
        inst_limit: 1_500,
        ..ExperimentConfig::quick()
    }
}

/// Strips the fields that are wall-clock (or label) by design, leaving
/// only model output: the rate pass's timer, the parallel and harness
/// sections, and the tag.
fn normalized(report: &BenchReport) -> BenchReport {
    let mut r = report.clone();
    r.manifest.tag = "normalized".to_string();
    r.parallel = None;
    // The harness digest is wall-clock (utilization, imbalance) and
    // records the worker count itself.
    r.harness = None;
    // Simulated cycles and retired instructions are model output and
    // stay compared; only the hot-loop timer is wall-clock.
    if let Some(t) = r.throughput.as_mut() {
        t.hot_nanos = 1_000_000;
    }
    r
}

#[test]
fn report_diffs_serial_vs_parallel_to_zero_findings() {
    let serial = bench_suite_jobs("serial", &tiny_config(), 512, Jobs::serial());
    let parallel = bench_suite_jobs("parallel", &tiny_config(), 512, Jobs::new(4).unwrap());

    // The CI gate's exact criterion, in both directions.
    let forward = compare(&serial, &parallel, &Tolerance::default());
    assert!(
        forward.findings.is_empty(),
        "serial->parallel findings: {:?}",
        forward.findings
    );
    let backward = compare(&parallel, &serial, &Tolerance::default());
    assert!(
        backward.findings.is_empty(),
        "parallel->serial findings: {:?}",
        backward.findings
    );
}

#[test]
fn artifacts_are_byte_identical_modulo_wall_clock() {
    let serial = bench_suite_jobs("a", &tiny_config(), 512, Jobs::serial());
    let parallel = bench_suite_jobs("b", &tiny_config(), 512, Jobs::new(3).unwrap());

    // Every model field is exactly equal — floats bit-for-bit, because
    // the parallel fold follows the serial merge order.
    assert_eq!(serial.ialu, parallel.ialu);
    assert_eq!(serial.fpau, parallel.fpau);
    assert_eq!(serial.operands, parallel.operands);
    assert_eq!(serial.ialu_occupancy, parallel.ialu_occupancy);
    assert_eq!(serial.fpau_occupancy, parallel.fpau_occupancy);
    assert_eq!(serial.telemetry, parallel.telemetry);
    assert_eq!(
        serial.headline_ialu_pct.to_bits(),
        parallel.headline_ialu_pct.to_bits()
    );
    assert_eq!(
        serial.headline_fpau_pct.to_bits(),
        parallel.headline_fpau_pct.to_bits()
    );
    assert_eq!(
        serial.headline_ialu_compiler_pct.to_bits(),
        parallel.headline_ialu_compiler_pct.to_bits()
    );

    // ... and so is the rendered artifact, byte for byte, once the
    // wall-clock-only sections are normalized away.
    assert_eq!(
        normalized(&serial).to_json().pretty(),
        normalized(&parallel).to_json().pretty()
    );
}

#[test]
fn the_parallel_section_records_the_fan_out() {
    let report = bench_suite_jobs("p", &tiny_config(), 512, Jobs::new(2).unwrap());
    let p = report.parallel.expect("parallel section present");
    assert_eq!(p.jobs, 2);
    assert!(p.wall_nanos > 0, "wall-clock must be recorded");
    let cells: u64 = p.workers.iter().map(|w| w.cells).sum();
    // Every timed stage must be accounted for: one cell per workload in
    // the observation run and the rate pass, and per unit one swap-pass
    // cell per workload plus one sweep cell per workload and program
    // variant (original, compiler-swapped), each carrying every suite as
    // a steering lane.
    let workloads = fua::workloads::all(tiny_config().scale).len() as u64;
    assert_eq!(cells, 2 * workloads + (1 + 2) * workloads);
}

#[test]
fn figures_and_headline_match_their_serial_twins() {
    let config = tiny_config();
    let jobs = Jobs::new(4).unwrap();

    let fig_serial = figure4_jobs(Unit::Ialu, &config, Jobs::serial());
    let fig_parallel = figure4_jobs(Unit::Ialu, &config, jobs);
    assert_eq!(fig_serial.rows, fig_parallel.rows);
    assert_eq!(
        fig_serial.baseline_switched_bits,
        fig_parallel.baseline_switched_bits
    );

    let h_serial = headline_jobs(&config, Jobs::serial());
    let h_parallel = headline_jobs(&config, jobs);
    assert_eq!(h_serial.ialu_pct.to_bits(), h_parallel.ialu_pct.to_bits());
    assert_eq!(h_serial.fpau_pct.to_bits(), h_parallel.fpau_pct.to_bits());
    assert_eq!(
        h_serial.ialu_compiler_pct.to_bits(),
        h_parallel.ialu_compiler_pct.to_bits()
    );

    // `--metrics` rides the same fanned-out profiling pass, so the
    // command's snapshot cannot depend on the worker count either.
    let cli = |jobs: &str| {
        let args = ["headline", "--metrics", "--json", "--limit", "1500"];
        let out = Command::new(env!("CARGO_BIN_EXE_fua"))
            .args(args)
            .args(["--jobs", jobs])
            .output()
            .expect("fua runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).expect("UTF-8 stdout")
    };
    let serial = cli("1");
    assert!(serial.contains("\"metrics\""), "{serial}");
    assert_eq!(serial, cli("4"));
}
