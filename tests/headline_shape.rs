//! Integration: the paper's headline *shape* must hold end-to-end at a
//! reduced experiment scale (absolute magnitudes are workload-dependent
//! and recorded in EXPERIMENTS.md; ordering and sign are the invariants).

use fua::core::{figure4_jobs, ExperimentConfig, Unit};
use fua::exec::Jobs;

fn config() -> ExperimentConfig {
    ExperimentConfig {
        inst_limit: 50_000,
        ..ExperimentConfig::full()
    }
}

#[test]
fn ialu_scheme_ordering_matches_the_paper() {
    let fig = figure4_jobs(Unit::Ialu, &config(), Jobs::serial());
    let hw = |name: &str| fig.row(name).expect("row").hardware_pct;

    // Figure 4(a): Full Ham bounds 1-bit Ham bounds the LUTs; wider
    // vectors help; everything beats Original.
    assert!(hw("Full Ham") >= hw("1-bit Ham") - 0.5);
    assert!(hw("1-bit Ham") >= hw("8-bit LUT") - 0.5);
    assert!(hw("8-bit LUT") >= hw("4-bit LUT") - 0.5);
    assert!(hw("4-bit LUT") >= hw("2-bit LUT") - 0.5);
    assert!(
        hw("4-bit LUT") > 3.0,
        "4-bit LUT too weak: {:.1}%",
        hw("4-bit LUT")
    );
    assert!(hw("Original") < hw("4-bit LUT"));
}

#[test]
fn ialu_swapping_is_additive() {
    let fig = figure4_jobs(Unit::Ialu, &config(), Jobs::serial());
    let row = fig.row("4-bit LUT").expect("row");
    // Hardware swapping adds on top of steering; compiler swapping adds
    // on top of hardware swapping (paper Section 6, insights 1 and 4).
    assert!(
        row.hardware_pct > row.base_pct + 1.0,
        "hw swap gained only {:.1} -> {:.1}",
        row.base_pct,
        row.hardware_pct
    );
    assert!(
        row.hardware_compiler_pct >= row.hardware_pct - 0.3,
        "compiler swap regressed: {:.1} -> {:.1}",
        row.hardware_pct,
        row.hardware_compiler_pct
    );
    // Swapping also benefits the unmodified machine (the paper: "the
    // gain for Original is not zero").
    let original = fig.row("Original").expect("row");
    assert!(original.hardware_pct > 0.0);
}

#[test]
fn fpau_is_insensitive_to_lut_width() {
    let fig = figure4_jobs(Unit::Fpau, &config(), Jobs::serial());
    let base = |name: &str| fig.row(name).expect("row").base_pct;
    // Paper insight 5: the FPAU barely distinguishes 4- and 8-bit LUTs
    // because multi-issue is rare (Table 2).
    let gap = (base("8-bit LUT") - base("4-bit LUT")).abs();
    assert!(gap < 2.0, "FPAU 4-vs-8-bit gap too large: {gap:.1}");
    // And both sit near the 1-bit Ham bound.
    assert!(base("4-bit LUT") > 0.5 * base("1-bit Ham"));
}

#[test]
fn fpau_hardware_swapping_is_ineffective() {
    // Paper insight 2: FP steering gains come from the base method;
    // hardware swapping adds little (and may even cost a little when it
    // merges the conversion stream into the adder stream).
    let fig = figure4_jobs(Unit::Fpau, &config(), Jobs::serial());
    let row = fig.row("4-bit LUT").expect("row");
    let delta = row.hardware_pct - row.base_pct;
    assert!(
        delta.abs() < 3.0,
        "FPAU hw swap should be near-neutral, got {delta:+.1} points"
    );
    assert!(row.base_pct > 2.0, "FPAU steering itself must save energy");
}
