//! Figure 4: energy reduction per steering scheme and swap variant.

use fua_exec::{map_indexed_timed, ExecReport, Jobs};
use fua_isa::FuClass;
use fua_sim::SteeringConfig;
use fua_steer::SteeringKind;
use fua_swap::CompilerSwapPass;
use fua_trace::{NullSink, TextTable};
use fua_workloads::{Workload, WorkloadArena};

use crate::observe::run_lanes;
use crate::{profile_suite_jobs, ExperimentConfig, SuiteProfile, Unit};

/// One Figure-4 column: a steering scheme with its swap variants, as
/// percentage energy reduction relative to Original/Base. The paper's
/// figure stacks three bars; `compiler_only_pct` adds the variant the
/// paper describes but does not plot ("'Base + Compiler Swapping' (not
/// shown) is nearly as effective as 'Base + Hardware + Compiler'").
#[derive(Debug, Clone, PartialEq)]
pub struct Figure4Row {
    /// The scheme label ("Full Ham", "4-bit LUT", ...).
    pub scheme: String,
    /// Reduction with no swapping (percent).
    pub base_pct: f64,
    /// Reduction with hardware swapping (percent).
    pub hardware_pct: f64,
    /// Reduction with hardware + compiler swapping (percent).
    pub hardware_compiler_pct: f64,
    /// Reduction with compiler swapping only (percent) — the paper's
    /// unplotted variant.
    pub compiler_only_pct: f64,
}

/// A regenerated Figure 4(a) or 4(b).
#[derive(Debug, Clone)]
pub struct Figure4 {
    /// Which unit the figure measures.
    pub unit: Unit,
    /// One row per scheme, in the paper's bar order.
    pub rows: Vec<Figure4Row>,
    /// Total baseline switched bits (denominator of every percentage).
    pub baseline_switched_bits: u64,
}

impl Figure4 {
    /// Renders the figure as a text table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new([
            "scheme",
            "base %",
            "+hw swap %",
            "+hw+compiler %",
            "+compiler only %",
        ]);
        for r in &self.rows {
            t.push_row([
                r.scheme.clone(),
                format!("{:.1}", r.base_pct),
                format!("{:.1}", r.hardware_pct),
                format!("{:.1}", r.hardware_compiler_pct),
                format!("{:.1}", r.compiler_only_pct),
            ]);
        }
        format!(
            "Figure 4({}): {} energy reduction vs Original (baseline {} switched bits)\n{t}",
            match self.unit {
                Unit::Ialu => "a",
                Unit::Fpau => "b",
            },
            self.unit,
            self.baseline_switched_bits
        )
    }

    /// The row for a scheme, if present.
    pub fn row(&self, scheme: &str) -> Option<&Figure4Row> {
        self.rows.iter().find(|r| r.scheme == scheme)
    }
}

/// Regenerates Figure 4(a) (`Unit::Ialu`) or 4(b) (`Unit::Fpau`):
/// profiles the suite, builds every scheme from the *measured* statistics
/// (as the paper's authors did from their profiling runs), and measures
/// switched bits per scheme × swap variant, fanning the cells out across
/// `jobs` workers ([`Jobs::serial`] for the serial path).
pub fn figure4_jobs(unit: Unit, config: &ExperimentConfig, jobs: Jobs) -> Figure4 {
    let arena = WorkloadArena::build(config.scale);
    let (profile, _) = profile_suite_jobs(config, &arena, jobs);
    figure4_with_profile_jobs(unit, config, &arena, &profile, jobs).0
}

/// As [`figure4_jobs`], reusing an already-measured [`SuiteProfile`] —
/// the profiling pass runs the whole suite, so callers producing both
/// figures (e.g. the `fua-report` bench ledger) should profile once and
/// share it. Steering never moves timing, so each workload runs once
/// per program variant (original and compiler-swapped) with one
/// steering lane per scheme × hardware-swap setting — 12 each, each
/// measuring only `unit`'s class — and those (workload × variant)
/// cells fan out across `jobs` workers over a shared read-only
/// [`WorkloadArena`]. Each bar sums one lane's switched bits over the
/// workloads, an exact integer sum, so the figure is identical to the
/// serial one regardless of worker count or scheduling.
///
/// # Panics
///
/// Panics if a workload faults or the arena's scale differs from the
/// configuration's.
pub fn figure4_with_profile_jobs(
    unit: Unit,
    config: &ExperimentConfig,
    arena: &WorkloadArena,
    profile: &SuiteProfile,
    jobs: Jobs,
) -> (Figure4, ExecReport) {
    assert_eq!(
        arena.scale(),
        config.scale,
        "arena scale must match the experiment configuration"
    );
    let class = unit.fu_class();
    let ialu_profile = profile.case_profile(FuClass::IntAlu);
    let fpau_profile = profile.case_profile(FuClass::FpAlu);
    let ialu_occ = profile.ialu_occupancy.distribution();
    let fpau_occ = profile.fpau_occupancy.distribution();

    let workloads = match unit {
        Unit::Ialu => arena.integer(),
        Unit::Fpau => arena.floating_point(),
    };
    // Compiler-swapped twins, shared by every scheme — one independent
    // cell per workload.
    let (swapped, mut report) = map_indexed_timed(jobs, workloads, |_, w| {
        let outcome = CompilerSwapPass::with_limit(config.inst_limit)
            .run(&w.program)
            .unwrap_or_else(|e| panic!("swap pass on {} faulted: {e}", w.name));
        Workload {
            program: outcome.program,
            ..w.clone()
        }
    });

    // Lane `2k + hw` of every run is `SteeringKind::FIGURE4[k]`, with
    // hardware swapping when `hw` is 1.
    let machine = &config.machine;
    let schemes: Vec<SteeringConfig> = SteeringKind::FIGURE4
        .into_iter()
        .flat_map(|kind| {
            [false, true].map(|hw_swap| {
                SteeringConfig::from_profiles_with_occupancy(
                    kind,
                    hw_swap,
                    &ialu_profile,
                    &fpau_profile,
                    &ialu_occ,
                    &fpau_occ,
                    machine.modules(FuClass::IntAlu),
                    machine.modules(FuClass::FpAlu),
                )
            })
        })
        .collect();

    // One cell per (variant, workload) run, variant 0 over the original
    // programs and 1 over their compiler-swapped twins; workers return
    // each lane's switched bits.
    let n = workloads.len();
    let cells: Vec<(usize, usize)> = (0..2).flat_map(|v| (0..n).map(move |w| (v, w))).collect();
    let (bits, sweep_report) = map_indexed_timed(jobs, &cells, |_, &(v, w)| {
        let Workload { name, program, .. } = if v == 1 { &swapped[w] } else { &workloads[w] };
        let lanes = schemes.iter().cloned();
        let (results, _) = run_lanes(config, name, program, lanes, Some(class), NullSink);
        results
            .iter()
            .map(|result| result.ledger.switched_bits(class))
            .collect::<Vec<u64>>()
    });
    report.merge(&sweep_report);

    // Variant `v`'s lane `lane`, summed over the suite.
    let total = |v: usize, lane: usize| -> u64 {
        bits[v * n..(v + 1) * n].iter().map(|cell| cell[lane]).sum()
    };
    let original = SteeringKind::FIGURE4
        .iter()
        .position(|&kind| kind == SteeringKind::Original)
        .expect("Figure 4 plots Original");
    let base_bits = total(0, 2 * original);
    let pct = |bits: u64| {
        if base_bits == 0 {
            0.0
        } else {
            100.0 * (1.0 - bits as f64 / base_bits as f64)
        }
    };
    let rows = SteeringKind::FIGURE4
        .iter()
        .enumerate()
        .map(|(k, kind)| Figure4Row {
            scheme: kind.to_string(),
            base_pct: pct(total(0, 2 * k)),
            hardware_pct: pct(total(0, 2 * k + 1)),
            hardware_compiler_pct: pct(total(1, 2 * k + 1)),
            compiler_only_pct: pct(total(1, 2 * k)),
        })
        .collect();

    (
        Figure4 {
            unit,
            rows,
            baseline_switched_bits: base_bits,
        },
        report,
    )
}

/// The paper's headline numbers: IALU/FPAU reduction with the
/// recommended 4-bit LUT + hardware swapping, and the IALU gain with
/// compiler swapping added (paper: ≈17%, ≈18%, ≈26%).
#[derive(Debug, Clone, Copy)]
pub struct Headline {
    /// IALU reduction, 4-bit LUT + hardware swap (percent).
    pub ialu_pct: f64,
    /// FPAU reduction, 4-bit LUT + hardware swap (percent).
    pub fpau_pct: f64,
    /// IALU reduction, 4-bit LUT + hardware + compiler swap (percent).
    pub ialu_compiler_pct: f64,
}

impl Headline {
    /// The three headline lines, each next to the paper's figure.
    pub fn render(&self) -> String {
        format!(
            "IALU 4-bit LUT + hw swap:            {:>6.1}%   (paper ~17%)\n\
             FPAU 4-bit LUT + hw swap:            {:>6.1}%   (paper ~18%)\n\
             IALU 4-bit LUT + hw + compiler swap: {:>6.1}%   (paper ~26%)",
            self.ialu_pct, self.fpau_pct, self.ialu_compiler_pct
        )
    }
}

/// Computes the headline numbers from both Figure-4 runs (one shared
/// profiling pass), fanning the profiling pass and both figures' sweep
/// cells out across `jobs` workers. The result is the same for any
/// worker count.
pub fn headline_jobs(config: &ExperimentConfig, jobs: Jobs) -> Headline {
    let arena = WorkloadArena::build(config.scale);
    let (profile, _) = profile_suite_jobs(config, &arena, jobs);
    headline_from(
        &figure4_with_profile_jobs(Unit::Ialu, config, &arena, &profile, jobs).0,
        &figure4_with_profile_jobs(Unit::Fpau, config, &arena, &profile, jobs).0,
    )
}

/// Derives the headline numbers from already-computed figures (`a` must
/// be the IALU figure, `b` the FPAU one).
///
/// # Panics
///
/// Panics if either figure lacks the "4-bit LUT" scheme row.
pub fn headline_from(a: &Figure4, b: &Figure4) -> Headline {
    let lut_a = a.row("4-bit LUT").expect("scheme present");
    let lut_b = b.row("4-bit LUT").expect("scheme present");
    Headline {
        ialu_pct: lut_a.hardware_pct,
        fpau_pct: lut_b.hardware_pct,
        ialu_compiler_pct: lut_a.hardware_compiler_pct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure4_shape_holds_at_small_scale() {
        let fig = figure4_jobs(Unit::Ialu, &ExperimentConfig::quick(), Jobs::serial());
        assert_eq!(fig.rows.len(), 6);
        let get = |name: &str| fig.row(name).expect("row exists").hardware_pct;
        let full = get("Full Ham");
        let one_bit = get("1-bit Ham");
        let lut4 = get("4-bit LUT");
        let original = fig.row("Original").expect("row").base_pct;
        assert!(full > 0.0, "Full Ham must save energy, got {full:.1}%");
        assert!(
            full + 1e-9 >= one_bit,
            "Full Ham ({full:.1}%) should bound 1-bit Ham ({one_bit:.1}%)"
        );
        assert!(lut4 > 0.0, "4-bit LUT must save energy, got {lut4:.1}%");
        assert!(original.abs() < 1e-9, "Original/Base is the zero point");
        let render = fig.render();
        assert!(render.contains("Figure 4(a)"));
    }

    #[test]
    fn parallel_figure_is_bit_identical_to_serial() {
        let config = ExperimentConfig {
            inst_limit: 1_500,
            ..ExperimentConfig::quick()
        };
        let serial = figure4_jobs(Unit::Fpau, &config, Jobs::serial());
        let parallel = figure4_jobs(Unit::Fpau, &config, Jobs::new(3).unwrap());
        assert_eq!(
            serial.baseline_switched_bits,
            parallel.baseline_switched_bits
        );
        // Exact float equality on purpose: every bar is an integer sum
        // over the cells, so every percentage is bit-identical.
        assert_eq!(serial.rows, parallel.rows);
    }
}
