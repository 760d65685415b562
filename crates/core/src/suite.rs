//! The profiling pass behind Tables 1, 2 and 3.

use fua_exec::{map_indexed_timed, ExecReport, Jobs};
use fua_isa::FuClass;
use fua_sim::{MachineConfig, SimResult, SteeringConfig};
use fua_stats::{BitPatternProfiler, CaseProfile, OccupancyProfiler};
use fua_trace::{NullSink, TextTable};
use fua_workloads::{Category, Workload, WorkloadArena};

use crate::observe::run_lanes;
use crate::ExperimentConfig;

/// Suite-wide operand and occupancy statistics, gathered by running every
/// workload on the unmodified (Original, no-swap) machine — exactly how
/// the paper's Tables 1–3 were measured.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteProfile {
    /// IALU bit patterns over the integer workloads (Table 1 left half).
    pub ialu: BitPatternProfiler,
    /// FPAU bit patterns over the FP workloads (Table 1 right half).
    pub fpau: BitPatternProfiler,
    /// Integer-multiplier bit patterns (Table 3 left half).
    pub imul: BitPatternProfiler,
    /// FP-multiplier bit patterns (Table 3 right half).
    pub fpmul: BitPatternProfiler,
    /// IALU occupancy over the integer workloads (Table 2 row 1).
    pub ialu_occupancy: OccupancyProfiler,
    /// FPAU occupancy over the FP workloads (Table 2 row 2).
    pub fpau_occupancy: OccupancyProfiler,
}

/// Runs the whole suite on the baseline machine and collects the paper's
/// measurement tables, fanning the per-workload profiling runs out
/// across `jobs` workers over an already-decoded [`WorkloadArena`].
///
/// Each workload's run is an independent cell; the per-category profiler
/// merges ([`SuiteProfile::fold`]) happen afterwards on the calling
/// thread **in suite order**, so the resulting [`SuiteProfile`] is
/// identical to the serial pass no matter how the cells were scheduled.
///
/// # Panics
///
/// Panics if a workload faults or the arena's scale differs from the
/// configuration's.
pub fn profile_suite_jobs(
    config: &ExperimentConfig,
    arena: &WorkloadArena,
    jobs: Jobs,
) -> (SuiteProfile, ExecReport) {
    assert_eq!(
        arena.scale(),
        config.scale,
        "arena scale must match the experiment configuration"
    );
    let (results, report) = map_indexed_timed(jobs, arena.all(), |_, w| {
        let original = [SteeringConfig::original()];
        run_lanes(config, w.name, &w.program, original, None, NullSink)
            .0
            .remove(0)
    });
    let profile = SuiteProfile::fold(&config.machine, arena.all(), &results);
    (profile, report)
}

impl SuiteProfile {
    /// Folds runs on `machine`, one per workload of `workloads` and in
    /// the same order, into the suite profile. The runs may be under any
    /// steering scheme: occupancy and bit patterns are recorded as
    /// issued, before any swap. The fold runs in suite order, so it is
    /// the same for any worker count that produced the runs.
    pub fn fold<'a>(
        machine: &MachineConfig,
        workloads: &[Workload],
        results: impl IntoIterator<Item = &'a SimResult>,
    ) -> Self {
        let mut profile = SuiteProfile {
            ialu: BitPatternProfiler::new(),
            fpau: BitPatternProfiler::new(),
            imul: BitPatternProfiler::new(),
            fpmul: BitPatternProfiler::new(),
            ialu_occupancy: OccupancyProfiler::new(machine.modules(FuClass::IntAlu)),
            fpau_occupancy: OccupancyProfiler::new(machine.modules(FuClass::FpAlu)),
        };
        for (w, result) in workloads.iter().zip(results) {
            match w.category {
                Category::Integer => {
                    profile.ialu.merge(result.bit_patterns_of(FuClass::IntAlu));
                    profile.imul.merge(result.bit_patterns_of(FuClass::IntMul));
                    profile
                        .ialu_occupancy
                        .merge(result.occupancy_of(FuClass::IntAlu));
                }
                Category::FloatingPoint => {
                    profile.fpau.merge(result.bit_patterns_of(FuClass::FpAlu));
                    profile.fpmul.merge(result.bit_patterns_of(FuClass::FpMul));
                    profile
                        .fpau_occupancy
                        .merge(result.occupancy_of(FuClass::FpAlu));
                }
            }
        }
        profile
    }

    /// The measured [`CaseProfile`] of one duplicated unit, for LUT
    /// construction.
    pub fn case_profile(&self, class: FuClass) -> CaseProfile {
        match class {
            FuClass::IntAlu => self.ialu.case_profile(),
            FuClass::FpAlu => self.fpau.case_profile(),
            FuClass::IntMul => self.imul.case_profile(),
            FuClass::FpMul => self.fpmul.case_profile(),
        }
    }

    /// Renders Table 1: the eight operand-pattern rows for the IALU and
    /// FPAU side by side, plus the paper's derived one-liners.
    pub fn table1(&self) -> String {
        let mut t = TextTable::new([
            "OP1",
            "OP2",
            "Comm",
            "IALU freq%",
            "IALU p(OP1)",
            "IALU p(OP2)",
            "FPAU freq%",
            "FPAU p(OP1)",
            "FPAU p(OP2)",
        ]);
        let ialu_rows = self.ialu.rows();
        let fpau_rows = self.fpau.rows();
        for (ir, fr) in ialu_rows.iter().zip(&fpau_rows) {
            t.push_row([
                format!("{}", ir.case.op1_bit() as u8),
                format!("{}", ir.case.op2_bit() as u8),
                if ir.commutative { "Yes" } else { "No" }.to_string(),
                format!("{:.2}", ir.freq_pct),
                format!("{:.3}", ir.op1_prob),
                format!("{:.3}", ir.op2_prob),
                format!("{:.2}", fr.freq_pct),
                format!("{:.3}", fr.op1_prob),
                format!("{:.3}", fr.op2_prob),
            ]);
        }
        let ialu_info = self.ialu.operand_info_stats();
        let fpau_info = self.fpau.operand_info_stats();
        format!(
            "Table 1: bit patterns in data\n{t}\n\
             Derived (IALU): when the sign bit is 0, {:.1}% of bits are 0; \
             when it is 1, {:.1}% of bits are 1.\n\
             Derived (FPAU): {:.1}% of operands have zero low-4 mantissa bits; \
             among them {:.1}% of mantissa bits are 0.\n",
            100.0 * (1.0 - ialu_info.ones_frac_info0),
            100.0 * ialu_info.ones_frac_info1,
            100.0 * fpau_info.info0_fraction(),
            100.0 * (1.0 - fpau_info.ones_frac_info0),
        )
    }

    /// Renders Table 2: `P(Num(I)=k)` for the IALU and FPAU.
    pub fn table2(&self) -> String {
        let max = self.ialu_occupancy.max_modules();
        let mut headers = vec!["unit".to_string()];
        headers.extend((1..=max).map(|k| format!("Num(I)={k}")));
        let mut t = TextTable::new(headers);
        let row = |name: &str, occ: &OccupancyProfiler| {
            let mut cells = vec![name.to_string()];
            cells.extend(
                occ.distribution()
                    .iter()
                    .map(|p| format!("{:.1}%", 100.0 * p)),
            );
            cells
        };
        t.push_row(row("IALU", &self.ialu_occupancy));
        t.push_row(row("FPAU", &self.fpau_occupancy));
        format!("Table 2: modules used per busy cycle\n{t}")
    }

    /// Renders Table 3: multiplication bit patterns (cases aggregated
    /// over commutativity, as in the paper) and the swap opportunity.
    pub fn table3(&self) -> String {
        let mut t = TextTable::new([
            "Case",
            "INT freq%",
            "INT p(OP1)",
            "INT p(OP2)",
            "FP freq%",
            "FP p(OP1)",
            "FP p(OP2)",
        ]);
        let int_profile = self.imul.case_profile();
        let fp_profile = self.fpmul.case_profile();
        for case in fua_isa::Case::ALL {
            let i = case.index();
            t.push_row([
                case.to_string(),
                format!("{:.2}", 100.0 * int_profile.case_freq[i]),
                format!("{:.3}", int_profile.op1_ones_prob[i]),
                format!("{:.3}", int_profile.op2_ones_prob[i]),
                format!("{:.2}", 100.0 * fp_profile.case_freq[i]),
                format!("{:.3}", fp_profile.op1_ones_prob[i]),
                format!("{:.3}", fp_profile.op2_ones_prob[i]),
            ]);
        }
        format!(
            "Table 3: bit patterns in multiplication data\n{t}\n\
             Swap opportunity: {:.1}% of FP multiplies are case 01 \
             (swappable to 10); {:.1}% of integer multiplies.\n",
            100.0 * fp_profile.case_freq[fua_isa::Case::C01.index()],
            100.0 * int_profile.case_freq[fua_isa::Case::C01.index()],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_profile() -> SuiteProfile {
        let config = ExperimentConfig::quick();
        profile_suite_jobs(&config, &WorkloadArena::build(config.scale), Jobs::serial()).0
    }

    #[test]
    fn profiling_pass_fills_every_channel() {
        let p = quick_profile();
        assert!(p.ialu.total() > 10_000);
        assert!(p.fpau.total() > 1_000);
        assert!(p.imul.total() > 100);
        assert!(p.fpmul.total() > 1_000);
        assert!(p.ialu_occupancy.busy_cycles() > 1_000);
        assert!(p.fpau_occupancy.busy_cycles() > 1_000);
    }

    #[test]
    fn measured_statistics_match_the_papers_shape() {
        let p = quick_profile();
        // IALU: case 00 dominates (paper: 69.5%).
        let ialu = p.ialu.case_profile();
        assert_eq!(ialu.most_frequent_case(), fua_isa::Case::C00);
        assert!(
            ialu.case_freq[0] > 0.4,
            "case 00 freq {}",
            ialu.case_freq[0]
        );
        // IALU sign-bit claim: info-bit-0 operands are mostly zeros.
        let info = p.ialu.operand_info_stats();
        assert!(info.ones_frac_info0 < 0.25);
        assert!(info.ones_frac_info1 > 0.5);
        // FPAU occupancy is much lighter than IALU occupancy (Table 2).
        assert!(p.fpau_occupancy.freq(1) > p.ialu_occupancy.freq(1));
    }

    #[test]
    fn tables_render_without_panicking() {
        let p = quick_profile();
        let t1 = p.table1();
        let t2 = p.table2();
        let t3 = p.table3();
        assert!(t1.contains("Table 1"));
        assert!(t2.contains("IALU"));
        assert!(t3.contains("Swap opportunity"));
    }
}
