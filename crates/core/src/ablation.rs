//! Ablations of the paper's fixed design choices, printed by
//! `fua ablation <fp-info-bits|modules|homes|multiplier>`:
//!
//! | Study | Question |
//! |---|---|
//! | [`fp_info_bits`] | how many mantissa bits the FP information bit ORs (paper: 4) |
//! | [`module_count`] | how IALU savings scale with the degree of duplication |
//! | [`home_cases`] | which home-case strategy the IALU LUT should use (DESIGN.md §5) |
//! | [`multiplier_swap`] | what Table 3's multiplier swap saves under a Booth model |
//!
//! Every study runs serially under the given [`ExperimentConfig`], so its
//! output is the same bytes on every run.

use fua_isa::{Case, FuClass, Word, INT_BITS};
use fua_power::booth::BoothModel;
use fua_sim::SteeringConfig;
use fua_stats::{BitPatternProfiler, CaseProfile, OccupancyProfiler};
use fua_steer::{FcfsPolicy, HardwareSwapRule, HomeStrategy, LutBuilder, LutPolicy, Policy};
use fua_swap::MultiplierSwapRule;
use fua_trace::NullSink;
use fua_trace::TextTable;
use fua_vm::{FuOp, Vm};
use fua_workloads::Workload;

use crate::observe::run_lanes;
use crate::ExperimentConfig;

/// Calls `f` with every FU operation the workloads retire within the
/// instruction cap. Architectural trace only: no timing model.
fn for_each_fu_op(workloads: &[Workload], config: &ExperimentConfig, mut f: impl FnMut(FuOp)) {
    for w in workloads {
        Vm::new(&w.program)
            .run_with(config.inst_limit, |op| {
                if let Some(fu) = op.fu {
                    f(fu);
                }
            })
            .unwrap_or_else(|e| panic!("workload {} faulted: {e}", w.name));
    }
}

/// The integer suite on the configured machine under Original steering,
/// on a lane that measures the IALU alone: the IALU case profile,
/// occupancy distribution and switched bits, summed over the suite.
struct OriginalRun {
    profile: CaseProfile,
    occupancy: Vec<f64>,
    ialu_bits: u64,
}

fn original_run(config: &ExperimentConfig) -> OriginalRun {
    let mut patterns = BitPatternProfiler::new();
    let mut occupancy = OccupancyProfiler::new(config.machine.modules(FuClass::IntAlu));
    let mut ialu_bits = 0;
    for w in fua_workloads::integer(config.scale) {
        let original = [SteeringConfig::original()];
        let ialu = Some(FuClass::IntAlu);
        let (results, _) = run_lanes(config, w.name, &w.program, original, ialu, NullSink);
        let r = &results[0];
        patterns.merge(r.bit_patterns_of(FuClass::IntAlu));
        occupancy.merge(r.occupancy_of(FuClass::IntAlu));
        ialu_bits += r.ledger.switched_bits(FuClass::IntAlu);
    }
    OriginalRun {
        profile: patterns.case_profile(),
        occupancy: occupancy.distribution(),
        ialu_bits,
    }
}

/// One row per `(setting, strategy)`: the IALU steered by a 4-bit LUT
/// whose homes the strategy picks from the Original run's profile, plus
/// the hardware swap. The integer suite runs once, with a lane per row
/// that measures the IALU alone.
fn lut4_rows(
    config: &ExperimentConfig,
    original: &OriginalRun,
    settings: Vec<(String, HomeStrategy)>,
) -> Vec<LutSweepRow> {
    let (homes, schemes): (Vec<Vec<Case>>, Vec<SteeringConfig>) = settings
        .iter()
        .map(|&(_, strategy)| {
            let lut = LutBuilder::new(original.profile, INT_BITS)
                .occupancy(&original.occupancy)
                .modules(config.machine.modules(FuClass::IntAlu))
                .strategy(strategy)
                .build(2);
            let homes = lut.homes().to_vec();
            let steering = SteeringConfig {
                ialu: Policy::Lut(LutPolicy::new(lut)),
                fpau: Policy::Fcfs(FcfsPolicy::new()),
                ialu_swap: Some(HardwareSwapRule::from_profile(&original.profile)),
                fpau_swap: None,
            };
            (homes, steering)
        })
        .unzip();
    let mut steered_bits = vec![0; schemes.len()];
    for w in fua_workloads::integer(config.scale) {
        let lanes = schemes.iter().cloned();
        let ialu = Some(FuClass::IntAlu);
        let (results, _) = run_lanes(config, w.name, &w.program, lanes, ialu, NullSink);
        for (bits, r) in steered_bits.iter_mut().zip(results) {
            *bits += r.ledger.switched_bits(FuClass::IntAlu);
        }
    }
    settings
        .into_iter()
        .zip(homes)
        .zip(steered_bits)
        .map(|(((setting, _), homes), steered_bits)| LutSweepRow {
            setting,
            homes,
            baseline_bits: original.ialu_bits,
            steered_bits,
        })
        .collect()
}

/// One information-bit width of [`FpInfoBits`].
#[derive(Debug, Clone, PartialEq)]
pub struct FpInfoBitsRow {
    /// Low mantissa bits ORed into the information bit.
    pub k: u32,
    /// Share of FPAU operands flagged as trailing-zero (info bit 0), in %.
    pub flagged_pct: f64,
    /// Share of zero bits among the flagged operands (the prediction's
    /// purity), in %.
    pub zero_density_pct: f64,
}

/// FP information-bit width: coverage against purity for each `k`.
#[derive(Debug, Clone, PartialEq)]
pub struct FpInfoBits {
    /// FPAU operands sampled across the FP suite.
    pub operands: usize,
    /// One row per width, `k` ascending.
    pub rows: Vec<FpInfoBitsRow>,
}

impl FpInfoBits {
    /// Renders the study.
    pub fn render(&self) -> String {
        let mut t = TextTable::new([
            "k",
            "flagged (info=0)",
            "zero-density among flagged",
            "expected false-flag rate",
        ]);
        for r in &self.rows {
            t.push_row([
                r.k.to_string(),
                format!("{:.1}%", r.flagged_pct),
                format!("{:.1}%", r.zero_density_pct),
                format!("1/{}", 1u64 << r.k),
            ]);
        }
        format!(
            "FP information-bit width ablation ({} operands; paper: k = 4)\n{t}",
            self.operands
        )
    }
}

/// Sweeps the number of low mantissa bits the FP information bit ORs,
/// over every FPAU operand of the FP suite. The paper fixes `k = 4`
/// ("using four bits misidentifies only 1/16 of the full-precision
/// numbers") and declines more "so as to maintain a fast circuit".
pub fn fp_info_bits(config: &ExperimentConfig) -> FpInfoBits {
    let mut operands: Vec<Word> = Vec::new();
    for_each_fu_op(&fua_workloads::floating_point(config.scale), config, |fu| {
        if fu.class == FuClass::FpAlu {
            operands.extend([fu.op1, fu.op2]);
        }
    });
    let rows = [1, 2, 4, 8, 12]
        .into_iter()
        .map(|k| {
            let (flagged, zeros) = operands
                .iter()
                .filter(|w| !w.info_bit_k(k))
                .fold((0usize, 0.0), |(n, z), w| {
                    (n + 1, z + 1.0 - w.ones_fraction())
                });
            FpInfoBitsRow {
                k,
                flagged_pct: 100.0 * flagged as f64 / operands.len().max(1) as f64,
                zero_density_pct: 100.0 * zeros / flagged.max(1) as f64,
            }
        })
        .collect();
    FpInfoBits {
        operands: operands.len(),
        rows,
    }
}

/// One setting of a [`LutSweep`].
#[derive(Debug, Clone, PartialEq)]
pub struct LutSweepRow {
    /// The swept setting: a module count or a home-case strategy.
    pub setting: String,
    /// The home case the LUT gives each module.
    pub homes: Vec<Case>,
    /// IALU switched bits under Original steering.
    pub baseline_bits: u64,
    /// IALU switched bits under the 4-bit LUT + hardware swap.
    pub steered_bits: u64,
}

impl LutSweepRow {
    /// Energy reduction of the steered run against Original, in %.
    pub fn reduction_pct(&self) -> f64 {
        100.0 * (1.0 - self.steered_bits as f64 / self.baseline_bits.max(1) as f64)
    }
}

/// The integer suite's IALU savings from the 4-bit LUT + hardware swap
/// at each setting of one swept parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct LutSweep {
    /// What the sweep varies, as the first column's header.
    pub parameter: &'static str,
    /// One row per setting, in sweep order.
    pub rows: Vec<LutSweepRow>,
}

impl LutSweep {
    /// Renders the sweep.
    pub fn render(&self) -> String {
        let mut t = TextTable::new([
            self.parameter,
            "homes",
            "baseline bits",
            "steered bits",
            "reduction",
        ]);
        for r in &self.rows {
            let homes: Vec<String> = r.homes.iter().map(Case::to_string).collect();
            t.push_row([
                r.setting.clone(),
                homes.join(" "),
                r.baseline_bits.to_string(),
                r.steered_bits.to_string(),
                format!("{:.1}%", r.reduction_pct()),
            ]);
        }
        format!(
            "IALU {} ablation (4-bit LUT + hw swap vs Original)\n{t}",
            self.parameter
        )
    }

    /// The row for a setting, if swept.
    pub fn row(&self, setting: &str) -> Option<&LutSweepRow> {
        self.rows.iter().find(|r| r.setting == setting)
    }
}

/// Sweeps the IALU/FPAU module count over the integer suite. At each
/// count the LUT is built from that machine's own profile and occupancy;
/// the four-module row is the `fua headline` IALU number.
pub fn module_count(config: &ExperimentConfig) -> LutSweep {
    let rows = [2, 3, 4, 6, 8]
        .into_iter()
        .flat_map(|modules| {
            let config = ExperimentConfig {
                machine: config.machine.clone().with_duplicated_modules(modules),
                ..config.clone()
            };
            let original = original_run(&config);
            lut4_rows(
                &config,
                &original,
                vec![(modules.to_string(), HomeStrategy::Auto)],
            )
        })
        .collect();
    LutSweep {
        parameter: "module count",
        rows,
    }
}

/// Runs the integer suite's 4-bit LUT under every [`HomeStrategy`]. The
/// paper replicates the dominant case on the IALU and gives each FPAU
/// module its own case; `Auto` is that recipe.
pub fn home_cases(config: &ExperimentConfig) -> LutSweep {
    let strategies = [
        ("Auto (paper recipe)", HomeStrategy::Auto),
        ("Unique", HomeStrategy::Unique),
        ("Proportional", HomeStrategy::Proportional),
        ("Search", HomeStrategy::Search),
    ];
    let settings = strategies
        .into_iter()
        .map(|(name, strategy)| (name.to_string(), strategy))
        .collect();
    let rows = lut4_rows(config, &original_run(config), settings);
    LutSweep {
        parameter: "home-case strategy",
        rows,
    }
}

/// Table 3's multiplier swap, priced by the Booth activity model.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiplierSwap {
    /// Commutative FP multiplies retired.
    pub multiplies: u64,
    /// Multiplies whose operands the swap rule exchanged.
    pub swapped: u64,
    /// Modelled energy without the swap.
    pub energy_before: f64,
    /// Modelled energy with the swap.
    pub energy_after: f64,
}

impl MultiplierSwap {
    /// Energy saved by the swap, in %.
    pub fn reduction_pct(&self) -> f64 {
        100.0 * (1.0 - self.energy_after / self.energy_before.max(1.0))
    }

    /// Renders the study.
    pub fn render(&self) -> String {
        let mut t = TextTable::new([
            "fp multiplies",
            "swapped",
            "energy before",
            "energy after",
            "reduction",
        ]);
        t.push_row([
            self.multiplies.to_string(),
            format!(
                "{} ({:.1}%)",
                self.swapped,
                100.0 * self.swapped as f64 / self.multiplies.max(1) as f64
            ),
            format!("{:.0}", self.energy_before),
            format!("{:.0}", self.energy_after),
            format!("{:.1}%", self.reduction_pct()),
        ]);
        format!(
            "Table 3 multiplier swap on turb3d, Booth-model energy (an extension: \
             the paper reports only the opportunity)\n{t}"
        )
    }
}

/// Applies the multiplier swap rule to every commutative FP multiply of
/// `turb3d`, the FP kernel with full-precision operands, and prices both
/// operand orders with the Booth model.
pub fn multiplier_swap(config: &ExperimentConfig) -> MultiplierSwap {
    let w = fua_workloads::by_name("turb3d", config.scale).expect("bundled workload");
    let (model, rule) = (BoothModel::new(), MultiplierSwapRule::new());
    let mut out = MultiplierSwap {
        multiplies: 0,
        swapped: 0,
        energy_before: 0.0,
        energy_after: 0.0,
    };
    for_each_fu_op(std::slice::from_ref(&w), config, |mut fu| {
        if fu.class != FuClass::FpMul || !fu.commutative {
            return;
        }
        out.multiplies += 1;
        out.energy_before += model.multiply_energy(None, fu.op1, fu.op2);
        if rule.apply(&mut fu) {
            out.swapped += 1;
        }
        out.energy_after += model.multiply_energy(None, fu.op1, fu.op2);
    });
    out
}
