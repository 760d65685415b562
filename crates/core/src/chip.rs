//! The paper's chip-level extrapolation.
//!
//! Section 1: "In [Wattch] it was found that around 22% of the
//! processor's power is consumed in the execution units. Thus, the
//! decrease in total chip power is roughly 4%." This module reproduces
//! that arithmetic from the measured per-unit reductions, weighting each
//! FU class by its share of measured execution-core switching.

use fua_isa::FuClass;
use fua_power::EnergyLedger;
use fua_trace::TextTable;
use fua_workloads::all;

use crate::observe::original_and_observed;
use crate::ExperimentConfig;

/// Fraction of total processor power consumed by the execution units,
/// per the Wattch measurement the paper cites.
pub const EXECUTION_UNIT_POWER_SHARE: f64 = 0.22;

/// The chip-level power estimate.
#[derive(Debug, Clone)]
pub struct ChipEstimate {
    /// Measured switching reduction per FU class (fraction, 0..1).
    pub unit_reduction: [f64; 4],
    /// Each class's share of baseline execution-core switching.
    pub unit_share: [f64; 4],
    /// Reduction of the whole execution core (share-weighted).
    pub core_reduction: f64,
    /// Estimated reduction of total chip power
    /// (`core_reduction × EXECUTION_UNIT_POWER_SHARE`).
    pub chip_reduction: f64,
}

impl ChipEstimate {
    /// Renders the estimate with the paper's comparison point.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(["unit", "share of core", "reduction"]);
        for class in FuClass::ALL {
            let i = class.index();
            t.push_row([
                class.to_string(),
                format!("{:.1}%", 100.0 * self.unit_share[i]),
                format!("{:.1}%", 100.0 * self.unit_reduction[i]),
            ]);
        }
        format!(
            "Chip-level extrapolation (execution units = {:.0}% of chip power, per Wattch)\n\
             {t}\
             execution-core reduction: {:.1}%\n\
             estimated total-chip reduction: {:.1}%  (paper: \"roughly 4%\")\n",
            100.0 * EXECUTION_UNIT_POWER_SHARE,
            100.0 * self.core_reduction,
            100.0 * self.chip_reduction,
        )
    }
}

/// Runs the whole suite under the recommended design point (4-bit LUT +
/// hardware swapping + multiplier swap) and extrapolates to chip level.
pub fn chip_estimate(config: &ExperimentConfig) -> ChipEstimate {
    // The multiplier swap rule is deliberately NOT enabled here: it
    // optimises Booth partial products, which a Hamming-only ledger
    // cannot credit (the reason the paper reports no multiplier numbers
    // either) — enabling it would charge its latch cost and credit
    // nothing.
    let (mut baseline, mut steered) = (EnergyLedger::new(), EnergyLedger::new());
    for w in all(config.scale) {
        let [base, opt] = original_and_observed(config, &w, None);
        baseline.merge(&base.ledger);
        steered.merge(&opt.ledger);
    }

    let total_base = baseline.total_switched_bits().max(1);
    let mut unit_reduction = [0.0; 4];
    let mut unit_share = [0.0; 4];
    for class in FuClass::ALL {
        let i = class.index();
        unit_share[i] = baseline.switched_bits(class) as f64 / total_base as f64;
        unit_reduction[i] = steered.reduction_vs(&baseline, class);
    }
    let core_reduction = 1.0 - steered.total_switched_bits() as f64 / total_base as f64;
    ChipEstimate {
        unit_reduction,
        unit_share,
        core_reduction,
        chip_reduction: core_reduction * EXECUTION_UNIT_POWER_SHARE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chip_estimate_is_positive_and_consistent() {
        let est = chip_estimate(&ExperimentConfig::quick());
        let share_sum: f64 = est.unit_share.iter().sum();
        assert!((share_sum - 1.0).abs() < 1e-9, "shares partition the core");
        assert!(est.core_reduction > 0.0, "the core must save energy");
        assert!(
            (est.chip_reduction - est.core_reduction * EXECUTION_UNIT_POWER_SHARE).abs() < 1e-12
        );
        // Same order of magnitude as the paper's "roughly 4%" claim
        // (ours is smaller, tracking our smaller per-unit reductions).
        assert!(est.chip_reduction > 0.003 && est.chip_reduction < 0.10);
        assert!(est.render().contains("roughly 4%"));
    }
}
