//! Static vs profile-guided operand swapping, head to head.
//!
//! The paper's compiler pass needs a profiling run, and §4.4 concedes
//! the consequences: extra tooling, and results that drift with the
//! input data. The static pass (`fua-swap::StaticSwapPass`) predicts
//! information bits by abstract interpretation instead. This experiment
//! answers the question that comparison hinges on: *how much of the
//! profile-guided switching reduction does the profile-free pass
//! recover?* — measured on the Figure-4 harness (4-bit LUT + hardware
//! swapping on top of each rewritten binary).

use fua_swap::{CompilerSwapPass, StaticSwapPass};
use fua_trace::TextTable;
use fua_workloads::{floating_point, integer, Workload};

use crate::observe::observed_bits;
use crate::{ExperimentConfig, Unit};

/// One workload's switched bits under each swap pass.
#[derive(Debug, Clone)]
pub struct StaticSwapRow {
    /// Workload name.
    pub workload: String,
    /// Switched bits with hardware swapping only (no compiler pass).
    pub hardware_bits: u64,
    /// Switched bits with the profile-guided pass applied first.
    pub profile_bits: u64,
    /// Switched bits with the static pass applied first.
    pub static_bits: u64,
    /// Static instructions the profile-guided pass swapped.
    pub profile_swaps: usize,
    /// Static instructions the static pass swapped.
    pub static_swaps: usize,
    /// Fraction of swappable instructions the analysis proved a case for.
    pub definite_rate: f64,
}

/// The full comparison for one unit.
#[derive(Debug, Clone)]
pub struct StaticSwapComparison {
    /// The unit measured.
    pub unit: Unit,
    /// Per-workload rows.
    pub rows: Vec<StaticSwapRow>,
}

impl StaticSwapComparison {
    /// Total switched bits with hardware swapping only.
    pub fn hardware_total(&self) -> u64 {
        self.rows.iter().map(|r| r.hardware_bits).sum()
    }

    /// Total switched bits after the profile-guided pass.
    pub fn profile_total(&self) -> u64 {
        self.rows.iter().map(|r| r.profile_bits).sum()
    }

    /// Total switched bits after the static pass.
    pub fn static_total(&self) -> u64 {
        self.rows.iter().map(|r| r.static_bits).sum()
    }

    /// The headline ratio: static-pass bit savings as a fraction of the
    /// profile-guided savings (1.0 = full recovery; >1 = static wins).
    /// `None` when the profile-guided pass saved nothing.
    pub fn recovery(&self) -> Option<f64> {
        let hw = self.hardware_total() as i128;
        let profile_gain = hw - self.profile_total() as i128;
        let static_gain = hw - self.static_total() as i128;
        if profile_gain <= 0 {
            None
        } else {
            Some(static_gain as f64 / profile_gain as f64)
        }
    }

    /// Renders the comparison.
    pub fn render(&self) -> String {
        let mut t = TextTable::new([
            "workload",
            "hw only",
            "profile",
            "static",
            "profile swaps",
            "static swaps",
            "proven",
        ]);
        for r in &self.rows {
            t.push_row([
                r.workload.clone(),
                r.hardware_bits.to_string(),
                r.profile_bits.to_string(),
                r.static_bits.to_string(),
                r.profile_swaps.to_string(),
                r.static_swaps.to_string(),
                format!("{:.0}%", 100.0 * r.definite_rate),
            ]);
        }
        let recovery = match self.recovery() {
            Some(f) => format!("{:.0}%", 100.0 * f),
            None => "n/a (profile pass saved nothing)".to_string(),
        };
        format!(
            "Static vs profile-guided swapping, {} (4-bit LUT + hw swap on top)\n{t}\
             switched bits: hw-only {}, profile {}, static {}\n\
             static recovery of the profile-guided savings: {recovery}\n",
            self.unit,
            self.hardware_total(),
            self.profile_total(),
            self.static_total(),
        )
    }
}

/// Runs the comparison over the unit's suite: for each workload, rewrite
/// once with the profile-guided pass (trained on the same input it is
/// evaluated on — its best case) and once with the static pass, then
/// measure switched bits under the recommended design point.
pub fn static_swap_comparison(unit: Unit, config: &ExperimentConfig) -> StaticSwapComparison {
    let class = unit.fu_class();
    let workloads: Vec<Workload> = match unit {
        Unit::Ialu => integer(config.scale),
        Unit::Fpau => floating_point(config.scale),
    };
    let rows = workloads
        .iter()
        .map(|w| {
            let profiled = CompilerSwapPass::with_limit(config.inst_limit)
                .run(&w.program)
                .unwrap_or_else(|e| panic!("{}: swap pass faulted: {e}", w.name));
            let statically = StaticSwapPass::new().run(&w.program);
            StaticSwapRow {
                workload: w.name.to_string(),
                hardware_bits: observed_bits(config, &w.program, class),
                profile_bits: observed_bits(config, &profiled.program, class),
                static_bits: observed_bits(config, &statically.program, class),
                profile_swaps: profiled.swapped.len(),
                static_swaps: statically.swapped.len(),
                definite_rate: statically.definite_rate(),
            }
        })
        .collect();
    StaticSwapComparison { unit, rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_pass_recovers_half_the_profile_guided_savings() {
        let c = static_swap_comparison(Unit::Ialu, &ExperimentConfig::quick());
        assert_eq!(c.rows.len(), 7);
        assert!(c.rows.iter().all(|r| r.hardware_bits > 0));
        // The static pass must prove cases for a usable share of sites.
        assert!(
            c.rows.iter().any(|r| r.static_swaps > 0),
            "static pass swapped nothing anywhere"
        );
        let recovery = c
            .recovery()
            .expect("profile-guided pass saves bits on the integer suite");
        assert!(
            recovery >= 0.5,
            "static pass recovers only {:.0}% of the profile-guided savings",
            100.0 * recovery
        );
        assert!(c.render().contains("recovery"));
    }
}
