//! Experiment configuration.

use fua_isa::FuClass;
use fua_sim::MachineConfig;
use fua_workloads::{floating_point, integer, Category, Workload};

/// Which duplicated unit an experiment targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// The integer ALU pool (Figure 4(a), integer workloads).
    Ialu,
    /// The FP adder/subtractor pool (Figure 4(b), FP workloads).
    Fpau,
}

impl Unit {
    /// The corresponding FU class.
    pub fn fu_class(self) -> FuClass {
        match self {
            Unit::Ialu => FuClass::IntAlu,
            Unit::Fpau => FuClass::FpAlu,
        }
    }

    /// The category of the unit's workloads.
    pub(crate) fn category(self) -> Category {
        match self {
            Unit::Ialu => Category::Integer,
            Unit::Fpau => Category::FloatingPoint,
        }
    }

    /// The unit's workload suite at `scale`: the integer workloads for
    /// the IALU, the FP workloads for the FPAU.
    pub(crate) fn suite(self, scale: u32) -> Vec<Workload> {
        match self {
            Unit::Ialu => integer(scale),
            Unit::Fpau => floating_point(scale),
        }
    }
}

impl std::fmt::Display for Unit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Unit::Ialu => f.write_str("IALU"),
            Unit::Fpau => f.write_str("FPAU"),
        }
    }
}

/// Shared knobs for every experiment.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Workload scale factor (1 ≈ 10⁵ dynamic instructions each).
    pub scale: u32,
    /// Per-run retired-instruction cap (bounds experiment time).
    pub inst_limit: u64,
    /// The simulated machine.
    pub machine: MachineConfig,
}

impl ExperimentConfig {
    /// The full-size configuration used by the CLI and examples.
    pub fn full() -> Self {
        ExperimentConfig {
            scale: 1,
            inst_limit: 150_000,
            machine: MachineConfig::paper_default(),
        }
    }

    /// A reduced configuration for fast unit/integration tests.
    pub fn quick() -> Self {
        ExperimentConfig {
            scale: 1,
            inst_limit: 25_000,
            machine: MachineConfig::paper_default(),
        }
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self::full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_map_to_classes() {
        assert_eq!(Unit::Ialu.fu_class(), FuClass::IntAlu);
        assert_eq!(Unit::Fpau.fu_class(), FuClass::FpAlu);
        assert_eq!(Unit::Ialu.to_string(), "IALU");
    }

    #[test]
    fn quick_is_smaller_than_full() {
        assert!(ExperimentConfig::quick().inst_limit < ExperimentConfig::full().inst_limit);
    }
}
