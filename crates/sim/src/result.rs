//! Simulation outputs.

use fua_isa::FuClass;
use fua_power::EnergyLedger;
use fua_stats::{BitPatternProfiler, OccupancyProfiler};
use fua_trace::{Json, ToJson};

/// Branch-predictor statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchStats {
    /// Conditional branches executed.
    pub branches: u64,
    /// Mispredicted conditional branches.
    pub mispredicts: u64,
}

impl BranchStats {
    /// Misprediction rate (0 when no branches executed).
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }
}

impl ToJson for BranchStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("branches", Json::UInt(self.branches)),
            ("mispredicts", Json::UInt(self.mispredicts)),
            ("mispredict_rate", Json::Float(self.mispredict_rate())),
        ])
    }
}

/// Data-cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Cache hits.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
}

impl CacheStats {
    /// Hit rate (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl ToJson for CacheStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("hits", Json::UInt(self.hits)),
            ("misses", Json::UInt(self.misses)),
            ("hit_rate", Json::Float(self.hit_rate())),
        ])
    }
}

/// Operand-swap counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwapStats {
    /// Swaps applied by the static hardware rule (Section 4.4).
    pub rule_swaps: u64,
    /// Swaps chosen by cost-based policies (Full Ham / 1-bit Ham).
    pub policy_swaps: u64,
}

impl ToJson for SwapStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("rule_swaps", Json::UInt(self.rule_swaps)),
            ("policy_swaps", Json::UInt(self.policy_swaps)),
        ])
    }
}

/// Everything one simulation run produces.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Elapsed cycles.
    pub cycles: u64,
    /// Retired instructions.
    pub retired: u64,
    /// Whether the program halted (vs hitting the instruction limit).
    pub halted: bool,
    /// Switched input bits and operation counts per FU class. A lane
    /// built with [`Lane::measuring`](crate::Lane::measuring) charges its
    /// class only, and every other class reads zero.
    pub ledger: EnergyLedger,
    /// Per-class issue occupancy (Table 2 inputs).
    pub occupancy: Vec<OccupancyProfiler>,
    /// Per-class operand bit patterns *as issued*, before any swap, so
    /// the same under every steering scheme (Tables 1 and 3 inputs).
    pub bit_patterns: Vec<BitPatternProfiler>,
    /// Swap counters, of the measured class only for a lane built with
    /// [`Lane::measuring`](crate::Lane::measuring).
    pub swaps: SwapStats,
    /// Branch-predictor statistics.
    pub branches: BranchStats,
    /// Data-cache statistics.
    pub cache: CacheStats,
}

impl SimResult {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }

    /// Convenience accessor for one class's occupancy profiler.
    pub fn occupancy_of(&self, class: FuClass) -> &OccupancyProfiler {
        &self.occupancy[class.index()]
    }

    /// Convenience accessor for one class's bit-pattern profiler.
    pub fn bit_patterns_of(&self, class: FuClass) -> &BitPatternProfiler {
        &self.bit_patterns[class.index()]
    }

    /// Fractional switched-bit reduction relative to a baseline run, for
    /// one FU class.
    pub fn reduction_vs(&self, baseline: &SimResult, class: FuClass) -> f64 {
        self.ledger.reduction_vs(&baseline.ledger, class)
    }
}
