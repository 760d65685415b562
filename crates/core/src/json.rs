//! JSON emission for the CLI's `--json` flag.
//!
//! The value type and trait live in `fua-trace` (the bottom of the
//! dependency stack) so the trace sinks and metrics recorder can emit
//! JSON too; this module re-exports them and keeps the hand-written
//! conversions for every report the experiment layer produces.

pub use fua_trace::{Json, ToJson};

use crate::{
    BreakdownRow, ChipEstimate, Figure4, Figure4Row, Headline, RoutingExample, SensitivityRow,
    StaticSwapComparison, StaticSwapRow, SwapSensitivity, SynthesisReport, SynthesisRow, Unit,
    WorkloadBreakdown,
};

impl ToJson for Unit {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for RoutingExample {
    fn to_json(&self) -> Json {
        Json::obj([
            ("default_bits", Json::UInt(self.default_bits.into())),
            ("optimal_bits", Json::UInt(self.optimal_bits.into())),
            ("worst_bits", Json::UInt(self.worst_bits.into())),
            ("saving_vs_worst_pct", Json::Float(self.saving_vs_worst_pct)),
            ("assignment", Json::arr(&self.assignment)),
        ])
    }
}

impl ToJson for Figure4Row {
    fn to_json(&self) -> Json {
        Json::obj([
            ("scheme", self.scheme.to_json()),
            ("base_pct", Json::Float(self.base_pct)),
            ("hardware_pct", Json::Float(self.hardware_pct)),
            (
                "hardware_compiler_pct",
                Json::Float(self.hardware_compiler_pct),
            ),
            ("compiler_only_pct", Json::Float(self.compiler_only_pct)),
        ])
    }
}

impl ToJson for Figure4 {
    fn to_json(&self) -> Json {
        Json::obj([
            ("unit", self.unit.to_json()),
            ("rows", Json::arr(&self.rows)),
            (
                "baseline_switched_bits",
                Json::UInt(self.baseline_switched_bits),
            ),
        ])
    }
}

impl ToJson for Headline {
    fn to_json(&self) -> Json {
        Json::obj([
            ("ialu_pct", Json::Float(self.ialu_pct)),
            ("fpau_pct", Json::Float(self.fpau_pct)),
            ("ialu_compiler_pct", Json::Float(self.ialu_compiler_pct)),
        ])
    }
}

impl ToJson for SynthesisRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("unit", self.unit.to_json()),
            ("vector_bits", self.vector_bits.to_json()),
            ("rs_entries", Json::UInt(self.rs_entries.into())),
            ("gates", Json::UInt(self.gates.into())),
            ("levels", Json::UInt(self.levels.into())),
            ("violations", self.violations.to_json()),
        ])
    }
}

impl ToJson for SynthesisReport {
    fn to_json(&self) -> Json {
        Json::obj([("rows", Json::arr(&self.rows))])
    }
}

impl ToJson for ChipEstimate {
    fn to_json(&self) -> Json {
        Json::obj([
            ("unit_reduction", Json::arr(&self.unit_reduction)),
            ("unit_share", Json::arr(&self.unit_share)),
            ("core_reduction", Json::Float(self.core_reduction)),
            ("chip_reduction", Json::Float(self.chip_reduction)),
        ])
    }
}

impl ToJson for BreakdownRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("workload", self.workload.to_json()),
            ("baseline_bits", Json::UInt(self.baseline_bits)),
            ("steered_bits", Json::UInt(self.steered_bits)),
            ("reduction_pct", Json::Float(self.reduction_pct)),
            ("ipc", Json::Float(self.ipc)),
            ("mispredict_pct", Json::Float(self.mispredict_pct)),
            ("cache_hit_pct", Json::Float(self.cache_hit_pct)),
        ])
    }
}

impl ToJson for WorkloadBreakdown {
    fn to_json(&self) -> Json {
        Json::obj([
            ("unit", self.unit.to_json()),
            ("rows", Json::arr(&self.rows)),
        ])
    }
}

impl ToJson for SensitivityRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("workload", self.workload.to_json()),
            ("train_pct", Json::Float(self.train_pct)),
            ("cross_pct", Json::Float(self.cross_pct)),
            ("oracle_pct", Json::Float(self.oracle_pct)),
            ("static_pct", Json::Float(self.static_pct)),
            ("swapped", self.swapped.to_json()),
            ("static_invariant", Json::Bool(self.static_invariant)),
        ])
    }
}

impl ToJson for SwapSensitivity {
    fn to_json(&self) -> Json {
        Json::obj([("rows", Json::arr(&self.rows))])
    }
}

impl ToJson for StaticSwapRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("workload", self.workload.to_json()),
            ("hardware_bits", Json::UInt(self.hardware_bits)),
            ("profile_bits", Json::UInt(self.profile_bits)),
            ("static_bits", Json::UInt(self.static_bits)),
            ("profile_swaps", self.profile_swaps.to_json()),
            ("static_swaps", self.static_swaps.to_json()),
            ("definite_rate", Json::Float(self.definite_rate)),
        ])
    }
}

impl ToJson for StaticSwapComparison {
    fn to_json(&self) -> Json {
        Json::obj([
            ("unit", self.unit.to_string().to_json()),
            ("rows", Json::arr(&self.rows)),
            (
                "recovery",
                match self.recovery() {
                    Some(f) => Json::Float(f),
                    None => Json::Null,
                },
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_serialise() {
        let h = Headline {
            ialu_pct: 17.0,
            fpau_pct: 18.25,
            ialu_compiler_pct: 26.0,
        };
        let text = h.to_json().pretty();
        assert!(text.contains("\"ialu_pct\": 17.0"));
        assert!(text.contains("\"fpau_pct\": 18.25"));
    }
}
