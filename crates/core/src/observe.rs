//! Observability: metrics-instrumented suite runs.
//!
//! The simulator is generic over a [`fua_trace::TraceSink`]; this module
//! threads one [`MetricsRecorder`] through every workload of a unit's
//! suite (the sink moves into each run and back out via
//! [`Simulator::into_sink`]) so counters and histograms accumulate
//! across the whole suite.

use fua_isa::{FuClass, Program};
use fua_sim::{Lane, NullProfiler, SimResult, Simulator, SteeringConfig};
use fua_steer::SteeringKind;
use fua_trace::{MetricsRecorder, MetricsRegistry, NullSink};
use fua_workloads::{floating_point, integer, Workload};

use crate::{ExperimentConfig, Unit};

/// The steering scheme the observability commands instrument: the
/// paper's recommended 4-bit LUT with hardware swapping.
pub fn observed_scheme() -> SteeringConfig {
    SteeringConfig::paper_scheme(SteeringKind::Lut { slots: 2 }, true)
}

/// `class`'s switched bits when `program` runs under [`observed_scheme`],
/// on a lane that measures `class` alone.
pub(crate) fn observed_bits(config: &ExperimentConfig, program: &Program, class: FuClass) -> u64 {
    let mut lanes = [Lane::new(&config.machine, observed_scheme()).measuring(class)];
    Simulator::run_lanes(
        config.machine.clone(),
        NullSink,
        NullProfiler,
        &mut lanes,
        program,
        config.inst_limit,
    )
    .expect("workload runs")
    .0[0]
        .ledger
        .switched_bits(class)
}

/// Runs `w` once, with a steering lane for Original and one for
/// [`observed_scheme`], and returns their results in that order. With
/// `class`, both lanes measure that class alone; without, every class.
pub(crate) fn original_and_observed(
    config: &ExperimentConfig,
    w: &Workload,
    class: Option<FuClass>,
) -> [SimResult; 2] {
    let lane = |steering| {
        let lane = Lane::new(&config.machine, steering);
        match class {
            Some(class) => lane.measuring(class),
            None => lane,
        }
    };
    let mut lanes = [lane(SteeringConfig::original()), lane(observed_scheme())];
    Simulator::run_lanes(
        config.machine.clone(),
        NullSink,
        NullProfiler,
        &mut lanes,
        &w.program,
        config.inst_limit,
    )
    .unwrap_or_else(|e| panic!("workload {} faulted: {e}", w.name))
    .0
    .try_into()
    .expect("one result per lane")
}

/// Runs `unit`'s workload suite under [`observed_scheme`] with a
/// [`MetricsRecorder`] attached and returns the accumulated registry
/// (stage counters, per-module switched-bit totals, Hamming-distance
/// and occupancy histograms, ...).
pub fn suite_metrics(unit: Unit, config: &ExperimentConfig) -> MetricsRegistry {
    let workloads = match unit {
        Unit::Ialu => integer(config.scale),
        Unit::Fpau => floating_point(config.scale),
    };
    let mut recorder = MetricsRecorder::new();
    for w in &workloads {
        let mut sim = Simulator::with_sink(config.machine.clone(), observed_scheme(), recorder);
        sim.run_program(&w.program, config.inst_limit)
            .unwrap_or_else(|e| panic!("workload {} faulted: {e}", w.name));
        recorder = sim.into_sink();
    }
    recorder.into_registry()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_metrics_accumulate_across_workloads() {
        let config = ExperimentConfig {
            inst_limit: 2_000,
            ..ExperimentConfig::quick()
        };
        let registry = suite_metrics(Unit::Ialu, &config);
        let retired = registry
            .counter_value("stage.retire")
            .expect("retire counter registered");
        assert!(retired > 0, "suite must retire instructions");
        // Every steered IALU op charges the ledger exactly once, so the
        // per-module energy counters must be non-trivial too.
        let bits = registry.sum_counters(&format!("switched_bits.{}.", FuClass::IntAlu));
        assert!(bits > 0, "IALU switched-bit counters must accumulate");
    }
}
