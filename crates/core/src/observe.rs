//! The engine entry point of every experiment, and the observability
//! runs built on it.
//!
//! [`run_lanes`] is the one place this crate runs the simulator. It is
//! generic over a [`fua_trace::TraceSink`]; [`suite_metrics`] threads one
//! [`MetricsRecorder`] through every workload of a unit's suite (the sink
//! moves into each run and back out) so counters and histograms
//! accumulate across the whole suite.

use fua_isa::{FuClass, Program};
use fua_sim::{Lane, NullProfiler, SimResult, Simulator, SteeringConfig};
use fua_steer::SteeringKind;
use fua_trace::{MetricsRecorder, MetricsRegistry, NullSink, TraceSink};
use fua_workloads::Workload;

use crate::{ExperimentConfig, Unit};

/// The steering scheme the observability commands instrument: the
/// paper's recommended 4-bit LUT with hardware swapping.
pub fn observed_scheme() -> SteeringConfig {
    SteeringConfig::paper_scheme(SteeringKind::Lut { slots: 2 }, true)
}

/// Runs `program` once on `config`'s machine, for at most its
/// instruction limit, with a steering lane per scheme of `schemes` and
/// `sink` riding the engine. With `class`, every lane measures that
/// class alone; without, every class. Returns one [`SimResult`] per
/// lane, in order, and the sink.
///
/// # Panics
///
/// Panics naming workload `name` if the program faults.
pub(crate) fn run_lanes<S: TraceSink>(
    config: &ExperimentConfig,
    name: &str,
    program: &Program,
    schemes: impl IntoIterator<Item = SteeringConfig>,
    class: Option<FuClass>,
    sink: S,
) -> (Vec<SimResult>, S) {
    let mut lanes: Vec<Lane> = schemes
        .into_iter()
        .map(|steering| {
            let lane = Lane::new(&config.machine, steering);
            match class {
                Some(class) => lane.measuring(class),
                None => lane,
            }
        })
        .collect();
    let (results, sink, _) = Simulator::run_lanes(
        config.machine.clone(),
        sink,
        NullProfiler,
        &mut lanes,
        program,
        config.inst_limit,
    )
    .unwrap_or_else(|e| panic!("workload {name} faulted: {e}"));
    (results, sink)
}

/// `class`'s switched bits when workload `name`'s `program` runs under
/// [`observed_scheme`], on a lane that measures `class` alone.
pub(crate) fn observed_bits(
    config: &ExperimentConfig,
    name: &str,
    program: &Program,
    class: FuClass,
) -> u64 {
    let (results, _) = run_lanes(
        config,
        name,
        program,
        [observed_scheme()],
        Some(class),
        NullSink,
    );
    results[0].ledger.switched_bits(class)
}

/// Runs `w` once, with a steering lane for Original and one for
/// [`observed_scheme`], and returns their results in that order. With
/// `class`, both lanes measure that class alone; without, every class.
pub(crate) fn original_and_observed(
    config: &ExperimentConfig,
    w: &Workload,
    class: Option<FuClass>,
) -> [SimResult; 2] {
    let schemes = [SteeringConfig::original(), observed_scheme()];
    run_lanes(config, w.name, &w.program, schemes, class, NullSink)
        .0
        .try_into()
        .expect("one result per lane")
}

/// Runs `unit`'s workload suite under [`observed_scheme`] with a
/// [`MetricsRecorder`] attached and returns the accumulated registry
/// (stage counters, per-module switched-bit totals, Hamming-distance
/// and occupancy histograms, ...).
pub fn suite_metrics(unit: Unit, config: &ExperimentConfig) -> MetricsRegistry {
    unit.suite(config.scale)
        .iter()
        .fold(MetricsRecorder::new(), |recorder, w| {
            let schemes = [observed_scheme()];
            run_lanes(config, w.name, &w.program, schemes, None, recorder).1
        })
        .into_registry()
}

#[cfg(test)]
mod tests {
    use fua_isa::{IntReg, ProgramBuilder};

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

    #[test]
    #[should_panic(expected = "workload made-up faulted")]
    fn a_faulting_program_panics_naming_its_workload() {
        let r1 = IntReg::new(1);
        let mut b = ProgramBuilder::new();
        b.li(r1, 0x7fff_fff0);
        b.lw(r1, r1, 0);
        b.halt();
        let program = b.build().expect("a valid program");
        let config = ExperimentConfig::quick();
        observed_bits(&config, "made-up", &program, FuClass::IntAlu);
    }
}
