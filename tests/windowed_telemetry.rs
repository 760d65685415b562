//! Integration: interval telemetry must be *exact* — the windowed
//! time-series is a partition of the run, so its column sums must equal
//! the metrics recorder's whole-run record, and both must reproduce the
//! final `EnergyLedger` bit-for-bit, for every steering scheme × swap
//! variant. And like every other sink, windowing must not perturb the
//! simulation.

use fua::core::{observed_scheme, ExperimentConfig};
use fua::power::EnergyLedger;
use fua::sim::{Simulator, SteeringConfig};
use fua::steer::SteeringKind;
use fua::trace::{ChromeTraceSink, MetricsRecorder, WindowedSink};
use fua::workloads::Workload;

fn workload(name: &str) -> Workload {
    fua::workloads::by_name(name, 1).expect("bundled workload")
}

/// One integer and one floating-point workload exercise all four FU
/// classes (the FP programs still run integer address arithmetic).
fn sample_pair() -> [Workload; 2] {
    [workload("compress"), workload("turb3d")]
}

#[test]
fn windowed_sums_equal_ledger_and_metrics_for_every_scheme_and_swap() {
    let config = ExperimentConfig::quick();
    for kind in SteeringKind::FIGURE4 {
        for hw_swap in [false, true] {
            let mut sink = WindowedSink::new(512);
            let mut recorder = MetricsRecorder::new();
            let mut ledger = EnergyLedger::new();
            for w in sample_pair() {
                let mut sim = Simulator::with_sink(
                    config.machine.clone(),
                    SteeringConfig::paper_scheme(kind, hw_swap),
                    (sink, recorder),
                );
                let result = sim
                    .run_program(&w.program, config.inst_limit)
                    .expect("runs");
                ledger.merge(&result.ledger);
                (sink, recorder) = sim.into_sink();
            }
            let totals = recorder.totals();

            // The windows partition the run: every column sums to the
            // recorder's whole-run record.
            assert_eq!(
                sink.into_series().total(),
                totals,
                "{kind:?} hw_swap={hw_swap}: windowed sums must equal the recorder"
            );

            // Exactness against the simulator's own energy ledger: the
            // record's per-module bits and ops, summed per class.
            let mut reassembled = EnergyLedger::new();
            reassembled.accumulate(totals.switched_bits(), totals.ops());
            assert_eq!(
                reassembled, ledger,
                "{kind:?} hw_swap={hw_swap}: the record must reproduce the ledger"
            );
        }
    }
}

#[test]
fn windowing_does_not_perturb_the_simulation() {
    for name in ["compress", "turb3d"] {
        let w = workload(name);
        let limit = ExperimentConfig::quick().inst_limit;
        let mut plain = Simulator::new(fua::sim::MachineConfig::paper_default(), observed_scheme());
        let a = plain.run_program(&w.program, limit).expect("runs");
        let mut windowed = Simulator::with_sink(
            fua::sim::MachineConfig::paper_default(),
            observed_scheme(),
            WindowedSink::new(1024),
        );
        let b = windowed.run_program(&w.program, limit).expect("runs");
        assert_eq!(a.cycles, b.cycles, "{name}: cycles");
        assert_eq!(a.retired, b.retired, "{name}: retired");
        assert_eq!(a.halted, b.halted, "{name}: halted");
        assert_eq!(a.ledger, b.ledger, "{name}: energy ledger");
        assert_eq!(a.swaps, b.swaps, "{name}: swap counters");
        assert_eq!(a.branches, b.branches, "{name}: branch stats");
        assert_eq!(a.cache, b.cache, "{name}: cache stats");

        let series = windowed.into_sink().into_series();
        assert!(!series.is_empty(), "{name}: windows recorded");
        let total = series.total();
        assert_eq!(total.retired(), b.retired, "{name}: retired sum");
        let mut reassembled = EnergyLedger::new();
        reassembled.accumulate(total.switched_bits(), total.ops());
        assert_eq!(reassembled, b.ledger, "{name}: ledger reassembly");
    }
}

#[test]
fn csv_and_counter_exports_cover_every_window() {
    let w = workload("compress");
    let mut sim = Simulator::with_sink(
        fua::sim::MachineConfig::paper_default(),
        observed_scheme(),
        WindowedSink::new(256),
    );
    sim.run_program(&w.program, 10_000).expect("runs");
    let series = sim.into_sink().into_series();
    let csv = series.to_csv();
    // Header + one line per window.
    assert_eq!(csv.lines().count(), 1 + series.len());
    assert!(csv.starts_with("window,start_cycle,cycles,retired"));
    let chrome = ChromeTraceSink::new()
        .into_json_with_counters(&series)
        .compact();
    assert!(chrome.contains("\"ph\":\"C\""), "counter events present");
    assert!(chrome.contains("window.ipc"));
}
