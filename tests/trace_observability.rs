//! Integration: the observability layer must be deterministic, must not
//! perturb the simulation, and must agree with the architectural
//! counters the simulator already reports.

use fua::core::observed_scheme;
use fua::isa::FuClass;
use fua::sim::{MachineConfig, Simulator};
use fua::trace::{ChromeTraceSink, MetricsRecorder, RingBufferSink, ToJson, VecSink};
use fua::workloads::Workload;

const LIMIT: u64 = 10_000;

fn workload(name: &str) -> Workload {
    fua::workloads::by_name(name, 1).expect("bundled workload")
}

#[test]
fn identical_runs_trace_identically() {
    let w = workload("compress");
    let run = || {
        let mut sim = Simulator::with_sink(
            MachineConfig::paper_default(),
            observed_scheme(),
            (RingBufferSink::default(), MetricsRecorder::new()),
        );
        sim.run_program(&w.program, LIMIT).expect("runs");
        let (ring, recorder) = sim.into_sink();
        (ring, recorder.into_registry())
    };
    let (ring_a, registry_a) = run();
    let (ring_b, registry_b) = run();
    assert_eq!(ring_a.recorded(), ring_b.recorded());
    assert_eq!(
        ring_a.events(),
        ring_b.events(),
        "same seed must give byte-identical ring contents"
    );
    assert_eq!(
        registry_a.to_json().pretty(),
        registry_b.to_json().pretty(),
        "same seed must give identical metrics snapshots"
    );
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    for name in ["compress", "turb3d"] {
        let w = workload(name);
        let mut plain = Simulator::new(MachineConfig::paper_default(), observed_scheme());
        let a = plain.run_program(&w.program, LIMIT).expect("runs");
        let mut traced = Simulator::with_sink(
            MachineConfig::paper_default(),
            observed_scheme(),
            VecSink::new(),
        );
        let b = traced.run_program(&w.program, LIMIT).expect("runs");
        assert_eq!(a.cycles, b.cycles, "{name}: cycles");
        assert_eq!(a.retired, b.retired, "{name}: retired");
        assert_eq!(a.halted, b.halted, "{name}: halted");
        assert_eq!(a.ledger, b.ledger, "{name}: energy ledger");
        assert_eq!(a.swaps, b.swaps, "{name}: swap counters");
        assert_eq!(a.branches, b.branches, "{name}: branch stats");
        assert_eq!(a.cache, b.cache, "{name}: cache stats");
        assert!(!traced.sink().events.is_empty(), "{name}: events recorded");
    }
}

#[test]
fn metrics_agree_with_the_architectural_counters() {
    let w = workload("compress");
    let mut sim = Simulator::with_sink(
        MachineConfig::paper_default(),
        observed_scheme(),
        MetricsRecorder::new(),
    );
    let result = sim.run_program(&w.program, LIMIT).expect("runs");
    let registry = sim.into_sink().into_registry();

    // Per-module energy counters partition the ledger exactly.
    for class in FuClass::ALL {
        assert_eq!(
            registry.sum_counters(&format!("switched_bits.{class}.")),
            result.ledger.switched_bits(class),
            "{class}: switched bits"
        );
        assert_eq!(
            registry.sum_counters(&format!("ops.{class}.")),
            result.ledger.ops(class),
            "{class}: op counts"
        );
    }
    // Steering decisions cover every op issued to the duplicated IALU.
    assert_eq!(
        registry.sum_counters("steer.IALU.case"),
        result.ledger.ops(FuClass::IntAlu)
    );
    assert_eq!(registry.counter_value("stage.retire"), Some(result.retired));
    assert_eq!(
        registry.counter_value("cache.hits"),
        Some(result.cache.hits)
    );
    assert_eq!(
        registry.counter_value("cache.misses"),
        Some(result.cache.misses)
    );
    assert_eq!(
        registry.counter_value("branch.executed"),
        Some(result.branches.branches)
    );
    assert_eq!(
        registry.counter_value("branch.mispredicted"),
        Some(result.branches.mispredicts)
    );
    assert_eq!(
        registry.counter_value("swaps.rule"),
        Some(result.swaps.rule_swaps)
    );
    assert_eq!(
        registry.counter_value("swaps.policy"),
        Some(result.swaps.policy_swaps)
    );
}

#[test]
fn chrome_export_of_a_real_run_has_the_trace_event_shape() {
    let w = workload("compress");
    let mut sim = Simulator::with_sink(
        MachineConfig::paper_default(),
        observed_scheme(),
        ChromeTraceSink::new(),
    );
    sim.run_program(&w.program, 2_000).expect("runs");
    let json = sim.into_sink().into_json().compact();
    assert!(json.starts_with("{\"traceEvents\":["));
    for needle in [
        "\"ph\":\"X\"",
        "\"ph\":\"M\"",
        "\"ph\":\"C\"",
        "\"ts\":",
        "\"pid\":1",
        "\"pid\":2",
        "\"tid\":",
        "IALU.m0",
        "switched_bits.IALU",
    ] {
        assert!(json.contains(needle), "export must contain {needle}");
    }
}
