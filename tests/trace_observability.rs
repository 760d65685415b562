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
        sim.into_sink()
    };
    let (ring_a, recorder_a) = run();
    let (ring_b, recorder_b) = run();
    assert_eq!(ring_a.recorded(), ring_b.recorded());
    assert_eq!(
        ring_a.events(),
        ring_b.events(),
        "same seed must give byte-identical ring contents"
    );
    assert_eq!(
        recorder_a.to_json().pretty(),
        recorder_b.to_json().pretty(),
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
    let t = sim.into_sink().totals();

    // Per-module energy counters partition the ledger exactly.
    for class in FuClass::ALL {
        let c = class.index();
        assert_eq!(
            t.module_bits[c].iter().sum::<u64>(),
            result.ledger.switched_bits(class),
            "{class}: switched bits"
        );
        assert_eq!(
            t.module_ops[c].iter().sum::<u64>(),
            result.ledger.ops(class),
            "{class}: op counts"
        );
    }
    // Steering decisions cover every op issued to the duplicated IALU.
    assert_eq!(
        t.steer_cases[FuClass::IntAlu.index()].iter().sum::<u64>(),
        result.ledger.ops(FuClass::IntAlu)
    );
    assert_eq!(t.retired(), result.retired);
    assert_eq!(t.cycles, result.cycles);
    assert_eq!(
        (t.cache_hits, t.cache_misses),
        (result.cache.hits, result.cache.misses)
    );
    assert_eq!(
        (t.branches, t.mispredicts),
        (result.branches.branches, result.branches.mispredicts)
    );
    assert_eq!(
        t.swaps,
        [result.swaps.rule_swaps, result.swaps.policy_swaps]
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
