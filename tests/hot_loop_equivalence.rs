//! Integration: the data-layout-rewritten hot loop must be observably
//! indistinguishable from the original pointer-chasing engine.
//!
//! [`ReferenceSimulator`] is a frozen copy of the pre-rewrite pipeline
//! (per-instruction `Entry` structs in a `VecDeque`, linear window scans,
//! dependency checks that chase producer entries). [`Simulator`] is the
//! struct-of-arrays rewrite (ring-buffer slots, age-indexed ready
//! bitmasks, a completion wheel, consumer wakeup lists). This test pins
//! the rewrite to the reference engine at full trace granularity: for
//! every bundled workload, across every paper steering scheme with and
//! without the hardware swap rules, both engines must emit the
//! *identical* event stream — same cycles, same issue order, same steer
//! decisions, same swap events, same per-slot stall attribution — and
//! agree on every architectural counter. The rewrite records operand bit
//! patterns as issued, before any swap, so under every scheme they equal
//! the reference engine's Original run, which swaps nothing.
//!
//! Comparing the full [`VecSink`] streams subsumes weaker checks
//! (retirement stream, ledger, stall digest) because every one of those
//! is derived from the events; the [`StallSink`] digest is compared too
//! so a failure prints a readable per-site diff instead of a giant
//! event-vector dump.

use fua::sim::{MachineConfig, ReferenceSimulator, Simulator, SteeringConfig};
use fua::steer::SteeringKind;
use fua::trace::{StallSink, TraceEvent, VecSink};
use fua::workloads::all;

// Coverage here comes from the scheme × workload sweep, not trace
// length; 15k instructions wraps the ROB ring and the completion wheel
// hundreds of times while keeping the full sweep affordable in debug
// builds.
const LIMIT: u64 = 15_000;

/// Every steering configuration exercised by the equivalence sweep:
/// the unmodified baseline, plus each Figure-4 scheme with the hardware
/// swap both off and on.
fn schemes() -> Vec<(String, SteeringConfig)> {
    let mut out = vec![("original".to_string(), SteeringConfig::original())];
    for kind in SteeringKind::FIGURE4 {
        for hw_swap in [false, true] {
            out.push((
                format!("{kind:?}/hw_swap={hw_swap}"),
                SteeringConfig::paper_scheme(kind, hw_swap),
            ));
        }
    }
    out
}

/// Runs one engine over one workload, returning the full event stream,
/// the stall digest and the scalar outcome.
type Outcome = (Vec<TraceEvent>, StallSink, fua::sim::SimResult);

fn run_new(
    config: &MachineConfig,
    steering: SteeringConfig,
    w: &fua::workloads::Workload,
) -> Outcome {
    let sink = (VecSink::new(), StallSink::new());
    let mut sim = Simulator::with_sink(config.clone(), steering, sink);
    let result = sim
        .run_program(&w.program, LIMIT)
        .unwrap_or_else(|e| panic!("{}: rewrite faulted: {e}", w.name));
    let (events, stalls) = sim.into_sink();
    (events.events, stalls, result)
}

fn run_reference(
    config: &MachineConfig,
    steering: SteeringConfig,
    w: &fua::workloads::Workload,
) -> Outcome {
    let sink = (VecSink::new(), StallSink::new());
    let mut sim = ReferenceSimulator::with_sink(config.clone(), steering, sink);
    let result = sim
        .run_program(&w.program, LIMIT)
        .unwrap_or_else(|e| panic!("{}: reference faulted: {e}", w.name));
    let (events, stalls) = sim.into_sink();
    (events.events, stalls, result)
}

fn assert_equivalent(tag: &str, new: &Outcome, reference: &Outcome) {
    let (new_events, new_stalls, new_result) = new;
    let (ref_events, ref_stalls, ref_result) = reference;

    // Scalar outcomes first: cheapest to read when something diverges.
    assert_eq!(new_result.cycles, ref_result.cycles, "{tag}: cycles");
    assert_eq!(new_result.retired, ref_result.retired, "{tag}: retired");
    assert_eq!(new_result.halted, ref_result.halted, "{tag}: halted");
    assert_eq!(new_result.ledger, ref_result.ledger, "{tag}: energy ledger");
    assert_eq!(new_result.swaps, ref_result.swaps, "{tag}: swap counters");
    assert_eq!(
        new_result.branches, ref_result.branches,
        "{tag}: branch stats"
    );
    assert_eq!(new_result.cache, ref_result.cache, "{tag}: cache stats");

    // Stall digest: exact per-(reason, case, class) slot counts.
    assert_eq!(
        new_stalls.sites().collect::<Vec<_>>(),
        ref_stalls.sites().collect::<Vec<_>>(),
        "{tag}: stall digest sites"
    );
    assert_eq!(
        new_stalls.total_slots(),
        ref_stalls.total_slots(),
        "{tag}: stall slot total"
    );

    // The full event stream, element by element so a divergence reports
    // its position and both variants rather than dumping two vectors.
    assert_eq!(
        new_events.len(),
        ref_events.len(),
        "{tag}: event stream length"
    );
    for (i, (a, b)) in new_events.iter().zip(ref_events.iter()).enumerate() {
        assert_eq!(a, b, "{tag}: event streams diverge at index {i}");
    }
}

#[test]
fn rewrite_matches_reference_for_every_workload_and_scheme() {
    let config = MachineConfig::paper_default();
    for w in all(1) {
        let mut original_patterns = None;
        for (name, scheme) in schemes() {
            // Each engine takes its own copy of the scheme's fresh
            // policy state.
            let new = run_new(&config, scheme.clone(), &w);
            let reference = run_reference(&config, scheme, &w);
            let tag = format!("{}/{name}", w.name);
            assert_equivalent(&tag, &new, &reference);
            // `schemes()` leads with Original, so its reference run
            // fixes the patterns every scheme must report.
            let original = original_patterns.get_or_insert(reference.2.bit_patterns);
            assert_eq!(new.2.bit_patterns, *original, "{tag}: bit patterns");
        }
    }
}

#[test]
fn rewrite_matches_reference_on_a_narrow_machine() {
    // A 2-wide machine with a tiny window forces every structural stall
    // (RobFull, RsFull, skid-buffer pressure) that the paper machine's
    // generous window rarely exhibits.
    let mut config = MachineConfig::paper_default();
    config.fetch_width = 2;
    config.commit_width = 2;
    config.rob_size = 8;
    config.rs_entries = 2;
    config.mem_ports = 1;
    for w in all(1) {
        let new = run_new(
            &config,
            SteeringConfig::paper_scheme(SteeringKind::Lut { slots: 2 }, true),
            &w,
        );
        let reference = run_reference(
            &config,
            SteeringConfig::paper_scheme(SteeringKind::Lut { slots: 2 }, true),
            &w,
        );
        assert_equivalent(&format!("{}/narrow", w.name), &new, &reference);
    }
}
