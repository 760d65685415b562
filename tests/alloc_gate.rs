//! The steady-state zero-allocation gate: once a warmup run has grown
//! every lazily-sized structure (the inflight arena pool, event-wheel
//! buckets, steering tables), the untraced hot loop must allocate
//! **zero** bytes per simulated cycle, for every workload under every
//! Figure-4 scheme, and for every workload run with twelve steering
//! lanes (each Figure-4 scheme with and without the hardware swap),
//! once with lanes that measure every class and once with lanes that
//! measure the FPAU alone — the shape of one `fua figure4 fpau` cell.
//!
//! Methodology: heap traffic of a run is `constant per-run setup +
//! per-cycle cost × cycles`. After warmup at the *longer* limit, a run
//! capped at `L` retired instructions and a run capped at `2L` must
//! therefore count **exactly equal** allocation events — any per-cycle
//! allocation shows up as a difference that scales with the cap, while
//! the constant setup (simulator construction, scheme tables, the
//! pooled arena lease) cancels.
//!
//! This file holds exactly one `#[test]` on purpose: the counting
//! allocator's counters are process-global, and a concurrently running
//! sibling test would bleed its allocations into the measurement
//! window.

use fua::isa::FuClass;
use fua::sim::{Lane, MachineConfig, NullProfiler, Simulator, SteeringConfig};
use fua::steer::SteeringKind;
use fua::trace::NullSink;

#[global_allocator]
static COUNTING: fua::obs::CountingAlloc = fua::obs::CountingAlloc;

const LIMIT: u64 = 2_000;

/// One full run of `w` under `kind` on the untraced engine, as the
/// sweeps run it. Builds the scheme inside the measurement window so
/// the (constant) table construction cancels between the two runs.
fn run(w: &fua::workloads::Workload, kind: SteeringKind, limit: u64) -> u64 {
    let scheme = SteeringConfig::paper_scheme(kind, true);
    let mut sim = Simulator::new(MachineConfig::paper_default(), scheme);
    sim.run_program(&w.program, limit)
        .unwrap_or_else(|e| panic!("workload {} faulted under {kind:?}: {e}", w.name))
        .cycles
}

/// One run of `w` feeding twelve lanes: every Figure-4 scheme with and
/// without the hardware swap, each measuring `measured` (every class
/// when `None`). Builds the lanes inside the measurement window, like
/// [`run`].
fn run_lanes(w: &fua::workloads::Workload, measured: Option<FuClass>, limit: u64) -> u64 {
    let machine = MachineConfig::paper_default();
    let mut lanes: Vec<Lane> = SteeringKind::FIGURE4
        .into_iter()
        .flat_map(|kind| [false, true].map(|hw| SteeringConfig::paper_scheme(kind, hw)))
        .map(|scheme| {
            let lane = Lane::new(&machine, scheme);
            match measured {
                Some(class) => lane.measuring(class),
                None => lane,
            }
        })
        .collect();
    assert_eq!(lanes.len(), 12);
    Simulator::run_lanes(
        machine,
        NullSink,
        NullProfiler,
        &mut lanes,
        &w.program,
        limit,
    )
    .unwrap_or_else(|e| panic!("workload {} faulted with 12 lanes: {e}", w.name))
    .0[0]
        .cycles
}

/// Allocation events performed by `run`.
fn measured_allocs(w: &fua::workloads::Workload, run: impl FnOnce() -> u64) -> u64 {
    let before = fua::obs::alloc_snapshot();
    let cycles = run();
    let delta = fua::obs::alloc_snapshot().delta(&before);
    assert!(cycles > 0, "workload {} simulated no cycles", w.name);
    delta.allocs
}

#[test]
fn the_steady_state_hot_loop_allocates_nothing_per_cycle() {
    assert!(
        !fua::obs::counting_allocator_active() || fua::obs::alloc_snapshot().allocs > 0,
        "sanity: the counting allocator reports consistently"
    );
    // The harness itself proves the wrapper is installed: loading the
    // workloads below allocates, flipping the active flag.
    let workloads = fua::workloads::all(1);
    assert!(
        fua::obs::counting_allocator_active(),
        "the counting allocator must be installed in this test binary"
    );

    let mut checked = 0u32;
    for w in &workloads {
        for kind in SteeringKind::FIGURE4 {
            // Warmup at the longer limit amortises every structure that
            // grows with run length, so neither measured run resizes.
            run(w, kind, 2 * LIMIT);
            let short = measured_allocs(w, || run(w, kind, LIMIT));
            let long = measured_allocs(w, || run(w, kind, 2 * LIMIT));
            assert_eq!(
                short,
                long,
                "workload {} under {kind:?}: a {}-instruction run allocated {} event(s), \
                 a {}-instruction run {} — the difference is per-cycle allocation \
                 in the steady-state hot loop",
                w.name,
                LIMIT,
                short,
                2 * LIMIT,
                long
            );
            checked += 1;
        }
        for measured in [None, Some(FuClass::FpAlu)] {
            run_lanes(w, measured, 2 * LIMIT);
            let short = measured_allocs(w, || run_lanes(w, measured, LIMIT));
            let long = measured_allocs(w, || run_lanes(w, measured, 2 * LIMIT));
            assert_eq!(
                short,
                long,
                "workload {} with 12 lanes measuring {measured:?}: a {}-instruction run \
                 allocated {} event(s), a {}-instruction run {} — the difference is \
                 per-cycle allocation in the steady-state hot loop",
                w.name,
                LIMIT,
                short,
                2 * LIMIT,
                long
            );
            checked += 1;
        }
    }
    assert_eq!(
        checked,
        workloads.len() as u32 * (SteeringKind::FIGURE4.len() as u32 + 2),
        "every workload x scheme cell, and every workload's two 12-lane runs, must be gated"
    );
}
