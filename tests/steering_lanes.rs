//! Steering lanes are exact: one engine run feeding many lanes ends each
//! lane exactly where a standalone run under its scheme ends, and the
//! timing and operand bit patterns every lane reports are the same —
//! cycle counts and the issued ops' operands do not depend on the scheme,
//! so every lane's patterns equal a standalone Original run's. A
//! timing-dependent steering model would fail here first.
//!
//! Covers every workload × every Figure-4 suite (six schemes, each with
//! and without the hardware swap, built from the measured profile as
//! `fua figure4` builds them) × {original, compiler-swapped} program, and
//! every workload × every estimator scheme with a per-lane attribution
//! sink, an engine event sink and phase timers, lane 0 the 4-bit LUT and
//! then Original: the engine sink records exactly what a standalone
//! traced run under lane 0's scheme records.
//!
//! A lane restricted to one class ([`Lane::measuring`]) charges that
//! class exactly as an all-class lane of the same scheme does, charges
//! no other class, and shares the run's timing, occupancy and bit
//! patterns. A run whose lanes mix class sets, or whose enabled engine
//! sink would describe a restricted lane 0, panics.

use fua::attr::{attribute_schemes, AttributionSink, EnergyAttribution, Scheme};
use fua::core::{profile_suite_jobs, ExperimentConfig};
use fua::exec::Jobs;
use fua::isa::{FuClass, Program};
use fua::sim::{
    Lane, MachineConfig, NullProfiler, PhaseTimers, SimPhase, SimResult, Simulator, SteeringConfig,
};
use fua::steer::SteeringKind;
use fua::swap::CompilerSwapPass;
use fua::trace::{NullSink, TraceSink, VecSink};
use fua::workloads::{Workload, WorkloadArena};

const LIMIT: u64 = 3_000;

/// Both results recorded the same operand bit patterns.
fn assert_same_patterns(a: &SimResult, b: &SimResult, what: &str) {
    for class in FuClass::ALL {
        // The profilers accumulate floats in record order, so equal
        // renderings mean equal records in equal order.
        assert_eq!(
            format!("{:?}", a.bit_patterns_of(class)),
            format!("{:?}", b.bit_patterns_of(class)),
            "{what}: {class} bit patterns"
        );
    }
}

/// Every field of a lane's result must match the standalone run's.
fn assert_same(lane: &SimResult, alone: &SimResult, what: &str) {
    assert_eq!(lane.ledger, alone.ledger, "{what}: ledger");
    assert_eq!(lane.swaps, alone.swaps, "{what}: swap counters");
    assert_same_patterns(lane, alone, what);
    assert_eq!(lane.occupancy, alone.occupancy, "{what}: occupancy");
    assert_eq!(
        (lane.cycles, lane.retired, lane.halted),
        (alone.cycles, alone.retired, alone.halted),
        "{what}: timing"
    );
    assert_eq!(lane.branches, alone.branches, "{what}: branches");
    assert_eq!(lane.cache, alone.cache, "{what}: cache");
}

/// The quick configuration at [`LIMIT`] instructions.
fn config() -> ExperimentConfig {
    ExperimentConfig {
        inst_limit: LIMIT,
        ..ExperimentConfig::quick()
    }
}

/// The twelve Figure-4 suites (six schemes, each with and without the
/// hardware swap), built from the measured profile as `fua figure4`
/// builds them, with their names.
fn figure4_suites(
    config: &ExperimentConfig,
    arena: &WorkloadArena,
) -> Vec<(String, SteeringConfig)> {
    let machine = &config.machine;
    let (profile, _) = profile_suite_jobs(config, arena, Jobs::serial());
    let ialu = profile.case_profile(FuClass::IntAlu);
    let fpau = profile.case_profile(FuClass::FpAlu);
    let ialu_occ = profile.ialu_occupancy.distribution();
    let fpau_occ = profile.fpau_occupancy.distribution();
    let suites: Vec<(String, SteeringConfig)> = SteeringKind::FIGURE4
        .into_iter()
        .flat_map(|kind| [(kind, false), (kind, true)])
        .map(|(kind, hw_swap)| {
            let scheme = SteeringConfig::from_profiles_with_occupancy(
                kind,
                hw_swap,
                &ialu,
                &fpau,
                &ialu_occ,
                &fpau_occ,
                machine.modules(FuClass::IntAlu),
                machine.modules(FuClass::FpAlu),
            );
            (format!("{kind} hw_swap={hw_swap}"), scheme)
        })
        .collect();
    assert_eq!(suites.len(), 12, "six schemes x two swap settings");
    suites
}

/// `w`'s program as written and after the compiler swap pass.
fn variants(w: &Workload) -> [(&'static str, Program); 2] {
    let swapped = CompilerSwapPass::with_limit(LIMIT)
        .run(&w.program)
        .expect("the swap pass runs every kernel")
        .program;
    [("original", w.program.clone()), ("swapped", swapped)]
}

/// A lane under `scheme` measuring `measured` (every class when `None`).
fn lane(machine: &MachineConfig, scheme: SteeringConfig, measured: Option<FuClass>) -> Lane {
    let lane = Lane::new(machine, scheme);
    match measured {
        Some(class) => lane.measuring(class),
        None => lane,
    }
}

/// One run of `program` with a lane per suite, each measuring `measured`
/// (every class when `None`).
fn run_suites(
    machine: &MachineConfig,
    suites: &[(String, SteeringConfig)],
    measured: Option<FuClass>,
    program: &Program,
) -> Vec<SimResult> {
    let mut lanes: Vec<Lane> = suites
        .iter()
        .map(|(_, scheme)| lane(machine, scheme.clone(), measured))
        .collect();
    let (results, ..) = Simulator::run_lanes(
        machine.clone(),
        NullSink,
        NullProfiler,
        &mut lanes,
        program,
        LIMIT,
    )
    .expect("runs");
    assert_eq!(results.len(), suites.len());
    results
}

#[test]
fn figure4_lanes_match_standalone_runs_and_share_one_timing() {
    let config = config();
    let machine = &config.machine;
    let arena = WorkloadArena::build(config.scale);
    let suites = figure4_suites(&config, &arena);

    let mut checked = 0;
    for w in arena.all() {
        for (variant, program) in &variants(w) {
            let results = run_suites(machine, &suites, None, program);
            let original = Simulator::new(machine.clone(), SteeringConfig::original())
                .run_program(program, LIMIT)
                .expect("runs");
            for ((name, scheme), lane) in suites.iter().zip(&results) {
                let alone = Simulator::new(machine.clone(), scheme.clone())
                    .run_program(program, LIMIT)
                    .expect("runs");
                let what = format!("{} {variant} {name}", w.name);
                assert_same(lane, &alone, &what);
                assert_same_patterns(lane, &original, &format!("{what} vs Original"));
                assert_eq!(
                    (lane.cycles, lane.retired),
                    (results[0].cycles, results[0].retired),
                    "{} {variant} {name}: cycles and retired must not depend on the scheme",
                    w.name
                );
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 15 * 2 * 12, "every workload x variant x suite");
}

#[test]
fn class_restricted_lanes_charge_their_class_exactly_and_nothing_else() {
    let config = config();
    let machine = &config.machine;
    let arena = WorkloadArena::build(config.scale);
    let suites = figure4_suites(&config, &arena);

    let mut checked = 0;
    for w in arena.all() {
        for (variant, program) in &variants(w) {
            let all = run_suites(machine, &suites, None, program);
            for unit in [FuClass::IntAlu, FuClass::FpAlu] {
                let restricted = run_suites(machine, &suites, Some(unit), program);
                for (((name, _), lane), full) in suites.iter().zip(&restricted).zip(&all) {
                    let what = format!("{} {variant} {name} measuring {unit}", w.name);
                    for class in FuClass::ALL {
                        let (bits, ops) = if class == unit {
                            (full.ledger.switched_bits(class), full.ledger.ops(class))
                        } else {
                            (0, 0)
                        };
                        assert_eq!(
                            (lane.ledger.switched_bits(class), lane.ledger.ops(class)),
                            (bits, ops),
                            "{what}: {class} switched bits and ops"
                        );
                    }
                    assert!(
                        lane.swaps.rule_swaps <= full.swaps.rule_swaps
                            && lane.swaps.policy_swaps <= full.swaps.policy_swaps,
                        "{what}: a restricted lane counts a subset of the swaps"
                    );
                    assert_eq!(
                        (lane.cycles, lane.retired, lane.halted),
                        (full.cycles, full.retired, full.halted),
                        "{what}: timing"
                    );
                    assert_eq!(lane.occupancy, full.occupancy, "{what}: occupancy");
                    assert_same_patterns(lane, full, &what);
                    checked += 1;
                }
            }
        }
    }
    assert_eq!(
        checked,
        15 * 2 * 2 * 12,
        "every workload x variant x unit x suite"
    );
}

/// One run of `compress` into `sink` with two Original lanes, measuring
/// `first` and `second`.
fn run_two_lanes<S: TraceSink>(sink: S, first: Option<FuClass>, second: Option<FuClass>) {
    let w = fua::workloads::by_name("compress", 1).expect("bundled workload");
    let machine = MachineConfig::paper_default();
    let mut lanes = [first, second].map(|m| lane(&machine, SteeringConfig::original(), m));
    Simulator::run_lanes(
        machine.clone(),
        sink,
        NullProfiler,
        &mut lanes,
        &w.program,
        LIMIT,
    )
    .expect("runs");
}

#[test]
#[should_panic(expected = "every lane of one run must measure the same classes")]
fn lanes_of_one_run_must_measure_the_same_classes() {
    run_two_lanes(NullSink, None, Some(FuClass::IntAlu));
}

#[test]
#[should_panic(expected = "an enabled engine sink needs lanes that measure every class")]
fn an_engine_sink_needs_lanes_that_measure_every_class() {
    run_two_lanes(VecSink::new(), Some(FuClass::FpAlu), Some(FuClass::FpAlu));
}

#[test]
fn estimator_lanes_attribute_exactly_like_standalone_runs() {
    let machine = MachineConfig::paper_default();
    // Every scheme, led by the 4-bit LUT and then by Original: the
    // engine sink must follow whichever scheme is lane 0.
    let orders = [Scheme::Lut4, Scheme::Naive].map(|first| {
        std::iter::once(first)
            .chain(Scheme::ALL.into_iter().filter(|&s| s != first))
            .collect::<Vec<Scheme>>()
    });
    for w in fua::workloads::all(1) {
        let alone: Vec<(SimResult, EnergyAttribution, VecSink)> = Scheme::ALL
            .iter()
            .map(|scheme| {
                let sink = (AttributionSink::new(), VecSink::new());
                let mut sim = Simulator::with_sink(machine.clone(), scheme.config(), sink);
                let result = sim.run_program(&w.program, LIMIT).expect("runs");
                let (attr, events) = sim.into_sink();
                let attribution =
                    EnergyAttribution::build(w.name, scheme.label(), &w.program, &attr);
                (result, attribution, events)
            })
            .collect();
        let alone_of = |scheme: Scheme| {
            &alone[Scheme::ALL
                .iter()
                .position(|&s| s == scheme)
                .expect("every scheme")]
        };
        for schemes in &orders {
            let (runs, events, timers) = attribute_schemes(
                &w,
                machine.clone(),
                schemes,
                LIMIT,
                VecSink::new(),
                PhaseTimers::new(),
            );
            assert_eq!(runs.len(), schemes.len());
            let lead = format!("{} led by {}", w.name, schemes[0].name());
            let expected = &alone_of(schemes[0]).2.events;
            assert_eq!(events.events.len(), expected.len(), "{lead}: engine events");
            if let Some(i) = events.events.iter().zip(expected).position(|(a, b)| a != b) {
                panic!(
                    "{lead}: engine event {i} is {:?}, standalone {:?}",
                    events.events[i], expected[i]
                );
            }
            assert!(timers.intervals(SimPhase::Issue) > 0, "{lead}: timed");
            // Timed and traced, every lane still equals its standalone run.
            for (scheme, run) in schemes.iter().zip(&runs) {
                let (result, attribution, _) = alone_of(*scheme);
                let what = format!("{lead}: {}", scheme.name());
                assert_eq!(run.attribution, *attribution, "{what}: attribution");
                assert_same(&run.result, result, &what);
                assert!(
                    run.exact(),
                    "{what}: the lane's sites reassemble its ledger"
                );
            }
        }
    }
}

#[test]
fn a_single_lane_run_is_the_one_lane_simulator() {
    let w = fua::workloads::by_name("compress", 1).expect("bundled workload");
    let machine = MachineConfig::paper_default();
    let scheme = SteeringConfig::paper_scheme(SteeringKind::Lut { slots: 2 }, true);
    let mut lanes = [Lane::new(&machine, scheme.clone())];
    let lane = Simulator::run_lanes(
        machine.clone(),
        NullSink,
        NullProfiler,
        &mut lanes,
        &w.program,
        LIMIT,
    )
    .expect("runs")
    .0
    .remove(0);
    let alone = Simulator::new(machine, scheme)
        .run_program(&w.program, LIMIT)
        .expect("runs");
    assert_same(&lane, &alone, "compress lut4");
}
