//! Steering lanes are exact: one engine run feeding many lanes ends each
//! lane exactly where a standalone run under its scheme ends, and the
//! timing every lane reports is the same — cycle counts do not depend on
//! the scheme. A timing-dependent steering model would fail here first.
//!
//! Covers every workload × every Figure-4 suite (six schemes, each with
//! and without the hardware swap, built from the measured profile as
//! `fua figure4` builds them) × {original, compiler-swapped} program, and
//! every workload × every estimator scheme with a per-lane attribution
//! sink.

use fua::attr::{attribute_schemes, AttributionSink, EnergyAttribution, Scheme};
use fua::core::{profile_suite, ExperimentConfig};
use fua::isa::{FuClass, Program};
use fua::sim::{Lane, MachineConfig, SimResult, Simulator, SteeringConfig};
use fua::steer::SteeringKind;
use fua::swap::CompilerSwapPass;

const LIMIT: u64 = 3_000;

/// Every field of a lane's result must match the standalone run's.
fn assert_same(lane: &SimResult, alone: &SimResult, what: &str) {
    assert_eq!(lane.ledger, alone.ledger, "{what}: ledger");
    assert_eq!(lane.swaps, alone.swaps, "{what}: swap counters");
    for class in FuClass::ALL {
        // The profilers accumulate floats in record order, so equal
        // renderings mean equal records in equal order.
        assert_eq!(
            format!("{:?}", lane.bit_patterns_of(class)),
            format!("{:?}", alone.bit_patterns_of(class)),
            "{what}: {class} bit patterns"
        );
    }
    assert_eq!(lane.occupancy, alone.occupancy, "{what}: occupancy");
    assert_eq!(
        (lane.cycles, lane.retired, lane.halted),
        (alone.cycles, alone.retired, alone.halted),
        "{what}: timing"
    );
    assert_eq!(lane.branches, alone.branches, "{what}: branches");
    assert_eq!(lane.cache, alone.cache, "{what}: cache");
}

#[test]
fn figure4_lanes_match_standalone_runs_and_share_one_timing() {
    let config = ExperimentConfig {
        inst_limit: LIMIT,
        ..ExperimentConfig::quick()
    };
    let machine = &config.machine;
    let profile = profile_suite(&config);
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

    let mut checked = 0;
    for w in fua::workloads::all(config.scale) {
        let swapped = CompilerSwapPass::with_limit(LIMIT)
            .run(&w.program)
            .expect("the swap pass runs every kernel")
            .program;
        let variants: [(&str, &Program); 2] = [("original", &w.program), ("swapped", &swapped)];
        for (variant, program) in variants {
            let mut lanes: Vec<Lane> = suites
                .iter()
                .map(|(_, scheme)| Lane::new(machine, scheme.clone()))
                .collect();
            let results =
                Simulator::run_lanes(machine.clone(), &mut lanes, program, LIMIT).expect("runs");
            assert_eq!(results.len(), suites.len());
            for ((name, scheme), lane) in suites.iter().zip(&results) {
                let alone = Simulator::new(machine.clone(), scheme.clone())
                    .run_program(program, LIMIT)
                    .expect("runs");
                assert_same(lane, &alone, &format!("{} {variant} {name}", w.name));
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
fn estimator_lanes_attribute_exactly_like_standalone_runs() {
    for w in fua::workloads::all(1) {
        let runs = attribute_schemes(&w, &Scheme::ALL, LIMIT);
        assert_eq!(runs.len(), Scheme::ALL.len());
        for (scheme, run) in Scheme::ALL.iter().zip(&runs) {
            let mut sim = Simulator::with_sink(
                MachineConfig::paper_default(),
                scheme.config(),
                AttributionSink::new(),
            );
            let alone = sim.run_program(&w.program, LIMIT).expect("runs");
            let attribution =
                EnergyAttribution::build(w.name, scheme.label(), &w.program, sim.sink());
            let what = format!("{} {}", w.name, scheme.name());
            assert_eq!(run.attribution, attribution, "{what}: attribution");
            assert_same(&run.result, &alone, &what);
            assert!(
                run.exact(),
                "{what}: the lane's sites reassemble its ledger"
            );
        }
    }
}

#[test]
fn a_single_lane_run_is_the_one_lane_simulator() {
    let w = fua::workloads::by_name("compress", 1).expect("bundled workload");
    let machine = MachineConfig::paper_default();
    let scheme = SteeringConfig::paper_scheme(SteeringKind::Lut { slots: 2 }, true);
    let mut lanes = [Lane::new(&machine, scheme.clone())];
    let lane = Simulator::run_lanes(machine.clone(), &mut lanes, &w.program, LIMIT)
        .expect("runs")
        .remove(0);
    let alone = Simulator::new(machine, scheme)
        .run_program(&w.program, LIMIT)
        .expect("runs");
    assert_same(&lane, &alone, "compress lut4");
}
