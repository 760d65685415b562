//! Integration: steering is a power optimisation, never a semantic or
//! timing change. Every policy must retire the same instructions, issue
//! the same operation counts per FU class, and never exceed the
//! baseline's switched bits on the units it optimises (for the
//! cost-aware policies).

use fua::isa::FuClass;
use fua::sim::{MachineConfig, SimResult, Simulator, SteeringConfig};
use fua::steer::SteeringKind;

const LIMIT: u64 = 40_000;

fn run(workload: &str, kind: SteeringKind, swap: bool) -> SimResult {
    let w = fua::workloads::by_name(workload, 1).expect("bundled workload");
    let mut sim = Simulator::new(
        MachineConfig::paper_default(),
        SteeringConfig::paper_scheme(kind, swap),
    );
    sim.run_program(&w.program, LIMIT).expect("runs")
}

#[test]
fn all_policies_execute_identical_work() {
    for workload in ["compress", "go", "swim", "turb3d"] {
        let baseline = run(workload, SteeringKind::Original, false);
        for kind in SteeringKind::FIGURE4 {
            let r = run(workload, kind, true);
            assert_eq!(
                r.retired, baseline.retired,
                "{workload}/{kind}: retire count"
            );
            assert_eq!(r.cycles, baseline.cycles, "{workload}/{kind}: cycle count");
            for class in FuClass::ALL {
                assert_eq!(
                    r.ledger.ops(class),
                    baseline.ledger.ops(class),
                    "{workload}/{kind}: op count on {class}"
                );
            }
        }
    }
}

#[test]
fn full_ham_never_loses_to_fcfs() {
    // Full Ham optimises each cycle exactly; over any workload it cannot
    // switch more bits than arrival-order routing on the duplicated
    // units.
    for workload in ["compress", "li", "mgrid", "fpppp"] {
        let baseline = run(workload, SteeringKind::Original, false);
        let optimal = run(workload, SteeringKind::FullHam, false);
        for class in [FuClass::IntAlu, FuClass::FpAlu] {
            assert!(
                optimal.ledger.switched_bits(class) <= baseline.ledger.switched_bits(class),
                "{workload}: Full Ham regressed on {class}: {} > {}",
                optimal.ledger.switched_bits(class),
                baseline.ledger.switched_bits(class)
            );
        }
    }
}

#[test]
fn swapping_preserves_timing() {
    // Operand swapping changes which port sees which value, never when
    // anything executes.
    for workload in ["ijpeg", "hydro2d"] {
        let plain = run(workload, SteeringKind::Lut { slots: 2 }, false);
        let swapped = run(workload, SteeringKind::Lut { slots: 2 }, true);
        assert_eq!(plain.cycles, swapped.cycles, "{workload}: cycles changed");
        assert_eq!(plain.retired, swapped.retired);
        assert!(swapped.swaps.rule_swaps > 0, "{workload}: rule never fired");
    }
}

#[test]
fn single_module_units_are_untouched_by_steering() {
    // Multipliers have one module; every policy must charge them
    // identically.
    let baseline = run("ijpeg", SteeringKind::Original, false);
    for kind in SteeringKind::FIGURE4 {
        let r = run("ijpeg", kind, false);
        assert_eq!(
            r.ledger.switched_bits(FuClass::IntMul),
            baseline.ledger.switched_bits(FuClass::IntMul),
            "{kind} perturbed the single-module multiplier"
        );
    }
}
