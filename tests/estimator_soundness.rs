//! Integration: the static switched-bit estimator's soundness property.
//!
//! For every bundled workload, every named steering scheme, and every
//! swap setting, the static per-PC bound must dominate the bits the
//! exact dynamic attribution measures at that PC:
//! `bits_per_op × ops(pc) ≥ measured_bits(pc)`. The estimator only
//! knows the scheme's swap model (program order vs either order for
//! commutative ops), so one estimate per model covers every scheme that
//! shares it — which is exactly what these tests exercise.

use fua::analysis::{estimate_transitions, SwapModel};
use fua::attr::{check_attribution, check_workload, AttributionSink, EnergyAttribution, Scheme};
use fua::sim::{Lane, MachineConfig, NullProfiler, Simulator, SteeringConfig};
use fua::steer::SteeringKind;
use fua::trace::NullSink;
use fua::workloads::Workload;

/// Retired-instruction cap per run: enough to execute every kernel's
/// hot loop several times while keeping 15 × 6 × 2 runs fast.
const LIMIT: u64 = 2_000;

/// Runs `w` once with an attributed lane per labelled steering
/// configuration and returns each lane's attribution, in order.
fn attribute_lanes(w: &Workload, configs: Vec<(SteeringConfig, &str)>) -> Vec<EnergyAttribution> {
    let machine = MachineConfig::paper_default();
    let labels: Vec<&str> = configs.iter().map(|(_, label)| *label).collect();
    let mut lanes: Vec<_> = configs
        .into_iter()
        .map(|(config, _)| Lane::with_sink(&machine, config, AttributionSink::new()))
        .collect();
    Simulator::run_lanes(
        machine,
        NullSink,
        NullProfiler,
        &mut lanes,
        &w.program,
        LIMIT,
    )
    .expect("workload runs");
    lanes
        .iter()
        .zip(labels)
        .map(|(lane, label)| EnergyAttribution::build(w.name, label, &w.program, lane.sink()))
        .collect()
}

#[test]
fn bounds_dominate_attribution_for_every_workload_and_scheme() {
    for w in fua::workloads::all(1) {
        for scheme in Scheme::ALL {
            let check = check_workload(&w, scheme, LIMIT);
            assert!(
                check.sound(),
                "{} under {}: {} violated bound(s), first {:?}",
                w.name,
                scheme.name(),
                check.violations.len(),
                check.violations.first()
            );
            assert!(check.pcs > 0, "{}: nothing charged", w.name);
            assert!(
                check.ratio() >= 1.0,
                "{} under {}: aggregate ratio {} < 1",
                w.name,
                scheme.name(),
                check.ratio()
            );
        }
    }
}

#[test]
fn bounds_dominate_attribution_with_hardware_swap_disabled() {
    // The named schemes all enable the hardware swap; cover the
    // swap-disabled variants explicitly. With `hardware_swap: false`
    // no swap rule is installed and the policies get no swap
    // permission, so operands latch in program order and the Direct
    // model must already be sound.
    let kinds = [
        (SteeringKind::FullHam, "fullham/noswap"),
        (SteeringKind::OneBitHam, "1bitham/noswap"),
        (SteeringKind::Lut { slots: 1 }, "lut2/noswap"),
        (SteeringKind::Lut { slots: 2 }, "lut4/noswap"),
        (SteeringKind::Lut { slots: 4 }, "lut8/noswap"),
    ];
    for w in fua::workloads::all(1) {
        let est = estimate_transitions(&w.program, SwapModel::Direct);
        let configs = kinds
            .iter()
            .map(|&(kind, label)| (SteeringConfig::paper_scheme(kind, false), label))
            .collect();
        for (attribution, (_, label)) in attribute_lanes(&w, configs).iter().zip(kinds) {
            let check = check_attribution(&est, attribution);
            assert!(
                check.sound(),
                "{} under {label}: {:?}",
                w.name,
                check.violations.first()
            );
            assert!(check.ratio() >= 1.0, "{} under {label}", w.name);
        }
    }
}

#[test]
fn the_either_model_also_covers_swap_free_runs() {
    // Either admits a superset of Direct's latch orders, so the looser
    // estimate must stay sound against the naive machine too — the
    // containment the per-scheme model assignment relies on.
    for name in ["compress", "turb3d"] {
        let w = fua::workloads::by_name(name, 1).unwrap();
        let est = estimate_transitions(&w.program, SwapModel::Either);
        let runs = attribute_lanes(&w, vec![(SteeringConfig::original(), "naive")]);
        let check = check_attribution(&est, &runs[0]);
        assert!(check.sound(), "{name}: {:?}", check.violations.first());
    }
}
