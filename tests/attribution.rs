//! Integration: energy attribution must be an *exact partition* — the
//! per-site switched-bit sums must reproduce the final `EnergyLedger`
//! bit-for-bit for every steering scheme × swap variant, attaching the
//! sink must not perturb the simulation, and the parallel path must be
//! byte-identical to the serial one.

use fua::attr::{
    attribute_suite, attribute_workload, AttributionDiff, AttributionSink, EnergyAttribution,
    Scheme,
};
use fua::exec::Jobs;
use fua::isa::FuClass;
use fua::power::EnergyLedger;
use fua::sim::{Simulator, SteeringConfig};
use fua::steer::SteeringKind;
use fua::workloads::Workload;

const LIMIT: u64 = 10_000;

fn workload(name: &str) -> Workload {
    fua::workloads::by_name(name, 1).expect("bundled workload")
}

/// One integer and one floating-point workload exercise all four FU
/// classes (the FP programs still run integer address arithmetic).
fn sample_pair() -> [Workload; 2] {
    [workload("compress"), workload("turb3d")]
}

#[test]
fn attribution_is_an_exact_partition_for_every_scheme_and_swap() {
    for kind in SteeringKind::FIGURE4 {
        for hw_swap in [false, true] {
            for w in sample_pair() {
                let mut sim = Simulator::with_sink(
                    fua::sim::MachineConfig::paper_default(),
                    SteeringConfig::paper_scheme(kind, hw_swap),
                    AttributionSink::new(),
                );
                let result = sim.run_program(&w.program, LIMIT).expect("runs");
                let sink = sim.into_sink();

                // The site map is a partition of the run: re-summing it
                // must reproduce the simulator's own ledger exactly.
                assert_eq!(
                    sink.ledger(),
                    result.ledger,
                    "{kind:?} hw_swap={hw_swap} {}: site sums vs ledger",
                    w.name
                );

                // Provenance must be well-formed: every site points at a
                // real static instruction inside a real basic block.
                let profile =
                    EnergyAttribution::build(w.name, &format!("{kind:?}"), &w.program, &sink);
                assert_eq!(profile.ledger(), result.ledger);
                for row in profile.rows() {
                    assert!(
                        (row.key.pc as usize) < w.program.len(),
                        "{kind:?} hw_swap={hw_swap} {}: pc{} out of program range",
                        w.name,
                        row.key.pc
                    );
                    assert!(
                        row.block.is_some(),
                        "{kind:?} hw_swap={hw_swap} {}: pc{} resolved to no basic block",
                        w.name,
                        row.key.pc
                    );
                    assert_ne!(row.opcode, "?");
                }

                // The per-pc, per-case and per-module views are each a
                // re-grouping of the same partition.
                let total: u64 = result.ledger.total_switched_bits();
                assert_eq!(profile.pc_bits().values().sum::<u64>(), total);
                let by_case: u64 = FuClass::ALL
                    .iter()
                    .map(|c| profile.case_bits(*c).iter().sum::<u64>())
                    .sum();
                assert_eq!(by_case, total);
                let by_module: u64 = FuClass::ALL
                    .iter()
                    .map(|c| profile.module_bits(*c).iter().sum::<u64>())
                    .sum();
                assert_eq!(by_module, total);
            }
        }
    }
}

#[test]
fn profiled_run_is_cycle_identical_to_an_unprofiled_one() {
    for scheme in Scheme::ALL {
        for w in sample_pair() {
            let mut bare =
                Simulator::new(fua::sim::MachineConfig::paper_default(), scheme.config());
            let baseline = bare.run_program(&w.program, LIMIT).expect("runs");

            let run = attribute_workload(&w, scheme, LIMIT);
            assert_eq!(run.result.cycles, baseline.cycles, "{scheme:?} {}", w.name);
            assert_eq!(
                run.result.retired, baseline.retired,
                "{scheme:?} {}",
                w.name
            );
            assert_eq!(run.result.ledger, baseline.ledger, "{scheme:?} {}", w.name);
            assert!(run.exact(), "{scheme:?} {}: attribution not exact", w.name);
        }
    }
}

#[test]
fn parallel_attribution_is_byte_identical_to_serial() {
    let workloads = fua::workloads::all(1);
    let render = |runs: &Vec<fua::attr::AttributedRun>| {
        let mut flame = String::new();
        let mut json = String::new();
        for r in runs {
            flame.push_str(&r.attribution.collapsed_stacks());
            json.push_str(&r.attribution.to_json().pretty());
            json.push('\n');
        }
        (flame, json)
    };
    // The last input runs both schemes as lanes of one run per
    // workload; it must equal the two one-scheme suites before it.
    let mut one_scheme_suites = Vec::new();
    for schemes in [
        &[Scheme::Naive][..],
        &[Scheme::Lut4],
        &[Scheme::Naive, Scheme::Lut4],
    ] {
        let serial: Vec<_> = attribute_suite(&workloads, schemes, LIMIT, Jobs::serial())
            .iter()
            .map(render)
            .collect();
        let parallel: Vec<_> =
            attribute_suite(&workloads, schemes, LIMIT, Jobs::new(4).expect("positive"))
                .iter()
                .map(render)
                .collect();
        assert_eq!(serial, parallel, "{schemes:?}: jobs 4 vs 1");
        if schemes.len() == 1 {
            one_scheme_suites.extend(serial);
        } else {
            assert_eq!(
                serial, one_scheme_suites,
                "{schemes:?}: lanes vs one-scheme suites"
            );
        }
    }
}

#[test]
fn differential_attribution_of_identical_runs_is_zero() {
    for w in sample_pair() {
        let a = attribute_workload(&w, Scheme::Lut4, LIMIT);
        let b = attribute_workload(&w, Scheme::Lut4, LIMIT);
        let diff = AttributionDiff::between(&a.attribution, &b.attribution);
        assert!(diff.is_zero(), "{}: self-diff must be zero", w.name);
        assert_eq!(diff.total_delta(), 0);
        assert!(diff.movers.is_empty());
    }
}

#[test]
fn differential_attribution_reconciles_with_the_ledgers() {
    for w in sample_pair() {
        let a = attribute_workload(&w, Scheme::Naive, LIMIT);
        let b = attribute_workload(&w, Scheme::Lut4, LIMIT);
        let diff = AttributionDiff::between(&a.attribution, &b.attribution);

        let total = |l: &EnergyLedger| l.total_switched_bits();
        assert_eq!(diff.total_a, total(&a.result.ledger));
        assert_eq!(diff.total_b, total(&b.result.ledger));
        assert_eq!(
            diff.total_delta(),
            diff.total_b as i128 - diff.total_a as i128
        );

        // The movers decompose the total delta exactly.
        let mover_sum: i128 = diff.movers.iter().map(|m| m.delta).sum();
        assert_eq!(mover_sum, diff.total_delta(), "{}: movers", w.name);

        // And so do the per-class module/case splits.
        let class_sum: i128 = diff
            .classes
            .iter()
            .map(|c| c.module_delta.iter().sum::<i128>())
            .sum();
        assert_eq!(class_sum, diff.total_delta(), "{}: module split", w.name);
        let case_sum: i128 = diff
            .classes
            .iter()
            .map(|c| c.case_delta.iter().sum::<i128>())
            .sum();
        assert_eq!(case_sum, diff.total_delta(), "{}: case split", w.name);
    }
}

#[test]
fn flamegraph_weights_sum_to_the_ledger() {
    for w in sample_pair() {
        let run = attribute_workload(&w, Scheme::Lut4, LIMIT);
        let total: u64 = run.result.ledger.total_switched_bits();
        let mut sum = 0u64;
        for line in run.attribution.collapsed_stacks().lines() {
            let (frames, weight) = line.rsplit_once(' ').expect("collapsed-stack line");
            assert!(frames.starts_with(&format!("{};", w.name)));
            assert_eq!(frames.split(';').count(), 3, "workload;block;pc frames");
            sum += weight.parse::<u64>().expect("integer weight");
        }
        assert_eq!(sum, total, "{}: flame weights vs ledger", w.name);
    }
}
