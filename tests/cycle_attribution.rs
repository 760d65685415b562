//! Integration: cycle attribution must be an *exact partition* — every
//! issue slot of every cycle lands in exactly one stall-taxonomy
//! bucket, so the per-site slot sums must equal `cycles × issue_width`
//! bit-for-bit for every steering scheme × swap variant, attaching the
//! stall/dependence sinks must not perturb the simulation, and the
//! parallel path must be byte-identical to the serial one.

use fua::attr::{profile_cycles_suite, profile_cycles_workload, CriticalPath, Scheme};
use fua::exec::Jobs;
use fua::sim::{MachineConfig, Simulator, SteeringConfig};
use fua::steer::SteeringKind;
use fua::trace::{DepSink, StallReason, StallSink};
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
fn stall_slots_partition_the_issue_bandwidth_for_every_scheme_and_swap() {
    for kind in SteeringKind::FIGURE4 {
        for hw_swap in [false, true] {
            for w in sample_pair() {
                let machine = MachineConfig::paper_default();
                let issue_width = machine.issue_width() as u64;
                let mut sim = Simulator::with_sink(
                    machine,
                    SteeringConfig::paper_scheme(kind, hw_swap),
                    StallSink::new(),
                );
                let result = sim.run_program(&w.program, LIMIT).expect("runs");
                let sink = sim.into_sink();

                // The exact-partition invariant: summed slot counts
                // equal cycles × issue width, for every configuration.
                assert_eq!(
                    sink.total_slots(),
                    result.cycles * issue_width,
                    "{kind:?} hw_swap={hw_swap} {}: slot sums vs issue bandwidth",
                    w.name
                );

                // Re-grouping by reason is the same partition, and the
                // machine did issue work (the taxonomy is not all-stall).
                let totals = sink.reason_totals();
                assert_eq!(totals.iter().sum::<u64>(), sink.total_slots());
                assert!(totals[StallReason::Issued.index()] > 0);

                // Provenance must be well-formed: any culprit PC points
                // into the program text.
                for (key, _) in sink.sites() {
                    if let Some(pc) = key.pc {
                        assert!(
                            (pc as usize) < w.program.len(),
                            "{kind:?} hw_swap={hw_swap} {}: pc{pc} out of range",
                            w.name
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn profiled_run_is_cycle_identical_to_an_unprofiled_one() {
    for scheme in Scheme::ALL {
        for w in sample_pair() {
            let mut bare = Simulator::new(MachineConfig::paper_default(), scheme.config());
            let baseline = bare.run_program(&w.program, LIMIT).expect("runs");

            let run = profile_cycles_workload(&w, scheme, LIMIT);
            assert_eq!(run.result.cycles, baseline.cycles, "{scheme:?} {}", w.name);
            assert_eq!(
                run.result.retired, baseline.retired,
                "{scheme:?} {}",
                w.name
            );
            assert_eq!(run.result.ledger, baseline.ledger, "{scheme:?} {}", w.name);
            assert!(
                run.exact(),
                "{scheme:?} {}: cycle attribution not exact",
                w.name
            );
            assert_eq!(
                run.cycles.total_slots(),
                baseline.cycles * run.cycles.issue_width,
                "{scheme:?} {}",
                w.name
            );
        }
    }
}

#[test]
fn critical_path_is_causally_ordered_and_fits_the_run() {
    for w in sample_pair() {
        let run = profile_cycles_workload(&w, Scheme::Lut4, LIMIT);
        let nodes = run.path.nodes();
        assert!(!nodes.is_empty(), "{}: empty critical path", w.name);
        assert!(run.path.span_cycles() <= run.result.cycles);
        let coverage = run.path.coverage(run.result.cycles);
        assert!(coverage > 0.0 && coverage <= 1.0, "{}: {coverage}", w.name);
        for pair in nodes.windows(2) {
            // Each predecessor's result must be available before (or
            // exactly when) its consumer issues, and serials ascend.
            assert!(pair[0].serial < pair[1].serial, "{}: serial order", w.name);
            assert!(
                pair[0].done_cycle <= pair[1].issue_cycle,
                "{}: #{}/done{} feeds #{}/issue{}",
                w.name,
                pair[0].serial,
                pair[0].done_cycle,
                pair[1].serial,
                pair[1].issue_cycle
            );
        }
        // The span splits exactly into frontend (dispatch) waits and
        // each node's time past the later of its producer's completion
        // and its own dispatch; the first node has no producer.
        let mut accounted = 0;
        for (i, n) in nodes.iter().enumerate() {
            assert!(n.dispatch_cycle <= n.issue_cycle);
            assert!(n.issue_cycle < n.done_cycle);
            assert!(
                n.operand_wait + n.structural_wait <= n.issue_cycle - n.dispatch_cycle,
                "{}: #{} waits exceed the dispatch-to-issue window",
                w.name,
                n.serial
            );
            // Dispatch runs after issue in a cycle, so `dispatch + 1` is
            // the earliest issue: issuing then is no structural wait.
            if n.issue_cycle == n.dispatch_cycle + 1 {
                assert_eq!(n.structural_wait, 0, "{}: #{}", w.name, n.serial);
            }
            let producer_done = if i == 0 {
                n.dispatch_cycle
            } else {
                nodes[i - 1].done_cycle
            };
            assert_eq!(
                n.dispatch_wait,
                n.dispatch_cycle.saturating_sub(producer_done),
                "{}: #{}",
                w.name,
                n.serial
            );
            accounted += n.dispatch_wait + n.done_cycle - producer_done.max(n.dispatch_cycle);
        }
        assert_eq!(
            run.path.span_cycles(),
            accounted,
            "{}: span identity",
            w.name
        );
        assert_eq!(
            CriticalPath::extract(&w.program, &DepSink::new()).nodes(),
            []
        );
    }
}

#[test]
fn cycle_flamegraph_weights_cover_every_issue_slot() {
    for w in sample_pair() {
        let run = profile_cycles_workload(&w, Scheme::Lut4, LIMIT);
        let mut sum = 0u64;
        for line in run.cycles.collapsed_stacks().lines() {
            let (frames, weight) = line.rsplit_once(' ').expect("collapsed-stack line");
            assert!(frames.starts_with(&format!("{};", w.name)));
            sum += weight.parse::<u64>().expect("integer weight");
        }
        assert_eq!(
            sum,
            run.result.cycles * run.cycles.issue_width,
            "{}: flame weights vs issue bandwidth",
            w.name
        );
    }
}

#[test]
fn parallel_cycle_profiling_is_byte_identical_to_serial() {
    let workloads = fua::workloads::all(1);
    for scheme in [Scheme::Naive, Scheme::Lut4] {
        let serial = profile_cycles_suite(&workloads, scheme, LIMIT, Jobs::serial());
        // Every bucket of the taxonomy is one this machine fills.
        for reason in StallReason::ALL {
            let slots: u64 = serial
                .iter()
                .map(|r| r.cycles.reason_totals()[reason.index()])
                .sum();
            assert!(slots > 0, "{scheme:?}: no slot ever {}", reason.name());
        }
        let parallel =
            profile_cycles_suite(&workloads, scheme, LIMIT, Jobs::new(4).expect("positive"));
        let render = |runs: &[fua::attr::CycleProfiledRun]| {
            let mut flame = String::new();
            let mut json = String::new();
            for r in runs {
                flame.push_str(&r.cycles.collapsed_stacks());
                json.push_str(&r.cycles.to_json().pretty());
                json.push_str(&r.path.to_json(r.result.cycles).pretty());
                json.push('\n');
            }
            (flame, json)
        };
        assert_eq!(
            render(&serial),
            render(&parallel),
            "{scheme:?}: jobs 4 vs 1"
        );
    }
}
