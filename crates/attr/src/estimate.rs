//! The static-vs-dynamic join: checks a [`TransitionEstimate`]'s per-PC
//! bounds against exact measured attribution, and summarises how tight
//! they are.
//!
//! Soundness is per PC: `bits_per_op × ops(pc)` must dominate the bits
//! the [`EnergyAttribution`] measured at that PC, for every scheme whose
//! swap behaviour the estimate's [`SwapModel`](fua_analysis::SwapModel)
//! covers. Precision is the aggregate `bound / actual` ratio, with the
//! least precise basic block called out so regressions have an address.

use std::collections::BTreeMap;

use fua_analysis::{estimate_transitions, SwapModel, TransitionEstimate};
use fua_exec::{map_indexed, Jobs};
use fua_sim::{MachineConfig, NullProfiler};
use fua_trace::NullSink;
use fua_workloads::Workload;

use crate::{attribute_schemes, attribute_workload, AttributedRun, EnergyAttribution, Scheme};

/// One soundness violation: a PC whose measured switched bits exceed
/// the static bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundViolation {
    /// The offending static PC.
    pub pc: u32,
    /// `bits_per_op × ops` — the static ceiling for the PC.
    pub bound_bits: u64,
    /// The bits the attribution actually measured there.
    pub actual_bits: u64,
    /// Operations issued from the PC.
    pub ops: u64,
}

/// The result of checking one workload's estimate against one measured
/// attribution.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateCheck {
    /// The workload checked.
    pub workload: String,
    /// The scheme label the attribution ran under.
    pub scheme: String,
    /// Charged PCs compared.
    pub pcs: usize,
    /// `Σ bits_per_op × ops` over the charged PCs.
    pub bound_bits: u64,
    /// `Σ measured bits` over the charged PCs.
    pub actual_bits: u64,
    /// Every PC whose measurement exceeds its bound (empty = sound).
    pub violations: Vec<BoundViolation>,
    /// `(block label, bound/actual ratio)` of the least precise block
    /// among blocks with a non-zero measurement.
    pub worst_block: Option<(String, f64)>,
}

impl EstimateCheck {
    /// Whether every per-PC bound dominated its measurement.
    pub fn sound(&self) -> bool {
        self.violations.is_empty()
    }

    /// The aggregate `bound / actual` ratio (1.0 would be an exact
    /// estimate; soundness requires ≥ 1.0 in aggregate). A run with no
    /// measured bits reports 1.0.
    pub fn ratio(&self) -> f64 {
        if self.actual_bits == 0 {
            1.0
        } else {
            self.bound_bits as f64 / self.actual_bits as f64
        }
    }
}

/// Joins a static estimate with a measured attribution of the same
/// program.
///
/// Every PC the attribution charged is compared against its static
/// bound; a charged PC with *no* bound (impossible for an estimate of
/// the same program, since executed code is reachable) counts as a
/// violation with a zero ceiling rather than a panic, so foreign data
/// degrades loudly but safely.
pub fn check_attribution(est: &TransitionEstimate, attr: &EnergyAttribution) -> EstimateCheck {
    // Collapse the (pc, class, module, case) rows to per-PC totals.
    let mut per_pc: BTreeMap<u32, (u64, u64, Option<usize>)> = BTreeMap::new();
    for row in attr.rows() {
        let entry = per_pc.entry(row.key.pc).or_insert((0, 0, row.block));
        entry.0 += row.stat.bits;
        entry.1 += row.stat.ops;
    }

    let mut bound_bits = 0u64;
    let mut actual_bits = 0u64;
    let mut violations = Vec::new();
    let mut per_block: BTreeMap<Option<usize>, (u64, u64)> = BTreeMap::new();
    for (&pc, &(bits, ops, block)) in &per_pc {
        let ceiling = est
            .bound_of(pc as usize)
            .map_or(0, |b| b.bits_per_op as u64 * ops);
        bound_bits += ceiling;
        actual_bits += bits;
        if bits > ceiling {
            violations.push(BoundViolation {
                pc,
                bound_bits: ceiling,
                actual_bits: bits,
                ops,
            });
        }
        let blk = per_block.entry(block).or_insert((0, 0));
        blk.0 += ceiling;
        blk.1 += bits;
    }

    let worst_block = per_block
        .iter()
        .filter(|(_, &(_, bits))| bits > 0)
        .map(|(&block, &(bound, bits))| {
            (
                attr.block_label(block).to_string(),
                bound as f64 / bits as f64,
            )
        })
        .max_by(|a, b| a.1.total_cmp(&b.1).then_with(|| b.0.cmp(&a.0)));

    EstimateCheck {
        workload: attr.workload.clone(),
        scheme: attr.scheme.clone(),
        pcs: per_pc.len(),
        bound_bits,
        actual_bits,
        violations,
        worst_block,
    }
}

/// Estimates `w` under `scheme`'s swap model, runs the exact dynamic
/// attribution, and joins the two.
pub fn check_workload(w: &Workload, scheme: Scheme, limit: u64) -> EstimateCheck {
    let est = estimate_transitions(&w.program, scheme.swap_model());
    let run = attribute_workload(w, scheme, limit);
    check_attribution(&est, &run.attribution)
}

/// Joins one workload's attributed runs, one per scheme in `schemes` and
/// in that order, against the static bounds under each scheme's swap
/// model; each model is estimated once.
pub fn check_runs(w: &Workload, schemes: &[Scheme], runs: &[AttributedRun]) -> Vec<EstimateCheck> {
    let direct = estimate_transitions(&w.program, SwapModel::Direct);
    let either = estimate_transitions(&w.program, SwapModel::Either);
    schemes
        .iter()
        .zip(runs)
        .map(|(scheme, run)| {
            let est = match scheme.swap_model() {
                SwapModel::Direct => &direct,
                SwapModel::Either => &either,
            };
            check_attribution(est, &run.attribution)
        })
        .collect()
}

/// Checks every workload under every scheme in `schemes`, fanning the
/// workloads out across `jobs` workers. Each workload runs once on the
/// paper's machine, with a steering lane per scheme
/// ([`attribute_schemes`]), and is joined by [`check_runs`]. Returns
/// one `Vec` per scheme, in `schemes` order, each in workload-index
/// order — equal to [`check_workload`] per (workload, scheme), and
/// byte-identical to the serial pass for any worker count.
pub fn check_suite(
    workloads: &[Workload],
    schemes: &[Scheme],
    limit: u64,
    jobs: Jobs,
) -> Vec<Vec<EstimateCheck>> {
    let per_workload = map_indexed(jobs, workloads, |_, w| {
        let machine = MachineConfig::paper_default();
        let (runs, ..) = attribute_schemes(w, machine, schemes, limit, NullSink, NullProfiler);
        check_runs(w, schemes, &runs)
    });
    (0..schemes.len())
        .map(|s| {
            per_workload
                .iter()
                .map(|checks| checks[s].clone())
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fua_analysis::SwapModel;

    #[test]
    fn compress_bounds_dominate_measurement_under_every_scheme() {
        let w = fua_workloads::by_name("compress", 1).unwrap();
        for scheme in Scheme::ALL {
            let check = check_workload(&w, scheme, 2_000);
            assert!(
                check.sound(),
                "{}: {:?}",
                scheme.name(),
                check.violations.first()
            );
            assert!(check.pcs > 0);
            assert!(check.ratio() >= 1.0, "{}: {}", scheme.name(), check.ratio());
            assert!(check.worst_block.is_some());
        }
    }

    #[test]
    fn a_deflated_bound_is_reported_as_a_violation() {
        // Fabricate the mismatch directly: an estimate of a bare-halt
        // program carries no bounds, so every PC the real run charged
        // violates its zero ceiling.
        let w = fua_workloads::by_name("compress", 1).unwrap();
        let run = attribute_workload(&w, Scheme::Lut4, 2_000);
        let mut b = fua_isa::ProgramBuilder::new();
        b.halt();
        let est = estimate_transitions(&b.build().unwrap(), SwapModel::Either);
        let check = check_attribution(&est, &run.attribution);
        assert!(!check.sound());
        assert_eq!(check.bound_bits, 0);
        assert!(check.actual_bits > 0);
    }

    #[test]
    fn parallel_checks_match_serial() {
        let workloads: Vec<Workload> = ["compress", "turb3d"]
            .iter()
            .map(|n| fua_workloads::by_name(n, 1).unwrap())
            .collect();
        let serial = check_suite(&workloads, &Scheme::ALL, 1_500, Jobs::serial());
        let parallel = check_suite(&workloads, &Scheme::ALL, 1_500, Jobs::new(3).unwrap());
        assert_eq!(serial, parallel);
        // One lane per scheme reproduces each scheme's own run.
        for (scheme, checks) in Scheme::ALL.iter().zip(&serial) {
            for (w, check) in workloads.iter().zip(checks) {
                assert_eq!(*check, check_workload(w, *scheme, 1_500));
            }
        }
    }
}
