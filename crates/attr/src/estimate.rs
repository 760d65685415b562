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
use fua_isa::FuClass;
use fua_sim::MachineConfig;
use fua_trace::{Json, NullSink, TextTable, ToJson};
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

impl ToJson for EstimateCheck {
    fn to_json(&self) -> Json {
        let violations = self
            .violations
            .iter()
            .map(|v| {
                Json::obj([
                    ("pc", Json::UInt(v.pc as u64)),
                    ("bound_bits", Json::UInt(v.bound_bits)),
                    ("actual_bits", Json::UInt(v.actual_bits)),
                    ("ops", Json::UInt(v.ops)),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::Str(self.workload.clone())),
            ("scheme", Json::Str(self.scheme.clone())),
            ("pcs", Json::UInt(self.pcs as u64)),
            ("bound_bits", Json::UInt(self.bound_bits)),
            ("actual_bits", Json::UInt(self.actual_bits)),
            ("ratio", Json::Float(self.ratio())),
            ("sound", Json::Bool(self.sound())),
            (
                "worst_block",
                self.worst_block
                    .as_ref()
                    .map_or(Json::Null, |(label, ratio)| {
                        Json::obj([
                            ("block", Json::Str(label.clone())),
                            ("ratio", Json::Float(*ratio)),
                        ])
                    }),
            ),
            ("violations", Json::Arr(violations)),
        ])
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
        let (runs, _) = attribute_schemes(w, machine, schemes, limit, NullSink);
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

/// `fua estimate --verify`'s report: every workload × scheme check of
/// the static bounds against the measured attribution.
#[derive(Debug)]
pub struct EstimateVerification {
    /// The checks, scheme-major, each scheme's in workload order.
    checks: Vec<EstimateCheck>,
}

impl EstimateVerification {
    /// Checks every workload under every scheme ([`check_suite`]).
    pub fn run(workloads: &[Workload], schemes: &[Scheme], limit: u64, jobs: Jobs) -> Self {
        let checks = check_suite(workloads, schemes, limit, jobs)
            .into_iter()
            .flatten()
            .collect();
        EstimateVerification { checks }
    }

    /// Static bounds the measurement exceeded, over every check.
    pub fn violations(&self) -> usize {
        self.checks.iter().map(|c| c.violations.len()).sum()
    }

    /// The text report: one row per check, then the totals.
    pub fn render(&self) -> String {
        let mut t = TextTable::new([
            "workload",
            "scheme",
            "PCs",
            "bound bits",
            "actual bits",
            "ratio",
            "worst block",
            "sound",
        ]);
        for c in &self.checks {
            t.push_row([
                c.workload.clone(),
                c.scheme.clone(),
                c.pcs.to_string(),
                c.bound_bits.to_string(),
                c.actual_bits.to_string(),
                format!("{:.2}x", c.ratio()),
                c.worst_block
                    .as_ref()
                    .map_or_else(|| "-".to_string(), |(l, r)| format!("{l} ({r:.2}x)")),
                if c.sound() { "yes" } else { "NO" }.to_string(),
            ]);
        }
        let checks = self.checks.len();
        let mean = self.checks.iter().map(EstimateCheck::ratio).sum::<f64>() / checks.max(1) as f64;
        format!(
            "static-vs-dynamic soundness and precision:\n{t}\n\
             {checks} check(s), {} violation(s); mean bound/actual ratio {mean:.2}x",
            self.violations()
        )
    }
}

impl ToJson for EstimateVerification {
    fn to_json(&self) -> Json {
        Json::arr(&self.checks)
    }
}

/// The FU classes in [`FuClass::index`] order, the estimate tables'
/// class columns.
const ESTIMATE_CLASSES: [FuClass; 4] = [
    FuClass::IntAlu,
    FuClass::IntMul,
    FuClass::FpAlu,
    FuClass::FpMul,
];

/// One workload's static estimate under `scheme` as a JSON document.
fn estimate_json(scheme: Scheme, workload: &str, est: &TransitionEstimate) -> Json {
    let (bounded, definite) = est.coverage();
    let class_bits = est.class_bits_per_pass();
    let classes = ESTIMATE_CLASSES
        .iter()
        .map(|c| (c.to_string(), Json::UInt(class_bits[c.index()])))
        .collect();
    let pcs = est
        .pc_bounds()
        .map(|b| {
            Json::obj([
                ("pc", Json::UInt(b.pc as u64)),
                ("block", Json::Str(est.block_label(b.block))),
                ("opcode", Json::Str(b.opcode.clone())),
                ("class", Json::Str(b.class.to_string())),
                (
                    "case",
                    b.case.map_or(Json::Null, |c| Json::Str(c.to_string())),
                ),
                ("bits_per_op", Json::UInt(b.bits_per_op as u64)),
            ])
        })
        .collect();
    let blocks = est
        .blocks()
        .iter()
        .map(|b| {
            Json::obj([
                ("block", Json::Str(b.label.clone())),
                ("ops", Json::UInt(b.ops as u64)),
                ("bits_per_pass", Json::UInt(b.bits_per_pass)),
            ])
        })
        .collect();
    Json::obj([
        ("workload", Json::Str(workload.to_string())),
        ("scheme", Json::Str(scheme.name().to_string())),
        ("model", Json::Str(est.model().name().to_string())),
        ("bounded_pcs", Json::UInt(bounded as u64)),
        ("definite_cases", Json::UInt(definite as u64)),
        ("total_bits_per_pass", Json::UInt(est.total_bits_per_pass())),
        ("class_bits_per_pass", Json::Obj(classes)),
        ("pc_bounds", Json::Arr(pcs)),
        ("blocks", Json::Arr(blocks)),
    ])
}

/// `fua estimate`'s report: every workload's static switched-bit bounds
/// under one scheme. The text shows each workload's per-PC (or, with
/// `per_block`, per-block) table when there is one workload or
/// `per_block` is set, then a suite summary when there are several.
#[derive(Debug)]
pub struct EstimateReport {
    /// The scheme whose swap model the bounds assume.
    scheme: Scheme,
    /// Whether the per-workload tables aggregate per basic block.
    per_block: bool,
    /// `(workload, estimate)`, in workload order.
    estimates: Vec<(String, TransitionEstimate)>,
}

impl EstimateReport {
    /// Estimates every workload under `scheme`'s swap model, fanning
    /// the workloads out across `jobs` workers.
    pub fn run(workloads: &[Workload], scheme: Scheme, per_block: bool, jobs: Jobs) -> Self {
        let model = scheme.swap_model();
        let estimates = map_indexed(jobs, workloads, |_, w| {
            (w.name.to_string(), estimate_transitions(&w.program, model))
        });
        EstimateReport {
            scheme,
            per_block,
            estimates,
        }
    }

    /// The text report.
    pub fn render(&self) -> String {
        let label = self.scheme.label();
        let model = self.scheme.swap_model().name();
        let mut out = Vec::new();
        let several = self.estimates.len() > 1;
        for (w, est) in &self.estimates {
            if several && !self.per_block {
                continue;
            }
            let (bounded, definite) = est.coverage();
            let table = if self.per_block {
                let mut t = TextTable::new(["block", "ops", "bits/pass"]);
                for b in est.blocks() {
                    t.push_row([
                        b.label.clone(),
                        b.ops.to_string(),
                        b.bits_per_pass.to_string(),
                    ]);
                }
                t
            } else {
                let mut t = TextTable::new(["pc", "block", "opcode", "class", "case", "bits/op"]);
                for b in est.pc_bounds() {
                    t.push_row([
                        format!("pc{}", b.pc),
                        est.block_label(b.block),
                        b.opcode.clone(),
                        b.class.to_string(),
                        b.case.map_or_else(|| "?".to_string(), |c| c.to_string()),
                        b.bits_per_op.to_string(),
                    ]);
                }
                t
            };
            out.push(format!(
                "{w}: static switched-bit bounds under {label} ({model} operand order)"
            ));
            out.push(table.to_string());
            out.push(format!(
                "{bounded} FU instruction(s) bounded ({definite} with a definite case); \
                 <= {} bits per straight-line pass\n",
                est.total_bits_per_pass()
            ));
        }
        if several {
            let mut headers = vec![
                "workload".to_string(),
                "PCs".to_string(),
                "definite".to_string(),
                "bits/pass".to_string(),
            ];
            headers.extend(ESTIMATE_CLASSES.iter().map(|c| c.to_string()));
            let mut t = TextTable::new(headers);
            for (w, est) in &self.estimates {
                let (bounded, definite) = est.coverage();
                let class_bits = est.class_bits_per_pass();
                let mut row = vec![
                    w.clone(),
                    bounded.to_string(),
                    definite.to_string(),
                    est.total_bits_per_pass().to_string(),
                ];
                row.extend(
                    ESTIMATE_CLASSES
                        .iter()
                        .map(|c| class_bits[c.index()].to_string()),
                );
                t.push_row(row);
            }
            out.push(format!(
                "static bits/pass upper bounds under {label} ({model} operand order):"
            ));
            out.push(t.to_string());
        }
        out.join("\n")
    }
}

impl ToJson for EstimateReport {
    fn to_json(&self) -> Json {
        Json::Arr(
            self.estimates
                .iter()
                .map(|(w, e)| estimate_json(self.scheme, w, e))
                .collect(),
        )
    }
}

/// `fua estimate --compare A B`'s report: every workload's static
/// bits-per-pass bound under both schemes.
#[derive(Debug)]
pub struct EstimateComparison {
    /// Side B runs over the same workloads in the same order as A.
    a: EstimateReport,
    b: EstimateReport,
}

impl EstimateComparison {
    /// Estimates every workload under both schemes' swap models.
    pub fn run(workloads: &[Workload], scheme_a: Scheme, scheme_b: Scheme, jobs: Jobs) -> Self {
        EstimateComparison {
            a: EstimateReport::run(workloads, scheme_a, false, jobs),
            b: EstimateReport::run(workloads, scheme_b, false, jobs),
        }
    }

    /// Each workload's `(name, A's estimate, B's estimate)`.
    fn pairs(&self) -> impl Iterator<Item = (&str, &TransitionEstimate, &TransitionEstimate)> {
        self.a
            .estimates
            .iter()
            .zip(&self.b.estimates)
            .map(|((w, ea), (_, eb))| (w.as_str(), ea, eb))
    }

    /// The text report: one row per workload with both bounds and their
    /// difference.
    pub fn render(&self) -> String {
        let mut t = TextTable::new([
            "workload".to_string(),
            format!("bits/pass A ({})", self.a.scheme.name()),
            format!("bits/pass B ({})", self.b.scheme.name()),
            "delta".to_string(),
        ]);
        for (w, ea, eb) in self.pairs() {
            let (a, b) = (ea.total_bits_per_pass(), eb.total_bits_per_pass());
            t.push_row([
                w.to_string(),
                a.to_string(),
                b.to_string(),
                (b as i64 - a as i64).to_string(),
            ]);
        }
        format!(
            "static bits/pass bounds, {} (A) vs {} (B):\n{t}",
            self.a.scheme.label(),
            self.b.scheme.label()
        )
    }
}

impl ToJson for EstimateComparison {
    fn to_json(&self) -> Json {
        Json::Arr(
            self.pairs()
                .map(|(w, ea, eb)| {
                    Json::obj([
                        ("workload", Json::Str(w.to_string())),
                        ("a", estimate_json(self.a.scheme, w, ea)),
                        ("b", estimate_json(self.b.scheme, w, eb)),
                    ])
                })
                .collect(),
        )
    }
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
