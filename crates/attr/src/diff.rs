//! Differential attribution: where one steering scheme saves (or loses)
//! energy relative to another, aligned by static PC.

use fua_isa::FuClass;
use fua_trace::{Json, TextTable, ToJson};

use crate::{rank_suite, EnergyAttribution, EnergyProfile, MAX_MODULES};

/// One PC's movement between two schemes. `delta` is
/// `bits_b - bits_a`: negative means scheme B switched fewer bits at
/// this site (a saving), positive means it lost ground.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcDelta {
    /// Static program counter.
    pub pc: u32,
    /// Basic-block label for the PC.
    pub block: String,
    /// Opcode at the PC.
    pub opcode: String,
    /// Switched bits under scheme A.
    pub bits_a: u64,
    /// Switched bits under scheme B.
    pub bits_b: u64,
    /// `bits_b as i128 - bits_a as i128`.
    pub delta: i128,
}

/// A per-class breakdown of where the two schemes differ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassDelta {
    /// The FU class.
    pub class: FuClass,
    /// Per-module `bits_b - bits_a`, in module order.
    pub module_delta: [i128; MAX_MODULES],
    /// Per-case `bits_b - bits_a`, in [`Case::ALL`](fua_isa::Case::ALL) order.
    pub case_delta: [i128; 4],
}

impl ClassDelta {
    /// Whether every module and case moved by zero bits.
    pub fn is_zero(&self) -> bool {
        self.module_delta.iter().all(|&d| d == 0) && self.case_delta.iter().all(|&d| d == 0)
    }
}

/// A PC-aligned comparison of two attributions of the same workload.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionDiff {
    /// The workload both runs executed.
    pub workload: String,
    /// Scheme label of side A (the baseline of the comparison).
    pub scheme_a: String,
    /// Scheme label of side B.
    pub scheme_b: String,
    /// Total switched bits under scheme A.
    pub total_a: u64,
    /// Total switched bits under scheme B.
    pub total_b: u64,
    /// Per-class module/case movements, in [`FuClass::ALL`] order.
    pub classes: Vec<ClassDelta>,
    /// Every PC whose charge moved, sorted by |delta| descending (ties
    /// toward lower PCs).
    pub movers: Vec<PcDelta>,
}

impl AttributionDiff {
    /// Aligns two attributions of the same workload by PC.
    ///
    /// # Panics
    ///
    /// Panics if the two attributions name different workloads — the
    /// comparison would be meaningless.
    pub fn between(a: &EnergyAttribution, b: &EnergyAttribution) -> Self {
        assert_eq!(
            a.workload, b.workload,
            "differential attribution requires the same workload on both sides"
        );
        let bits_a = a.pc_bits();
        let bits_b = b.pc_bits();
        let pcs: std::collections::BTreeSet<u32> =
            bits_a.keys().chain(bits_b.keys()).copied().collect();
        let context = |pc: u32| -> (String, String) {
            // Prefer side B's resolution (same program ⇒ same answer);
            // fall back to A for PCs only it charged.
            for attr in [b, a] {
                if let Some(row) = attr.rows().iter().find(|r| r.key.pc == pc) {
                    return (attr.block_label(row.block).to_string(), row.opcode.clone());
                }
            }
            ("bb?".to_string(), "?".to_string())
        };
        let mut movers: Vec<PcDelta> = pcs
            .into_iter()
            .map(|pc| {
                let ba = bits_a.get(&pc).copied().unwrap_or(0);
                let bb = bits_b.get(&pc).copied().unwrap_or(0);
                let (block, opcode) = context(pc);
                PcDelta {
                    pc,
                    block,
                    opcode,
                    bits_a: ba,
                    bits_b: bb,
                    delta: bb as i128 - ba as i128,
                }
            })
            .filter(|d| d.delta != 0)
            .collect();
        movers.sort_by(|x, y| {
            y.delta
                .unsigned_abs()
                .cmp(&x.delta.unsigned_abs())
                .then(x.pc.cmp(&y.pc))
        });

        let classes = FuClass::ALL
            .iter()
            .map(|&class| {
                let (ma, mb) = (a.module_bits(class), b.module_bits(class));
                let (ca, cb) = (a.case_bits(class), b.case_bits(class));
                let mut module_delta = [0i128; MAX_MODULES];
                for (d, (&x, &y)) in module_delta.iter_mut().zip(ma.iter().zip(mb.iter())) {
                    *d = y as i128 - x as i128;
                }
                let mut case_delta = [0i128; 4];
                for (d, (&x, &y)) in case_delta.iter_mut().zip(ca.iter().zip(cb.iter())) {
                    *d = y as i128 - x as i128;
                }
                ClassDelta {
                    class,
                    module_delta,
                    case_delta,
                }
            })
            .collect();

        AttributionDiff {
            workload: a.workload.clone(),
            scheme_a: a.scheme.clone(),
            scheme_b: b.scheme.clone(),
            total_a: a.total_bits(),
            total_b: b.total_bits(),
            classes,
            movers,
        }
    }

    /// `total_b - total_a`.
    pub fn total_delta(&self) -> i128 {
        self.total_b as i128 - self.total_a as i128
    }

    /// Scheme B's saving relative to A, in percent of A's total
    /// (positive = B switches fewer bits). 0 when A's total is 0.
    pub fn saving_pct(&self) -> f64 {
        if self.total_a == 0 {
            0.0
        } else {
            100.0 * -(self.total_delta() as f64) / self.total_a as f64
        }
    }

    /// Whether the two attributions are bit-for-bit identical.
    pub fn is_zero(&self) -> bool {
        self.movers.is_empty() && self.classes.iter().all(ClassDelta::is_zero)
    }

    /// The diff as a JSON document (used by `--json` output).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::Str(self.workload.clone())),
            ("scheme_a", Json::Str(self.scheme_a.clone())),
            ("scheme_b", Json::Str(self.scheme_b.clone())),
            ("total_a", Json::UInt(self.total_a)),
            ("total_b", Json::UInt(self.total_b)),
            ("saving_pct", Json::Float(self.saving_pct())),
            (
                "classes",
                Json::Arr(
                    self.classes
                        .iter()
                        .filter(|c| !c.is_zero())
                        .map(|c| {
                            Json::obj([
                                ("class", Json::Str(c.class.to_string())),
                                (
                                    "module_delta",
                                    Json::Arr(
                                        c.module_delta
                                            .iter()
                                            .map(|&d| Json::Float(d as f64))
                                            .collect(),
                                    ),
                                ),
                                (
                                    "case_delta",
                                    Json::Arr(
                                        c.case_delta
                                            .iter()
                                            .map(|&d| Json::Float(d as f64))
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "movers",
                Json::Arr(
                    self.movers
                        .iter()
                        .map(|m| {
                            Json::obj([
                                ("pc", Json::UInt(m.pc as u64)),
                                ("block", Json::Str(m.block.clone())),
                                ("opcode", Json::Str(m.opcode.clone())),
                                ("bits_a", Json::UInt(m.bits_a)),
                                ("bits_b", Json::UInt(m.bits_b)),
                                ("delta", Json::Float(m.delta as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// `fua profile-energy --compare A B`'s report: both schemes attributed
/// over the same suite and diffed per workload. The text shows the
/// per-workload totals, the suite-wide top movers (side A's `top`) and
/// each side's per-module / per-case breakdown; the JSON is every diff.
#[derive(Debug)]
pub struct EnergyComparison {
    /// Side A, the baseline of the comparison.
    pub a: EnergyProfile,
    /// Side B, run over the same workloads in the same order.
    pub b: EnergyProfile,
    /// One diff per workload, B against A.
    pub diffs: Vec<AttributionDiff>,
}

impl EnergyComparison {
    /// Diffs every workload's B run against its A run.
    pub fn new(a: EnergyProfile, b: EnergyProfile) -> Self {
        let diffs = a
            .runs
            .iter()
            .zip(&b.runs)
            .map(|(ra, rb)| AttributionDiff::between(&ra.attribution, &rb.attribution))
            .collect();
        EnergyComparison { a, b, diffs }
    }

    /// The text report.
    pub fn render(&self) -> String {
        let mut totals = TextTable::new([
            "workload".to_string(),
            format!("bits A ({})", self.a.scheme.name()),
            format!("bits B ({})", self.b.scheme.name()),
            "delta".to_string(),
            "saving".to_string(),
        ]);
        for d in &self.diffs {
            totals.push_row([
                d.workload.clone(),
                d.total_a.to_string(),
                d.total_b.to_string(),
                d.total_delta().to_string(),
                format!("{:.2}%", d.saving_pct()),
            ]);
        }
        let movers = rank_suite(
            self.diffs
                .iter()
                .flat_map(|d| d.movers.iter().map(move |m| (d.workload.as_str(), m))),
            self.a.top,
            |m| m.delta.unsigned_abs(),
            |m| m.pc,
        );
        let mut table = TextTable::new([
            "workload", "pc", "block", "opcode", "bits A", "bits B", "delta",
        ]);
        for (w, m) in &movers {
            table.push_row([
                w.to_string(),
                format!("pc{}", m.pc),
                m.block.clone(),
                m.opcode.clone(),
                m.bits_a.to_string(),
                m.bits_b.to_string(),
                m.delta.to_string(),
            ]);
        }
        format!(
            "switched bits, {} (A) vs {} (B):\n{totals}\n\
             top {} mover(s) by |delta| (negative = B saves):\n{table}\n\
             per-module / per-case switched bits under A:\n{}\n\
             per-module / per-case switched bits under B:\n{}",
            self.a.scheme.label(),
            self.b.scheme.label(),
            movers.len(),
            self.a.breakdown_table(),
            self.b.breakdown_table()
        )
    }
}

impl ToJson for EnergyComparison {
    fn to_json(&self) -> Json {
        Json::Arr(self.diffs.iter().map(AttributionDiff::to_json).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AttributionSink;
    use fua_isa::{Case, IntReg, Program, ProgramBuilder};
    use fua_trace::{TraceEvent, TraceSink};

    fn program() -> Program {
        let r1 = IntReg::new(1);
        let mut b = ProgramBuilder::new();
        b.li(r1, 3);
        b.addi(r1, r1, -1);
        b.halt();
        b.build().unwrap()
    }

    fn attr(label: &str, charges: &[(u32, u8, u32)]) -> EnergyAttribution {
        let mut sink = AttributionSink::new();
        for &(pc, module, bits) in charges {
            sink.record(&TraceEvent::Energy {
                cycle: 0,
                serial: 0,
                pc,
                class: FuClass::IntAlu,
                module,
                case: Case::C00,
                bits,
            });
        }
        EnergyAttribution::build("w", label, &program(), &sink)
    }

    #[test]
    fn identical_attributions_diff_to_zero() {
        let a = attr("naive", &[(0, 0, 5), (1, 1, 7)]);
        let d = AttributionDiff::between(&a, &a.clone());
        assert!(d.is_zero());
        assert_eq!(d.total_delta(), 0);
        assert_eq!(d.saving_pct(), 0.0);
    }

    #[test]
    fn movers_are_ranked_by_absolute_delta() {
        let a = attr("naive", &[(0, 0, 10), (1, 0, 10)]);
        let b = attr("lut4", &[(0, 0, 2), (1, 0, 9)]);
        let d = AttributionDiff::between(&a, &b);
        assert_eq!(d.movers.len(), 2);
        assert_eq!(d.movers[0].pc, 0);
        assert_eq!(d.movers[0].delta, -8);
        assert_eq!(d.total_delta(), -9);
        assert!((d.saving_pct() - 45.0).abs() < 1e-9);
        let ialu = &d.classes[FuClass::IntAlu.index()];
        assert_eq!(ialu.module_delta[0], -9);
        assert_eq!(ialu.case_delta[Case::C00.index()], -9);
    }

    #[test]
    fn pcs_charged_on_only_one_side_still_align() {
        let a = attr("naive", &[(0, 0, 4)]);
        let b = attr("lut4", &[(1, 0, 6)]);
        let d = AttributionDiff::between(&a, &b);
        assert_eq!(d.movers.len(), 2);
        let gone = d.movers.iter().find(|m| m.pc == 0).unwrap();
        assert_eq!((gone.bits_a, gone.bits_b, gone.delta), (4, 0, -4));
        let new = d.movers.iter().find(|m| m.pc == 1).unwrap();
        assert_eq!((new.bits_a, new.bits_b, new.delta), (0, 6, 6));
        assert_ne!(new.opcode, "?", "context comes from whichever side has it");
    }

    #[test]
    #[should_panic(expected = "same workload")]
    fn mismatched_workloads_panic() {
        let a = attr("naive", &[(0, 0, 4)]);
        let mut sink = AttributionSink::new();
        sink.record(&TraceEvent::Energy {
            cycle: 0,
            serial: 0,
            pc: 0,
            class: FuClass::IntAlu,
            module: 0,
            case: Case::C00,
            bits: 1,
        });
        let other = EnergyAttribution::build("other", "lut4", &program(), &sink);
        AttributionDiff::between(&a, &other);
    }
}
