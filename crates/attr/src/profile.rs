//! Built attributions: sites resolved against the program's CFG, hotspot
//! ranking and collapsed-stack (flamegraph) export.

use std::collections::BTreeMap;

use fua_analysis::Cfg;
use fua_isa::{FuClass, Program};
use fua_power::EnergyLedger;
use fua_trace::Json;

use crate::{AttributionSink, SiteKey, SiteStat, MAX_MODULES};

/// One attributed site with its CFG context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteRow {
    /// The charge site.
    pub key: SiteKey,
    /// Accumulated charges.
    pub stat: SiteStat,
    /// Basic block owning `key.pc` (`None` if the PC is outside the
    /// program text — impossible for a well-formed trace, but the
    /// mapping never panics on foreign data).
    pub block: Option<usize>,
    /// The instruction's opcode rendered (`"?"` for an out-of-text PC).
    pub opcode: String,
}

/// One entry of the per-PC hotspot ranking.
#[derive(Debug, Clone, PartialEq)]
pub struct Hotspot {
    /// Static program counter.
    pub pc: u32,
    /// Basic-block label (`"bb?"` for an out-of-text PC).
    pub block: String,
    /// Opcode at the PC.
    pub opcode: String,
    /// Switched bits attributed to the PC (all classes/modules/cases).
    pub bits: u64,
    /// Operations issued from the PC.
    pub ops: u64,
    /// Share of the run's total switched bits, in percent.
    pub share_pct: f64,
}

/// A complete attribution of one run's energy ledger to static sites.
///
/// Built from an [`AttributionSink`] plus the program it observed; rows
/// are stored in (pc, class, module, case) order, so every derived
/// rendering is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyAttribution {
    /// The workload the run executed.
    pub workload: String,
    /// Label of the steering scheme the run used.
    pub scheme: String,
    rows: Vec<SiteRow>,
    block_labels: Vec<String>,
}

pub(crate) fn frame(s: &str) -> String {
    // Collapsed-stack frames are `;`-separated and the weight is split
    // off at the last space, so neither may appear inside a frame;
    // control characters would corrupt the line structure.
    s.chars()
        .map(|c| {
            if c == ';' || c.is_whitespace() || c.is_control() {
                '_'
            } else {
                c
            }
        })
        .collect()
}

impl EnergyAttribution {
    /// Resolves a sink's sites against `program`'s CFG.
    pub fn build(workload: &str, scheme: &str, program: &Program, sink: &AttributionSink) -> Self {
        let cfg = Cfg::build(program);
        let insts = program.insts();
        let rows = sink
            .sites()
            .map(|(key, stat)| SiteRow {
                key,
                stat,
                block: cfg.try_block_of(key.pc as usize),
                opcode: insts
                    .get(key.pc as usize)
                    .map_or_else(|| "?".to_string(), |i| i.op.to_string()),
            })
            .collect();
        let block_labels = (0..cfg.blocks().len())
            .map(|b| cfg.block_label(b))
            .collect();
        EnergyAttribution {
            workload: workload.to_string(),
            scheme: scheme.to_string(),
            rows,
            block_labels,
        }
    }

    /// The attributed sites, in (pc, class, module, case) order.
    pub fn rows(&self) -> &[SiteRow] {
        &self.rows
    }

    /// The label of block `b`, or `"bb?"` out of range.
    pub fn block_label(&self, b: Option<usize>) -> &str {
        b.and_then(|b| self.block_labels.get(b))
            .map_or("bb?", String::as_str)
    }

    /// Reassembles the partition into an [`EnergyLedger`]; equals the
    /// simulator's own ledger bit-for-bit for a full-run sink.
    pub fn ledger(&self) -> EnergyLedger {
        let mut switched = [0u64; 4];
        let mut ops = [0u64; 4];
        for row in &self.rows {
            switched[row.key.class.index()] += row.stat.bits;
            ops[row.key.class.index()] += row.stat.ops;
        }
        let mut ledger = EnergyLedger::new();
        ledger.accumulate(switched, ops);
        ledger
    }

    /// Total switched bits across all sites.
    pub fn total_bits(&self) -> u64 {
        self.rows.iter().map(|r| r.stat.bits).sum()
    }

    /// Switched bits per PC, summed over classes, modules and cases.
    pub fn pc_bits(&self) -> BTreeMap<u32, u64> {
        let mut map = BTreeMap::new();
        for row in &self.rows {
            *map.entry(row.key.pc).or_insert(0u64) += row.stat.bits;
        }
        map
    }

    /// Switched bits per steering case for one FU class.
    pub fn case_bits(&self, class: FuClass) -> [u64; 4] {
        let mut bits = [0u64; 4];
        for row in self.rows.iter().filter(|r| r.key.class == class) {
            bits[row.key.case.index()] += row.stat.bits;
        }
        bits
    }

    /// Switched bits per module for one FU class.
    pub fn module_bits(&self, class: FuClass) -> [u64; MAX_MODULES] {
        let mut bits = [0u64; MAX_MODULES];
        for row in self.rows.iter().filter(|r| r.key.class == class) {
            bits[(row.key.module as usize).min(MAX_MODULES - 1)] += row.stat.bits;
        }
        bits
    }

    /// The `n` hottest PCs by switched bits (ties broken by ascending
    /// PC, so the ranking is deterministic).
    pub fn hotspots(&self, n: usize) -> Vec<Hotspot> {
        let total = self.total_bits();
        let mut per_pc: BTreeMap<u32, (u64, u64, Option<usize>, String)> = BTreeMap::new();
        for row in &self.rows {
            let entry = per_pc
                .entry(row.key.pc)
                .or_insert_with(|| (0, 0, row.block, row.opcode.clone()));
            entry.0 += row.stat.bits;
            entry.1 += row.stat.ops;
        }
        let mut spots: Vec<Hotspot> = per_pc
            .into_iter()
            .map(|(pc, (bits, ops, block, opcode))| Hotspot {
                pc,
                block: self.block_label(block).to_string(),
                opcode,
                bits,
                ops,
                share_pct: if total == 0 {
                    0.0
                } else {
                    100.0 * bits as f64 / total as f64
                },
            })
            .collect();
        spots.sort_by(|a, b| b.bits.cmp(&a.bits).then(a.pc.cmp(&b.pc)));
        spots.truncate(n);
        spots
    }

    /// Collapsed-stack flamegraph lines: one
    /// `workload;block;pc{pc}:{opcode} {bits}` line per PC with a
    /// non-zero charge, in block-then-PC order. Feed the output straight
    /// to `flamegraph.pl` / speedscope / inferno.
    pub fn collapsed_stacks(&self) -> String {
        let mut per_pc: BTreeMap<(Option<usize>, u32), (u64, String)> = BTreeMap::new();
        for row in &self.rows {
            let entry = per_pc
                .entry((row.block, row.key.pc))
                .or_insert_with(|| (0, row.opcode.clone()));
            entry.0 += row.stat.bits;
        }
        let workload = frame(&self.workload);
        let mut out = String::new();
        for ((block, pc), (bits, opcode)) in per_pc {
            if bits == 0 {
                continue;
            }
            let block = frame(self.block_label(block));
            let leaf = frame(&format!("pc{pc}:{opcode}"));
            out.push_str(&format!("{workload};{block};{leaf} {bits}\n"));
        }
        out
    }

    /// The attribution as a JSON document (used by `--json` output).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::Str(self.workload.clone())),
            ("scheme", Json::Str(self.scheme.clone())),
            ("total_bits", Json::UInt(self.total_bits())),
            (
                "sites",
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("pc", Json::UInt(r.key.pc as u64)),
                                ("block", Json::Str(self.block_label(r.block).to_string())),
                                ("opcode", Json::Str(r.opcode.clone())),
                                ("class", Json::Str(r.key.class.to_string())),
                                ("module", Json::UInt(r.key.module as u64)),
                                ("case", Json::Str(r.key.case.to_string())),
                                ("bits", Json::UInt(r.stat.bits)),
                                ("ops", Json::UInt(r.stat.ops)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fua_isa::{Case, IntReg, ProgramBuilder};
    use fua_trace::{TraceEvent, TraceSink};

    fn program() -> Program {
        let r1 = IntReg::new(1);
        let mut b = ProgramBuilder::new();
        let top = b.new_label();
        b.li(r1, 3);
        b.bind(top);
        b.addi(r1, r1, -1);
        b.bgtz(r1, top);
        b.halt();
        b.build().unwrap()
    }

    fn sink_with(charges: &[(u32, u32)]) -> AttributionSink {
        let mut sink = AttributionSink::new();
        for &(pc, bits) in charges {
            sink.record(&TraceEvent::Energy {
                cycle: 0,
                serial: 0,
                pc,
                class: FuClass::IntAlu,
                module: 0,
                case: Case::C00,
                bits,
            });
        }
        sink
    }

    #[test]
    fn rows_resolve_blocks_and_opcodes() {
        let p = program();
        let sink = sink_with(&[(0, 4), (1, 9), (1, 1)]);
        let attr = EnergyAttribution::build("w", "s", &p, &sink);
        assert_eq!(attr.rows().len(), 2);
        assert_eq!(attr.rows()[0].block, Some(0));
        assert_eq!(attr.rows()[1].block, Some(1));
        assert_eq!(attr.total_bits(), 14);
        assert_eq!(attr.ledger(), sink.ledger());
    }

    #[test]
    fn out_of_text_pcs_map_to_the_unknown_block() {
        let p = program();
        let sink = sink_with(&[(999, 5)]);
        let attr = EnergyAttribution::build("w", "s", &p, &sink);
        assert_eq!(attr.rows()[0].block, None);
        assert_eq!(attr.block_label(None), "bb?");
        assert_eq!(attr.rows()[0].opcode, "?");
    }

    #[test]
    fn hotspots_rank_by_bits_with_pc_tiebreak() {
        let p = program();
        let attr = EnergyAttribution::build("w", "s", &p, &sink_with(&[(0, 3), (1, 10), (2, 3)]));
        let spots = attr.hotspots(10);
        assert_eq!(spots[0].pc, 1);
        assert_eq!(spots[1].pc, 0, "equal bits break ties toward lower PCs");
        assert_eq!(spots[2].pc, 2);
        assert!((spots[0].share_pct - 62.5).abs() < 1e-9);
        let top1 = attr.hotspots(1);
        assert_eq!(top1.len(), 1);
    }

    #[test]
    fn collapsed_stacks_sum_to_the_total_and_escape_frames() {
        let p = program();
        let sink = sink_with(&[(0, 4), (1, 9)]);
        let attr = EnergyAttribution::build("co mp;ress", "s", &p, &sink);
        let stacks = attr.collapsed_stacks();
        let mut total = 0u64;
        for line in stacks.lines() {
            let (frames, weight) = line.rsplit_once(' ').unwrap();
            assert_eq!(frames.matches(';').count(), 2, "three frames: {line}");
            assert!(frames.starts_with("co_mp_ress;bb"));
            total += weight.parse::<u64>().unwrap();
        }
        assert_eq!(total, attr.total_bits());
    }
}
