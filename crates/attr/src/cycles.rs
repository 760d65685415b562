//! Cycle attribution: where do the cycles go?
//!
//! The stall taxonomy partitions every issue slot of every cycle into
//! exactly one [`StallReason`] bucket; this module resolves those
//! buckets against the program's CFG (mirroring the energy-side
//! [`EnergyAttribution`](crate::EnergyAttribution)), extracts the
//! retirement critical path from the dependence records, and joins the
//! two attributions into a switched-bits-per-slot table.

use std::collections::BTreeMap;

use fua_analysis::Cfg;
use fua_exec::{map_indexed, Jobs};
use fua_isa::Program;
use fua_sim::{MachineConfig, SimResult};
use fua_trace::{DepSink, Json, StallKey, StallReason, StallSink, TextTable, ToJson};
use fua_workloads::Workload;

use crate::profile::frame;
use crate::{attribute_schemes, rank_suite, EnergyAttribution, ExactPartition, Scheme};

/// One stall site with its CFG context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallRow {
    /// The charge site.
    pub key: StallKey,
    /// Issue slots accounted to the site.
    pub slots: u64,
    /// Basic block owning `key.pc` (`None` for frontend slots with no
    /// culprit PC, or a PC outside the program text).
    pub block: Option<usize>,
    /// The culprit's opcode rendered (`"?"` when there is no culprit).
    pub opcode: String,
}

/// One entry of the per-PC stall ranking.
#[derive(Debug, Clone, PartialEq)]
pub struct StallHotspot {
    /// Static program counter of the culprit (`None` = frontend slots
    /// with no culprit instruction).
    pub pc: Option<u32>,
    /// Basic-block label (`"frontend"` for culprit-less slots).
    pub block: String,
    /// Opcode at the PC (`"?"` for culprit-less slots).
    pub opcode: String,
    /// Non-issued slots charged to the site.
    pub stalled: u64,
    /// Issued slots charged to the site.
    pub issued: u64,
    /// The reason holding the largest share of the stalled slots.
    pub top_reason: StallReason,
    /// Share of the run's total non-issued slots, in percent.
    pub share_pct: f64,
}

/// A complete attribution of one run's issue bandwidth to static sites.
///
/// Built from a [`StallSink`] plus the program it observed; rows are
/// stored in (pc, class, reason, case) order, so every derived
/// rendering is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleAttribution {
    /// The workload the run executed.
    pub workload: String,
    /// Label of the steering scheme the run used.
    pub scheme: String,
    /// Elapsed cycles of the attributed run.
    pub cycles: u64,
    /// Issue slots per cycle on the attributed machine.
    pub issue_width: u64,
    rows: Vec<StallRow>,
    block_labels: Vec<String>,
}

impl CycleAttribution {
    /// Resolves a sink's stall sites against `program`'s CFG.
    pub fn build(
        workload: &str,
        scheme: &str,
        program: &Program,
        sink: &StallSink,
        cycles: u64,
        issue_width: u64,
    ) -> Self {
        let cfg = Cfg::build(program);
        let insts = program.insts();
        let rows = sink
            .sites()
            .map(|(key, slots)| StallRow {
                key,
                slots,
                block: key.pc.and_then(|pc| cfg.try_block_of(pc as usize)),
                opcode: key
                    .pc
                    .and_then(|pc| insts.get(pc as usize))
                    .map_or_else(|| "?".to_string(), |i| i.op.to_string()),
            })
            .collect();
        let block_labels = (0..cfg.blocks().len())
            .map(|b| cfg.block_label(b))
            .collect();
        CycleAttribution {
            workload: workload.to_string(),
            scheme: scheme.to_string(),
            cycles,
            issue_width,
            rows,
            block_labels,
        }
    }

    /// The attributed sites, in (pc, class, reason, case) order.
    pub fn rows(&self) -> &[StallRow] {
        &self.rows
    }

    /// The label of block `b`, or `"bb?"` out of range.
    pub fn block_label(&self, b: Option<usize>) -> &str {
        b.and_then(|b| self.block_labels.get(b))
            .map_or("bb?", String::as_str)
    }

    /// Total issue slots across all sites.
    pub fn total_slots(&self) -> u64 {
        self.rows.iter().map(|r| r.slots).sum()
    }

    /// Slots that issued an instruction.
    pub fn issued_slots(&self) -> u64 {
        self.reason_totals()[StallReason::Issued.index()]
    }

    /// Slot totals per [`StallReason`], in [`StallReason::ALL`] order.
    pub fn reason_totals(&self) -> [u64; 7] {
        let mut totals = [0u64; 7];
        for row in &self.rows {
            totals[row.key.reason.index()] += row.slots;
        }
        totals
    }

    /// Whether the attribution accounts for the machine's entire issue
    /// bandwidth bit-for-bit — the exact-partition invariant:
    /// `total_slots == cycles × issue_width`.
    pub fn exact(&self) -> bool {
        self.total_slots() == self.cycles * self.issue_width
    }

    /// The `n` sites losing the most issue slots, ranked by non-issued
    /// slots (ties broken toward lower PCs, frontend sites last among
    /// equals), with each site's dominant stall reason.
    pub fn hotspots(&self, n: usize) -> Vec<StallHotspot> {
        // Per PC: issued slots, stalled slots, per-reason stalled
        // split, plus the site's block index and opcode for labelling.
        type PerPc = (u64, u64, [u64; 7], Option<usize>, String);
        let mut per_pc: BTreeMap<Option<u32>, PerPc> = BTreeMap::new();
        for row in &self.rows {
            let entry = per_pc
                .entry(row.key.pc)
                .or_insert_with(|| (0, 0, [0; 7], row.block, row.opcode.clone()));
            if row.key.reason == StallReason::Issued {
                entry.0 += row.slots;
            } else {
                entry.1 += row.slots;
                entry.2[row.key.reason.index()] += row.slots;
            }
        }
        let total_stalled: u64 = per_pc.values().map(|v| v.1).sum();
        let mut spots: Vec<StallHotspot> = per_pc
            .into_iter()
            .map(|(pc, (issued, stalled, mix, block, opcode))| {
                let top_reason = StallReason::ALL
                    .into_iter()
                    .filter(|r| *r != StallReason::Issued)
                    .max_by_key(|r| mix[r.index()])
                    .unwrap_or(StallReason::Issued);
                StallHotspot {
                    pc,
                    block: match pc {
                        Some(_) => self.block_label(block).to_string(),
                        None => "frontend".to_string(),
                    },
                    opcode,
                    stalled,
                    issued,
                    top_reason,
                    share_pct: if total_stalled == 0 {
                        0.0
                    } else {
                        100.0 * stalled as f64 / total_stalled as f64
                    },
                }
            })
            .collect();
        // None sorts before Some in the BTreeMap; rank by stalled slots
        // first, then put concrete PCs ahead of the frontend bucket.
        spots.sort_by(|a, b| {
            b.stalled
                .cmp(&a.stalled)
                .then(a.pc.is_none().cmp(&b.pc.is_none()))
                .then(a.pc.cmp(&b.pc))
        });
        spots.truncate(n);
        spots
    }

    /// Collapsed-stack flamegraph lines weighted by issue slots:
    /// `workload;block;pc{pc}:{opcode};{reason} {slots}` per culprit
    /// site and `workload;frontend;{reason} {slots}` for culprit-less
    /// frontend slots. Because the stall partition is exact, the line
    /// weights sum to `cycles × issue_width` — the whole machine's
    /// issue bandwidth appears in the graph, issued slots included.
    pub fn collapsed_stacks(&self) -> String {
        type Stack = (Option<usize>, Option<u32>, StallReason);
        let mut lines: BTreeMap<Stack, (u64, String)> = BTreeMap::new();
        for row in &self.rows {
            let entry = lines
                .entry((row.block, row.key.pc, row.key.reason))
                .or_insert_with(|| (0, row.opcode.clone()));
            entry.0 += row.slots;
        }
        let workload = frame(&self.workload);
        let mut out = String::new();
        for ((block, pc, reason), (slots, opcode)) in lines {
            if slots == 0 {
                continue;
            }
            let reason = frame(reason.name());
            match pc {
                Some(pc) => {
                    let block = frame(self.block_label(block));
                    let leaf = frame(&format!("pc{pc}:{opcode}"));
                    out.push_str(&format!("{workload};{block};{leaf};{reason} {slots}\n"));
                }
                None => {
                    out.push_str(&format!("{workload};frontend;{reason} {slots}\n"));
                }
            }
        }
        out
    }

    /// The attribution as a JSON document (used by `--json` output).
    pub fn to_json(&self) -> Json {
        let totals = self.reason_totals();
        Json::obj([
            ("workload", Json::Str(self.workload.clone())),
            ("scheme", Json::Str(self.scheme.clone())),
            ("cycles", Json::UInt(self.cycles)),
            ("issue_width", Json::UInt(self.issue_width)),
            ("total_slots", Json::UInt(self.total_slots())),
            ("exact", Json::Bool(self.exact())),
            (
                "reason_totals",
                Json::Obj(
                    StallReason::ALL
                        .into_iter()
                        .map(|r| (r.name().to_string(), Json::UInt(totals[r.index()])))
                        .collect(),
                ),
            ),
            (
                "sites",
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|r| {
                            Json::obj([
                                (
                                    "pc",
                                    r.key.pc.map_or(Json::Null, |pc| Json::UInt(pc as u64)),
                                ),
                                (
                                    "block",
                                    Json::Str(match r.key.pc {
                                        Some(_) => self.block_label(r.block).to_string(),
                                        None => "frontend".to_string(),
                                    }),
                                ),
                                ("opcode", Json::Str(r.opcode.clone())),
                                ("class", Json::Str(r.key.class.to_string())),
                                ("reason", Json::Str(r.key.reason.name().to_string())),
                                (
                                    "case",
                                    r.key.case.map_or(Json::Null, |c| Json::Str(c.to_string())),
                                ),
                                ("slots", Json::UInt(r.slots)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// One node of the retirement critical path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalNode {
    /// Dynamic program-order serial.
    pub serial: u64,
    /// Static program counter.
    pub pc: u32,
    /// Opcode at the PC (`"?"` for an out-of-text PC).
    pub opcode: String,
    /// Dispatch (rename) cycle.
    pub dispatch_cycle: u64,
    /// Issue cycle (dispatch cycle for no-FU instructions).
    pub issue_cycle: u64,
    /// Completion cycle.
    pub done_cycle: u64,
    /// Cycles between the critical producer's completion and this
    /// node's dispatch: the frontend (fetch, ROB, RS, branch recovery)
    /// delivered the consumer late. 0 for the first node.
    pub dispatch_wait: u64,
    /// Dispatch-to-issue cycles spent waiting for producers
    /// (the [`OperandWait`](StallReason::OperandWait) portion).
    pub operand_wait: u64,
    /// Cycles spent ready but unselected ([`FuBusy`](StallReason::FuBusy)
    /// territory): issue minus the later of the operands' arrival and
    /// `dispatch + 1`, the earliest issue cycle (dispatch runs after
    /// issue within a cycle).
    pub structural_wait: u64,
}

/// A register-dependence chain of a run, extracted from a [`DepSink`]:
/// the path ends at the last instruction to complete, and each
/// predecessor is the node's register producer (source operand writer)
/// that finished last. The walk follows register producers only —
/// memory, control (fetch redirect) and structural dependences are not
/// recorded — and stops at the first node with no recorded producer,
/// such as an immediate load. The chain can therefore cover only part of
/// the run; [`coverage`](CriticalPath::coverage) says how much.
///
/// Per node, `dispatch_wait + (done − max(producer_done, dispatch))`
/// telescopes to `done − producer_done` (`done − dispatch` for the
/// first node), so the path's span is exactly the sum of those terms.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CriticalPath {
    nodes: Vec<CriticalNode>,
}

impl CriticalPath {
    /// Walks the dependence records backwards from the last completion,
    /// through register producers, until a node has none.
    pub fn extract(program: &Program, deps: &DepSink) -> Self {
        let insts = program.insts();
        let records = deps.records();
        let Some(start) = records.iter().max_by(
            // Latest completion wins; ties go to the later serial (the
            // deeper instruction in program order).
            |a, b| {
                a.done_cycle
                    .cmp(&b.done_cycle)
                    .then(a.serial.cmp(&b.serial))
            },
        ) else {
            return CriticalPath::default();
        };
        let mut chain = Vec::new();
        let mut cur = start;
        loop {
            // The critical producer is the one whose result arrived last.
            let pred = cur
                .deps
                .iter()
                .flatten()
                .filter_map(|&serial| deps.record_of(serial))
                .max_by(|a, b| {
                    a.done_cycle
                        .cmp(&b.done_cycle)
                        .then(a.serial.cmp(&b.serial))
                });
            let producer_done = pred.map_or(cur.dispatch_cycle, |p| p.done_cycle);
            let issue_cycle = cur.issue_cycle.unwrap_or(cur.dispatch_cycle);
            let dispatch_wait = cur.dispatch_cycle.saturating_sub(producer_done);
            let operand_wait = producer_done.saturating_sub(cur.dispatch_cycle);
            let structural_wait =
                issue_cycle.saturating_sub(producer_done.max(cur.dispatch_cycle + 1));
            chain.push(CriticalNode {
                serial: cur.serial,
                pc: cur.pc,
                opcode: insts
                    .get(cur.pc as usize)
                    .map_or_else(|| "?".to_string(), |i| i.op.to_string()),
                dispatch_cycle: cur.dispatch_cycle,
                issue_cycle,
                done_cycle: cur.done_cycle,
                dispatch_wait,
                operand_wait,
                structural_wait,
            });
            match pred {
                Some(p) => cur = p,
                None => break,
            }
        }
        chain.reverse();
        CriticalPath { nodes: chain }
    }

    /// The path nodes, earliest instruction first.
    pub fn nodes(&self) -> &[CriticalNode] {
        &self.nodes
    }

    /// Cycles spanned from the first node's dispatch to the last node's
    /// completion (0 for an empty path).
    pub fn span_cycles(&self) -> u64 {
        match (self.nodes.first(), self.nodes.last()) {
            (Some(first), Some(last)) => last.done_cycle - first.dispatch_cycle,
            _ => 0,
        }
    }

    /// The share of a `run_cycles`-cycle run the path spans
    /// ([`span_cycles`](CriticalPath::span_cycles) / `run_cycles`; 0 for
    /// an empty run). 1.0 means the chain explains the whole run; a
    /// chain that stops early at a producer-less node reads lower.
    pub fn coverage(&self, run_cycles: u64) -> f64 {
        if run_cycles == 0 {
            0.0
        } else {
            self.span_cycles() as f64 / run_cycles as f64
        }
    }

    /// Total dispatch-wait cycles along the path.
    pub fn dispatch_wait(&self) -> u64 {
        self.nodes.iter().map(|n| n.dispatch_wait).sum()
    }

    /// Total operand-wait cycles along the path.
    pub fn operand_wait(&self) -> u64 {
        self.nodes.iter().map(|n| n.operand_wait).sum()
    }

    /// Total structural-wait cycles along the path.
    pub fn structural_wait(&self) -> u64 {
        self.nodes.iter().map(|n| n.structural_wait).sum()
    }

    /// The path as a JSON document (used by `--json` output), with its
    /// coverage of a `run_cycles`-cycle run.
    pub fn to_json(&self, run_cycles: u64) -> Json {
        Json::obj([
            ("span_cycles", Json::UInt(self.span_cycles())),
            ("run_cycles", Json::UInt(run_cycles)),
            ("coverage", Json::Float(self.coverage(run_cycles))),
            ("dispatch_wait", Json::UInt(self.dispatch_wait())),
            ("operand_wait", Json::UInt(self.operand_wait())),
            ("structural_wait", Json::UInt(self.structural_wait())),
            (
                "nodes",
                Json::Arr(
                    self.nodes
                        .iter()
                        .map(|n| {
                            Json::obj([
                                ("serial", Json::UInt(n.serial)),
                                ("pc", Json::UInt(n.pc as u64)),
                                ("opcode", Json::Str(n.opcode.clone())),
                                ("dispatch", Json::UInt(n.dispatch_cycle)),
                                ("issue", Json::UInt(n.issue_cycle)),
                                ("done", Json::UInt(n.done_cycle)),
                                ("dispatch_wait", Json::UInt(n.dispatch_wait)),
                                ("operand_wait", Json::UInt(n.operand_wait)),
                                ("structural_wait", Json::UInt(n.structural_wait)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// One row of the joint energy × cycles table: a PC with both its
/// switched-bit charge and its issue-slot spend.
#[derive(Debug, Clone, PartialEq)]
pub struct JointRow {
    /// Static program counter.
    pub pc: u32,
    /// Basic-block label.
    pub block: String,
    /// Opcode at the PC.
    pub opcode: String,
    /// Switched bits charged to the PC.
    pub bits: u64,
    /// Operations issued from the PC.
    pub ops: u64,
    /// Issue slots the PC filled.
    pub issued_slots: u64,
    /// Issue slots lost waiting on the PC.
    pub stalled_slots: u64,
    /// Mean switched bits per operation (0 for no ops).
    pub bits_per_op: f64,
}

/// Joins an energy attribution and a cycle attribution of the same run
/// by PC: switched bits per committed instruction next to the slots the
/// instruction filled and the slots the machine lost waiting on it.
/// Rows are ranked by switched bits (ties toward lower PCs) and
/// truncated to `n`.
pub fn joint_table(
    energy: &EnergyAttribution,
    cycles: &CycleAttribution,
    n: usize,
) -> Vec<JointRow> {
    let mut per_pc: BTreeMap<u32, JointRow> = BTreeMap::new();
    for row in energy.rows() {
        let entry = per_pc.entry(row.key.pc).or_insert_with(|| JointRow {
            pc: row.key.pc,
            block: energy.block_label(row.block).to_string(),
            opcode: row.opcode.clone(),
            bits: 0,
            ops: 0,
            issued_slots: 0,
            stalled_slots: 0,
            bits_per_op: 0.0,
        });
        entry.bits += row.stat.bits;
        entry.ops += row.stat.ops;
    }
    for row in cycles.rows() {
        let Some(pc) = row.key.pc else { continue };
        let entry = per_pc.entry(pc).or_insert_with(|| JointRow {
            pc,
            block: cycles.block_label(row.block).to_string(),
            opcode: row.opcode.clone(),
            bits: 0,
            ops: 0,
            issued_slots: 0,
            stalled_slots: 0,
            bits_per_op: 0.0,
        });
        if row.key.reason == StallReason::Issued {
            entry.issued_slots += row.slots;
        } else {
            entry.stalled_slots += row.slots;
        }
    }
    let mut rows: Vec<JointRow> = per_pc
        .into_values()
        .map(|mut r| {
            r.bits_per_op = if r.ops == 0 {
                0.0
            } else {
                r.bits as f64 / r.ops as f64
            };
            r
        })
        .collect();
    rows.sort_by(|a, b| b.bits.cmp(&a.bits).then(a.pc.cmp(&b.pc)));
    rows.truncate(n);
    rows
}

/// One workload's cycle-profiled run: the simulator result plus both
/// attributions and the extracted critical path.
#[derive(Debug)]
pub struct CycleProfiledRun {
    /// The simulator's own result (cycles, ledger, IPC inputs).
    pub result: SimResult,
    /// The per-site attribution of `result.ledger`.
    pub energy: EnergyAttribution,
    /// The per-site attribution of the run's issue bandwidth.
    pub cycles: CycleAttribution,
    /// The retirement critical path.
    pub path: CriticalPath,
}

impl CycleProfiledRun {
    /// Whether both attributions are exact partitions: the energy side
    /// reassembles the ledger bit-for-bit and the cycle side accounts
    /// `cycles × issue_width` slots.
    pub fn exact(&self) -> bool {
        self.energy.ledger() == self.result.ledger && self.cycles.exact()
    }

    /// The run as a JSON document: the slot attribution, the critical
    /// path, and the top-`top` joint energy × cycles rows.
    pub fn to_json(&self, top: usize) -> Json {
        let joint = joint_table(&self.energy, &self.cycles, top)
            .iter()
            .map(|r| {
                Json::obj([
                    ("pc", Json::UInt(r.pc as u64)),
                    ("block", Json::Str(r.block.clone())),
                    ("opcode", Json::Str(r.opcode.clone())),
                    ("bits", Json::UInt(r.bits)),
                    ("ops", Json::UInt(r.ops)),
                    ("bits_per_op", Json::Float(r.bits_per_op)),
                    ("issued_slots", Json::UInt(r.issued_slots)),
                    ("stalled_slots", Json::UInt(r.stalled_slots)),
                ])
            })
            .collect();
        Json::obj([
            ("attribution", self.cycles.to_json()),
            ("critical_path", self.path.to_json(self.result.cycles)),
            ("joint", Json::Arr(joint)),
        ])
    }

    /// The critical-path view: the summary line, then the last `top`
    /// nodes of the chain (the tail ends at the run's last completion).
    fn render_critical_path(&self, top: usize) -> String {
        let nodes = self.path.nodes();
        let mut out = format!(
            "critical path — {}: {} node(s), span {} of {} cycles ({:.1}% of the run), \
             dispatch wait {}, operand wait {}, structural wait {}\n",
            self.cycles.workload,
            nodes.len(),
            self.path.span_cycles(),
            self.result.cycles,
            100.0 * self.path.coverage(self.result.cycles),
            self.path.dispatch_wait(),
            self.path.operand_wait(),
            self.path.structural_wait(),
        );
        let shown = nodes.len().min(top);
        let mut t = TextTable::new([
            "serial",
            "pc",
            "opcode",
            "dispatch",
            "issue",
            "done",
            "disp wait",
            "op wait",
            "struct wait",
        ]);
        for n in &nodes[nodes.len() - shown..] {
            t.push_row([
                format!("#{}", n.serial),
                format!("pc{}", n.pc),
                n.opcode.clone(),
                n.dispatch_cycle.to_string(),
                n.issue_cycle.to_string(),
                n.done_cycle.to_string(),
                n.dispatch_wait.to_string(),
                n.operand_wait.to_string(),
                n.structural_wait.to_string(),
            ]);
        }
        if shown < nodes.len() {
            out += &format!("(last {shown} of {} nodes)\n", nodes.len());
        }
        out + &t.to_string()
    }
}

impl ExactPartition for CycleProfiledRun {
    fn summary(&self) -> String {
        let c = &self.cycles;
        format!(
            "{} under {}: {} cycles x {} slots = {} issue slots over {} sites, exact: {}",
            c.workload,
            c.scheme,
            c.cycles,
            c.issue_width,
            c.total_slots(),
            c.rows().len(),
            self.exact()
        )
    }

    fn inexact(&self) -> Option<String> {
        (!self.exact()).then(|| {
            format!(
                "cycle attribution for {} did not partition the issue bandwidth exactly",
                self.cycles.workload
            )
        })
    }
}

/// Runs one workload under `scheme`, as the one lane of
/// [`attribute_schemes`] with stall and dependence sinks riding the
/// engine, and builds both attributions plus the critical path.
///
/// # Panics
///
/// Panics if the workload program faults (workload kernels never do).
pub fn profile_cycles_workload(w: &Workload, scheme: Scheme, limit: u64) -> CycleProfiledRun {
    let machine = MachineConfig::paper_default();
    let issue_width = machine.issue_width() as u64;
    let (mut runs, (stall_sink, dep_sink)) = attribute_schemes(
        w,
        machine,
        &[scheme],
        limit,
        (StallSink::new(), DepSink::new()),
    );
    let run = runs.pop().expect("one run per scheme");
    let (result, energy) = (run.result, run.attribution);
    let cycles = CycleAttribution::build(
        w.name,
        scheme.label(),
        &w.program,
        &stall_sink,
        result.cycles,
        issue_width,
    );
    let path = CriticalPath::extract(&w.program, &dep_sink);
    CycleProfiledRun {
        result,
        energy,
        cycles,
        path,
    }
}

/// Cycle-profiles every workload in `workloads` under `scheme`, fanning
/// out across `jobs` workers. Results come back in workload-index
/// order, so the output is byte-identical to the serial pass for any
/// worker count.
pub fn profile_cycles_suite(
    workloads: &[Workload],
    scheme: Scheme,
    limit: u64,
    jobs: Jobs,
) -> Vec<CycleProfiledRun> {
    map_indexed(jobs, workloads, |_, w| {
        profile_cycles_workload(w, scheme, limit)
    })
}

/// `fua profile-cycles`' report on one scheme's suite. The text shows
/// the per-workload issue-slot mix, the suite-wide top-`top` stall
/// hotspots and joint energy × cycles rows, and (with `critical_path`)
/// every run's critical path; the JSON is every run's
/// [`to_json`](CycleProfiledRun::to_json).
#[derive(Debug)]
pub struct CycleProfile {
    /// The scheme every run used.
    pub scheme: Scheme,
    /// Hotspot, joint and critical-path rows to print.
    pub top: usize,
    /// Whether the text report ends with every run's critical path.
    pub critical_path: bool,
    /// One profiled run per workload, in workload order.
    pub runs: Vec<CycleProfiledRun>,
}

impl CycleProfile {
    /// The text report.
    pub fn render(&self) -> String {
        let label = self.scheme.label();
        let top = self.top;
        let mut out = format!(
            "issue-slot mix under {label} ({} slots/cycle; every slot accounted):\n{}\n\
             top {top} stall hotspot(s) under {label}:\n{}\n\
             energy x cycles, top {top} PC(s) by switched bits:\n{}",
            self.runs.first().map_or(0, |r| r.cycles.issue_width),
            self.stall_mix_table(),
            self.stall_hotspot_table(),
            self.joint_table(),
        );
        if self.critical_path {
            for run in &self.runs {
                out.push('\n');
                out += &run.render_critical_path(top);
            }
        }
        out
    }

    /// Every run's collapsed stacks, weighted by issue slots.
    pub fn collapsed_stacks(&self) -> String {
        self.runs
            .iter()
            .map(|r| r.cycles.collapsed_stacks())
            .collect()
    }

    /// One row per run, one percentage column per [`StallReason`].
    fn stall_mix_table(&self) -> TextTable {
        let mut headers = vec![
            "workload".to_string(),
            "cycles".to_string(),
            "IPC".to_string(),
        ];
        headers.extend(StallReason::ALL.iter().map(|r| r.name().to_string()));
        let mut t = TextTable::new(headers);
        for run in &self.runs {
            let totals = run.cycles.reason_totals();
            let slots = run.cycles.total_slots();
            let mut row = vec![
                run.cycles.workload.clone(),
                run.cycles.cycles.to_string(),
                format!("{:.2}", run.result.ipc()),
            ];
            row.extend(StallReason::ALL.iter().map(|r| {
                let share = if slots == 0 {
                    0.0
                } else {
                    100.0 * totals[r.index()] as f64 / slots as f64
                };
                format!("{share:.1}%")
            }));
            t.push_row(row);
        }
        t
    }

    /// The suite-wide top stall hotspots, with each site's share of the
    /// suite's non-issued slots.
    fn stall_hotspot_table(&self) -> TextTable {
        let suite_stalled: u64 = self
            .runs
            .iter()
            .map(|r| r.cycles.total_slots() - r.cycles.issued_slots())
            .sum();
        let spots = rank_suite(
            self.runs.iter().flat_map(|r| {
                let workload = r.cycles.workload.as_str();
                r.cycles
                    .hotspots(self.top)
                    .into_iter()
                    .map(move |h| (workload, h))
            }),
            self.top,
            |h| h.stalled,
            |h| (h.pc.is_none(), h.pc),
        );
        let mut table = TextTable::new([
            "workload", "pc", "block", "opcode", "reason", "stalled", "issued", "share",
        ]);
        for (workload, h) in spots {
            let share = if suite_stalled == 0 {
                0.0
            } else {
                100.0 * h.stalled as f64 / suite_stalled as f64
            };
            table.push_row([
                workload.to_string(),
                h.pc.map_or_else(|| "-".to_string(), |pc| format!("pc{pc}")),
                h.block,
                h.opcode,
                h.top_reason.name().to_string(),
                h.stalled.to_string(),
                h.issued.to_string(),
                format!("{share:.2}%"),
            ]);
        }
        table
    }

    /// The suite-wide joint energy × cycles table, ranked by switched
    /// bits.
    fn joint_table(&self) -> TextTable {
        let rows = rank_suite(
            self.runs.iter().flat_map(|r| {
                let workload = r.cycles.workload.as_str();
                joint_table(&r.energy, &r.cycles, self.top)
                    .into_iter()
                    .map(move |row| (workload, row))
            }),
            self.top,
            |r| r.bits,
            |r| r.pc,
        );
        let mut table = TextTable::new([
            "workload", "pc", "block", "opcode", "bits", "ops", "bits/op", "issued", "stalled",
        ]);
        for (workload, r) in rows {
            table.push_row([
                workload.to_string(),
                format!("pc{}", r.pc),
                r.block,
                r.opcode,
                r.bits.to_string(),
                r.ops.to_string(),
                format!("{:.1}", r.bits_per_op),
                r.issued_slots.to_string(),
                r.stalled_slots.to_string(),
            ]);
        }
        table
    }
}

impl ToJson for CycleProfile {
    fn to_json(&self) -> Json {
        Json::Arr(self.runs.iter().map(|r| r.to_json(self.top)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AttributionSink;
    use fua_isa::FuClass;
    use fua_trace::{TraceEvent, TraceSink};

    fn program() -> Program {
        let r1 = fua_isa::IntReg::new(1);
        let mut b = fua_isa::ProgramBuilder::new();
        let top = b.new_label();
        b.li(r1, 3);
        b.bind(top);
        b.addi(r1, r1, -1);
        b.bgtz(r1, top);
        b.halt();
        b.build().unwrap()
    }

    fn stall_sink(charges: &[(Option<u32>, StallReason, u32)]) -> StallSink {
        let mut sink = StallSink::new();
        for &(pc, reason, slots) in charges {
            sink.record(&TraceEvent::Stall {
                cycle: 0,
                class: FuClass::IntAlu,
                reason,
                slots,
                pc,
                case: None,
            });
        }
        sink
    }

    #[test]
    fn attribution_resolves_blocks_and_checks_exactness() {
        let p = program();
        let sink = stall_sink(&[
            (Some(1), StallReason::Issued, 1),
            (Some(1), StallReason::OperandWait, 3),
            (None, StallReason::FetchStarved, 6),
        ]);
        let attr = CycleAttribution::build("w", "s", &p, &sink, 1, 10);
        assert_eq!(attr.total_slots(), 10);
        assert!(attr.exact());
        assert_eq!(attr.issued_slots(), 1);
        let short = CycleAttribution::build("w", "s", &p, &sink, 2, 10);
        assert!(!short.exact(), "20 slots expected, 10 accounted");
    }

    #[test]
    fn hotspots_rank_by_stalled_slots_with_dominant_reason() {
        let p = program();
        let sink = stall_sink(&[
            (Some(1), StallReason::OperandWait, 5),
            (Some(1), StallReason::FuBusy, 2),
            (Some(2), StallReason::FuBusy, 3),
            (None, StallReason::FetchStarved, 4),
        ]);
        let attr = CycleAttribution::build("w", "s", &p, &sink, 2, 7);
        let spots = attr.hotspots(10);
        assert_eq!(spots[0].pc, Some(1));
        assert_eq!(spots[0].top_reason, StallReason::OperandWait);
        assert_eq!(spots[0].stalled, 7);
        assert_eq!(spots[1].pc, None);
        assert_eq!(spots[1].block, "frontend");
        assert_eq!(spots[2].pc, Some(2));
        assert!((spots[0].share_pct - 50.0).abs() < 1e-9);
    }

    #[test]
    fn collapsed_stacks_cover_the_whole_issue_bandwidth() {
        let p = program();
        let sink = stall_sink(&[
            (Some(0), StallReason::Issued, 2),
            (Some(1), StallReason::OperandWait, 3),
            (None, StallReason::BranchRecovery, 5),
        ]);
        let attr = CycleAttribution::build("co mp;ress", "s", &p, &sink, 1, 10);
        let stacks = attr.collapsed_stacks();
        let mut total = 0u64;
        for line in stacks.lines() {
            let (frames, weight) = line.rsplit_once(' ').unwrap();
            assert!(frames.starts_with("co_mp_ress;"), "{line}");
            total += weight.parse::<u64>().unwrap();
        }
        assert_eq!(total, attr.total_slots(), "flamegraph covers every slot");
        assert!(stacks.contains(";frontend;branch-recovery 5\n"), "{stacks}");
    }

    #[test]
    fn critical_path_follows_the_latest_producer() {
        let p = program();
        let mut deps = DepSink::new();
        // serial 0: no deps, done at 1. serial 1: no deps, done at 5.
        // serial 2: depends on both; 1 finishes later, so the path is
        // 1 -> 2 and the wait at 2 is operand wait.
        for (serial, dep1, dep2) in [(0, None, None), (1, None, None), (2, Some(0), Some(1))] {
            deps.record(&TraceEvent::Dependence {
                cycle: 0,
                serial,
                pc: serial as u32,
                dep1,
                dep2,
            });
        }
        deps.record(&TraceEvent::Stage {
            stage: fua_trace::Stage::Writeback,
            cycle: 5,
            serial: 1,
            opcode: fua_isa::Opcode::Add,
        });
        deps.record(&TraceEvent::Execute {
            cycle: 5,
            serial: 2,
            class: FuClass::IntAlu,
            module: 0,
            latency: 1,
            opcode: fua_isa::Opcode::Add,
        });
        deps.record(&TraceEvent::Stage {
            stage: fua_trace::Stage::Writeback,
            cycle: 6,
            serial: 2,
            opcode: fua_isa::Opcode::Add,
        });
        let path = CriticalPath::extract(&p, &deps);
        let serials: Vec<u64> = path.nodes().iter().map(|n| n.serial).collect();
        assert_eq!(serials, [1, 2]);
        assert_eq!(path.span_cycles(), 6);
        let tail = &path.nodes()[1];
        assert_eq!(tail.operand_wait, 5, "waited for serial 1 to finish");
        assert_eq!(tail.dispatch_wait, 0);
        assert_eq!(tail.structural_wait, 0);
        assert_eq!(CriticalPath::extract(&p, &DepSink::new()).nodes().len(), 0);
    }

    #[test]
    fn joint_table_merges_energy_and_slot_charges_by_pc() {
        let p = program();
        let mut energy_sink = AttributionSink::new();
        energy_sink.record(&TraceEvent::Energy {
            cycle: 0,
            serial: 0,
            pc: 1,
            class: FuClass::IntAlu,
            module: 0,
            case: fua_isa::Case::C00,
            bits: 12,
        });
        let energy = EnergyAttribution::build("w", "s", &p, &energy_sink);
        let sink = stall_sink(&[
            (Some(1), StallReason::Issued, 1),
            (Some(1), StallReason::OperandWait, 4),
            (Some(2), StallReason::FuBusy, 2),
        ]);
        let cycles = CycleAttribution::build("w", "s", &p, &sink, 1, 7);
        let rows = joint_table(&energy, &cycles, 10);
        assert_eq!(rows[0].pc, 1);
        assert_eq!(rows[0].bits, 12);
        assert_eq!(rows[0].issued_slots, 1);
        assert_eq!(rows[0].stalled_slots, 4);
        assert!((rows[0].bits_per_op - 12.0).abs() < 1e-9);
        assert_eq!(rows[1].pc, 2, "slot-only PCs still appear");
        assert_eq!(rows[1].bits, 0);
    }

    #[test]
    fn profiled_runs_partition_the_issue_bandwidth_exactly() {
        let w = fua_workloads::by_name("compress", 1).unwrap();
        let run = profile_cycles_workload(&w, Scheme::Lut4, 2_000);
        assert!(run.exact(), "both partitions must be exact");
        assert_eq!(
            run.cycles.total_slots(),
            run.result.cycles * 10,
            "paper machine has 10 issue slots per cycle"
        );
        assert!(!run.path.nodes().is_empty());
        assert!(run.path.span_cycles() <= run.result.cycles);
    }

    #[test]
    fn parallel_cycle_profiling_matches_serial() {
        let workloads: Vec<Workload> = ["compress", "turb3d"]
            .iter()
            .map(|n| fua_workloads::by_name(n, 1).unwrap())
            .collect();
        let serial = profile_cycles_suite(&workloads, Scheme::Lut4, 1_500, Jobs::serial());
        let parallel = profile_cycles_suite(&workloads, Scheme::Lut4, 1_500, Jobs::new(4).unwrap());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.cycles, p.cycles);
            assert_eq!(s.path, p.path);
            assert_eq!(s.cycles.collapsed_stacks(), p.cycles.collapsed_stacks());
        }
    }
}
