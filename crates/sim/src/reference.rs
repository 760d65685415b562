//! The pre-rewrite cycle engine, kept verbatim as a behavioural oracle.
//!
//! [`ReferenceSimulator`] is the pointer-chasing `VecDeque<Entry>` engine
//! the project shipped through PR 8, before the struct-of-arrays hot-loop
//! rewrite (see `docs/PERFORMANCE.md`). It is deliberately *not* fast: its
//! only job is to define the model's cycle-exact semantics so the
//! `hot_loop_equivalence` property test can pin the rewritten
//! [`Simulator`](crate::Simulator) against it — identical retirement
//! streams, energy ledgers and stall digests for every workload × scheme ×
//! swap combination. Production code should always use
//! [`Simulator`](crate::Simulator).

use std::collections::VecDeque;

use fua_isa::{FuClass, Program};
use fua_power::{EnergyLedger, ModulePorts};
use fua_stats::{BitPatternProfiler, OccupancyProfiler};
use fua_steer::SteeringPolicy;
use fua_trace::{NullSink, Stage, StallReason, SwapKind, TraceEvent, TraceSink};
use fua_vm::{DynOp, Vm, VmError};

use crate::{
    BimodalPredictor, BranchStats, CacheStats, DataCache, MachineConfig, SimResult, SteeringConfig,
    SwapStats,
};

/// How many cycles the engine tolerates with no commit, issue or dispatch
/// before declaring itself wedged (a model bug, not a program property).
const WATCHDOG_CYCLES: u64 = 10_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryState {
    /// Dispatched, waiting for operands or an FU.
    Waiting,
    /// Executing or executed; completes at `done_cycle`.
    Issued,
}

#[derive(Debug, Clone)]
struct Entry {
    op: DynOp,
    deps: [Option<u64>; 2],
    state: EntryState,
    done_cycle: u64,
}

/// The pre-rewrite out-of-order engine: one heap-allocated `Entry` per
/// in-flight instruction in a `VecDeque`, with dependence checks that
/// chase producer entries through the window on every issue attempt.
///
/// Behaviour-compatible with [`Simulator`](crate::Simulator) by
/// construction (the rewrite preserved semantics bit-for-bit); the
/// `hot_loop_equivalence` integration test enforces this. See the module
/// docs for why this type exists.
pub struct ReferenceSimulator<S: TraceSink = NullSink> {
    sink: S,
    config: MachineConfig,
    steering: SteeringConfig,

    window: VecDeque<Entry>,
    head_serial: u64,
    last_writer: [Option<u64>; 64],
    rs_used: [usize; 4],
    ports: Vec<Vec<ModulePorts>>,
    predictor: BimodalPredictor,
    cache: DataCache,

    cycle: u64,
    retired: u64,
    fetch_resume_cycle: u64,
    // Serial of an unresolved mispredicted branch blocking fetch.
    fetch_blocked_by: Option<u64>,
    // Single-slot skid buffer: an op pulled from the source that could not
    // dispatch because its reservation station was full.
    skid: Option<DynOp>,

    ledger: EnergyLedger,
    occupancy: Vec<OccupancyProfiler>,
    bit_patterns: Vec<BitPatternProfiler>,
    swaps: SwapStats,
    branches: BranchStats,
}

impl ReferenceSimulator<NullSink> {
    /// Creates an untraced reference simulator for one run.
    pub fn new(config: MachineConfig, steering: SteeringConfig) -> Self {
        ReferenceSimulator::with_sink(config, steering, NullSink)
    }
}

impl<S: TraceSink> ReferenceSimulator<S> {
    /// Creates a reference simulator whose pipeline hooks feed `sink`.
    pub fn with_sink(config: MachineConfig, steering: SteeringConfig, sink: S) -> Self {
        config.validate();
        let ports = FuClass::ALL
            .iter()
            .map(|c| vec![ModulePorts::new(); config.modules(*c)])
            .collect();
        let occupancy = FuClass::ALL
            .iter()
            .map(|c| OccupancyProfiler::new(config.modules(*c)))
            .collect();
        let cache = DataCache::new(config.cache);
        ReferenceSimulator {
            sink,
            config,
            steering,
            window: VecDeque::new(),
            head_serial: 0,
            last_writer: [None; 64],
            rs_used: [0; 4],
            ports,
            predictor: BimodalPredictor::new(4096),
            cache,
            cycle: 0,
            retired: 0,
            fetch_resume_cycle: 0,
            fetch_blocked_by: None,
            skid: None,
            ledger: EnergyLedger::new(),
            occupancy,
            bit_patterns: vec![BitPatternProfiler::new(); 4],
            swaps: SwapStats::default(),
            branches: BranchStats::default(),
        }
    }

    /// The attached trace sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Consumes the simulator, returning the sink.
    pub fn into_sink(self) -> S {
        self.sink
    }

    /// Runs a program end-to-end: interprets it with [`fua_vm::Vm`] and
    /// feeds the dynamic instruction stream through the pipeline.
    ///
    /// # Errors
    ///
    /// Propagates interpreter faults ([`VmError`]).
    pub fn run_program(&mut self, program: &Program, limit: u64) -> Result<SimResult, VmError> {
        let mut vm = Vm::new(program);
        let mut remaining = limit;
        let result = self.run_source(|| {
            if remaining == 0 {
                return Ok(None);
            }
            remaining -= 1;
            vm.step()
        })?;
        Ok(SimResult {
            halted: vm.halted(),
            ..result
        })
    }

    /// Runs a pre-materialised trace (useful for tests and property
    /// checks).
    pub fn run_trace(&mut self, ops: &[DynOp]) -> SimResult {
        let mut iter = ops.iter().copied();
        self.run_source(|| Ok(iter.next()))
            .expect("a materialised trace cannot fault")
    }

    fn run_source(
        &mut self,
        mut next_op: impl FnMut() -> Result<Option<DynOp>, VmError>,
    ) -> Result<SimResult, VmError> {
        let mut source_done = false;
        let mut idle_cycles = 0u64;
        loop {
            let progress_commit = self.commit();
            let progress_issue = self.issue();
            let progress_fetch = if source_done && self.skid.is_none() {
                0
            } else {
                let fetched = self.fetch(&mut next_op)?;
                if fetched.1 {
                    source_done = true;
                }
                fetched.0
            };

            if S::ENABLED {
                self.sink.record(&TraceEvent::CycleSummary {
                    cycle: self.cycle,
                    window: self.window.len() as u32,
                    issued: progress_issue as u32,
                });
            }
            self.cycle += 1;
            if self.window.is_empty() && source_done && self.skid.is_none() {
                break;
            }

            if progress_commit + progress_issue + progress_fetch == 0 {
                idle_cycles += 1;
                assert!(
                    idle_cycles < WATCHDOG_CYCLES,
                    "pipeline wedged at cycle {}: head {:?}",
                    self.cycle,
                    self.window.front()
                );
            } else {
                idle_cycles = 0;
            }
        }
        Ok(SimResult {
            cycles: self.cycle,
            retired: self.retired,
            halted: false,
            ledger: self.ledger,
            occupancy: self.occupancy.clone(),
            bit_patterns: self.bit_patterns.clone(),
            swaps: self.swaps,
            branches: self.branches,
            cache: CacheStats {
                hits: self.cache.hits(),
                misses: self.cache.misses(),
            },
        })
    }

    // --- commit ---

    fn commit(&mut self) -> usize {
        let mut committed = 0;
        while committed < self.config.commit_width {
            let head_done = matches!(
                self.window.front(),
                Some(e) if e.state == EntryState::Issued && e.done_cycle <= self.cycle
            );
            if !head_done {
                break;
            }
            let entry = self.window.pop_front().expect("head checked above");
            if S::ENABLED {
                self.sink.record(&TraceEvent::Stage {
                    stage: Stage::Retire,
                    cycle: self.cycle,
                    serial: entry.op.serial,
                    opcode: entry.op.opcode,
                });
            }
            self.head_serial += 1;
            self.retired += 1;
            committed += 1;
        }
        committed
    }

    // --- issue ---

    fn deps_satisfied(&self, entry: &Entry) -> bool {
        entry.deps.iter().all(|dep| match dep {
            None => true,
            Some(serial) => {
                if *serial < self.head_serial {
                    return true; // producer already committed
                }
                let idx = (*serial - self.head_serial) as usize;
                let producer = &self.window[idx];
                producer.state == EntryState::Issued && producer.done_cycle <= self.cycle
            }
        })
    }

    /// Selects this cycle's issue group: oldest-first per class, one
    /// instruction per module, loads/stores contending for the memory
    /// ports.
    fn select_ready(&self) -> [Vec<usize>; 4] {
        let mut selected: [Vec<usize>; 4] = Default::default();
        let mut mem_ports_left = self.config.mem_ports;
        for idx in 0..self.window.len() {
            let entry = &self.window[idx];
            if entry.state != EntryState::Waiting {
                continue;
            }
            let Some(fu) = entry.op.fu else { continue };
            let ci = fu.class.index();
            let needs_port = entry.op.mem.is_some();
            let issuable = selected[ci].len() < self.config.modules(fu.class)
                && (!needs_port || mem_ports_left > 0)
                && self.deps_satisfied(entry);
            if issuable {
                if needs_port {
                    mem_ports_left -= 1;
                }
                selected[ci].push(idx);
            }
        }
        selected
    }

    fn issue(&mut self) -> usize {
        let groups = self.select_ready();
        if S::ENABLED {
            self.record_stalls(&groups);
        }
        let mut issued_total = 0;
        for class in FuClass::ALL {
            issued_total += self.issue_class(class, &groups[class.index()]);
        }
        issued_total
    }

    /// Classifies every *idle* issue slot of this cycle into the
    /// [`StallReason`] taxonomy; mirrors `select_ready`'s walk.
    fn record_stalls(&mut self, groups: &[Vec<usize>; 4]) {
        let mut idle = [0usize; 4];
        let mut width_left = [0usize; 4];
        for class in FuClass::ALL {
            let ci = class.index();
            width_left[ci] = self.config.modules(class);
            idle[ci] = width_left[ci] - groups[ci].len();
        }
        let mut mem_ports_left = self.config.mem_ports;
        for idx in 0..self.window.len() {
            let entry = &self.window[idx];
            if entry.state != EntryState::Waiting {
                continue;
            }
            let Some(fu) = entry.op.fu else { continue };
            let ci = fu.class.index();
            let needs_port = entry.op.mem.is_some();
            let ready = self.deps_satisfied(entry);
            if width_left[ci] > 0 && (!needs_port || mem_ports_left > 0) && ready {
                // This candidate was selected for issue.
                if needs_port {
                    mem_ports_left -= 1;
                }
                width_left[ci] -= 1;
                continue;
            }
            let reason = if ready {
                StallReason::FuBusy
            } else {
                StallReason::OperandWait
            };
            if idle[ci] > 0 {
                idle[ci] -= 1;
                let event = TraceEvent::Stall {
                    cycle: self.cycle,
                    class: fu.class,
                    reason,
                    slots: 1,
                    pc: Some(entry.op.static_idx),
                    case: Some(fu.case()),
                };
                self.sink.record(&event);
            }
        }
        let (reason, pc) =
            if self.fetch_blocked_by.is_some() || self.cycle < self.fetch_resume_cycle {
                let culprit = self.fetch_blocked_by.and_then(|serial| {
                    serial
                        .checked_sub(self.head_serial)
                        .and_then(|idx| self.window.get(idx as usize))
                        .map(|e| e.op.static_idx)
                });
                (StallReason::BranchRecovery, culprit)
            } else if self.window.len() >= self.config.rob_size {
                (
                    StallReason::RobFull,
                    self.window.front().map(|e| e.op.static_idx),
                )
            } else if let Some(op) = &self.skid {
                (StallReason::RsFull, Some(op.static_idx))
            } else {
                (StallReason::FetchStarved, None)
            };
        for class in FuClass::ALL {
            let ci = class.index();
            if idle[ci] > 0 {
                let event = TraceEvent::Stall {
                    cycle: self.cycle,
                    class,
                    reason,
                    slots: idle[ci] as u32,
                    pc,
                    case: None,
                };
                self.sink.record(&event);
            }
        }
    }

    fn issue_class(&mut self, class: FuClass, selected: &[usize]) -> usize {
        let modules = self.config.modules(class);
        debug_assert!(selected.len() <= modules);
        self.occupancy[class.index()].record(selected.len());
        if selected.is_empty() {
            return 0;
        }

        // Build the FU operations, applying the static swap rules.
        let mut ops: Vec<fua_vm::FuOp> = selected
            .iter()
            .map(|&i| self.window[i].op.fu.expect("selected ops have FUs"))
            .collect();
        if let Some(rule) = self.steering.swap_rule(class) {
            let rule = *rule;
            for (op, &i) in ops.iter_mut().zip(selected) {
                if rule.apply(op) {
                    self.swaps.rule_swaps += 1;
                    if S::ENABLED {
                        let serial = self.window[i].op.serial;
                        self.sink.record(&TraceEvent::OperandSwap {
                            cycle: self.cycle,
                            serial,
                            class,
                            kind: SwapKind::Rule,
                        });
                    }
                }
            }
        }
        // Steer: duplicated classes consult the policy, single-module
        // classes trivially use module 0.
        let choices: Vec<fua_steer::ModuleChoice> = if modules > 1 {
            let policy = self
                .steering
                .policy_mut(class)
                .expect("duplicated classes have a policy");
            policy.assign(&ops, &self.ports[class.index()])
        } else {
            ops.iter()
                .map(|_| fua_steer::ModuleChoice {
                    module: 0,
                    swap: false,
                })
                .collect()
        };
        if cfg!(debug_assertions) {
            fua_steer::validate_choices(&ops, modules, &choices);
        }

        // Latch, charge energy, schedule completion.
        for ((mut op, choice), &win_idx) in ops.into_iter().zip(choices).zip(selected) {
            // The case the steering policy saw (post rule-swap,
            // pre policy-swap) — what a Steer trace event reports.
            let steer_case = op.case();
            if choice.swap {
                debug_assert!(op.commutative);
                op = op.swapped();
                self.swaps.policy_swaps += 1;
            }
            let ports = &mut self.ports[class.index()][choice.module];
            let bits = ports.latch(op.op1, op.op2);
            self.ledger.charge(class, bits);
            self.bit_patterns[class.index()].record(&op);

            let entry = &mut self.window[win_idx];
            let opcode = entry.op.opcode;
            let serial = entry.op.serial;
            let entry_pc = entry.op.static_idx;

            let mut latency = self.config.latency(opcode);
            let mut cache_event = None;
            if let Some(mem) = entry.op.mem {
                let mem_latency = self.cache.access(mem.addr);
                if mem.is_load {
                    latency += mem_latency;
                }
                if S::ENABLED {
                    cache_event = Some(TraceEvent::Cache {
                        cycle: self.cycle,
                        serial,
                        addr: mem.addr,
                        hit: mem_latency == self.cache.config().hit_latency,
                        latency: mem_latency,
                    });
                }
            }
            entry.state = EntryState::Issued;
            entry.done_cycle = self.cycle + latency;
            let done_cycle = entry.done_cycle;
            self.rs_used[class.index()] -= 1;

            // A resolved mispredicted branch un-blocks fetch.
            if self.fetch_blocked_by == Some(serial) {
                self.fetch_blocked_by = None;
                self.fetch_resume_cycle = done_cycle + self.config.mispredict_penalty;
            }

            if S::ENABLED {
                let module = choice.module as u8;
                self.sink.record(&TraceEvent::Stage {
                    stage: Stage::Issue,
                    cycle: self.cycle,
                    serial,
                    opcode,
                });
                if modules > 1 {
                    self.sink.record(&TraceEvent::Steer {
                        cycle: self.cycle,
                        serial,
                        class,
                        case: steer_case,
                        module,
                        swap: choice.swap,
                        cost_bits: bits,
                    });
                }
                if choice.swap {
                    self.sink.record(&TraceEvent::OperandSwap {
                        cycle: self.cycle,
                        serial,
                        class,
                        kind: SwapKind::Policy,
                    });
                }
                self.sink.record(&TraceEvent::Energy {
                    cycle: self.cycle,
                    serial,
                    pc: entry_pc,
                    class,
                    module,
                    case: steer_case,
                    bits,
                });
                self.sink.record(&TraceEvent::Stall {
                    cycle: self.cycle,
                    class,
                    reason: StallReason::Issued,
                    slots: 1,
                    pc: Some(entry_pc),
                    case: Some(steer_case),
                });
                if let Some(event) = cache_event {
                    self.sink.record(&event);
                }
                self.sink.record(&TraceEvent::Execute {
                    cycle: self.cycle,
                    serial,
                    class,
                    module,
                    latency,
                    opcode,
                });
                self.sink.record(&TraceEvent::Stage {
                    stage: Stage::Writeback,
                    cycle: done_cycle,
                    serial,
                    opcode,
                });
            }
        }
        selected.len()
    }

    // --- fetch/dispatch ---

    /// Returns (dispatched count, source exhausted).
    fn fetch(
        &mut self,
        next_op: &mut impl FnMut() -> Result<Option<DynOp>, VmError>,
    ) -> Result<(usize, bool), VmError> {
        if self.fetch_blocked_by.is_some() || self.cycle < self.fetch_resume_cycle {
            return Ok((0, false));
        }
        let mut dispatched = 0;
        while dispatched < self.config.fetch_width {
            if self.window.len() >= self.config.rob_size {
                break;
            }
            // Drain the skid buffer (an op stalled on a full reservation
            // station last cycle) before pulling from the source.
            let op = match self.skid.take() {
                Some(op) => op,
                None => match next_op()? {
                    Some(op) => {
                        if S::ENABLED {
                            self.sink.record(&TraceEvent::Stage {
                                stage: Stage::Fetch,
                                cycle: self.cycle,
                                serial: op.serial,
                                opcode: op.opcode,
                            });
                        }
                        op
                    }
                    None => return Ok((dispatched, true)),
                },
            };
            if let Some(fu) = op.fu {
                if self.rs_used[fu.class.index()] >= self.config.rs_entries {
                    // Structural stall: park the op and retry next cycle.
                    self.skid = Some(op);
                    break;
                }
                self.rs_used[fu.class.index()] += 1;
            }
            self.dispatch(op);
            dispatched += 1;
            if self.fetch_blocked_by.is_some() {
                break; // mispredicted branch ends the fetch group
            }
        }
        Ok((dispatched, false))
    }

    fn dispatch(&mut self, op: DynOp) {
        if S::ENABLED {
            self.sink.record(&TraceEvent::Stage {
                stage: Stage::Decode,
                cycle: self.cycle,
                serial: op.serial,
                opcode: op.opcode,
            });
        }
        let deps = [
            op.srcs[0].and_then(|r| self.last_writer[r.dense_index()]),
            op.srcs[1].and_then(|r| self.last_writer[r.dense_index()]),
        ];
        if S::ENABLED {
            self.sink.record(&TraceEvent::Dependence {
                cycle: self.cycle,
                serial: op.serial,
                pc: op.static_idx,
                dep1: deps[0],
                dep2: deps[1],
            });
        }
        if let Some(dst) = op.dst {
            self.last_writer[dst.dense_index()] = Some(op.serial);
        }
        if let Some(branch) = op.branch {
            if !branch.unconditional {
                self.branches.branches += 1;
                let predicted = self.predictor.predict(op.static_idx);
                self.predictor.update(op.static_idx, branch.taken);
                if S::ENABLED {
                    self.sink.record(&TraceEvent::Branch {
                        cycle: self.cycle,
                        serial: op.serial,
                        taken: branch.taken,
                        predicted,
                    });
                }
                if predicted != branch.taken {
                    self.branches.mispredicts += 1;
                    self.fetch_blocked_by = Some(op.serial);
                }
            }
        }
        let state = if op.fu.is_some() {
            EntryState::Waiting
        } else {
            EntryState::Issued // no FU: completes next cycle
        };
        let done_cycle = self.cycle + 1;
        self.window.push_back(Entry {
            op,
            deps,
            state,
            done_cycle,
        });
    }
}
