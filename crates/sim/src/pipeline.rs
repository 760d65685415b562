//! The cycle-driven out-of-order engine.
//!
//! The in-flight machinery is laid out for the machine, not the borrow
//! checker: pre-decoded struct-of-arrays ROB/reservation-station state in
//! an [`InflightArena`] ring, dense `waiting`/`ready` bitmasks scanned
//! with `trailing_zeros`, wakeup via per-producer consumer lists drained
//! by a completion calendar wheel, and branchless case computation from
//! pre-decoded information bits. The arena is leased from a thread-local
//! pool, so sweeps and bench suites reuse one allocation across runs.
//! `docs/PERFORMANCE.md` documents the layout and the measured effect;
//! DESIGN.md §13 gives the soundness argument. The pre-rewrite engine
//! survives as [`crate::ReferenceSimulator`], and the
//! `hot_loop_equivalence` integration test pins this engine against it
//! bit-for-bit.

use std::time::Instant;

use fua_isa::{Case, FuClass, Program};
use fua_stats::{BitPatternProfiler, OccupancyProfiler};
use fua_trace::{NullSink, Stage, StallReason, SwapKind, TraceEvent, TraceSink};
use fua_vm::{DynOp, Vm, VmError};

use crate::inflight::{
    bit_clear, bit_get, bit_set, bit_shift_right, ArenaLease, InflightArena, NO_NODE,
};
use crate::lane::Timing;
use crate::{
    BimodalPredictor, BranchStats, CacheStats, DataCache, Lane, MachineConfig, NullProfiler,
    PhaseProfiler, SimPhase, SimResult, SteeringConfig,
};

/// Times `$body` and charges it to `$phase` — expands to bare `$body`
/// when the profiler type is disabled, so the untimed hot loop contains
/// no clock reads at all (same contract as the trace hooks).
macro_rules! timed {
    ($self:ident, $phase:expr, $body:expr) => {
        if P::ENABLED {
            let __start = Instant::now();
            let __result = $body;
            $self.profiler.add($phase, __start.elapsed());
            __result
        } else {
            $body
        }
    };
}

/// How many cycles the engine tolerates with no commit, issue or dispatch
/// before declaring itself wedged (a model bug, not a program property).
const WATCHDOG_CYCLES: u64 = 10_000;

/// The out-of-order superscalar simulator.
///
/// One `Simulator` owns the machine state (window, predictor, cache) and
/// one steering [`Lane`] (module latches, ledger) for a single run;
/// create a fresh one per run. See the crate-level docs for an example.
/// In-flight storage is leased from a thread-local arena pool, so
/// constructing simulators in a loop reuses one allocation.
/// [`Simulator::run_lanes`] runs a program once for many steering
/// schemes through the same issue code.
///
/// The engine is generic over a [`TraceSink`]; [`Simulator::new`] uses
/// the no-op [`NullSink`] (its hooks compile away entirely), while
/// [`Simulator::with_sink`] delivers a cycle-stamped [`TraceEvent`]
/// stream — pipeline stages, steering decisions, operand swaps,
/// cache/branch outcomes, energy-ledger deltas — to any sink.
///
/// It is likewise generic over a [`PhaseProfiler`]; the default
/// [`NullProfiler`] compiles every wall-clock read away, while
/// [`Simulator::with_parts`] + [`PhaseTimers`](crate::PhaseTimers)
/// accounts hot-loop time to fetch/rename/steer/issue/writeback for the
/// `fua bench-suite` performance ledger. Profiling never feeds back into
/// simulation state: a profiled run is cycle-identical to an unprofiled
/// one.
pub struct Simulator<S: TraceSink = NullSink, P: PhaseProfiler = NullProfiler> {
    sink: S,
    profiler: P,
    config: MachineConfig,
    /// The steering lane of a one-lane run; `None` only inside
    /// [`Simulator::run_lanes`], whose lanes belong to the caller.
    lane: Option<Lane>,

    inflight: ArenaLease,
    window_len: usize,
    head_serial: u64,
    last_writer: [Option<u64>; 64],
    rs_used: [usize; 4],
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

    occupancy: Vec<OccupancyProfiler>,
    /// Per-class operand bit patterns of the issued ops, before any
    /// lane's swap: like occupancy, they depend only on the op stream.
    bit_patterns: Vec<BitPatternProfiler>,
    branches: BranchStats,
}

impl Simulator<NullSink> {
    /// Creates an untraced simulator for one run.
    pub fn new(config: MachineConfig, steering: SteeringConfig) -> Self {
        Simulator::with_sink(config, steering, NullSink)
    }
}

impl<S: TraceSink> Simulator<S> {
    /// Creates a simulator whose pipeline hooks feed `sink` (without
    /// phase profiling).
    pub fn with_sink(config: MachineConfig, steering: SteeringConfig, sink: S) -> Self {
        Simulator::with_parts(config, steering, sink, NullProfiler)
    }
}

impl<S: TraceSink, P: PhaseProfiler> Simulator<S, P> {
    /// Creates a simulator with both a trace sink and a phase profiler
    /// attached; recover them after the run with
    /// [`into_parts`](Simulator::into_parts).
    pub fn with_parts(
        config: MachineConfig,
        steering: SteeringConfig,
        sink: S,
        profiler: P,
    ) -> Self {
        let lane = Lane::new(&config, steering);
        Simulator::engine(config, sink, profiler, Some(lane))
    }

    /// Runs `program` once on `config`, feeding every cycle's issue
    /// group of every class to each lane in turn, and returns one
    /// [`SimResult`] per lane, in lane order, with `sink` and
    /// `profiler`. Each result equals what [`Simulator::new`] with that
    /// lane's [`SteeringConfig`] would return: steering never changes
    /// which instructions issue when, so the lanes share one timing
    /// run. Nothing is buffered per cycle, so memory does not grow.
    ///
    /// `sink` receives the stream [`Simulator::with_sink`] under lane
    /// 0's scheme would: the engine's events plus lane 0's steering,
    /// swap and energy events. `profiler` times every lane's steering.
    /// [`NullSink`] and [`NullProfiler`] compile away.
    ///
    /// Lanes built with [`Lane::measuring`] skip every other class's
    /// issue groups; the engine checks lane 0's class once per (cycle,
    /// class), so all lanes must measure the same classes.
    ///
    /// # Errors
    ///
    /// Propagates interpreter faults ([`VmError`]).
    ///
    /// # Panics
    ///
    /// Panics if `sink` is enabled and `lanes` is empty or measures one
    /// class only: its events describe lane 0's steering of every class.
    /// Panics if the lanes do not all measure the same classes.
    pub fn run_lanes<A: TraceSink>(
        config: MachineConfig,
        sink: S,
        profiler: P,
        lanes: &mut [Lane<A>],
        program: &Program,
        limit: u64,
    ) -> Result<(Vec<SimResult>, S, P), VmError> {
        let measured = lanes.first().map(Lane::measured);
        assert!(
            lanes.iter().all(|lane| Some(lane.measured()) == measured),
            "every lane of one run must measure the same classes"
        );
        assert!(
            !S::ENABLED || measured == Some(None),
            "an enabled engine sink needs lanes that measure every class"
        );
        let mut engine = Simulator::engine(config, sink, profiler, None);
        let timing = engine.run_vm(program, limit, lanes)?;
        let results = lanes.iter().map(|lane| lane.result(&timing)).collect();
        Ok((results, engine.sink, engine.profiler))
    }

    fn engine(config: MachineConfig, sink: S, profiler: P, lane: Option<Lane>) -> Self {
        config.validate();
        let occupancy = FuClass::ALL
            .iter()
            .map(|c| OccupancyProfiler::new(config.modules(*c)))
            .collect();
        let cache = DataCache::new(config.cache);
        let inflight = InflightArena::lease(&config);
        Simulator {
            sink,
            profiler,
            config,
            lane,
            inflight,
            window_len: 0,
            head_serial: 0,
            last_writer: [None; 64],
            rs_used: [0; 4],
            predictor: BimodalPredictor::new(4096),
            cache,
            cycle: 0,
            retired: 0,
            fetch_resume_cycle: 0,
            fetch_blocked_by: None,
            skid: None,
            occupancy,
            bit_patterns: vec![BitPatternProfiler::new(); 4],
            branches: BranchStats::default(),
        }
    }

    /// The attached trace sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Consumes the simulator, returning the sink (to read a ring buffer
    /// or metrics registry after a run, or to thread one sink through a
    /// sequence of runs).
    pub fn into_sink(self) -> S {
        self.sink
    }

    /// The attached phase profiler.
    pub fn profiler(&self) -> &P {
        &self.profiler
    }

    /// Consumes the simulator, returning sink and profiler together.
    pub fn into_parts(self) -> (S, P) {
        (self.sink, self.profiler)
    }

    /// Runs a program end-to-end: interprets it with [`fua_vm::Vm`] and
    /// feeds the dynamic instruction stream through the pipeline.
    ///
    /// # Errors
    ///
    /// Propagates interpreter faults ([`VmError`]).
    pub fn run_program(&mut self, program: &Program, limit: u64) -> Result<SimResult, VmError> {
        self.run_one_lane(|sim, lanes| sim.run_vm(program, limit, lanes))
    }

    /// Runs a pre-materialised trace (useful for tests and property
    /// checks).
    pub fn run_trace(&mut self, ops: &[DynOp]) -> SimResult {
        let mut iter = ops.iter().copied();
        self.run_one_lane(|sim, lanes| sim.run_source(|| Ok(iter.next()), lanes))
            .expect("a materialised trace cannot fault")
    }

    /// Runs `run` over this simulator's own lane and builds its result.
    fn run_one_lane(
        &mut self,
        run: impl FnOnce(&mut Self, &mut [Lane]) -> Result<Timing, VmError>,
    ) -> Result<SimResult, VmError> {
        let mut lane = self
            .lane
            .take()
            .expect("a one-lane simulator owns its lane");
        let timing = run(self, std::slice::from_mut(&mut lane));
        let result = timing.map(|t| lane.result(&t));
        self.lane = Some(lane);
        result
    }

    /// Interprets `program` with [`fua_vm::Vm`] (at most `limit`
    /// instructions) and feeds the dynamic stream through the pipeline.
    fn run_vm<A: TraceSink>(
        &mut self,
        program: &Program,
        limit: u64,
        lanes: &mut [Lane<A>],
    ) -> Result<Timing, VmError> {
        let mut vm = Vm::new(program);
        let mut remaining = limit;
        let timing = self.run_source(
            || {
                if remaining == 0 {
                    return Ok(None);
                }
                remaining -= 1;
                vm.step()
            },
            lanes,
        )?;
        Ok(Timing {
            halted: vm.halted(),
            ..timing
        })
    }

    fn run_source<A: TraceSink>(
        &mut self,
        mut next_op: impl FnMut() -> Result<Option<DynOp>, VmError>,
        lanes: &mut [Lane<A>],
    ) -> Result<Timing, VmError> {
        let mut source_done = false;
        let mut idle_cycles = 0u64;
        loop {
            let progress_commit = timed!(self, SimPhase::Writeback, {
                self.wake_completions();
                self.commit()
            });
            let progress_issue = timed!(self, SimPhase::Issue, self.issue(lanes));
            let progress_fetch = if source_done && self.skid.is_none() {
                0
            } else {
                let fetched = timed!(self, SimPhase::Fetch, self.fetch(&mut next_op))?;
                if fetched.1 {
                    source_done = true;
                }
                fetched.0
            };

            if S::ENABLED {
                self.sink.record(&TraceEvent::CycleSummary {
                    cycle: self.cycle,
                    window: self.window_len as u32,
                    issued: progress_issue as u32,
                });
            }
            self.cycle += 1;
            if self.window_len == 0 && source_done && self.skid.is_none() {
                break;
            }

            if progress_commit + progress_issue + progress_fetch == 0 {
                idle_cycles += 1;
                if idle_cycles >= WATCHDOG_CYCLES {
                    let head = (self.window_len > 0).then(|| {
                        let slot = (self.head_serial & self.inflight.mask) as usize;
                        (self.inflight.serial[slot], self.inflight.opcode[slot])
                    });
                    panic!("pipeline wedged at cycle {}: head {:?}", self.cycle, head);
                }
            } else {
                idle_cycles = 0;
            }
        }
        Ok(Timing {
            cycles: self.cycle,
            retired: self.retired,
            halted: false,
            occupancy: self.occupancy.clone(),
            bit_patterns: self.bit_patterns.clone(),
            branches: self.branches,
            cache: CacheStats {
                hits: self.cache.hits(),
                misses: self.cache.misses(),
            },
        })
    }

    // --- wakeup ---

    /// Drains this cycle's completion-wheel bucket: every producer slot
    /// completing now walks its consumer list, decrementing each
    /// consumer's pending-operand count and setting its `ready` bit when
    /// the count hits zero. Runs before commit so a producer completing
    /// at cycle `c` satisfies consumers issuing at cycle `c`, matching
    /// the reference engine's `done_cycle <= cycle` check.
    fn wake_completions(&mut self) {
        let cycle = self.cycle;
        let head_serial = self.head_serial;
        let a = &mut *self.inflight;
        let idx = (cycle & a.wheel_mask) as usize;
        if a.wheel[idx].is_empty() {
            return;
        }
        let bucket = std::mem::take(&mut a.wheel[idx]);
        for &pslot in &bucket {
            let mut node = a.first_consumer[pslot as usize];
            a.first_consumer[pslot as usize] = NO_NODE;
            while node != NO_NODE {
                let next = a.next_consumer[node as usize];
                let cslot = (node >> 1) as usize;
                a.pending[cslot] -= 1;
                if a.pending[cslot] == 0 {
                    // A consumer cannot commit before it issues, so it is
                    // still in the window and this offset is in range.
                    let offset = (a.serial[cslot] - head_serial) as usize;
                    bit_set(&mut a.ready, offset);
                }
                node = next;
            }
        }
        // Hand the (cleared) allocation back to the wheel.
        let mut bucket = bucket;
        bucket.clear();
        self.inflight.wheel[idx] = bucket;
    }

    // --- commit ---

    fn commit(&mut self) -> usize {
        let cycle = self.cycle;
        let commit_width = self.config.commit_width;
        let mut committed = 0;
        while committed < commit_width && committed < self.window_len {
            // Offset `committed` is the current head: bits shift only
            // after the loop, so ages are relative to the old head.
            let a = &*self.inflight;
            if bit_get(&a.waiting, committed) {
                break;
            }
            let slot = ((self.head_serial + committed as u64) & a.mask) as usize;
            if a.done_cycle[slot] > cycle {
                break;
            }
            if S::ENABLED {
                let serial = a.serial[slot];
                let opcode = a.opcode[slot];
                self.sink.record(&TraceEvent::Stage {
                    stage: Stage::Retire,
                    cycle,
                    serial,
                    opcode,
                });
            }
            committed += 1;
        }
        if committed > 0 {
            self.head_serial += committed as u64;
            self.retired += committed as u64;
            self.window_len -= committed;
            let a = &mut *self.inflight;
            bit_shift_right(&mut a.waiting, committed);
            bit_shift_right(&mut a.ready, committed);
        }
        committed
    }

    // --- issue ---

    /// Selects this cycle's issue group into the arena's per-class
    /// scratch: oldest-first per class, one instruction per module,
    /// loads/stores contending for the memory ports. Scans only the
    /// dense `ready` bitmask (deps already resolved by wakeup).
    fn select_ready(&mut self) {
        let head_serial = self.head_serial;
        let fu_counts = self.config.fu_counts;
        let mut mem_ports_left = self.config.mem_ports;
        let a = &mut *self.inflight;
        for sel in &mut a.selected {
            sel.clear();
        }
        for w in 0..a.words {
            let mut word = a.ready[w];
            while word != 0 {
                let offset = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                let slot = ((head_serial + offset as u64) & a.mask) as usize;
                let ci = a.fu[slot].class.index();
                let needs_port = a.has_mem[slot];
                if a.selected[ci].len() < fu_counts[ci] && (!needs_port || mem_ports_left > 0) {
                    if needs_port {
                        mem_ports_left -= 1;
                    }
                    a.selected[ci].push(offset as u32);
                }
            }
        }
    }

    fn issue<A: TraceSink>(&mut self, lanes: &mut [Lane<A>]) -> usize {
        self.select_ready();
        if S::ENABLED {
            self.record_stalls();
        }
        let mut issued_total = 0;
        for class in FuClass::ALL {
            issued_total += self.issue_class(class, lanes);
        }
        issued_total
    }

    /// Classifies every *idle* issue slot of this cycle into the
    /// [`StallReason`] taxonomy (issued slots are recorded by
    /// `issue_class` alongside the energy charge, so per class the
    /// emitted slot counts sum to the module count — the exact
    /// partition `cycles × issue_width`).
    ///
    /// Runs only when a sink is attached and never mutates engine
    /// state: it walks the `waiting` bitmask in the age order
    /// `select_ready` visits the `ready` bits, with the same module and
    /// memory-port budgets, to rediscover which candidates were passed
    /// over and why, so a traced run is cycle-identical to an untraced
    /// one.
    fn record_stalls(&mut self) {
        let mut idle = [0usize; 4];
        let mut width_left = [0usize; 4];
        for class in FuClass::ALL {
            let ci = class.index();
            width_left[ci] = self.config.modules(class);
            idle[ci] = width_left[ci] - self.inflight.selected[ci].len();
        }
        let mut mem_ports_left = self.config.mem_ports;
        let head_serial = self.head_serial;
        for w in 0..self.inflight.words {
            let mut word = self.inflight.waiting[w];
            while word != 0 {
                let offset = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                let a = &*self.inflight;
                let slot = ((head_serial + offset as u64) & a.mask) as usize;
                let class = a.fu[slot].class;
                let ci = class.index();
                let needs_port = a.has_mem[slot];
                let ready = bit_get(&a.ready, offset);
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
                // Charge an idle slot of the candidate's class to it,
                // while slots remain (blocked candidates can outnumber
                // the idle slots — the slots are the resource being
                // partitioned).
                if idle[ci] > 0 {
                    idle[ci] -= 1;
                    let event = TraceEvent::Stall {
                        cycle: self.cycle,
                        class,
                        reason,
                        slots: 1,
                        pc: Some(a.static_idx[slot]),
                        case: Some(Case::from_index_masked(a.case_bits[slot])),
                    };
                    self.sink.record(&event);
                }
            }
        }
        // Residual idle slots had no candidate at all: a frontend
        // condition starved them, classified in the same priority order
        // `fetch` itself gates on.
        let (reason, pc) =
            if self.fetch_blocked_by.is_some() || self.cycle < self.fetch_resume_cycle {
                let culprit = self.fetch_blocked_by.and_then(|serial| {
                    serial
                        .checked_sub(self.head_serial)
                        .filter(|&off| (off as usize) < self.window_len)
                        .map(|_| self.inflight.static_idx[(serial & self.inflight.mask) as usize])
                });
                (StallReason::BranchRecovery, culprit)
            } else if self.window_len >= self.config.rob_size {
                let head_pc = (self.window_len > 0).then(|| {
                    self.inflight.static_idx[(self.head_serial & self.inflight.mask) as usize]
                });
                (StallReason::RobFull, head_pc)
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

    /// Issues one class's selected group: the engine records its
    /// occupancy and bit patterns, every lane steers, latches and
    /// charges it (static swap rule, then policy, then latch, then
    /// charge), then the engine schedules each instruction's completion.
    /// Only the second half touches timing state, and it reads lane 0
    /// only to describe its steering in the engine sink's events. When
    /// the lanes measure another class, the lane loop is skipped whole.
    fn issue_class<A: TraceSink>(&mut self, class: FuClass, lanes: &mut [Lane<A>]) -> usize {
        let ci = class.index();
        let modules = self.config.modules(class);
        let selected = std::mem::take(&mut self.inflight.selected[ci]);
        debug_assert!(selected.len() <= modules);
        self.occupancy[ci].record(selected.len());
        if selected.is_empty() {
            self.inflight.selected[ci] = selected;
            return 0;
        }
        let head_serial = self.head_serial;
        let mask = self.inflight.mask;
        let slot_of = |offset: u32| ((head_serial + offset as u64) & mask) as usize;

        // Gather the group once, into the first lane, recording each op's
        // bit patterns as issued; the other lanes copy the group before
        // the first lane swaps it in place. The pre-decoded case bits
        // track each op through every swap, so no operand word is
        // re-inspected on this path. Every buffer is reused each cycle,
        // so steady-state issue stays allocation-free (the gate in
        // tests/alloc_gate.rs).
        let mut sites = std::mem::take(&mut self.inflight.sites_scratch);
        sites.clear();
        let first_lane = lanes
            .split_first_mut()
            .filter(|(first, _)| first.measures(class));
        if let Some((first, rest)) = first_lane {
            let (ops, case_bits) = first.group_mut();
            for &offset in &selected {
                let slot = slot_of(offset);
                let op = self.inflight.fu[slot];
                self.bit_patterns[ci].record(&op);
                ops.push(op);
                case_bits.push(self.inflight.case_bits[slot]);
                if A::ENABLED {
                    sites.push((self.inflight.serial[slot], self.inflight.static_idx[slot]));
                }
            }
            for lane in rest {
                lane.copy_group(first);
                self.steer_group(lane, class, &sites);
            }
            self.steer_group(first, class, &sites);
        } else {
            self.record_bit_patterns(class, &selected);
        }
        if S::ENABLED {
            for (i, &offset) in selected.iter().enumerate() {
                if lanes[0].rule_swapped(i) {
                    let serial = self.inflight.serial[slot_of(offset)];
                    self.sink.record(&TraceEvent::OperandSwap {
                        cycle: self.cycle,
                        serial,
                        class,
                        kind: SwapKind::Rule,
                    });
                }
            }
        }

        // Schedule completion.
        for (i, &offset) in selected.iter().enumerate() {
            let slot = slot_of(offset);
            let offset = offset as usize;
            let opcode = self.inflight.opcode[slot];
            let serial = self.inflight.serial[slot];

            let mut latency = self.config.latency(opcode);
            let mut cache_event = None;
            if self.inflight.has_mem[slot] {
                let mem = self.inflight.mem[slot];
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
            let done_cycle = self.cycle + latency;
            {
                let a = &mut *self.inflight;
                a.done_cycle[slot] = done_cycle;
                bit_clear(&mut a.waiting, offset);
                bit_clear(&mut a.ready, offset);
                debug_assert!(
                    ((done_cycle - self.cycle) as usize) < a.wheel.len(),
                    "completion wheel must cover every latency"
                );
                let widx = (done_cycle & a.wheel_mask) as usize;
                a.wheel[widx].push(slot as u32);
            }
            self.rs_used[ci] -= 1;

            // A resolved mispredicted branch un-blocks fetch.
            if self.fetch_blocked_by == Some(serial) {
                self.fetch_blocked_by = None;
                self.fetch_resume_cycle = done_cycle + self.config.mispredict_penalty;
            }

            if S::ENABLED {
                let lane = &lanes[0];
                let (choice, bits) = lane.outcome(i);
                let steer_case = lane.steer_case(i);
                let entry_pc = self.inflight.static_idx[slot];
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
        let issued = selected.len();
        // Return the scratch buffers (and their capacity) to the arena.
        self.inflight.selected[ci] = selected;
        self.inflight.sites_scratch = sites;
        issued
    }

    /// Records the bit patterns of a group no lane measures. Out of line,
    /// so this path adds no code to the all-class path's loop.
    #[inline(never)]
    fn record_bit_patterns(&mut self, class: FuClass, selected: &[u32]) {
        let profiler = &mut self.bit_patterns[class.index()];
        for &offset in selected {
            let slot = ((self.head_serial + offset as u64) & self.inflight.mask) as usize;
            profiler.record(&self.inflight.fu[slot]);
        }
    }

    /// One lane's pass over a gathered group: static swap rule, then
    /// policy (the timed steering phase), then latch and charge.
    #[inline]
    fn steer_group<A: TraceSink>(
        &mut self,
        lane: &mut Lane<A>,
        class: FuClass,
        sites: &[(u64, u32)],
    ) {
        lane.swap(class);
        if self.config.modules(class) > 1 {
            timed!(self, SimPhase::Steer, lane.steer(class));
        } else {
            lane.steer(class);
        }
        lane.charge(class, self.cycle, sites);
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
            if self.window_len >= self.config.rob_size {
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
            timed!(self, SimPhase::Rename, self.dispatch(op));
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

        // Write the slot. Ring-index stability: slot = serial & mask never
        // collides while the instruction is in flight, because the window
        // holds at most rob_size <= capacity consecutive serials.
        let cycle = self.cycle;
        let head_serial = self.head_serial;
        let offset = self.window_len;
        let a = &mut *self.inflight;
        let slot = (op.serial & a.mask) as usize;
        a.serial[slot] = op.serial;
        a.opcode[slot] = op.opcode;
        a.static_idx[slot] = op.static_idx;
        a.first_consumer[slot] = NO_NODE;
        a.done_cycle[slot] = cycle + 1;
        match op.fu {
            Some(fu) => {
                a.fu[slot] = fu;
                a.case_bits[slot] = fu.case_bits();
                a.has_mem[slot] = op.mem.is_some();
                if let Some(mem) = op.mem {
                    a.mem[slot] = mem;
                }
                // Register unresolved operands with their producers'
                // consumer lists; resolved ones need no wakeup.
                let mut pending = 0u8;
                for (k, dep) in deps.iter().enumerate() {
                    if let Some(s) = *dep {
                        let satisfied = s < head_serial || {
                            let p_offset = (s - head_serial) as usize;
                            let p_slot = (s & a.mask) as usize;
                            !bit_get(&a.waiting, p_offset) && a.done_cycle[p_slot] <= cycle
                        };
                        if !satisfied {
                            pending += 1;
                            let node = (slot * 2 + k) as u32;
                            let p_slot = (s & a.mask) as usize;
                            a.next_consumer[node as usize] = a.first_consumer[p_slot];
                            a.first_consumer[p_slot] = node;
                        }
                    }
                }
                a.pending[slot] = pending;
                bit_set(&mut a.waiting, offset);
                if pending == 0 {
                    bit_set(&mut a.ready, offset);
                }
            }
            None => {
                // No FU: completes next cycle. Schedule the completion so
                // consumers registered on this slot still get woken.
                a.has_mem[slot] = false;
                let widx = ((cycle + 1) & a.wheel_mask) as usize;
                a.wheel[widx].push(slot as u32);
            }
        }
        self.window_len += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fua_isa::{FpReg, IntReg, ProgramBuilder};

    fn r(i: u8) -> IntReg {
        IntReg::new(i)
    }

    fn f(i: u8) -> FpReg {
        FpReg::new(i)
    }

    fn run(program: &Program) -> SimResult {
        let mut sim = Simulator::new(MachineConfig::default(), SteeringConfig::original());
        sim.run_program(program, 1_000_000).expect("runs")
    }

    #[test]
    fn straight_line_code_retires_everything() {
        let mut b = ProgramBuilder::new();
        b.li(r(1), 1);
        b.li(r(2), 2);
        b.add(r(3), r(1), r(2));
        b.halt();
        let p = b.build().expect("valid");
        let res = run(&p);
        assert!(res.halted);
        assert_eq!(res.retired, 4);
        assert!(res.cycles >= 2);
    }

    #[test]
    fn independent_ops_issue_in_parallel() {
        // Four independent adds (after their li's) should issue in one
        // cycle on the 4-IALU machine.
        let mut b = ProgramBuilder::new();
        for i in 1..=4 {
            b.li(r(i), i as i32);
        }
        for i in 1..=4 {
            b.add(r(i + 4), r(i), r(i));
        }
        b.halt();
        let p = b.build().expect("valid");
        let res = run(&p);
        let occ = res.occupancy_of(FuClass::IntAlu);
        assert!(occ.freq(4) > 0.0, "expected at least one 4-wide cycle");
    }

    #[test]
    fn dependent_chain_serialises() {
        let mut b = ProgramBuilder::new();
        b.li(r(1), 0);
        for _ in 0..20 {
            b.addi(r(1), r(1), 1);
        }
        b.halt();
        let p = b.build().expect("valid");
        let res = run(&p);
        assert!(res.halted);
        assert_eq!(res.retired, 22);
        // A 20-deep dependence chain needs at least 20 cycles.
        assert!(res.cycles >= 20, "cycles = {}", res.cycles);
        let occ = res.occupancy_of(FuClass::IntAlu);
        assert!(occ.freq(1) > 0.8, "chain should issue one at a time");
    }

    #[test]
    fn loop_exercises_branch_predictor() {
        let mut b = ProgramBuilder::new();
        let top = b.new_label();
        b.li(r(1), 100);
        b.bind(top);
        b.addi(r(1), r(1), -1);
        b.bgtz(r(1), top);
        b.halt();
        let p = b.build().expect("valid");
        let res = run(&p);
        assert!(res.halted);
        assert_eq!(res.branches.branches, 100);
        // A bimodal predictor learns the loop quickly.
        assert!(
            res.branches.mispredict_rate() < 0.2,
            "rate = {}",
            res.branches.mispredict_rate()
        );
    }

    #[test]
    fn cache_misses_then_hits_on_reuse() {
        let mut b = ProgramBuilder::new();
        let base = b.data_words(&[1, 2, 3, 4, 5, 6, 7, 8]);
        b.li(r(1), base);
        // Two passes over one cache line (same addresses both times).
        for _pass in 0..2 {
            for i in 0..8 {
                b.lw(r(2 + (i % 4) as u8), r(1), i * 4);
            }
        }
        b.halt();
        let p = b.build().expect("valid");
        let res = run(&p);
        assert!(res.cache.hits > res.cache.misses);
    }

    #[test]
    fn energy_is_charged_per_issue() {
        let mut b = ProgramBuilder::new();
        b.li(r(1), 0);
        b.li(r(2), -1);
        b.add(r(3), r(1), r(2));
        b.add(r(4), r(2), r(2));
        b.halt();
        let p = b.build().expect("valid");
        let res = run(&p);
        assert_eq!(res.ledger.ops(FuClass::IntAlu), 4);
        assert!(res.ledger.switched_bits(FuClass::IntAlu) > 0);
    }

    #[test]
    fn fp_pipeline_reaches_the_fp_units() {
        let mut b = ProgramBuilder::new();
        b.fli(f(1), 1.5);
        b.fli(f(2), 2.5);
        b.fadd(f(3), f(1), f(2));
        b.fmul(f(4), f(3), f(2));
        b.halt();
        let p = b.build().expect("valid");
        let res = run(&p);
        assert_eq!(res.ledger.ops(FuClass::FpAlu), 1);
        assert_eq!(res.ledger.ops(FuClass::FpMul), 1);
    }

    #[test]
    fn steering_reduces_energy_on_a_bimodal_stream() {
        // Alternating all-zero and all-one operand pairs: FCFS ping-pongs
        // every module, Full Ham separates the streams.
        let build = || {
            let mut b = ProgramBuilder::new();
            let top = b.new_label();
            b.li(r(1), 0);
            b.li(r(2), -1);
            b.li(r(5), 200);
            b.bind(top);
            b.add(r(3), r(1), r(1));
            b.sub(r(4), r(2), r(2));
            b.addi(r(5), r(5), -1);
            b.bgtz(r(5), top);
            b.halt();
            b.build().expect("valid")
        };
        let p = build();
        let mut base_sim = Simulator::new(MachineConfig::default(), SteeringConfig::original());
        let base = base_sim.run_program(&p, 1_000_000).expect("runs");
        let mut opt_sim = Simulator::new(
            MachineConfig::default(),
            SteeringConfig::paper_scheme(fua_steer::SteeringKind::FullHam, false),
        );
        let opt = opt_sim.run_program(&p, 1_000_000).expect("runs");
        assert_eq!(base.retired, opt.retired, "timing-independent retire count");
        assert!(
            opt.ledger.switched_bits(FuClass::IntAlu) <= base.ledger.switched_bits(FuClass::IntAlu),
            "Full Ham must not exceed FCFS switching"
        );
    }

    #[test]
    fn rs_backpressure_does_not_lose_instructions() {
        // A long chain of dependent divides clogs the IntMul RS; every
        // instruction must still retire.
        let mut b = ProgramBuilder::new();
        b.li(r(1), 1_000_000);
        for _ in 0..30 {
            b.alui(fua_isa::Opcode::Div, r(1), r(1), 1);
        }
        b.halt();
        let p = b.build().expect("valid");
        let res = run(&p);
        assert!(res.halted);
        assert_eq!(res.retired, 32);
    }

    #[test]
    fn profiled_run_is_cycle_identical_and_accumulates_time() {
        let mut b = ProgramBuilder::new();
        let top = b.new_label();
        b.li(r(1), 200);
        b.bind(top);
        b.add(r(2), r(1), r(1));
        b.addi(r(1), r(1), -1);
        b.bgtz(r(1), top);
        b.halt();
        let p = b.build().expect("valid");
        let plain = run(&p);
        let mut sim = Simulator::with_parts(
            MachineConfig::default(),
            SteeringConfig::original(),
            NullSink,
            crate::PhaseTimers::new(),
        );
        let profiled = sim.run_program(&p, 1_000_000).expect("runs");
        // The profiler never perturbs simulation state.
        assert_eq!(plain.cycles, profiled.cycles);
        assert_eq!(plain.retired, profiled.retired);
        assert_eq!(plain.ledger, profiled.ledger);
        let (_, timers) = sim.into_parts();
        for phase in [
            SimPhase::Fetch,
            SimPhase::Rename,
            SimPhase::Issue,
            SimPhase::Writeback,
        ] {
            assert!(
                timers.intervals(phase) > 0,
                "no intervals recorded for {}",
                phase.name()
            );
        }
        // FCFS steering still solves an assignment for the IALU group.
        assert!(timers.intervals(SimPhase::Steer) > 0);
        // Nesting: steer time is a component of issue time.
        assert!(timers.total(SimPhase::Issue) >= timers.total(SimPhase::Steer));
    }

    #[test]
    fn stall_partition_accounts_every_issue_slot_exactly() {
        use fua_trace::StallSink;
        // Mix of dependence chains, loads, branches and multiplies so
        // several taxonomy reasons fire.
        let mut b = ProgramBuilder::new();
        let base = b.data_words(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let top = b.new_label();
        b.li(r(1), base);
        b.li(r(5), 40);
        b.bind(top);
        b.lw(r(2), r(1), 0);
        b.addi(r(3), r(2), 1);
        b.alui(fua_isa::Opcode::Mul, r(4), r(3), 3);
        b.addi(r(5), r(5), -1);
        b.bgtz(r(5), top);
        b.halt();
        let p = b.build().expect("valid");

        let config = MachineConfig::paper_default();
        let issue_width = config.issue_width() as u64;
        let mut sim = Simulator::with_sink(config, SteeringConfig::original(), StallSink::new());
        let traced = sim.run_program(&p, 1_000_000).expect("runs");
        let sink = sim.into_sink();
        assert_eq!(
            sink.total_slots(),
            traced.cycles * issue_width,
            "stall partition must cover cycles x issue_width exactly"
        );
        let totals = sink.reason_totals();
        assert_eq!(totals.iter().sum::<u64>(), sink.total_slots());
        let fu_ops: u64 = FuClass::ALL.iter().map(|&c| traced.ledger.ops(c)).sum();
        assert_eq!(
            totals[StallReason::Issued.index()],
            fu_ops,
            "issued slots equal FU operations latched"
        );
        assert!(totals[StallReason::OperandWait.index()] > 0);

        // And the profiled run is cycle-identical to the unprofiled one.
        let plain = run(&p);
        assert_eq!(plain.cycles, traced.cycles);
        assert_eq!(plain.ledger, traced.ledger);
    }

    #[test]
    fn mispredicted_branch_stalls_fetch() {
        // A data-dependent unpredictable branch pattern costs cycles.
        let mut b = ProgramBuilder::new();
        let top = b.new_label();
        let skip = b.new_label();
        b.li(r(1), 64);
        b.li(r(2), 0x5A5A_5A5A_u32 as i32); // pseudo-random bits
        b.bind(top);
        b.andi(r(3), r(2), 1);
        b.srli(r(2), r(2), 1);
        b.blez(r(3), skip);
        b.addi(r(4), r(4), 1);
        b.bind(skip);
        b.addi(r(1), r(1), -1);
        b.bgtz(r(1), top);
        b.halt();
        let p = b.build().expect("valid");
        let res = run(&p);
        assert!(res.halted);
        assert!(res.branches.mispredicts > 0);
    }
}
