//! Steering lanes: the scheme-dependent half of a simulation.
//!
//! Steering picks a module and an operand order for each instruction of
//! a cycle's issue group; it never decides *which* instructions issue or
//! *when* (`select_ready` gates issue on a per-class count). So one
//! engine run can feed the same issue groups to any number of lanes, and
//! each lane ends up exactly where a standalone run under its
//! [`SteeringConfig`] would: same module latches, same
//! [`EnergyLedger`], same [`SwapStats`].
//!
//! A lane holds everything that depends on the scheme; the engine keeps
//! everything that does not (window, wakeup, cache, predictor,
//! occupancy, and the operand bit patterns of the issued ops). [`Simulator::new`](crate::Simulator::new) is the one-lane
//! case; [`Simulator::run_lanes`](crate::Simulator::run_lanes) runs
//! many, and its engine sink sees lane 0's steering as a one-lane run
//! would.
//!
//! A lane built with [`Lane::measuring`] measures one FU class: it
//! steers, latches and charges only that class's issue groups, so a
//! sweep that reads one unit does no lane work for the others. The
//! engine checks lane 0's class once per (cycle, class), so all lanes of
//! a run measure the same classes.

use fua_isa::{Case, FuClass};
use fua_power::{EnergyLedger, ModulePorts};
use fua_steer::{ModuleChoice, SteeringPolicy};
use fua_trace::{NullSink, TraceEvent, TraceSink};
use fua_vm::FuOp;

use crate::{MachineConfig, SimResult, SteeringConfig, SwapStats};

/// The engine-side outcome of a run, shared by every lane it fed.
pub(crate) struct Timing {
    pub cycles: u64,
    pub retired: u64,
    pub halted: bool,
    pub occupancy: Vec<fua_stats::OccupancyProfiler>,
    pub bit_patterns: Vec<fua_stats::BitPatternProfiler>,
    pub branches: crate::BranchStats,
    pub cache: crate::CacheStats,
}

/// One steering scheme's state through a run: its [`SteeringConfig`],
/// module input latches, energy ledger and swap counters, plus an
/// optional sink. A lane measures every FU class unless
/// [`Lane::measuring`] restricts it to one.
///
/// The sink receives only this lane's [`TraceEvent::Energy`] events —
/// enough for a per-site attribution such as `fua_attr::AttributionSink`.
/// Engine events (stages, stalls, cache, branches) go to the engine's
/// own sink, which also sees lane 0's steering, swap and energy events.
///
/// # Examples
///
/// ```
/// use fua_isa::{IntReg, ProgramBuilder};
/// use fua_sim::{Lane, MachineConfig, NullProfiler, Simulator, SteeringConfig};
/// use fua_steer::SteeringKind;
/// use fua_trace::NullSink;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let r1 = IntReg::new(1);
/// let mut b = ProgramBuilder::new();
/// b.li(r1, 7);
/// b.add(r1, r1, r1);
/// b.halt();
/// let program = b.build()?;
///
/// let machine = MachineConfig::default();
/// let mut lanes = vec![
///     Lane::new(&machine, SteeringConfig::original()),
///     Lane::new(&machine, SteeringConfig::paper_scheme(SteeringKind::FullHam, true)),
/// ];
/// let (results, ..) =
///     Simulator::run_lanes(machine, NullSink, NullProfiler, &mut lanes, &program, 100)?;
/// assert_eq!(results[0].cycles, results[1].cycles, "steering never moves timing");
/// # Ok(())
/// # }
/// ```
pub struct Lane<A: TraceSink = NullSink> {
    steering: SteeringConfig,
    /// The one class this lane steers and charges; `None` for all.
    measured: Option<FuClass>,
    sink: A,
    ports: Vec<Vec<ModulePorts>>,
    ledger: EnergyLedger,
    swaps: SwapStats,

    // --- per-group scratch, reused every cycle ---
    /// The group's operations: as selected, then after this lane's
    /// static swap rule.
    ops: Vec<FuOp>,
    /// Case bits tracking `ops` through the rule swap: the case the
    /// policy saw.
    case_bits: Vec<u8>,
    choices: Vec<ModuleChoice>,
    /// Switched bits charged per operation.
    bits: Vec<u32>,
    /// Bit `i` set when the rule swapped operation `i`.
    rule_swapped: u64,
}

impl Lane {
    /// A lane without a sink.
    pub fn new(machine: &MachineConfig, steering: SteeringConfig) -> Self {
        Lane::with_sink(machine, steering, NullSink)
    }
}

impl<A: TraceSink> Lane<A> {
    /// A lane whose energy charges also feed `sink`.
    pub fn with_sink(machine: &MachineConfig, steering: SteeringConfig, sink: A) -> Self {
        let ports = FuClass::ALL
            .iter()
            .map(|c| vec![ModulePorts::new(); machine.modules(*c)])
            .collect();
        // A group never outnumbers the widest class, so the scratch
        // never grows after construction.
        let width = machine.fu_counts.iter().copied().max().unwrap_or(1);
        Lane {
            steering,
            measured: None,
            sink,
            ports,
            ledger: EnergyLedger::new(),
            swaps: SwapStats::default(),
            ops: Vec::with_capacity(width),
            case_bits: Vec::with_capacity(width),
            choices: Vec::with_capacity(width),
            bits: Vec::with_capacity(width),
            rule_swapped: 0,
        }
    }

    /// Restricts the lane to `class`: it runs the swap rule, the policy,
    /// the latch and the charge only for `class`'s issue groups. Its
    /// result's ledger and swap counts then hold `class` alone (zero for
    /// every other class); timing, occupancy and bit patterns are the
    /// engine's and still cover every class.
    ///
    /// [`Simulator::run_lanes`](crate::Simulator::run_lanes) requires
    /// every lane of a run to measure the same classes, and an enabled
    /// engine sink requires lanes that measure every class.
    ///
    /// # Examples
    ///
    /// ```
    /// use fua_isa::{FpReg, FuClass, IntReg, ProgramBuilder};
    /// use fua_sim::{Lane, MachineConfig, NullProfiler, Simulator, SteeringConfig};
    /// use fua_trace::NullSink;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let (r1, f1) = (IntReg::new(1), FpReg::new(1));
    /// let mut b = ProgramBuilder::new();
    /// b.li(r1, 7);
    /// b.add(r1, r1, r1);
    /// b.fadd(f1, f1, f1);
    /// b.halt();
    /// let program = b.build()?;
    ///
    /// let machine = MachineConfig::default();
    /// let lane = Lane::new(&machine, SteeringConfig::original()).measuring(FuClass::FpAlu);
    /// let mut lanes = vec![lane];
    /// let (results, ..) =
    ///     Simulator::run_lanes(machine, NullSink, NullProfiler, &mut lanes, &program, 100)?;
    /// assert_eq!(results[0].ledger.ops(FuClass::FpAlu), 1);
    /// assert_eq!(results[0].ledger.ops(FuClass::IntAlu), 0, "IALU ops are not charged");
    /// # Ok(())
    /// # }
    /// ```
    pub fn measuring(mut self, class: FuClass) -> Self {
        self.measured = Some(class);
        self
    }

    /// The one class this lane measures, or `None` if it measures all.
    pub(crate) fn measured(&self) -> Option<FuClass> {
        self.measured
    }

    /// Whether this lane steers and charges `class`.
    #[inline]
    pub(crate) fn measures(&self, class: FuClass) -> bool {
        self.measured.is_none_or(|c| c == class)
    }

    /// The attached sink.
    pub fn sink(&self) -> &A {
        &self.sink
    }

    /// Step 0 of a group: the cleared buffers the engine gathers the
    /// selected operations and their case bits into.
    #[inline]
    pub(crate) fn group_mut(&mut self) -> (&mut Vec<FuOp>, &mut Vec<u8>) {
        self.ops.clear();
        self.case_bits.clear();
        (&mut self.ops, &mut self.case_bits)
    }

    /// Step 0 for every lane but the first: copy the group the engine
    /// gathered into `first`, before `first` swaps it.
    #[inline]
    pub(crate) fn copy_group(&mut self, first: &Lane<A>) {
        self.ops.clone_from(&first.ops);
        self.case_bits.clone_from(&first.case_bits);
    }

    /// Step 1: apply the class's static swap rule, if any.
    #[inline]
    pub(crate) fn swap(&mut self, class: FuClass) {
        self.rule_swapped = 0;
        if let Some(rule) = self.steering.swap_rule(class) {
            let target = rule.case().index() as u8;
            for i in 0..self.ops.len() {
                let op = &mut self.ops[i];
                if op.commutative && self.case_bits[i] == target {
                    *op = op.swapped();
                    self.case_bits[i] = Case::swap_index(self.case_bits[i]);
                    self.swaps.rule_swaps += 1;
                    self.rule_swapped |= 1u64 << i;
                }
            }
        }
    }

    /// Step 2: the policy picks a module (and a swap) per operation.
    /// Duplicated classes consult the policy, single-module classes
    /// trivially use module 0.
    #[inline]
    pub(crate) fn steer(&mut self, class: FuClass) {
        let ci = class.index();
        if self.ports[ci].len() > 1 {
            let policy = self
                .steering
                .policy_mut(class)
                .expect("duplicated classes have a policy");
            policy.assign_into(
                &self.ops,
                &self.case_bits,
                &self.ports[ci],
                &mut self.choices,
            );
        } else {
            self.choices.clear();
            self.choices.extend(self.ops.iter().map(|_| ModuleChoice {
                module: 0,
                swap: false,
            }));
        }
        if cfg!(debug_assertions) {
            fua_steer::validate_choices(&self.ops, self.ports[ci].len(), &self.choices);
        }
    }

    /// Step 3: latch each operation into its module and charge the
    /// switched bits. `sites` holds each operation's (serial, static PC),
    /// read only when the lane has a sink.
    #[inline]
    pub(crate) fn charge(&mut self, class: FuClass, cycle: u64, sites: &[(u64, u32)]) {
        let ci = class.index();
        self.bits.clear();
        for (i, (&choice, &op)) in self.choices.iter().zip(&self.ops).enumerate() {
            let mut op = op;
            if choice.swap {
                debug_assert!(op.commutative);
                op = op.swapped();
                self.swaps.policy_swaps += 1;
            }
            let bits = self.ports[ci][choice.module].latch(op.op1, op.op2);
            self.ledger.charge(class, bits);
            self.bits.push(bits);
            if A::ENABLED {
                let (serial, pc) = sites[i];
                self.sink.record(&TraceEvent::Energy {
                    cycle,
                    serial,
                    pc,
                    class,
                    module: choice.module as u8,
                    case: Case::from_index_masked(self.case_bits[i]),
                    bits,
                });
            }
        }
    }

    /// Whether the static rule swapped operation `i` of the last group.
    pub(crate) fn rule_swapped(&self, i: usize) -> bool {
        self.rule_swapped & (1u64 << i) != 0
    }

    /// The case the policy saw for operation `i` of the last group
    /// (post rule-swap, pre policy-swap).
    pub(crate) fn steer_case(&self, i: usize) -> Case {
        Case::from_index_masked(self.case_bits[i])
    }

    /// Module choice and switched bits of operation `i` of the last group.
    pub(crate) fn outcome(&self, i: usize) -> (ModuleChoice, u32) {
        (self.choices[i], self.bits[i])
    }

    /// This lane's result of the run `timing` describes.
    pub(crate) fn result(&self, timing: &Timing) -> SimResult {
        SimResult {
            cycles: timing.cycles,
            retired: timing.retired,
            halted: timing.halted,
            ledger: self.ledger,
            occupancy: timing.occupancy.clone(),
            bit_patterns: timing.bit_patterns.clone(),
            swaps: self.swaps,
            branches: timing.branches,
            cache: timing.cache,
        }
    }
}
