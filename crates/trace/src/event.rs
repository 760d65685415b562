//! The structured event model and the sink contract.

use std::fmt;

use fua_isa::{Case, FuClass, Opcode};

/// A pipeline stage an instruction can enter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Pulled from the dynamic instruction source.
    Fetch,
    /// Decoded/renamed into the instruction window.
    Decode,
    /// Selected for issue to a functional unit.
    Issue,
    /// Executing on a functional-unit module.
    Execute,
    /// Result written back (completion).
    Writeback,
    /// Committed in program order.
    Retire,
}

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; 6] = [
        Stage::Fetch,
        Stage::Decode,
        Stage::Issue,
        Stage::Execute,
        Stage::Writeback,
        Stage::Retire,
    ];

    /// A short lowercase name ("fetch", "issue", ...).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Fetch => "fetch",
            Stage::Decode => "decode",
            Stage::Issue => "issue",
            Stage::Execute => "execute",
            Stage::Writeback => "writeback",
            Stage::Retire => "retire",
        }
    }
}

/// What one issue slot of one cycle was spent on.
///
/// The taxonomy is an **exact partition** of the machine's issue
/// bandwidth: every cycle offers `issue_width` slots (one per FU
/// module), and the engine classifies each slot into exactly one
/// reason, so summed [`Stall`](TraceEvent::Stall) slot counts equal
/// `cycles × issue_width` bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StallReason {
    /// The slot issued an instruction.
    Issued,
    /// No instruction of the slot's class was available: the frontend
    /// had nothing to deliver (source drained or fetch bandwidth).
    FetchStarved,
    /// The frontend is squashed behind an unresolved (or still
    /// penalised) mispredicted branch.
    BranchRecovery,
    /// Dispatch is blocked because the instruction window (ROB) is full.
    RobFull,
    /// Dispatch is blocked because a reservation station is full; the
    /// culprit PC names the parked instruction (whose class's RS
    /// overflowed).
    RsFull,
    /// A candidate of the slot's class is waiting on operands.
    OperandWait,
    /// A ready candidate could not issue: every module of its class was
    /// taken this cycle, or the memory ports were exhausted.
    FuBusy,
}

impl StallReason {
    /// Every reason, in taxonomy order (the stall-mix array order).
    pub const ALL: [StallReason; 7] = [
        StallReason::Issued,
        StallReason::FetchStarved,
        StallReason::BranchRecovery,
        StallReason::RobFull,
        StallReason::RsFull,
        StallReason::OperandWait,
        StallReason::FuBusy,
    ];

    /// Position in [`StallReason::ALL`] (stall-mix array index).
    pub fn index(self) -> usize {
        self as usize
    }

    /// A short lowercase name ("issued", "operand-wait", ...).
    pub fn name(self) -> &'static str {
        match self {
            StallReason::Issued => "issued",
            StallReason::FetchStarved => "fetch-starved",
            StallReason::BranchRecovery => "branch-recovery",
            StallReason::RobFull => "rob-full",
            StallReason::RsFull => "rs-full",
            StallReason::OperandWait => "operand-wait",
            StallReason::FuBusy => "fu-busy",
        }
    }
}

/// Which mechanism exchanged an instruction's operand ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SwapKind {
    /// The static hardware rule (paper Section 4.4).
    Rule,
    /// A cost-based steering policy's per-assignment swap.
    Policy,
}

impl SwapKind {
    /// A short lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            SwapKind::Rule => "rule",
            SwapKind::Policy => "policy",
        }
    }
}

/// One cycle-stamped event from the steering pipeline.
///
/// Every variant carries the cycle it happened in, so sinks never need
/// engine state; a [`Writeback`](Stage::Writeback) stage event may carry
/// a *future* cycle (the engine knows an operation's completion cycle at
/// issue time and emits the event eagerly). Events of one run are emitted
/// in a deterministic order: same program + same configuration ⇒ the
/// byte-identical event stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// An instruction entered a pipeline stage.
    Stage {
        /// The stage entered.
        stage: Stage,
        /// Cycle of entry.
        cycle: u64,
        /// Dynamic program-order serial of the instruction.
        serial: u64,
        /// The instruction's opcode.
        opcode: Opcode,
    },
    /// A steering decision for one instruction on a duplicated FU class.
    Steer {
        /// Cycle of the decision.
        cycle: u64,
        /// Dynamic serial of the steered instruction.
        serial: u64,
        /// The duplicated FU class.
        class: FuClass,
        /// The instruction's information-bit case (00/01/10/11) as
        /// presented to the policy (post rule-swap, pre policy-swap).
        case: Case,
        /// The module the instruction was steered to.
        module: u8,
        /// Whether the policy swapped the operand ports.
        swap: bool,
        /// Switched input bits this placement cost (Hamming distance
        /// from the module's previously latched operands).
        cost_bits: u32,
    },
    /// An operand-port exchange.
    OperandSwap {
        /// Cycle of the swap.
        cycle: u64,
        /// Dynamic serial of the swapped instruction.
        serial: u64,
        /// The FU class executing the instruction.
        class: FuClass,
        /// Which mechanism swapped.
        kind: SwapKind,
    },
    /// An energy-ledger delta: one operation latched onto a module.
    ///
    /// Carries full provenance — the dynamic serial, the static program
    /// counter and the information-bit case of the issuing instruction —
    /// so attribution sinks can partition the ledger by static site
    /// without any engine state.
    Energy {
        /// Cycle of the charge.
        cycle: u64,
        /// Dynamic serial of the issuing instruction.
        serial: u64,
        /// Static program counter (instruction index) of the issuing
        /// instruction.
        pc: u32,
        /// The FU class charged.
        class: FuClass,
        /// The module whose input latches toggled.
        module: u8,
        /// The instruction's information-bit case (post rule-swap, pre
        /// policy-swap — the same view a [`TraceEvent::Steer`] reports).
        case: Case,
        /// Switched input bits charged to the ledger.
        bits: u32,
    },
    /// An operation occupying a functional-unit module.
    Execute {
        /// Issue cycle.
        cycle: u64,
        /// Dynamic serial of the executing instruction.
        serial: u64,
        /// The FU class.
        class: FuClass,
        /// The executing module.
        module: u8,
        /// Execution latency in cycles (≥ 1).
        latency: u64,
        /// The instruction's opcode.
        opcode: Opcode,
    },
    /// A data-cache access.
    Cache {
        /// Cycle of the access.
        cycle: u64,
        /// Dynamic serial of the load/store.
        serial: u64,
        /// Byte address accessed.
        addr: u32,
        /// Whether the access hit.
        hit: bool,
        /// Access latency in cycles.
        latency: u64,
    },
    /// A conditional branch resolved at dispatch.
    Branch {
        /// Cycle of resolution.
        cycle: u64,
        /// Dynamic serial of the branch.
        serial: u64,
        /// The architectural outcome.
        taken: bool,
        /// The predictor's guess.
        predicted: bool,
    },
    /// One group of same-reason issue slots in one cycle.
    ///
    /// Emitted from the issue stage so that, per cycle and FU class,
    /// the `slots` of all `Stall` events sum to the class's module
    /// count — the exact-partition contract [`StallReason`] documents.
    /// Issued and blocked-candidate slots are emitted one event per
    /// instruction (`slots == 1`, `pc == Some(..)`); frontend-caused
    /// idle slots are aggregated per class with the culprit's PC
    /// (`None` when fetch-starved with no culprit instruction).
    Stall {
        /// The cycle the slots belong to.
        cycle: u64,
        /// The FU class owning the slots.
        class: FuClass,
        /// What the slots were spent on.
        reason: StallReason,
        /// How many slots this event accounts for (≥ 1).
        slots: u32,
        /// Static PC of the culprit instruction: the issued or blocked
        /// candidate itself, the blocking branch, the window head
        /// (ROB-full) or the parked instruction (RS-full).
        pc: Option<u32>,
        /// The culprit's information-bit case where one exists (issued
        /// slots report the steering view, blocked candidates their
        /// pre-swap operands; frontend reasons carry `None`).
        case: Option<Case>,
    },
    /// Rename-time dependence record: the producing serials an
    /// instruction waits on, for retirement critical-path extraction.
    Dependence {
        /// Dispatch cycle.
        cycle: u64,
        /// Dynamic serial of the dispatched instruction.
        serial: u64,
        /// Static program counter of the instruction.
        pc: u32,
        /// Producer serial feeding the first source operand, if any.
        dep1: Option<u64>,
        /// Producer serial feeding the second source operand, if any.
        dep2: Option<u64>,
    },
    /// End-of-cycle summary (window occupancy and issue width).
    CycleSummary {
        /// The cycle summarised.
        cycle: u64,
        /// Instruction-window occupancy at end of cycle.
        window: u32,
        /// Instructions issued this cycle across all FU classes.
        issued: u32,
    },
}

impl TraceEvent {
    /// The cycle the event is stamped with.
    pub fn cycle(&self) -> u64 {
        match *self {
            TraceEvent::Stage { cycle, .. }
            | TraceEvent::Steer { cycle, .. }
            | TraceEvent::OperandSwap { cycle, .. }
            | TraceEvent::Energy { cycle, .. }
            | TraceEvent::Execute { cycle, .. }
            | TraceEvent::Cache { cycle, .. }
            | TraceEvent::Branch { cycle, .. }
            | TraceEvent::Stall { cycle, .. }
            | TraceEvent::Dependence { cycle, .. }
            | TraceEvent::CycleSummary { cycle, .. } => cycle,
        }
    }
}

/// One line of the terminal tail view (`fua trace --last N`): the cycle
/// right-aligned in brackets, the event kind padded to a column, then
/// the event's fields.
impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use TraceEvent as E;
        match *self {
            E::Stage {
                stage,
                cycle,
                serial,
                opcode,
            } => write!(f, "[{cycle:>7}] {:<9} #{serial} {opcode}", stage.name()),
            E::Steer {
                cycle,
                serial,
                class,
                case,
                module,
                swap,
                cost_bits,
            } => write!(
                f,
                "[{cycle:>7}] steer     #{serial} {class} case{case} -> m{module}{} ({cost_bits} bits)",
                if swap { " swapped" } else { "" }
            ),
            E::OperandSwap {
                cycle,
                serial,
                class,
                kind,
            } => write!(f, "[{cycle:>7}] swap      #{serial} {class} ({})", kind.name()),
            E::Energy {
                cycle,
                serial,
                pc,
                class,
                module,
                case,
                bits,
            } => write!(
                f,
                "[{cycle:>7}] energy    #{serial} pc{pc} {class}.m{module} case{case} +{bits} bits"
            ),
            E::Execute {
                cycle,
                serial,
                class,
                module,
                latency,
                opcode,
            } => write!(
                f,
                "[{cycle:>7}] execute   #{serial} {opcode} on {class}.m{module} ({latency} cy)"
            ),
            E::Cache {
                cycle,
                serial,
                addr,
                hit,
                latency,
            } => write!(
                f,
                "[{cycle:>7}] d-cache   #{serial} @{addr:#010x} {} ({latency} cy)",
                if hit { "hit" } else { "miss" }
            ),
            E::Branch {
                cycle,
                serial,
                taken,
                predicted,
            } => write!(
                f,
                "[{cycle:>7}] branch    #{serial} taken={taken} predicted={predicted}"
            ),
            E::Stall {
                cycle,
                class,
                reason,
                slots,
                pc,
                ..
            } => {
                write!(f, "[{cycle:>7}] stall     {class} {} x{slots}", reason.name())?;
                match pc {
                    Some(pc) => write!(f, " pc{pc}"),
                    None => Ok(()),
                }
            }
            E::Dependence {
                cycle,
                serial,
                pc,
                dep1,
                dep2,
            } => {
                write!(f, "[{cycle:>7}] deps      #{serial} pc{pc} <- ")?;
                match (dep1, dep2) {
                    (None, None) => write!(f, "none"),
                    (Some(a), None) | (None, Some(a)) => write!(f, "#{a}"),
                    (Some(a), Some(b)) => write!(f, "#{a} #{b}"),
                }
            }
            E::CycleSummary {
                cycle,
                window,
                issued,
            } => write!(f, "[{cycle:>7}] cycle     window={window} issued={issued}"),
        }
    }
}

/// Receives [`TraceEvent`]s from an instrumented engine.
///
/// The engine is generic over its sink and monomorphises per sink type,
/// so a sink whose [`ENABLED`](TraceSink::ENABLED) is `false` costs
/// nothing: every `if S::ENABLED { sink.record(..) }` hook compiles to
/// dead code the optimiser removes, including the event construction.
/// Implementations must be deterministic if they are used for
/// reproducibility checks — no clocks, no randomness.
pub trait TraceSink {
    /// Whether the engine should construct and deliver events at all.
    /// Leave at the default `true` for real sinks; only no-op sinks such
    /// as [`NullSink`] set it to `false`.
    const ENABLED: bool = true;

    /// Records one event.
    fn record(&mut self, event: &TraceEvent);
}

/// The default sink: drops everything, costs nothing.
///
/// Because [`TraceSink::ENABLED`] is `false`, an engine monomorphised
/// over `NullSink` contains no tracing code at all — the hooks are
/// compile-time `if false` blocks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _event: &TraceEvent) {}
}

/// Fan-out: a pair of sinks receives every event in order (first `A`,
/// then `B`). Nest pairs for wider fan-out: `(a, (b, c))`.
impl<A: TraceSink, B: TraceSink> TraceSink for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;

    #[inline]
    fn record(&mut self, event: &TraceEvent) {
        if A::ENABLED {
            self.0.record(event);
        }
        if B::ENABLED {
            self.1.record(event);
        }
    }
}

/// Collects events into a growable `Vec` (unbounded; prefer
/// [`RingBufferSink`](crate::RingBufferSink) for long runs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VecSink {
    /// Every recorded event, in order.
    pub events: Vec<TraceEvent>,
}

impl VecSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl TraceSink for VecSink {
    fn record(&mut self, event: &TraceEvent) {
        self.events.push(*event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(cycle: u64) -> TraceEvent {
        TraceEvent::CycleSummary {
            cycle,
            window: 1,
            issued: 0,
        }
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn null_sink_is_disabled() {
        assert!(!NullSink::ENABLED);
        // A pair containing only disabled sinks stays disabled.
        assert!(!<(NullSink, NullSink) as TraceSink>::ENABLED);
        assert!(<(VecSink, NullSink) as TraceSink>::ENABLED);
    }

    #[test]
    fn pair_fans_out_in_order() {
        let mut pair = (VecSink::new(), VecSink::new());
        pair.record(&ev(1));
        pair.record(&ev(2));
        assert_eq!(pair.0.events, pair.1.events);
        assert_eq!(pair.0.events.len(), 2);
        assert_eq!(pair.0.events[1].cycle(), 2);
    }

    #[test]
    fn stall_reasons_index_their_order() {
        for (i, reason) in StallReason::ALL.iter().enumerate() {
            assert_eq!(reason.index(), i);
        }
        assert_eq!(StallReason::Issued.name(), "issued");
        assert_eq!(StallReason::FuBusy.name(), "fu-busy");
    }

    #[test]
    fn stage_names_are_stable() {
        let names: Vec<_> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            ["fetch", "decode", "issue", "execute", "writeback", "retire"]
        );
    }
}
