//! The abstract *bit-transition* domain and the static switched-bit
//! estimator built on it.
//!
//! The dynamic power model charges every FU issue the Hamming distance
//! between the operands being latched and whatever the module's input
//! latches held before ([`fua_power`]'s `ModulePorts`). This module
//! bounds that charge **statically**: each operand port is abstracted as
//! a [`BitWord`] — a per-bit known/unknown mask over the power-model
//! bits (all 32 for the integer bus, the 52 mantissa bits for the FP
//! bus) — derived from the information-bit fixpoint's
//! [`AbsInt`]/[`AbsFp`] lattice values. A bit can only *fail* to toggle
//! when it is statically known, with the same value, in both the word
//! being latched and every word that could already be on the latch; the
//! bound counts everything else.
//!
//! The previous latch contents are over-approximated per FU class by
//! joining the port words of **every** reachable operation of that
//! class: whatever operation last used any module of the class, its
//! ports are admitted by the join. The [`SwapModel`] picks which operand
//! orders feed that join: the naive machine latches program order only
//! ([`SwapModel::Direct`]); every hardware-swap scheme may latch a
//! commutative operation in either order ([`SwapModel::Either`] — the
//! simulator's rule, policy, and multiplier swaps all check
//! `FuOp::commutative` before touching an operand pair, so
//! non-commutative operations stay direct under every scheme).
//!
//! The resulting per-PC bound is *per executed operation* and
//! module-agnostic: it holds whichever module of the class the steering
//! policy picks, so it also bounds each module's share. The first latch
//! of a module costs 0 dynamically, which every non-negative bound
//! covers. See DESIGN.md §"Static switched-bit estimation" for the full
//! soundness argument; `tests/estimator_soundness.rs` property-tests it
//! against exact dynamic attribution for every workload × scheme × swap
//! setting.

use fua_isa::{Case, FuClass, Program, FP_MANTISSA_BITS, INT_BITS};

use crate::{AbsFp, AbsInt, InfoBitAnalysis};

/// Mask of the power-model bits of an FP-bus word (the 52 mantissa
/// bits; exponent and sign never reach the power model).
const FP_MASK: u64 = (1u64 << FP_MANTISSA_BITS) - 1;

/// Mask of the power-model bits of an integer-bus word.
const INT_MASK: u64 = (1u64 << INT_BITS) - 1;

/// An abstract operand word: per-bit knowledge over the power-model
/// bits a port's bus carries.
///
/// Bit `i` of `known` set means bit `i` of every concrete word this
/// abstraction admits equals bit `i` of `value`; unknown bits of
/// `value` are kept 0 so equal abstractions compare equal.
///
/// # Examples
///
/// ```
/// use fua_analysis::{AbsInt, BitWord};
///
/// let five = BitWord::from_int(AbsInt::Const(5));
/// assert!(five.admits(5));
/// assert!(!five.admits(4));
/// // Joining 5 with an unknown-but-small value keeps the high bits.
/// let small = BitWord::from_int(AbsInt::NonNegBits(3));
/// let j = five.join(small);
/// assert!(j.admits(7) && j.admits(5) && !j.admits(8));
/// // At most the 3 unknown low bits can toggle between them.
/// assert_eq!(five.toggle_bound(small), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BitWord {
    /// Mask of bits whose value is statically known.
    pub known: u64,
    /// The known bits' values (0 on unknown bits).
    pub value: u64,
    /// Power-model width of the bus: [`INT_BITS`] or
    /// [`FP_MANTISSA_BITS`].
    pub width: u32,
}

impl BitWord {
    /// The all-unknown word of the given bus width.
    #[inline]
    pub fn unknown(width: u32) -> Self {
        BitWord {
            known: 0,
            value: 0,
            width,
        }
    }

    /// Mask of the bits the bus carries.
    #[inline]
    fn mask(self) -> u64 {
        if self.width >= 64 {
            u64::MAX
        } else {
            (1u64 << self.width) - 1
        }
    }

    /// Abstracts an integer-bus operand from the sign/width lattice:
    /// constants are fully known, `NonNegBits(k)` pins bits `k..32` to
    /// zero, `Neg` pins the sign bit.
    pub fn from_int(v: AbsInt) -> Self {
        let (known, value) = match v {
            AbsInt::Const(c) => (INT_MASK, c as u32 as u64),
            AbsInt::NonNegBits(k) => (INT_MASK & !((1u64 << k) - 1), 0),
            AbsInt::Neg => (1u64 << (INT_BITS - 1), 1u64 << (INT_BITS - 1)),
            // ⊥ admits no executions; all-unknown is trivially sound.
            AbsInt::Bot | AbsInt::Top => (0, 0),
        };
        BitWord {
            known,
            value,
            width: INT_BITS,
        }
    }

    /// Abstracts an FP-bus operand from the low-mantissa lattice:
    /// constants pin all 52 mantissa bits, `Zeros` pins the low four.
    pub fn from_fp(v: AbsFp) -> Self {
        let (known, value) = match v {
            AbsFp::Const(b) => (FP_MASK, b & FP_MASK),
            AbsFp::Zeros => (0xF, 0),
            // NonZero says *some* low bit is 1, never which one.
            AbsFp::NonZero | AbsFp::Bot | AbsFp::Top => (0, 0),
        };
        BitWord {
            known,
            value,
            width: FP_MANTISSA_BITS,
        }
    }

    /// Abstracts the FP-bus image of an *integer* operand — `cvtif`
    /// drives `Word::Fp(v as i64 as u64)` onto the FPAU, so the power
    /// model sees the sign-extended integer's low 52 bits.
    pub fn fp_from_int(v: AbsInt) -> Self {
        let (known, value) = match v {
            AbsInt::Const(c) => (FP_MASK, (c as i64 as u64) & FP_MASK),
            // 0 <= v < 2^k: bits k..52 of the zero-extension are 0.
            AbsInt::NonNegBits(k) => (FP_MASK & !((1u64 << k) - 1), 0),
            // v < 0: sign extension pins bits 31..52 to 1.
            AbsInt::Neg => {
                let ones = FP_MASK & !((1u64 << (INT_BITS - 1)) - 1);
                (ones, ones)
            }
            AbsInt::Bot | AbsInt::Top => (0, 0),
        };
        BitWord {
            known,
            value,
            width: FP_MANTISSA_BITS,
        }
    }

    /// Least upper bound: a bit stays known only where both sides know
    /// it with the same value.
    pub fn join(self, other: BitWord) -> BitWord {
        debug_assert_eq!(self.width, other.width, "joining across bus widths");
        let known = self.known & other.known & !(self.value ^ other.value);
        BitWord {
            known,
            value: self.value & known,
            width: self.width,
        }
    }

    /// Upper bound on the Hamming distance between any word this
    /// abstraction admits and any word `prev` admits: only bits known
    /// equal on both sides are guaranteed not to toggle.
    pub fn toggle_bound(self, prev: BitWord) -> u32 {
        debug_assert_eq!(self.width, prev.width, "bound across bus widths");
        let agreed = self.known & prev.known & !(self.value ^ prev.value) & self.mask();
        self.width - agreed.count_ones()
    }

    /// Whether the abstraction admits the concrete power-model bits
    /// `bits` (the soundness predicate the property tests exercise).
    pub fn admits(self, bits: u64) -> bool {
        (bits ^ self.value) & self.known & self.mask() == 0
    }
}

/// Which operand orders can reach an FU module's latches — the only
/// scheme property the static bound depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SwapModel {
    /// Operands always arrive in program order (the naive machine: no
    /// rule, policy, or multiplier swap is active).
    Direct,
    /// A commutative operation's operands may arrive in either order
    /// (any scheme with the hardware swap enabled). Non-commutative
    /// operations stay direct — no swap mechanism touches them.
    Either,
}

impl SwapModel {
    /// The lowercase name reports print (`"direct"`, `"either"`).
    pub fn name(self) -> &'static str {
        match self {
            SwapModel::Direct => "direct",
            SwapModel::Either => "either",
        }
    }
}

/// The static switched-bit bound of one FU-occupying instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcBound {
    /// Static program counter (instruction index).
    pub pc: u32,
    /// Basic block owning the PC.
    pub block: usize,
    /// The FU class the instruction executes on.
    pub class: FuClass,
    /// The instruction's opcode, rendered.
    pub opcode: String,
    /// Upper bound on switched bits charged per executed operation,
    /// whichever module of the class the operation lands on.
    pub bits_per_op: u32,
    /// The statically predicted steering case, where both operand
    /// information bits are definite.
    pub case: Option<Case>,
}

/// Aggregated bound of one basic block (blocks with no FU operations
/// are omitted).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockBound {
    /// Block id.
    pub block: usize,
    /// The block's label (`"bb{b}@{start}..{end}"`).
    pub label: String,
    /// FU-occupying instructions in the block.
    pub ops: usize,
    /// Upper bound on switched bits charged by one straight-line pass
    /// over the block (the per-PC bounds, summed).
    pub bits_per_pass: u64,
}

/// The static estimate of one program under one [`SwapModel`].
///
/// # Examples
///
/// ```
/// use fua_analysis::{estimate_transitions, SwapModel};
///
/// let w = fua_workloads::by_name("compress", 1).unwrap();
/// let est = estimate_transitions(&w.program, SwapModel::Either);
/// assert!(est.total_bits_per_pass() > 0);
/// // Every reachable FU op got a bound.
/// let (bounded, _) = est.coverage();
/// assert_eq!(bounded, est.pc_bounds().count());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransitionEstimate {
    model: SwapModel,
    bounds: Vec<Option<PcBound>>,
    blocks: Vec<BlockBound>,
}

impl TransitionEstimate {
    /// The swap model the estimate assumed.
    pub fn model(&self) -> SwapModel {
        self.model
    }

    /// The bound at instruction index `pc`, or `None` when the
    /// instruction occupies no FU or is unreachable.
    pub fn bound_of(&self, pc: usize) -> Option<&PcBound> {
        self.bounds.get(pc).and_then(|b| b.as_ref())
    }

    /// Every per-PC bound, in PC order.
    pub fn pc_bounds(&self) -> impl Iterator<Item = &PcBound> {
        self.bounds.iter().flatten()
    }

    /// Per-block aggregates, in block order (FU-free blocks omitted).
    pub fn blocks(&self) -> &[BlockBound] {
        &self.blocks
    }

    /// The label of block `block`, or `"bb{block}"` for a block with no
    /// FU operations (every bounded PC's block has one, so its label is
    /// always found).
    pub fn block_label(&self, block: usize) -> String {
        match self.blocks.binary_search_by_key(&block, |b| b.block) {
            Ok(i) => self.blocks[i].label.clone(),
            Err(_) => format!("bb{block}"),
        }
    }

    /// Per-class sums of the per-PC bounds, indexed by
    /// [`FuClass::index`] — the module-agnostic per-class breakdown.
    pub fn class_bits_per_pass(&self) -> [u64; 4] {
        let mut out = [0u64; 4];
        for b in self.pc_bounds() {
            out[b.class.index()] += b.bits_per_op as u64;
        }
        out
    }

    /// Sum of all per-PC bounds: the bound on one execution of every
    /// reachable FU instruction.
    pub fn total_bits_per_pass(&self) -> u64 {
        self.pc_bounds().map(|b| b.bits_per_op as u64).sum()
    }

    /// Counts of (bounded PCs, PCs with a definite static steering
    /// case).
    pub fn coverage(&self) -> (usize, usize) {
        let bounded = self.pc_bounds().count();
        let definite = self.pc_bounds().filter(|b| b.case.is_some()).count();
        (bounded, definite)
    }
}

/// Runs the information-bit fixpoint over `program` and derives, for
/// every reachable FU-occupying instruction, an upper bound on the
/// switched bits one execution of it can charge under `model`.
///
/// The bound is sound against the dynamic power model: for every PC,
/// `bits_per_op × (operations issued from the PC)` dominates the bits
/// the attribution profiler measures at that PC, for every scheme whose
/// swap behaviour `model` covers.
pub fn estimate_transitions(program: &Program, model: SwapModel) -> TransitionEstimate {
    let analysis = InfoBitAnalysis::run(program);
    let cfg = analysis.cfg();

    // Over-approximate the previous latch contents per class: join the
    // port words of every reachable op of the class, adding the swapped
    // order for commutative ops when the model permits it.
    let mut port_joins: [Option<(BitWord, BitWord)>; 4] = [None; 4];
    let mut contribute = |class: FuClass, w1: BitWord, w2: BitWord| {
        let slot = &mut port_joins[class.index()];
        *slot = Some(match *slot {
            None => (w1, w2),
            Some((j1, j2)) => (j1.join(w1), j2.join(w2)),
        });
    };
    for idx in 0..program.len() {
        let Some(p) = analysis.prediction(idx) else {
            continue;
        };
        contribute(p.class, p.op1_word, p.op2_word);
        if model == SwapModel::Either && program.inst(idx).op.commutative() {
            contribute(p.class, p.op2_word, p.op1_word);
        }
    }

    let mut bounds: Vec<Option<PcBound>> = vec![None; program.len()];
    for (idx, bound) in bounds.iter_mut().enumerate() {
        let Some(p) = analysis.prediction(idx) else {
            continue;
        };
        let (j1, j2) = port_joins[p.class.index()].expect("the op itself fed the join");
        let direct = p.op1_word.toggle_bound(j1) + p.op2_word.toggle_bound(j2);
        let bits_per_op = if model == SwapModel::Either && program.inst(idx).op.commutative() {
            // The op itself may be latched swapped; cover both orders.
            direct.max(p.op2_word.toggle_bound(j1) + p.op1_word.toggle_bound(j2))
        } else {
            direct
        };
        *bound = Some(PcBound {
            pc: idx as u32,
            block: cfg.block_of(idx),
            class: p.class,
            opcode: program.inst(idx).op.to_string(),
            bits_per_op,
            case: p.case(),
        });
    }

    let mut blocks = Vec::new();
    for (b, block) in cfg.blocks().iter().enumerate() {
        let mut ops = 0usize;
        let mut bits_per_pass = 0u64;
        for idx in block.insts() {
            if let Some(pb) = &bounds[idx] {
                ops += 1;
                bits_per_pass += pb.bits_per_op as u64;
            }
        }
        if ops > 0 {
            blocks.push(BlockBound {
                block: b,
                label: cfg.block_label(b),
                ops,
                bits_per_pass,
            });
        }
    }

    TransitionEstimate {
        model,
        bounds,
        blocks,
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

    #[test]
    fn bitword_join_is_commutative_and_sound_on_samples() {
        let samples = [
            BitWord::from_int(AbsInt::Const(5)),
            BitWord::from_int(AbsInt::Const(-1)),
            BitWord::from_int(AbsInt::NonNegBits(3)),
            BitWord::from_int(AbsInt::NonNegBits(0)),
            BitWord::from_int(AbsInt::Neg),
            BitWord::from_int(AbsInt::Top),
        ];
        let values: [u64; 6] = [0, 1, 5, 7, 0xFFFF_FFFF, 0x8000_0000];
        for &a in &samples {
            for &b in &samples {
                assert_eq!(a.join(b), b.join(a));
                let j = a.join(b);
                for &v in &values {
                    if a.admits(v) || b.admits(v) {
                        assert!(j.admits(v), "{a:?} ⊔ {b:?} = {j:?} drops {v:#x}");
                    }
                }
            }
        }
    }

    #[test]
    fn toggle_bound_dominates_every_admitted_pair() {
        let a = BitWord::from_int(AbsInt::Const(5));
        let b = BitWord::from_int(AbsInt::NonNegBits(4));
        let bound = a.toggle_bound(b);
        for v in 0u64..16 {
            let ham = (5u64 ^ v).count_ones();
            assert!(ham <= bound, "ham(5, {v}) = {ham} > bound {bound}");
        }
        // Two identical constants cannot toggle at all.
        assert_eq!(a.toggle_bound(a), 0);
        // Fully unknown against anything costs the whole bus.
        assert_eq!(
            BitWord::unknown(INT_BITS).toggle_bound(a),
            INT_BITS,
            "unknown word bounds at full width"
        );
    }

    #[test]
    fn fp_words_cover_mantissa_bits_only() {
        let c = BitWord::from_fp(AbsFp::of(2.0));
        assert_eq!(c.width, FP_MANTISSA_BITS);
        assert!(c.admits(2.0f64.to_bits() & FP_MASK));
        assert_eq!(c.toggle_bound(c), 0);
        let z = BitWord::from_fp(AbsFp::Zeros);
        // Zeros pins only the low four bits.
        assert_eq!(c.toggle_bound(z), FP_MANTISSA_BITS - 4);
    }

    #[test]
    fn fp_from_int_models_sign_extension() {
        // A negative constant: bits 31..52 of the sign extension are 1.
        let neg = BitWord::fp_from_int(AbsInt::Neg);
        assert!(neg.admits((-5i64 as u64) & FP_MASK));
        assert!(!neg.admits(5));
        let c = BitWord::fp_from_int(AbsInt::Const(-20));
        assert!(c.admits((-20i64 as u64) & FP_MASK));
        let small = BitWord::fp_from_int(AbsInt::NonNegBits(4));
        assert!(small.admits(13));
        assert!(!small.admits(16));
    }

    #[test]
    fn straight_line_constants_get_tight_bounds() {
        // Two identical adds: after the join, both ports hold the same
        // constants, so nothing can toggle.
        let mut b = ProgramBuilder::new();
        b.li(r(1), 5);
        b.li(r(2), 3);
        b.add(r(3), r(1), r(2));
        b.add(r(4), r(1), r(2));
        b.halt();
        let p = b.build().unwrap();
        let est = estimate_transitions(&p, SwapModel::Direct);
        let add1 = est.bound_of(2).expect("add has an FU");
        let add2 = est.bound_of(3).expect("add has an FU");
        assert_eq!(add1.bits_per_op, add2.bits_per_op);
        // The lis present (0, imm) and the adds (5, 3); the join keeps
        // whatever bits agree. The bound is far below the 64-bit ceiling.
        assert!(add1.bits_per_op < 2 * INT_BITS);
        assert_eq!(add1.class, FuClass::IntAlu);
        assert!(add1.case.is_some());
    }

    #[test]
    fn either_model_is_at_least_as_loose_as_direct() {
        let w = fua_workloads::by_name("compress", 1).unwrap();
        let direct = estimate_transitions(&w.program, SwapModel::Direct);
        let either = estimate_transitions(&w.program, SwapModel::Either);
        for (d, e) in direct.pc_bounds().zip(either.pc_bounds()) {
            assert_eq!(d.pc, e.pc);
            assert!(
                e.bits_per_op >= d.bits_per_op,
                "pc {}: either {} < direct {}",
                d.pc,
                e.bits_per_op,
                d.bits_per_op
            );
        }
    }

    #[test]
    fn unreachable_and_fu_free_instructions_get_no_bound() {
        let mut b = ProgramBuilder::new();
        let end = b.new_label();
        b.j(end);
        b.add(r(1), r(1), r(1)); // dead
        b.bind(end);
        b.halt();
        let p = b.build().unwrap();
        let est = estimate_transitions(&p, SwapModel::Either);
        assert!(est.bound_of(0).is_none(), "j has no FU");
        assert!(est.bound_of(1).is_none(), "dead code is unbounded");
        assert_eq!(est.total_bits_per_pass(), 0);
        assert!(est.blocks().is_empty());
    }

    #[test]
    fn blocks_aggregate_their_pc_bounds() {
        let mut b = ProgramBuilder::new();
        let top = b.new_label();
        b.li(r(1), 3);
        b.bind(top);
        b.addi(r(1), r(1), -1);
        b.bgtz(r(1), top);
        b.halt();
        let p = b.build().unwrap();
        let est = estimate_transitions(&p, SwapModel::Either);
        let total: u64 = est.blocks().iter().map(|blk| blk.bits_per_pass).sum();
        assert_eq!(total, est.total_bits_per_pass());
        let ops: usize = est.blocks().iter().map(|blk| blk.ops).sum();
        assert_eq!(ops, est.pc_bounds().count());
        assert!(est.blocks()[0].label.starts_with("bb0@"));
    }

    #[test]
    fn fp_pipelines_bound_below_the_bus_ceiling() {
        let mut b = ProgramBuilder::new();
        b.fli(f(1), 2.0);
        b.fli(f(2), 0.5);
        b.fmul(f(3), f(1), f(2));
        b.fadd(f(4), f(3), f(1));
        b.halt();
        let p = b.build().unwrap();
        let est = estimate_transitions(&p, SwapModel::Either);
        let fmul = est.bound_of(2).expect("fmul has an FU");
        assert_eq!(fmul.class, FuClass::FpMul);
        // The multiplier class holds a single op with constant operands:
        // both orders of the same constants still leave the unknown
        // sides bounded by the mantissa width.
        assert!(fmul.bits_per_op <= 2 * FP_MANTISSA_BITS);
        let fadd = est.bound_of(3).expect("fadd has an FU");
        assert_eq!(fadd.class, FuClass::FpAlu);
    }
}
