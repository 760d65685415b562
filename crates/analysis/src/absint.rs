//! Abstract interpretation predicting each instruction's steering
//! [`Case`] at compile time.
//!
//! The interpreter runs a worklist fixpoint over the [`Cfg`], carrying
//! one abstract register file ([`AbsState`]) per block entry. Transfer
//! functions mirror [`fua_vm`]'s concrete semantics exactly — constant
//! folding goes through the VM's own [`fua_vm::int_alu`] so wrapping
//! arithmetic and division edge cases can never diverge from execution.
//! Memory is not tracked: every load produces ⊤.
//!
//! After the fixpoint, one pass per reachable block records the abstract
//! information bit presented on each functional-unit input port — the
//! operands an FU's latches would see, per [`fua_vm::FuOp`]: `li`
//! presents `(0, imm)`, address generation presents `(base, offset)`,
//! stores take the base from their *second* source slot, unary FP ops
//! latch `0.0` on port two, and `cvtif` carries the sign-extended
//! integer on the FP bus.

use fua_isa::{Case, FuClass, Inst, Opcode, Program, Src};
use fua_vm::int_alu;

use crate::{predicted_case, AbsBit, AbsFp, AbsInt, BitWord, Cfg};

/// Abstract register file: one lattice value per architectural register.
#[derive(Debug, Clone, PartialEq)]
pub struct AbsState {
    ints: [AbsInt; 32],
    fps: [AbsFp; 32],
}

impl AbsState {
    /// The state at program entry: the VM zero-initialises every
    /// register ([`fua_vm::Vm::new`]), so entry values are exact
    /// constants. (Reads that *rely* on this are still reported by the
    /// linter as uninitialised-read warnings.)
    pub fn vm_entry() -> Self {
        AbsState {
            ints: [AbsInt::Const(0); 32],
            fps: [AbsFp::Const(0.0f64.to_bits()); 32],
        }
    }

    /// The empty state (⊥ everywhere), the identity of [`AbsState::join_from`].
    pub fn bottom() -> Self {
        AbsState {
            ints: [AbsInt::Bot; 32],
            fps: [AbsFp::Bot; 32],
        }
    }

    /// The abstract value of an integer register.
    pub fn int(&self, idx: usize) -> AbsInt {
        self.ints[idx]
    }

    /// The abstract value of a floating-point register.
    pub fn fp(&self, idx: usize) -> AbsFp {
        self.fps[idx]
    }

    /// Pointwise join; returns whether `self` changed.
    pub fn join_from(&mut self, other: &AbsState) -> bool {
        let mut changed = false;
        for (a, &b) in self.ints.iter_mut().zip(&other.ints) {
            let j = a.join(b);
            changed |= j != *a;
            *a = j;
        }
        for (a, &b) in self.fps.iter_mut().zip(&other.fps) {
            let j = a.join(b);
            changed |= j != *a;
            *a = j;
        }
        changed
    }

    fn ivalue(&self, src: Src) -> AbsInt {
        match src {
            Src::IReg(r) => self.ints[r.index()],
            Src::Imm(v) => AbsInt::Const(v),
            _ => AbsInt::Top,
        }
    }

    fn fvalue(&self, src: Src) -> AbsFp {
        match src {
            Src::FReg(r) => self.fps[r.index()],
            Src::FImm(b) => AbsFp::Const(b),
            _ => AbsFp::Top,
        }
    }

    fn write_int(&mut self, inst: &Inst, v: AbsInt) {
        if let Some(fua_isa::Reg::Int(r)) = inst.dst {
            self.ints[r.index()] = v;
        }
    }

    fn write_fp(&mut self, inst: &Inst, v: AbsFp) {
        if let Some(fua_isa::Reg::Fp(r)) = inst.dst {
            self.fps[r.index()] = v;
        }
    }
}

/// The statically predicted FU input-port information bits of one
/// instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortPrediction {
    /// The functional-unit pool the instruction executes on.
    pub class: FuClass,
    /// Abstract information bit on input port 1.
    pub op1: AbsBit,
    /// Abstract information bit on input port 2.
    pub op2: AbsBit,
    /// The abstract integer value on port 1, when the port carries the
    /// integer bus (`None` for FP-bus ports). The static swap pass's
    /// density tier orders operands by these.
    pub op1_int: Option<AbsInt>,
    /// The abstract integer value on port 2 (see [`Self::op1_int`]).
    pub op2_int: Option<AbsInt>,
    /// Per-bit abstraction of the power-model bits on port 1 (all 32
    /// bits on the integer bus, the 52 mantissa bits on the FP bus).
    /// The static switched-bit estimator bounds latch transitions with
    /// these.
    pub op1_word: BitWord,
    /// Per-bit abstraction of port 2 (see [`Self::op1_word`]).
    pub op2_word: BitWord,
}

impl PortPrediction {
    /// The predicted steering case, when both port bits are definite.
    pub fn case(&self) -> Option<Case> {
        predicted_case(self.op1, self.op2)
    }

    /// Expected ones-densities of the two ports, when both operands are
    /// integer-bus values the analysis bounded (see
    /// [`AbsInt::expected_ones`]).
    pub fn ones_estimates(&self) -> Option<(f64, f64)> {
        Some((
            self.op1_int?.expected_ones()?,
            self.op2_int?.expected_ones()?,
        ))
    }
}

/// Result of the information-bit analysis over one program.
///
/// # Examples
///
/// ```
/// use fua_analysis::InfoBitAnalysis;
/// use fua_isa::{Case, IntReg, ProgramBuilder};
///
/// let (r1, r2) = (IntReg::new(1), IntReg::new(2));
/// let mut b = ProgramBuilder::new();
/// b.li(r1, 5);      // r1 = 5  (non-negative)
/// b.li(r2, -3);     // r2 = -3 (negative)
/// b.add(r2, r1, r2);
/// b.halt();
/// let program = b.build().unwrap();
///
/// let analysis = InfoBitAnalysis::run(&program);
/// // add sees (5, -3): info bits (0, 1) → case 01.
/// assert_eq!(analysis.predicted_case(2), Some(Case::C01));
/// ```
#[derive(Debug, Clone)]
pub struct InfoBitAnalysis {
    cfg: Cfg,
    ports: Vec<Option<PortPrediction>>,
    reachable_inst: Vec<bool>,
}

impl InfoBitAnalysis {
    /// Runs the fixpoint and records per-instruction port predictions.
    pub fn run(program: &Program) -> Self {
        let cfg = Cfg::build(program);
        let nblocks = cfg.blocks().len();
        let mut entry: Vec<AbsState> = vec![AbsState::bottom(); nblocks];
        let mut on_worklist = vec![false; nblocks];
        let mut worklist: Vec<usize> = Vec::new();
        if nblocks > 0 {
            entry[0] = AbsState::vm_entry();
            worklist.push(0);
            on_worklist[0] = true;
        }
        while let Some(b) = worklist.pop() {
            on_worklist[b] = false;
            let mut state = entry[b].clone();
            for idx in cfg.blocks()[b].insts() {
                transfer(program.inst(idx), &mut state, &mut |_| {});
            }
            for &s in &cfg.blocks()[b].succs {
                if entry[s].join_from(&state) && !on_worklist[s] {
                    on_worklist[s] = true;
                    worklist.push(s);
                }
            }
        }

        // Recording pass over reachable blocks.
        let reachable = cfg.reachable();
        let mut ports: Vec<Option<PortPrediction>> = vec![None; program.len()];
        let mut reachable_inst = vec![false; program.len()];
        for (b, block) in cfg.blocks().iter().enumerate() {
            if !reachable[b] {
                continue;
            }
            let mut state = entry[b].clone();
            for idx in block.insts() {
                reachable_inst[idx] = true;
                transfer(program.inst(idx), &mut state, &mut |p| {
                    ports[idx] = Some(p);
                });
            }
        }

        InfoBitAnalysis {
            cfg,
            ports,
            reachable_inst,
        }
    }

    /// The control-flow graph the analysis ran over.
    pub fn cfg(&self) -> &Cfg {
        &self.cfg
    }

    /// The port prediction for instruction `idx`, or `None` when the
    /// instruction occupies no FU (`j`, `halt`, `fli`) or is
    /// unreachable.
    pub fn prediction(&self, idx: usize) -> Option<&PortPrediction> {
        self.ports.get(idx).and_then(|p| p.as_ref())
    }

    /// The predicted case for instruction `idx`, when both operand bits
    /// are definite.
    pub fn predicted_case(&self, idx: usize) -> Option<Case> {
        self.prediction(idx).and_then(|p| p.case())
    }

    /// Whether instruction `idx` is reachable from the entry.
    pub fn is_reachable(&self, idx: usize) -> bool {
        self.reachable_inst.get(idx).copied().unwrap_or(false)
    }

    /// Counts of (instructions with an FU, both-bits-definite
    /// predictions) — the analysis' coverage summary.
    pub fn coverage(&self) -> (usize, usize) {
        let with_fu = self.ports.iter().flatten().count();
        let definite = self
            .ports
            .iter()
            .flatten()
            .filter(|p| p.case().is_some())
            .count();
        (with_fu, definite)
    }
}

/// Reports an integer-bus port pair through `record`.
fn record_int(record: &mut dyn FnMut(PortPrediction), class: FuClass, a: AbsInt, b: AbsInt) {
    record(PortPrediction {
        class,
        op1: a.sign_bit(),
        op2: b.sign_bit(),
        op1_int: Some(a),
        op2_int: Some(b),
        op1_word: BitWord::from_int(a),
        op2_word: BitWord::from_int(b),
    });
}

/// Reports an FP-bus port pair (no integer abstractions) through
/// `record`.
fn record_fp(record: &mut dyn FnMut(PortPrediction), class: FuClass, a: AbsFp, b: AbsFp) {
    record(PortPrediction {
        class,
        op1: a.low4_bit(),
        op2: b.low4_bit(),
        op1_int: None,
        op2_int: None,
        op1_word: BitWord::from_fp(a),
        op2_word: BitWord::from_fp(b),
    });
}

/// Applies one instruction to `state`, reporting the FU port bits (if
/// the instruction occupies an FU) through `record`.
fn transfer(inst: &Inst, state: &mut AbsState, record: &mut dyn FnMut(PortPrediction)) {
    use Opcode::*;
    match inst.op {
        Add | Sub | And | Or | Xor | Nor | Sll | Srl | Sra | Slt | Sle | Sgt | Sge | Seq | Sne
        | Li | Mul | Div | Rem => {
            let a = state.ivalue(inst.src1);
            let b = state.ivalue(inst.src2);
            record_int(
                record,
                inst.op.fu_class().expect("integer op has an FU"),
                a,
                b,
            );
            state.write_int(inst, int_transfer(inst.op, a, b));
        }
        FAdd | FSub => {
            let a = state.fvalue(inst.src1);
            let b = state.fvalue(inst.src2);
            record_fp(record, FuClass::FpAlu, a, b);
            let folded = match (a.constant_bits(), b.constant_bits()) {
                (Some(x), Some(y)) => {
                    let (x, y) = (f64::from_bits(x), f64::from_bits(y));
                    Some(AbsFp::of(if inst.op == FAdd { x + y } else { x - y }))
                }
                // Mantissa alignment can populate or clear any low bits.
                _ => None,
            };
            state.write_fp(inst, folded.unwrap_or(AbsFp::Top));
        }
        FCmpLt | FCmpLe | FCmpGt | FCmpGe | FCmpEq | FCmpNe => {
            let a = state.fvalue(inst.src1);
            let b = state.fvalue(inst.src2);
            record_fp(record, FuClass::FpAlu, a, b);
            let folded = match (a.constant_bits(), b.constant_bits()) {
                (Some(x), Some(y)) => {
                    let (x, y) = (f64::from_bits(x), f64::from_bits(y));
                    let r = match inst.op {
                        FCmpLt => x < y,
                        FCmpLe => x <= y,
                        FCmpGt => x > y,
                        FCmpGe => x >= y,
                        FCmpEq => x == y,
                        _ => x != y,
                    };
                    AbsInt::Const(r as i32)
                }
                // Compare results are 0/1 either way.
                _ => AbsInt::bounded(1),
            };
            state.write_int(inst, folded);
        }
        CvtIf => {
            let v = state.ivalue(inst.src1);
            // The FP bus carries the sign-extended integer; its low four
            // bits are the integer's low four bits — known only for
            // constants.
            let op1_word = BitWord::fp_from_int(v);
            let op1 = match v.constant() {
                Some(c) => AbsBit::from_bool((c as i64 as u64) & 0xF != 0),
                None => AbsBit::Unknown,
            };
            record(PortPrediction {
                class: FuClass::FpAlu,
                op1,
                op2: AbsBit::Zero,
                op1_int: None,
                op2_int: None,
                op1_word,
                op2_word: BitWord::from_fp(AbsFp::of(0.0)),
            });
            // Every i32 is exact in f64 with ≥ 21 trailing mantissa
            // zeros, so the *result* is always trailing-zero-rich.
            let out = match v.constant() {
                Some(c) => AbsFp::of(c as f64),
                None => AbsFp::Zeros,
            };
            state.write_fp(inst, out);
        }
        CvtFi => {
            let v = state.fvalue(inst.src1);
            record_fp(record, FuClass::FpAlu, v, AbsFp::of(0.0));
            let out = match v.constant_bits() {
                Some(b) => AbsInt::Const(f64::from_bits(b) as i32),
                None => AbsInt::Top,
            };
            state.write_int(inst, out);
        }
        FNeg | FAbs | FMov => {
            let v = state.fvalue(inst.src1);
            record_fp(record, FuClass::FpAlu, v, AbsFp::of(0.0));
            let out = match (inst.op, v) {
                (FNeg, AbsFp::Const(b)) => AbsFp::of(-f64::from_bits(b)),
                (FAbs, AbsFp::Const(b)) => AbsFp::of(f64::from_bits(b).abs()),
                // Sign-bit surgery never touches the mantissa, so the
                // low-4 abstraction passes through unchanged.
                _ => v,
            };
            state.write_fp(inst, out);
        }
        FMul | FDiv => {
            let a = state.fvalue(inst.src1);
            let b = state.fvalue(inst.src2);
            record_fp(record, FuClass::FpMul, a, b);
            let folded = match (a.constant_bits(), b.constant_bits()) {
                (Some(x), Some(y)) => {
                    let (x, y) = (f64::from_bits(x), f64::from_bits(y));
                    Some(AbsFp::of(if inst.op == FMul { x * y } else { x / y }))
                }
                // Product mantissas round into the low bits; no
                // trailing-zero guarantee survives in general.
                _ => None,
            };
            state.write_fp(inst, folded.unwrap_or(AbsFp::Top));
        }
        Lw | Lf => {
            let base = state.ivalue(inst.src1);
            record_int(record, FuClass::IntAlu, base, AbsInt::Const(inst.imm));
            if inst.op == Lw {
                state.write_int(inst, AbsInt::Top);
            } else {
                state.write_fp(inst, AbsFp::Top);
            }
        }
        Sw | Sf => {
            // Address generation reads the *base*, which stores carry in
            // their second source slot (the first is the data).
            let base = state.ivalue(inst.src2);
            record_int(record, FuClass::IntAlu, base, AbsInt::Const(inst.imm));
        }
        Beq | Bne => {
            let a = state.ivalue(inst.src1);
            let b = state.ivalue(inst.src2);
            record_int(record, FuClass::IntAlu, a, b);
        }
        Blez | Bgtz => {
            let a = state.ivalue(inst.src1);
            record_int(record, FuClass::IntAlu, a, AbsInt::Const(0));
        }
        J | Halt => {}
        FLi => {
            state.write_fp(inst, state.fvalue(inst.src1));
        }
    }
}

/// The integer transfer function. Both-constant operands fold through
/// the VM's own ALU; otherwise the result is approximated on the
/// sign-and-width lattice, always erring toward ⊤ where 32-bit
/// wrapping could flip the sign.
fn int_transfer(op: Opcode, a: AbsInt, b: AbsInt) -> AbsInt {
    use Opcode::*;
    if let (Some(x), Some(y)) = (a.constant(), b.constant()) {
        return AbsInt::Const(int_alu(op, x, y));
    }
    let from_sign = |s: AbsBit| match s {
        AbsBit::Zero => AbsInt::non_neg(),
        AbsBit::One => AbsInt::Neg,
        AbsBit::Unknown => AbsInt::Top,
    };
    // Proven value widths (`0 <= v < 2^k`), where available.
    let (wa, wb) = (
        a.width_bound().map(u32::from),
        b.width_bound().map(u32::from),
    );
    match op {
        // Identity shortcuts that need no sign reasoning.
        Add | Li if b.constant() == Some(0) => a,
        Add | Li if a.constant() == Some(0) => b,
        Sub | Xor | Or if b.constant() == Some(0) => a,
        // A k-bit + j-bit sum stays below 2^(max(k,j)+1); any wider and
        // 32-bit wrapping could flip the sign (2^30 + 2^30 < 0).
        Add => match (wa, wb) {
            (Some(x), Some(y)) if x.max(y) <= 30 => AbsInt::bounded(x.max(y) + 1),
            _ => AbsInt::Top,
        },
        Sub | Li => AbsInt::Top,
        // A k-bit × j-bit product stays below 2^(k+j).
        Mul => match (wa, wb) {
            (Some(x), Some(y)) if x + y <= 31 => AbsInt::bounded(x + y),
            _ => AbsInt::Top,
        },
        // AND against a width-bounded operand clears every higher bit,
        // whatever the other operand holds — the mask idiom
        // (`andi slot, slot, TABLE-1`) that bounds hash indices.
        And => match (wa, wb) {
            (Some(x), Some(y)) => AbsInt::bounded(x.min(y)),
            (Some(x), None) | (None, Some(x)) => AbsInt::bounded(x),
            (None, None) => from_sign(a.sign_bit().and(b.sign_bit())),
        },
        Or => match (wa, wb) {
            (Some(x), Some(y)) => AbsInt::bounded(x.max(y)),
            _ => from_sign(a.sign_bit().or(b.sign_bit())),
        },
        Xor => match (wa, wb) {
            (Some(x), Some(y)) => AbsInt::bounded(x.max(y)),
            _ => from_sign(a.sign_bit().xor(b.sign_bit())),
        },
        Nor => from_sign(!a.sign_bit().or(b.sign_bit())),
        Sll => match (wa, b.constant().map(|c| (c & 31) as u32)) {
            (_, Some(0)) => a,
            (Some(x), Some(s)) if x + s <= 31 => AbsInt::bounded(x + s),
            _ => AbsInt::Top,
        },
        // Logical right shift by s >= 1 bounds *any* value below
        // 2^(32-s); a width-bounded input tightens that to 2^(k-s).
        Srl => match b.constant().map(|c| (c & 31) as u32) {
            Some(0) => a,
            Some(s) => AbsInt::bounded(wa.map_or(32 - s, |x| x.saturating_sub(s))),
            None => AbsInt::Top,
        },
        // Arithmetic shift replicates the sign bit and can only shrink
        // a non-negative value's width.
        Sra => match b.constant().map(|c| (c & 31) as u32) {
            Some(0) => a,
            Some(s) => match wa {
                Some(x) => AbsInt::bounded(x.saturating_sub(s)),
                None => from_sign(a.sign_bit()),
            },
            None => from_sign(a.sign_bit()),
        },
        Slt | Sle | Sgt | Sge | Seq | Sne => AbsInt::bounded(1),
        // Non-negative ÷ non-negative cannot overflow (the only
        // wrapping case is MIN ÷ -1), never exceeds the dividend, and
        // division by zero yields 0.
        Div => {
            if a.sign_bit() == AbsBit::Zero && b.sign_bit() == AbsBit::Zero {
                AbsInt::bounded(wa.unwrap_or(31))
            } else {
                AbsInt::Top
            }
        }
        // The remainder takes the dividend's sign; `rem` by zero yields
        // the dividend. For a non-negative dividend the result is
        // bounded both by the dividend's width and, for a known nonzero
        // modulus m, by |m| - 1.
        Rem => {
            if a.sign_bit() == AbsBit::Zero {
                let mut k = wa.unwrap_or(31);
                if let Some(m) = b.constant() {
                    if m != 0 {
                        k = k.min(32 - (m.unsigned_abs() - 1).leading_zeros());
                    }
                }
                AbsInt::bounded(k)
            } else {
                AbsInt::Top
            }
        }
        _ => unreachable!("not an integer ALU opcode: {op}"),
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
    fn constants_fold_through_the_vm_alu() {
        let mut b = ProgramBuilder::new();
        b.li(r(1), 6);
        b.li(r(2), -7);
        b.mul(r(3), r(1), r(2)); // -42, exactly known
        b.add(r(4), r(3), r(3)); // -84
        b.halt();
        let p = b.build().unwrap();
        let a = InfoBitAnalysis::run(&p);
        // add sees (-42, -42): case 11.
        assert_eq!(a.predicted_case(3), Some(Case::C11));
    }

    #[test]
    fn loop_counter_joins_to_a_definite_sign() {
        // Counter starts at 10, decrements to 0: values {10, …, 0} join
        // to NonNeg, so the bgtz port-1 bit stays definite.
        let mut b = ProgramBuilder::new();
        let top = b.new_label();
        b.li(r(1), 10);
        b.bind(top);
        b.addi(r(1), r(1), -1);
        b.bgtz(r(1), top);
        b.halt();
        let p = b.build().unwrap();
        let a = InfoBitAnalysis::run(&p);
        // addi's operands: r1 joins Const(10) with the loop value ⊤
        // (wrapping add) so port 1 is unknown, but imm -1 is definite.
        let pred = a.prediction(1).expect("addi has an FU");
        assert_eq!(pred.op2, AbsBit::One);
    }

    #[test]
    fn address_generation_ports_are_base_and_offset() {
        let mut b = ProgramBuilder::new();
        let base = b.data_words(&[1, 2]);
        b.li(r(1), base);
        b.lw(r(2), r(1), 4);
        b.sw(r(2), r(1), 0);
        b.halt();
        let p = b.build().unwrap();
        let a = InfoBitAnalysis::run(&p);
        // Load: base is a known non-negative address, offset 4 ≥ 0.
        assert_eq!(a.predicted_case(1), Some(Case::C00));
        // Store: base comes from src2; same prediction.
        assert_eq!(a.predicted_case(2), Some(Case::C00));
        // The loaded value itself is unknown.
        let load_pred = a.prediction(1).unwrap();
        assert_eq!(load_pred.class, FuClass::IntAlu);
    }

    #[test]
    fn li_presents_zero_and_the_immediate() {
        let mut b = ProgramBuilder::new();
        b.li(r(1), -7);
        b.halt();
        let p = b.build().unwrap();
        let a = InfoBitAnalysis::run(&p);
        assert_eq!(a.predicted_case(0), Some(Case::C01));
    }

    #[test]
    fn cvtif_result_is_trailing_zero_rich() {
        let mut b = ProgramBuilder::new();
        let data = b.data_words(&[5]);
        b.li(r(1), data);
        b.lw(r(2), r(1), 0); // unknown integer
        b.cvtif(f(1), r(2));
        b.fadd(f(2), f(1), f(1));
        b.halt();
        let p = b.build().unwrap();
        let a = InfoBitAnalysis::run(&p);
        // cvtif's own port 1 is unknown (low bits of an unknown int)…
        let cvt = a.prediction(2).unwrap();
        assert_eq!(cvt.op1, AbsBit::Unknown);
        assert_eq!(cvt.op2, AbsBit::Zero);
        // …but its *result* has clear low mantissa bits, so the fadd
        // sees case 00.
        assert_eq!(a.predicted_case(3), Some(Case::C00));
    }

    #[test]
    fn unary_fp_latches_zero_on_port_two() {
        let mut b = ProgramBuilder::new();
        b.fli(f(1), 0.1);
        b.fabs(f(2), f(1));
        b.halt();
        let p = b.build().unwrap();
        let a = InfoBitAnalysis::run(&p);
        assert!(a.prediction(0).is_none(), "fli is decode-level");
        assert_eq!(a.predicted_case(1), Some(Case::C10));
    }

    #[test]
    fn compare_results_are_non_negative() {
        let mut b = ProgramBuilder::new();
        let data = b.data_words(&[3]);
        b.li(r(1), data);
        b.lw(r(2), r(1), 0);
        b.slt(r(3), r(2), r(1)); // 0/1 whatever r2 is
        b.add(r(4), r(3), r(3)); // still can't overflow? no: 1+1=2 known ≥ 0? (join)
        b.halt();
        let p = b.build().unwrap();
        let a = InfoBitAnalysis::run(&p);
        let slt = a.prediction(2).unwrap();
        assert_eq!(slt.op1, AbsBit::Unknown);
        // add's port 1 reads slt's NonNeg result.
        let add = a.prediction(3).unwrap();
        assert_eq!(add.op1, AbsBit::Zero);
        assert_eq!(add.op2, AbsBit::Zero);
    }

    #[test]
    fn unreachable_code_gets_no_prediction() {
        let mut b = ProgramBuilder::new();
        let end = b.new_label();
        b.j(end);
        b.add(r(1), r(1), r(1)); // dead
        b.bind(end);
        b.halt();
        let p = b.build().unwrap();
        let a = InfoBitAnalysis::run(&p);
        assert!(!a.is_reachable(1));
        assert!(a.prediction(1).is_none());
        let (with_fu, definite) = a.coverage();
        assert_eq!(with_fu, 0);
        assert_eq!(definite, 0);
    }
}
