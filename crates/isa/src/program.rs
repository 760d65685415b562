//! Programs and the builder used to assemble them.

use std::error::Error;
use std::fmt;

use crate::{FpReg, Inst, IntReg, Opcode, Src};

/// A forward-referencable branch target handed out by
/// [`ProgramBuilder::new_label`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// Error returned by [`ProgramBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildProgramError {
    /// The program contains no instructions.
    Empty,
    /// The program contains no `halt`, so execution would fall off the end.
    NoHalt,
    /// A label was created but never bound to a position.
    UnboundLabel(usize),
}

impl fmt::Display for BuildProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildProgramError::Empty => f.write_str("program has no instructions"),
            BuildProgramError::NoHalt => f.write_str("program has no halt instruction"),
            BuildProgramError::UnboundLabel(i) => write!(f, "label {i} was never bound"),
        }
    }
}

impl Error for BuildProgramError {}

/// A validated, executable program: instructions plus an initial data
/// memory image.
///
/// Programs are assembled with [`ProgramBuilder`]:
///
/// ```
/// use fua_isa::{IntReg, ProgramBuilder};
///
/// # fn main() -> Result<(), fua_isa::BuildProgramError> {
/// let r1 = IntReg::new(1);
/// let mut b = ProgramBuilder::new();
/// let loop_top = b.new_label();
/// b.li(r1, 10);
/// b.bind(loop_top);
/// b.addi(r1, r1, -1);
/// b.bgtz(r1, loop_top);
/// b.halt();
/// let program = b.build()?;
/// assert_eq!(program.len(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    insts: Vec<Inst>,
    data: Vec<u8>,
}

impl Program {
    /// The instructions, in address order.
    #[inline]
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// Number of static instructions.
    #[inline]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program is empty (never true for built programs).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The initial data-memory image.
    #[inline]
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// The instruction at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[inline]
    pub fn inst(&self, index: usize) -> &Inst {
        &self.insts[index]
    }

    /// Replaces the instruction at `index` — used by the compiler swap
    /// pass, which rewrites operand orders in place.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn replace_inst(&mut self, index: usize, inst: Inst) {
        self.insts[index] = inst;
    }
}

/// Assembles a [`Program`], resolving labels and validating the result.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    insts: Vec<Inst>,
    data: Vec<u8>,
    // For each label: its bound instruction index, once known.
    labels: Vec<Option<usize>>,
    // (instruction index, label) pairs awaiting patching.
    patches: Vec<(usize, Label)>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a fresh, unbound label.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the position of the next emitted instruction.
    ///
    /// # Panics
    ///
    /// Panics if the label is already bound.
    pub fn bind(&mut self, label: Label) {
        let slot = &mut self.labels[label.0];
        assert!(slot.is_none(), "label bound twice");
        *slot = Some(self.insts.len());
    }

    /// Reserves `bytes` of zero-initialised data memory and returns the
    /// byte address of the start of the block (8-byte aligned).
    pub fn alloc_data(&mut self, bytes: usize) -> i32 {
        while !self.data.len().is_multiple_of(8) {
            self.data.push(0);
        }
        let addr = self.data.len() as i32;
        self.data.resize(self.data.len() + bytes, 0);
        addr
    }

    /// Reserves a block initialised with the given 32-bit words and returns
    /// its byte address.
    pub fn data_words(&mut self, words: &[i32]) -> i32 {
        let addr = self.alloc_data(words.len() * 4);
        for (i, w) in words.iter().enumerate() {
            let off = addr as usize + i * 4;
            self.data[off..off + 4].copy_from_slice(&w.to_le_bytes());
        }
        addr
    }

    /// Reserves a block initialised with the given doubles and returns its
    /// byte address.
    pub fn data_doubles(&mut self, values: &[f64]) -> i32 {
        let addr = self.alloc_data(values.len() * 8);
        for (i, v) in values.iter().enumerate() {
            let off = addr as usize + i * 8;
            self.data[off..off + 8].copy_from_slice(&v.to_bits().to_le_bytes());
        }
        addr
    }

    fn push(&mut self, inst: Inst) {
        self.insts.push(inst);
    }

    fn push_branch(&mut self, inst: Inst, target: Label) {
        self.patches.push((self.insts.len(), target));
        self.insts.push(inst);
    }

    /// Emits a raw instruction; prefer the typed helpers below.
    pub fn raw(&mut self, inst: Inst) {
        self.push(inst);
    }

    // --- integer ALU, three-register form ---

    /// Emits `op rd, rs, rt` for an integer ALU or multiplier opcode.
    ///
    /// # Panics
    ///
    /// Panics if `op` is not an integer register-register opcode.
    pub fn alu(&mut self, op: Opcode, rd: IntReg, rs: IntReg, rt: IntReg) {
        use crate::FuClass;
        assert!(
            matches!(op.fu_class(), Some(FuClass::IntAlu | FuClass::IntMul)) && !op.is_mem(),
            "{op} is not an integer ALU/MUL opcode"
        );
        self.push(Inst::new(op, rs.into(), rt.into()).with_dst(rd));
    }

    /// Emits `op rd, rs, imm` (immediate second operand).
    ///
    /// # Panics
    ///
    /// Panics as for [`ProgramBuilder::alu`].
    pub fn alui(&mut self, op: Opcode, rd: IntReg, rs: IntReg, imm: i32) {
        use crate::FuClass;
        assert!(
            matches!(op.fu_class(), Some(FuClass::IntAlu | FuClass::IntMul)) && !op.is_mem(),
            "{op} is not an integer ALU/MUL opcode"
        );
        self.push(Inst::new(op, rs.into(), Src::Imm(imm)).with_dst(rd));
    }

    /// `add rd, rs, rt`.
    pub fn add(&mut self, rd: IntReg, rs: IntReg, rt: IntReg) {
        self.alu(Opcode::Add, rd, rs, rt);
    }

    /// `add rd, rs, imm`.
    pub fn addi(&mut self, rd: IntReg, rs: IntReg, imm: i32) {
        self.alui(Opcode::Add, rd, rs, imm);
    }

    /// `sub rd, rs, rt`.
    pub fn sub(&mut self, rd: IntReg, rs: IntReg, rt: IntReg) {
        self.alu(Opcode::Sub, rd, rs, rt);
    }

    /// `and rd, rs, rt`.
    pub fn and(&mut self, rd: IntReg, rs: IntReg, rt: IntReg) {
        self.alu(Opcode::And, rd, rs, rt);
    }

    /// `and rd, rs, imm`.
    pub fn andi(&mut self, rd: IntReg, rs: IntReg, imm: i32) {
        self.alui(Opcode::And, rd, rs, imm);
    }

    /// `or rd, rs, rt`.
    pub fn or(&mut self, rd: IntReg, rs: IntReg, rt: IntReg) {
        self.alu(Opcode::Or, rd, rs, rt);
    }

    /// `xor rd, rs, rt`.
    pub fn xor(&mut self, rd: IntReg, rs: IntReg, rt: IntReg) {
        self.alu(Opcode::Xor, rd, rs, rt);
    }

    /// `xor rd, rs, imm`.
    pub fn xori(&mut self, rd: IntReg, rs: IntReg, imm: i32) {
        self.alui(Opcode::Xor, rd, rs, imm);
    }

    /// `sll rd, rs, imm` (shift left by constant).
    pub fn slli(&mut self, rd: IntReg, rs: IntReg, imm: i32) {
        self.alui(Opcode::Sll, rd, rs, imm);
    }

    /// `srl rd, rs, imm`.
    pub fn srli(&mut self, rd: IntReg, rs: IntReg, imm: i32) {
        self.alui(Opcode::Srl, rd, rs, imm);
    }

    /// `sra rd, rs, imm`.
    pub fn srai(&mut self, rd: IntReg, rs: IntReg, imm: i32) {
        self.alui(Opcode::Sra, rd, rs, imm);
    }

    /// `slt rd, rs, rt`.
    pub fn slt(&mut self, rd: IntReg, rs: IntReg, rt: IntReg) {
        self.alu(Opcode::Slt, rd, rs, rt);
    }

    /// `sgt rd, rs, rt`.
    pub fn sgt(&mut self, rd: IntReg, rs: IntReg, rt: IntReg) {
        self.alu(Opcode::Sgt, rd, rs, rt);
    }

    /// `slt rd, rs, imm`.
    pub fn slti(&mut self, rd: IntReg, rs: IntReg, imm: i32) {
        self.alui(Opcode::Slt, rd, rs, imm);
    }

    /// `seq rd, rs, rt`.
    pub fn seq(&mut self, rd: IntReg, rs: IntReg, rt: IntReg) {
        self.alu(Opcode::Seq, rd, rs, rt);
    }

    /// `li rd, imm`: the ALU sees OP1 = 0, OP2 = imm.
    pub fn li(&mut self, rd: IntReg, imm: i32) {
        self.push(Inst::new(Opcode::Li, Src::Imm(0), Src::Imm(imm)).with_dst(rd));
    }

    /// `mul rd, rs, rt`.
    pub fn mul(&mut self, rd: IntReg, rs: IntReg, rt: IntReg) {
        self.alu(Opcode::Mul, rd, rs, rt);
    }

    /// `mul rd, rs, imm`.
    pub fn muli(&mut self, rd: IntReg, rs: IntReg, imm: i32) {
        self.alui(Opcode::Mul, rd, rs, imm);
    }

    /// `div rd, rs, rt`.
    pub fn div(&mut self, rd: IntReg, rs: IntReg, rt: IntReg) {
        self.alu(Opcode::Div, rd, rs, rt);
    }

    /// `rem rd, rs, imm`.
    pub fn remi(&mut self, rd: IntReg, rs: IntReg, imm: i32) {
        self.alui(Opcode::Rem, rd, rs, imm);
    }

    // --- floating point ---

    /// Emits `op fd, fs, ft` for a binary FP opcode.
    ///
    /// # Panics
    ///
    /// Panics if `op` is not a binary FP opcode writing an FP register.
    pub fn fpu(&mut self, op: Opcode, fd: FpReg, fs: FpReg, ft: FpReg) {
        use Opcode::*;
        assert!(
            matches!(op, FAdd | FSub | FMul | FDiv),
            "{op} is not a binary fp opcode"
        );
        self.push(Inst::new(op, fs.into(), ft.into()).with_dst(fd));
    }

    /// `fadd fd, fs, ft`.
    pub fn fadd(&mut self, fd: FpReg, fs: FpReg, ft: FpReg) {
        self.fpu(Opcode::FAdd, fd, fs, ft);
    }

    /// `fsub fd, fs, ft`.
    pub fn fsub(&mut self, fd: FpReg, fs: FpReg, ft: FpReg) {
        self.fpu(Opcode::FSub, fd, fs, ft);
    }

    /// `fmul fd, fs, ft`.
    pub fn fmul(&mut self, fd: FpReg, fs: FpReg, ft: FpReg) {
        self.fpu(Opcode::FMul, fd, fs, ft);
    }

    /// `fdiv fd, fs, ft`.
    pub fn fdiv(&mut self, fd: FpReg, fs: FpReg, ft: FpReg) {
        self.fpu(Opcode::FDiv, fd, fs, ft);
    }

    /// FP compare into an integer register, e.g. `fcmplt rd, fs, ft`.
    ///
    /// # Panics
    ///
    /// Panics if `op` is not an FP compare opcode.
    pub fn fcmp(&mut self, op: Opcode, rd: IntReg, fs: FpReg, ft: FpReg) {
        use Opcode::*;
        assert!(
            matches!(op, FCmpLt | FCmpLe | FCmpGt | FCmpGe | FCmpEq | FCmpNe),
            "{op} is not an fp compare"
        );
        self.push(Inst::new(op, fs.into(), ft.into()).with_dst(rd));
    }

    /// `cvtif fd, rs` (integer to double).
    pub fn cvtif(&mut self, fd: FpReg, rs: IntReg) {
        self.push(Inst::new(Opcode::CvtIf, rs.into(), Src::None).with_dst(fd));
    }

    /// `cvtfi rd, fs` (double to integer, truncating).
    pub fn cvtfi(&mut self, rd: IntReg, fs: FpReg) {
        self.push(Inst::new(Opcode::CvtFi, fs.into(), Src::None).with_dst(rd));
    }

    /// `fneg fd, fs`.
    pub fn fneg(&mut self, fd: FpReg, fs: FpReg) {
        self.push(Inst::new(Opcode::FNeg, fs.into(), Src::None).with_dst(fd));
    }

    /// `fabs fd, fs`.
    pub fn fabs(&mut self, fd: FpReg, fs: FpReg) {
        self.push(Inst::new(Opcode::FAbs, fs.into(), Src::None).with_dst(fd));
    }

    /// `fmov fd, fs`.
    pub fn fmov(&mut self, fd: FpReg, fs: FpReg) {
        self.push(Inst::new(Opcode::FMov, fs.into(), Src::None).with_dst(fd));
    }

    /// `fli fd, value` (decode-level double constant).
    pub fn fli(&mut self, fd: FpReg, value: f64) {
        self.push(Inst::new(Opcode::FLi, Src::fimm(value), Src::None).with_dst(fd));
    }

    // --- memory ---

    /// `lw rd, offset(base)`.
    pub fn lw(&mut self, rd: IntReg, base: IntReg, offset: i32) {
        self.push(
            Inst::new(Opcode::Lw, base.into(), Src::None)
                .with_dst(rd)
                .with_imm(offset),
        );
    }

    /// `sw rs, offset(base)`.
    pub fn sw(&mut self, rs: IntReg, base: IntReg, offset: i32) {
        self.push(Inst::new(Opcode::Sw, rs.into(), base.into()).with_imm(offset));
    }

    /// `lf fd, offset(base)`.
    pub fn lf(&mut self, fd: FpReg, base: IntReg, offset: i32) {
        self.push(
            Inst::new(Opcode::Lf, base.into(), Src::None)
                .with_dst(fd)
                .with_imm(offset),
        );
    }

    /// `sf fs, offset(base)`.
    pub fn sf(&mut self, fs: FpReg, base: IntReg, offset: i32) {
        self.push(Inst::new(Opcode::Sf, fs.into(), base.into()).with_imm(offset));
    }

    // --- control ---

    /// `beq rs, rt, target`.
    pub fn beq(&mut self, rs: IntReg, rt: IntReg, target: Label) {
        self.push_branch(Inst::new(Opcode::Beq, rs.into(), rt.into()), target);
    }

    /// `bne rs, rt, target`.
    pub fn bne(&mut self, rs: IntReg, rt: IntReg, target: Label) {
        self.push_branch(Inst::new(Opcode::Bne, rs.into(), rt.into()), target);
    }

    /// `blez rs, target`.
    pub fn blez(&mut self, rs: IntReg, target: Label) {
        self.push_branch(Inst::new(Opcode::Blez, rs.into(), Src::None), target);
    }

    /// `bgtz rs, target`.
    pub fn bgtz(&mut self, rs: IntReg, target: Label) {
        self.push_branch(Inst::new(Opcode::Bgtz, rs.into(), Src::None), target);
    }

    /// `j target`.
    pub fn j(&mut self, target: Label) {
        self.push_branch(Inst::new(Opcode::J, Src::None, Src::None), target);
    }

    /// `halt`.
    pub fn halt(&mut self) {
        self.push(Inst::new(Opcode::Halt, Src::None, Src::None));
    }

    /// Resolves labels and validates the program.
    ///
    /// # Errors
    ///
    /// Returns [`BuildProgramError`] when the program is empty, lacks a
    /// `halt`, or references an unbound label.
    pub fn build(mut self) -> Result<Program, BuildProgramError> {
        if self.insts.is_empty() {
            return Err(BuildProgramError::Empty);
        }
        if !self.insts.iter().any(|i| i.op == Opcode::Halt) {
            return Err(BuildProgramError::NoHalt);
        }
        for (inst_idx, label) in &self.patches {
            let target = self.labels[label.0].ok_or(BuildProgramError::UnboundLabel(label.0))?;
            self.insts[*inst_idx].imm = target as i32;
        }
        Ok(Program {
            insts: self.insts,
            data: self.data,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IntReg;

    fn r(i: u8) -> IntReg {
        IntReg::new(i)
    }

    #[test]
    fn builds_a_loop_with_forward_and_backward_labels() {
        let mut b = ProgramBuilder::new();
        let top = b.new_label();
        let done = b.new_label();
        b.li(r(1), 3);
        b.bind(top);
        b.blez(r(1), done);
        b.addi(r(1), r(1), -1);
        b.j(top);
        b.bind(done);
        b.halt();
        let p = b.build().expect("valid program");
        assert_eq!(p.inst(1).imm, 4); // blez targets halt
        assert_eq!(p.inst(3).imm, 1); // j targets loop top
    }

    #[test]
    fn empty_program_is_rejected() {
        assert_eq!(ProgramBuilder::new().build(), Err(BuildProgramError::Empty));
    }

    #[test]
    fn missing_halt_is_rejected() {
        let mut b = ProgramBuilder::new();
        b.li(r(1), 1);
        assert_eq!(b.build(), Err(BuildProgramError::NoHalt));
    }

    #[test]
    fn unbound_label_is_rejected() {
        let mut b = ProgramBuilder::new();
        let l = b.new_label();
        b.j(l);
        b.halt();
        assert_eq!(b.build(), Err(BuildProgramError::UnboundLabel(0)));
    }

    #[test]
    fn data_blocks_are_aligned_and_initialised() {
        let mut b = ProgramBuilder::new();
        let words = b.data_words(&[1, -1]);
        let doubles = b.data_doubles(&[2.5]);
        b.halt();
        let p = b.build().expect("valid program");
        assert_eq!(words, 0);
        assert_eq!(doubles % 8, 0);
        assert_eq!(&p.data()[0..4], &1i32.to_le_bytes());
        assert_eq!(
            &p.data()[doubles as usize..doubles as usize + 8],
            &2.5f64.to_bits().to_le_bytes()
        );
    }

    #[test]
    #[should_panic]
    fn alu_rejects_fp_opcode() {
        let mut b = ProgramBuilder::new();
        b.alu(Opcode::FAdd, r(1), r(2), r(3));
    }

    #[test]
    #[should_panic]
    fn double_bind_panics() {
        let mut b = ProgramBuilder::new();
        let l = b.new_label();
        b.bind(l);
        b.bind(l);
    }
}
