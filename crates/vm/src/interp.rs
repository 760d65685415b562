//! The interpreter proper.

use fua_isa::{FpReg, FuClass, Inst, IntReg, Opcode, Program, Reg, Src, Word};

use crate::{BranchInfo, DynOp, FuOp, MemAccess, VmError};

/// Default data-memory size (1 MiB), plenty for every bundled workload.
pub const DEFAULT_MEM_BYTES: usize = 1 << 20;

/// A fully materialised execution trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// The retired instructions, in program order.
    pub ops: Vec<DynOp>,
    /// Whether the program reached `halt` (as opposed to the step limit).
    pub halted: bool,
}

/// Architectural interpreter: registers, memory, and a program counter.
///
/// See the crate-level docs for an end-to-end example. For long workloads
/// prefer [`Vm::run_with`], which streams [`DynOp`]s to a callback instead
/// of materialising a [`Trace`].
#[derive(Debug, Clone)]
pub struct Vm<'p> {
    program: &'p Program,
    iregs: [i32; 32],
    fregs: [f64; 32],
    mem: Vec<u8>,
    pc: u32,
    serial: u64,
    halted: bool,
}

impl<'p> Vm<'p> {
    /// Creates a VM with [`DEFAULT_MEM_BYTES`] of memory, initialised with
    /// the program's data image at address 0.
    pub fn new(program: &'p Program) -> Self {
        Self::with_mem_bytes(program, DEFAULT_MEM_BYTES.max(program.data().len()))
    }

    /// Creates a VM with a custom memory size.
    ///
    /// # Panics
    ///
    /// Panics if `mem_bytes` is smaller than the program's data image.
    pub fn with_mem_bytes(program: &'p Program, mem_bytes: usize) -> Self {
        assert!(
            mem_bytes >= program.data().len(),
            "memory smaller than the program's data image"
        );
        let mut mem = vec![0u8; mem_bytes];
        mem[..program.data().len()].copy_from_slice(program.data());
        Vm {
            program,
            iregs: [0; 32],
            fregs: [0.0; 32],
            mem,
            pc: 0,
            serial: 0,
            halted: false,
        }
    }

    /// Current value of an integer register.
    #[inline]
    pub fn int_reg(&self, r: IntReg) -> i32 {
        self.iregs[r.index()]
    }

    /// Current value of a floating-point register.
    #[inline]
    pub fn fp_reg(&self, r: FpReg) -> f64 {
        self.fregs[r.index()]
    }

    /// Whether the program has executed `halt`.
    #[inline]
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Number of instructions retired so far.
    #[inline]
    pub fn retired(&self) -> u64 {
        self.serial
    }

    /// The full data-memory image (for whole-state comparisons, e.g.
    /// verifying that a transformed program computes the same result).
    #[inline]
    pub fn memory(&self) -> &[u8] {
        &self.mem
    }

    /// Snapshot of the integer register file.
    #[inline]
    pub fn int_regs(&self) -> [i32; 32] {
        self.iregs
    }

    /// Snapshot of the floating-point register file.
    #[inline]
    pub fn fp_regs(&self) -> [f64; 32] {
        self.fregs
    }

    /// Reads a 32-bit word from data memory (for checking results).
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] on out-of-bounds or unaligned access.
    pub fn read_word(&self, addr: u32) -> Result<i32, VmError> {
        let b = self.load_bytes::<4>(addr)?;
        Ok(i32::from_le_bytes(b))
    }

    /// Reads a double from data memory.
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] on out-of-bounds or unaligned access.
    pub fn read_double(&self, addr: u32) -> Result<f64, VmError> {
        let b = self.load_bytes::<8>(addr)?;
        Ok(f64::from_bits(u64::from_le_bytes(b)))
    }

    /// Executes until `halt` or until `limit` instructions have retired,
    /// collecting the full trace.
    ///
    /// # Errors
    ///
    /// Propagates the first [`VmError`] raised by any instruction.
    pub fn run(&mut self, limit: u64) -> Result<Trace, VmError> {
        let mut ops = Vec::new();
        self.run_with(limit, |op| ops.push(op))?;
        Ok(Trace {
            ops,
            halted: self.halted,
        })
    }

    /// Streaming variant of [`Vm::run`]: calls `sink` for every retired
    /// instruction without materialising the trace.
    ///
    /// # Errors
    ///
    /// Propagates the first [`VmError`] raised by any instruction.
    pub fn run_with(&mut self, limit: u64, mut sink: impl FnMut(DynOp)) -> Result<(), VmError> {
        for _ in 0..limit {
            match self.step()? {
                Some(op) => sink(op),
                None => break,
            }
        }
        Ok(())
    }

    /// Retires one instruction, returning its [`DynOp`], or `None` if the
    /// VM has already halted.
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] on memory faults, malformed instructions, or a
    /// program counter outside the text.
    pub fn step(&mut self) -> Result<Option<DynOp>, VmError> {
        if self.halted {
            return Ok(None);
        }
        let pc = self.pc;
        if pc as usize >= self.program.len() {
            return Err(VmError::PcOutOfRange { pc });
        }
        let inst = *self.program.inst(pc as usize);
        let op = self.exec(pc, &inst)?;
        self.serial += 1;
        Ok(Some(op))
    }

    // --- execution helpers ---

    fn ivalue(&self, pc: u32, src: Src) -> Result<i32, VmError> {
        match src {
            Src::IReg(r) => Ok(self.iregs[r.index()]),
            Src::Imm(v) => Ok(v),
            _ => Err(VmError::MalformedInst { index: pc }),
        }
    }

    fn fvalue(&self, pc: u32, src: Src) -> Result<f64, VmError> {
        match src {
            Src::FReg(r) => Ok(self.fregs[r.index()]),
            Src::FImm(b) => Ok(f64::from_bits(b)),
            _ => Err(VmError::MalformedInst { index: pc }),
        }
    }

    fn write_dst(&mut self, pc: u32, dst: Option<Reg>, value: Word) -> Result<(), VmError> {
        match (dst, value) {
            (Some(Reg::Int(r)), Word::Int(v)) => {
                self.iregs[r.index()] = v as i32;
                Ok(())
            }
            (Some(Reg::Fp(r)), Word::Fp(b)) => {
                self.fregs[r.index()] = f64::from_bits(b);
                Ok(())
            }
            _ => Err(VmError::MalformedInst { index: pc }),
        }
    }

    fn check_access(&self, addr: u32, width: u8) -> Result<usize, VmError> {
        if !addr.is_multiple_of(width as u32) {
            return Err(VmError::UnalignedAccess { addr, width });
        }
        let end = addr as u64 + width as u64;
        if end > self.mem.len() as u64 {
            return Err(VmError::OutOfBoundsMemory {
                addr,
                width,
                mem_bytes: self.mem.len() as u32,
            });
        }
        Ok(addr as usize)
    }

    fn load_bytes<const N: usize>(&self, addr: u32) -> Result<[u8; N], VmError> {
        let base = self.check_access(addr, N as u8)?;
        let mut out = [0u8; N];
        out.copy_from_slice(&self.mem[base..base + N]);
        Ok(out)
    }

    fn store_bytes(&mut self, addr: u32, bytes: &[u8]) -> Result<(), VmError> {
        let base = self.check_access(addr, bytes.len() as u8)?;
        self.mem[base..base + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }

    fn srcs_of(inst: &Inst) -> [Option<Reg>; 2] {
        [inst.src1.reg(), inst.src2.reg()]
    }

    #[allow(clippy::too_many_lines)]
    fn exec(&mut self, pc: u32, inst: &Inst) -> Result<DynOp, VmError> {
        use Opcode::*;

        let mut fu = None;
        let mut mem = None;
        let mut branch = None;
        let mut next_pc = pc + 1;

        match inst.op {
            // --- integer ALU and multiplier ---
            Add | Sub | And | Or | Xor | Nor | Sll | Srl | Sra | Slt | Sle | Sgt | Sge | Seq
            | Sne | Li | Mul | Div | Rem => {
                let a = self.ivalue(pc, inst.src1)?;
                let b = self.ivalue(pc, inst.src2)?;
                let result = int_alu(inst.op, a, b);
                fu = Some(FuOp {
                    class: inst.op.fu_class().expect("integer op has an FU"),
                    op1: Word::int(a),
                    op2: Word::int(b),
                    commutative: inst.op.commutative(),
                });
                self.write_dst(pc, inst.dst, Word::int(result))?;
            }

            // --- floating-point adder/subtractor unit ---
            FAdd | FSub => {
                let a = self.fvalue(pc, inst.src1)?;
                let b = self.fvalue(pc, inst.src2)?;
                let result = if inst.op == FAdd { a + b } else { a - b };
                fu = Some(FuOp {
                    class: FuClass::FpAlu,
                    op1: Word::fp(a),
                    op2: Word::fp(b),
                    commutative: inst.op.commutative(),
                });
                self.write_dst(pc, inst.dst, Word::fp(result))?;
            }
            FCmpLt | FCmpLe | FCmpGt | FCmpGe | FCmpEq | FCmpNe => {
                let a = self.fvalue(pc, inst.src1)?;
                let b = self.fvalue(pc, inst.src2)?;
                let result = match inst.op {
                    FCmpLt => a < b,
                    FCmpLe => a <= b,
                    FCmpGt => a > b,
                    FCmpGe => a >= b,
                    FCmpEq => a == b,
                    _ => a != b,
                };
                fu = Some(FuOp {
                    class: FuClass::FpAlu,
                    op1: Word::fp(a),
                    op2: Word::fp(b),
                    commutative: inst.op.commutative(),
                });
                self.write_dst(pc, inst.dst, Word::int(result as i32))?;
            }
            CvtIf => {
                let v = self.ivalue(pc, inst.src1)?;
                // The FPAU's input bus carries the 64-bit sign-extended
                // integer; its mantissa-range bits are what the power model
                // sees.
                fu = Some(FuOp {
                    class: FuClass::FpAlu,
                    op1: Word::Fp(v as i64 as u64),
                    op2: Word::fp(0.0),
                    commutative: false,
                });
                self.write_dst(pc, inst.dst, Word::fp(v as f64))?;
            }
            CvtFi => {
                let v = self.fvalue(pc, inst.src1)?;
                fu = Some(FuOp {
                    class: FuClass::FpAlu,
                    op1: Word::fp(v),
                    op2: Word::fp(0.0),
                    commutative: false,
                });
                self.write_dst(pc, inst.dst, Word::int(v as i32))?;
            }
            FNeg | FAbs | FMov => {
                let v = self.fvalue(pc, inst.src1)?;
                let result = match inst.op {
                    FNeg => -v,
                    FAbs => v.abs(),
                    _ => v,
                };
                fu = Some(FuOp {
                    class: FuClass::FpAlu,
                    op1: Word::fp(v),
                    op2: Word::fp(0.0),
                    commutative: false,
                });
                self.write_dst(pc, inst.dst, Word::fp(result))?;
            }

            // --- floating-point multiplier/divider ---
            FMul | FDiv => {
                let a = self.fvalue(pc, inst.src1)?;
                let b = self.fvalue(pc, inst.src2)?;
                let result = if inst.op == FMul { a * b } else { a / b };
                fu = Some(FuOp {
                    class: FuClass::FpMul,
                    op1: Word::fp(a),
                    op2: Word::fp(b),
                    commutative: inst.op.commutative(),
                });
                self.write_dst(pc, inst.dst, Word::fp(result))?;
            }

            // --- memory ---
            Lw | Lf => {
                let base = self.ivalue(pc, inst.src1)?;
                let addr = base.wrapping_add(inst.imm) as u32;
                fu = Some(agu_op(base, inst.imm));
                if inst.op == Lw {
                    let b = self.load_bytes::<4>(addr)?;
                    mem = Some(MemAccess {
                        addr,
                        is_load: true,
                        width: 4,
                    });
                    self.write_dst(pc, inst.dst, Word::int(i32::from_le_bytes(b)))?;
                } else {
                    let b = self.load_bytes::<8>(addr)?;
                    mem = Some(MemAccess {
                        addr,
                        is_load: true,
                        width: 8,
                    });
                    self.write_dst(pc, inst.dst, Word::Fp(u64::from_le_bytes(b)))?;
                }
            }
            Sw => {
                let data = self.ivalue(pc, inst.src1)?;
                let base = self.ivalue(pc, inst.src2)?;
                let addr = base.wrapping_add(inst.imm) as u32;
                fu = Some(agu_op(base, inst.imm));
                self.store_bytes(addr, &data.to_le_bytes())?;
                mem = Some(MemAccess {
                    addr,
                    is_load: false,
                    width: 4,
                });
            }
            Sf => {
                let data = self.fvalue(pc, inst.src1)?;
                let base = self.ivalue(pc, inst.src2)?;
                let addr = base.wrapping_add(inst.imm) as u32;
                fu = Some(agu_op(base, inst.imm));
                self.store_bytes(addr, &data.to_bits().to_le_bytes())?;
                mem = Some(MemAccess {
                    addr,
                    is_load: false,
                    width: 8,
                });
            }

            // --- control ---
            Beq | Bne | Blez | Bgtz => {
                let a = self.ivalue(pc, inst.src1)?;
                let b = match inst.op {
                    Beq | Bne => self.ivalue(pc, inst.src2)?,
                    _ => 0,
                };
                let taken = match inst.op {
                    Beq => a == b,
                    Bne => a != b,
                    Blez => a <= 0,
                    _ => a > 0,
                };
                fu = Some(FuOp {
                    class: FuClass::IntAlu,
                    op1: Word::int(a),
                    op2: Word::int(b),
                    commutative: inst.op.commutative(),
                });
                branch = Some(BranchInfo {
                    taken,
                    target: inst.imm as u32,
                    unconditional: false,
                });
                if taken {
                    next_pc = inst.imm as u32;
                }
            }
            J => {
                branch = Some(BranchInfo {
                    taken: true,
                    target: inst.imm as u32,
                    unconditional: true,
                });
                next_pc = inst.imm as u32;
            }
            Halt => {
                self.halted = true;
                next_pc = pc;
            }

            // --- decode-level moves ---
            FLi => {
                let v = self.fvalue(pc, inst.src1)?;
                self.write_dst(pc, inst.dst, Word::fp(v))?;
            }
        }

        self.pc = next_pc;
        Ok(DynOp {
            serial: self.serial,
            static_idx: pc,
            opcode: inst.op,
            fu,
            mem,
            branch,
            srcs: Self::srcs_of(inst),
            dst: inst.dst,
        })
    }
}

/// The effective-address add executed on an integer ALU for every memory
/// instruction: `OP1` = base register value, `OP2` = sign-extended offset.
fn agu_op(base: i32, offset: i32) -> FuOp {
    FuOp {
        class: FuClass::IntAlu,
        op1: Word::int(base),
        op2: Word::int(offset),
        commutative: false,
    }
}

/// The integer ALU/multiplier function, exposed so static analyses can
/// constant-fold with exactly the interpreter's semantics (wrapping
/// arithmetic, `div`-by-zero → 0, `rem`-by-zero → dividend).
///
/// # Panics
///
/// Panics if `op` is not an integer ALU/multiplier opcode.
pub fn int_alu(op: Opcode, a: i32, b: i32) -> i32 {
    use Opcode::*;
    match op {
        Add | Li => a.wrapping_add(b),
        Sub => a.wrapping_sub(b),
        And => a & b,
        Or => a | b,
        Xor => a ^ b,
        Nor => !(a | b),
        Sll => ((a as u32) << (b as u32 & 31)) as i32,
        Srl => ((a as u32) >> (b as u32 & 31)) as i32,
        Sra => a >> (b as u32 & 31),
        Slt => (a < b) as i32,
        Sle => (a <= b) as i32,
        Sgt => (a > b) as i32,
        Sge => (a >= b) as i32,
        Seq => (a == b) as i32,
        Sne => (a != b) as i32,
        Mul => a.wrapping_mul(b),
        Div => {
            if b == 0 {
                0
            } else {
                a.wrapping_div(b)
            }
        }
        Rem => {
            if b == 0 {
                a
            } else if a == i32::MIN && b == -1 {
                0
            } else {
                a % b
            }
        }
        _ => unreachable!("not an integer ALU opcode: {op}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fua_isa::{Case, ProgramBuilder};

    fn r(i: u8) -> IntReg {
        IntReg::new(i)
    }

    fn f(i: u8) -> FpReg {
        FpReg::new(i)
    }

    #[test]
    fn loop_sums_correctly() {
        // sum = 1 + 2 + ... + 10
        let mut b = ProgramBuilder::new();
        let top = b.new_label();
        b.li(r(1), 10); // counter
        b.li(r(2), 0); // sum
        b.bind(top);
        b.add(r(2), r(2), r(1));
        b.addi(r(1), r(1), -1);
        b.bgtz(r(1), top);
        b.halt();
        let p = b.build().expect("valid");
        let mut vm = Vm::new(&p);
        let t = vm.run(1_000).expect("runs");
        assert!(t.halted);
        assert_eq!(vm.int_reg(r(2)), 55);
    }

    #[test]
    fn memory_round_trip_int_and_fp() {
        let mut b = ProgramBuilder::new();
        let words = b.data_words(&[11, 22, 33]);
        let dbls = b.data_doubles(&[1.5, -2.25]);
        b.li(r(1), words);
        b.lw(r(2), r(1), 4); // 22
        b.addi(r(2), r(2), 1);
        b.sw(r(2), r(1), 8); // mem[2] = 23
        b.li(r(3), dbls);
        b.lf(f(1), r(3), 8); // -2.25
        b.fneg(f(2), f(1));
        b.sf(f(2), r(3), 0);
        b.halt();
        let p = b.build().expect("valid");
        let mut vm = Vm::new(&p);
        vm.run(100).expect("runs");
        assert_eq!(vm.int_reg(r(2)), 23);
        assert_eq!(vm.read_word(words as u32 + 8).expect("in range"), 23);
        assert_eq!(vm.read_double(dbls as u32).expect("in range"), 2.25);
    }

    #[test]
    fn agu_operands_are_base_and_offset() {
        let mut b = ProgramBuilder::new();
        let base = b.data_words(&[7, 8]);
        b.li(r(1), base);
        b.lw(r(2), r(1), 4);
        b.halt();
        let p = b.build().expect("valid");
        let t = Vm::new(&p).run(10).expect("runs");
        let load = &t.ops[1];
        let fu = load.fu.expect("loads use the IALU for the address");
        assert_eq!(fu.class, FuClass::IntAlu);
        assert_eq!(fu.op1, Word::int(base));
        assert_eq!(fu.op2, Word::int(4));
        assert!(!fu.commutative);
        assert_eq!(load.mem.expect("is a load").width, 4);
    }

    #[test]
    fn li_presents_zero_and_immediate_to_the_alu() {
        let mut b = ProgramBuilder::new();
        b.li(r(1), -7);
        b.halt();
        let p = b.build().expect("valid");
        let t = Vm::new(&p).run(10).expect("runs");
        let fu = t.ops[0].fu.expect("li executes on the IALU");
        assert_eq!(fu.op1, Word::int(0));
        assert_eq!(fu.op2, Word::int(-7));
        assert_eq!(fu.case(), Case::C01);
    }

    #[test]
    fn unary_fp_ops_latch_zero_on_port_two() {
        let mut b = ProgramBuilder::new();
        b.fli(f(1), 3.75);
        b.fabs(f(2), f(1));
        b.halt();
        let p = b.build().expect("valid");
        let t = Vm::new(&p).run(10).expect("runs");
        assert!(t.ops[0].fu.is_none(), "fli is decode-level");
        let fu = t.ops[1].fu.expect("fabs uses the FPAU");
        assert_eq!(fu.op2, Word::fp(0.0));
        assert_eq!(fu.class, FuClass::FpAlu);
    }

    #[test]
    fn cvtif_carries_sign_extended_integer_bits() {
        let mut b = ProgramBuilder::new();
        b.li(r(1), -3);
        b.cvtif(f(1), r(1));
        b.halt();
        let p = b.build().expect("valid");
        let mut vm = Vm::new(&p);
        let t = vm.run(10).expect("runs");
        assert_eq!(vm.fp_reg(f(1)), -3.0);
        let fu = t.ops[1].fu.expect("cvtif uses the FPAU");
        assert_eq!(fu.op1, Word::Fp(-3i64 as u64));
    }

    #[test]
    fn branch_records_outcome_and_redirects() {
        let mut b = ProgramBuilder::new();
        let skip = b.new_label();
        b.li(r(1), 1);
        b.bgtz(r(1), skip);
        b.li(r(2), 99); // skipped
        b.bind(skip);
        b.halt();
        let p = b.build().expect("valid");
        let mut vm = Vm::new(&p);
        let t = vm.run(10).expect("runs");
        assert_eq!(vm.int_reg(r(2)), 0);
        let br = t.ops[1].branch.expect("bgtz is a branch");
        assert!(br.taken);
        assert_eq!(br.target, 3);
        assert!(t.ops[1].fu.is_some(), "branch compare uses the IALU");
    }

    #[test]
    fn division_edge_cases() {
        assert_eq!(int_alu(Opcode::Div, 7, 0), 0);
        assert_eq!(int_alu(Opcode::Rem, 7, 0), 7);
        assert_eq!(int_alu(Opcode::Div, i32::MIN, -1), i32::MIN); // wrapping
        assert_eq!(int_alu(Opcode::Rem, i32::MIN, -1), 0);
    }

    #[test]
    fn out_of_bounds_access_is_reported() {
        let mut b = ProgramBuilder::new();
        b.li(r(1), 0x7FFF_0000u32 as i32);
        b.lw(r(2), r(1), 0);
        b.halt();
        let p = b.build().expect("valid");
        let err = Vm::new(&p).run(10).expect_err("faults");
        assert!(matches!(err, VmError::OutOfBoundsMemory { .. }));
    }

    #[test]
    fn unaligned_access_is_reported() {
        let mut b = ProgramBuilder::new();
        b.li(r(1), 2);
        b.lw(r(2), r(1), 0);
        b.halt();
        let p = b.build().expect("valid");
        let err = Vm::new(&p).run(10).expect_err("faults");
        assert_eq!(err, VmError::UnalignedAccess { addr: 2, width: 4 });
    }

    #[test]
    fn limit_stops_without_halting() {
        let mut b = ProgramBuilder::new();
        let top = b.new_label();
        b.bind(top);
        b.li(r(1), 1);
        b.j(top);
        b.halt();
        let p = b.build().expect("valid");
        let t = Vm::new(&p).run(7).expect("runs");
        assert!(!t.halted);
        assert_eq!(t.ops.len(), 7);
    }

    #[test]
    fn serial_numbers_are_dense_and_ordered() {
        let mut b = ProgramBuilder::new();
        b.li(r(1), 1);
        b.addi(r(1), r(1), 1);
        b.halt();
        let p = b.build().expect("valid");
        let t = Vm::new(&p).run(10).expect("runs");
        for (i, op) in t.ops.iter().enumerate() {
            assert_eq!(op.serial, i as u64);
        }
    }
}
