//! Opcodes and their steering-relevant metadata.

use std::fmt;

use crate::FuClass;

/// The opcode set of the modelled MIPS-like machine.
///
/// Every opcode carries the metadata the steering and swapping layers need:
/// which functional-unit pool executes it ([`Opcode::fu_class`]), whether
/// its operands may be swapped by hardware ([`Opcode::commutative`]), and
/// whether a compiler may commute it by flipping the opcode
/// ([`Opcode::flipped`], e.g. `sgt` ↔ `slt`).
///
/// Immediate forms are expressed through the instruction's source slots
/// ([`crate::Src::Imm`]) rather than separate opcodes; the software-swap
/// legality check therefore also inspects the operand kinds.
///
/// # Examples
///
/// ```
/// use fua_isa::{FuClass, Opcode};
///
/// assert!(Opcode::Add.commutative());
/// assert!(!Opcode::Sub.commutative());
/// assert_eq!(Opcode::Sgt.flipped(), Some(Opcode::Slt));
/// assert_eq!(Opcode::FMul.fu_class(), Some(FuClass::FpMul));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Opcode {
    // --- integer ALU ---
    /// Integer add.
    Add,
    /// Integer subtract.
    Sub,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Bitwise NOR.
    Nor,
    /// Shift left logical (shift amount from OP2's low 5 bits).
    Sll,
    /// Shift right logical.
    Srl,
    /// Shift right arithmetic.
    Sra,
    /// Set if less than (signed).
    Slt,
    /// Set if less or equal (signed).
    Sle,
    /// Set if greater than (signed).
    Sgt,
    /// Set if greater or equal (signed).
    Sge,
    /// Set if equal.
    Seq,
    /// Set if not equal.
    Sne,
    /// Load immediate into an integer register (`addiu rd, r0, imm`): the
    /// ALU sees OP1 = 0, OP2 = imm.
    Li,

    // --- integer multiplier/divider ---
    /// Integer multiply (low 32 bits of the product).
    Mul,
    /// Integer divide (signed, truncating; divide by zero yields 0).
    Div,
    /// Integer remainder (signed; remainder by zero yields the dividend).
    Rem,

    // --- floating-point adder/subtractor unit ---
    /// Double add.
    FAdd,
    /// Double subtract.
    FSub,
    /// Set integer register if `OP1 < OP2` (double compare).
    FCmpLt,
    /// Set integer register if `OP1 <= OP2`.
    FCmpLe,
    /// Set integer register if `OP1 > OP2`.
    FCmpGt,
    /// Set integer register if `OP1 >= OP2`.
    FCmpGe,
    /// Set integer register if equal.
    FCmpEq,
    /// Set integer register if not equal.
    FCmpNe,
    /// Convert integer to double.
    CvtIf,
    /// Convert double to integer (truncating; saturates on overflow).
    CvtFi,
    /// Double negate.
    FNeg,
    /// Double absolute value.
    FAbs,
    /// Double register move.
    FMov,

    // --- floating-point multiplier/divider ---
    /// Double multiply.
    FMul,
    /// Double divide.
    FDiv,

    // --- memory ---
    /// Load 32-bit integer word.
    Lw,
    /// Store 32-bit integer word.
    Sw,
    /// Load 64-bit double.
    Lf,
    /// Store 64-bit double.
    Sf,

    // --- control ---
    /// Branch if the two integer sources are equal.
    Beq,
    /// Branch if not equal.
    Bne,
    /// Branch if `OP1 <= 0` (signed).
    Blez,
    /// Branch if `OP1 > 0` (signed).
    Bgtz,
    /// Unconditional jump.
    J,
    /// Stop the program.
    Halt,

    // --- decode-level moves (no functional unit) ---
    /// Load a double immediate into an FP register. Modelled as a
    /// decode-level constant injection (compilers materialise FP constants
    /// from the constant pool; we skip the memory traffic — see DESIGN.md).
    FLi,
}

impl Opcode {
    /// The functional-unit pool that executes this opcode, or `None` for
    /// opcodes that occupy no FU (jumps, halts, decode-level moves).
    /// Memory opcodes return `Some(IntAlu)` because their effective-address
    /// add executes on an integer ALU, exactly as in `sim-outorder`.
    pub fn fu_class(self) -> Option<FuClass> {
        use Opcode::*;
        match self {
            Add | Sub | And | Or | Xor | Nor | Sll | Srl | Sra | Slt | Sle | Sgt | Sge | Seq
            | Sne | Li => Some(FuClass::IntAlu),
            Mul | Div | Rem => Some(FuClass::IntMul),
            FAdd | FSub | FCmpLt | FCmpLe | FCmpGt | FCmpGe | FCmpEq | FCmpNe | CvtIf | CvtFi
            | FNeg | FAbs | FMov => Some(FuClass::FpAlu),
            FMul | FDiv => Some(FuClass::FpMul),
            Lw | Sw | Lf | Sf => Some(FuClass::IntAlu),
            Beq | Bne | Blez | Bgtz => Some(FuClass::IntAlu),
            J | Halt | FLi => None,
        }
    }

    /// Whether the hardware may swap the two operand values without
    /// changing the result (the paper's `Commutative(Ij)` predicate).
    pub fn commutative(self) -> bool {
        use Opcode::*;
        matches!(
            self,
            Add | And
                | Or
                | Xor
                | Nor
                | Seq
                | Sne
                | Mul
                | FAdd
                | FMul
                | FCmpEq
                | FCmpNe
                | Beq
                | Bne
        )
    }

    /// The opcode that computes the same function with swapped operands,
    /// for opcodes that are commutable *by the compiler only* (the paper's
    /// `>` → `<=`-style transformation). Commutative opcodes return
    /// themselves; non-commutable opcodes return `None`.
    pub fn flipped(self) -> Option<Opcode> {
        use Opcode::*;
        if self.commutative() {
            return Some(self);
        }
        match self {
            Slt => Some(Sgt),
            Sgt => Some(Slt),
            Sle => Some(Sge),
            Sge => Some(Sle),
            FCmpLt => Some(FCmpGt),
            FCmpGt => Some(FCmpLt),
            FCmpLe => Some(FCmpGe),
            FCmpGe => Some(FCmpLe),
            _ => None,
        }
    }

    /// Whether this opcode reads memory.
    pub fn is_load(self) -> bool {
        matches!(self, Opcode::Lw | Opcode::Lf)
    }

    /// Whether this opcode writes memory.
    pub fn is_store(self) -> bool {
        matches!(self, Opcode::Sw | Opcode::Sf)
    }

    /// Whether this opcode accesses memory at all.
    pub fn is_mem(self) -> bool {
        self.is_load() || self.is_store()
    }

    /// Whether this opcode is a conditional branch.
    pub fn is_branch(self) -> bool {
        matches!(
            self,
            Opcode::Beq | Opcode::Bne | Opcode::Blez | Opcode::Bgtz
        )
    }

    /// Whether this opcode transfers control at all (branch, jump or halt).
    pub fn is_control(self) -> bool {
        self.is_branch() || matches!(self, Opcode::J | Opcode::Halt)
    }

    /// The assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        use Opcode::*;
        match self {
            Add => "add",
            Sub => "sub",
            And => "and",
            Or => "or",
            Xor => "xor",
            Nor => "nor",
            Sll => "sll",
            Srl => "srl",
            Sra => "sra",
            Slt => "slt",
            Sle => "sle",
            Sgt => "sgt",
            Sge => "sge",
            Seq => "seq",
            Sne => "sne",
            Li => "li",
            Mul => "mul",
            Div => "div",
            Rem => "rem",
            FAdd => "fadd",
            FSub => "fsub",
            FCmpLt => "fcmplt",
            FCmpLe => "fcmple",
            FCmpGt => "fcmpgt",
            FCmpGe => "fcmpge",
            FCmpEq => "fcmpeq",
            FCmpNe => "fcmpne",
            CvtIf => "cvtif",
            CvtFi => "cvtfi",
            FNeg => "fneg",
            FAbs => "fabs",
            FMov => "fmov",
            FMul => "fmul",
            FDiv => "fdiv",
            Lw => "lw",
            Sw => "sw",
            Lf => "lf",
            Sf => "sf",
            Beq => "beq",
            Bne => "bne",
            Blez => "blez",
            Bgtz => "bgtz",
            J => "j",
            Halt => "halt",
            FLi => "fli",
        }
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flip_is_an_involution_where_defined() {
        use Opcode::*;
        for op in [Slt, Sgt, Sle, Sge, FCmpLt, FCmpGt, FCmpLe, FCmpGe] {
            let flipped = op.flipped().expect("compare opcodes are flippable");
            assert_eq!(flipped.flipped(), Some(op));
        }
    }

    #[test]
    fn commutative_opcodes_flip_to_themselves() {
        for op in [Opcode::Add, Opcode::FAdd, Opcode::Mul, Opcode::Seq] {
            assert_eq!(op.flipped(), Some(op));
        }
    }

    #[test]
    fn subtraction_is_not_swappable_in_any_way() {
        assert!(!Opcode::Sub.commutative());
        assert_eq!(Opcode::Sub.flipped(), None);
        assert!(!Opcode::FSub.commutative());
        assert_eq!(Opcode::FSub.flipped(), None);
    }

    #[test]
    fn memory_ops_compute_addresses_on_the_ialu() {
        for op in [Opcode::Lw, Opcode::Sw, Opcode::Lf, Opcode::Sf] {
            assert_eq!(op.fu_class(), Some(FuClass::IntAlu));
            assert!(op.is_mem());
        }
        assert!(Opcode::Lw.is_load());
        assert!(Opcode::Sf.is_store());
        assert!(!Opcode::FLi.is_mem());
    }

    #[test]
    fn control_classification() {
        assert!(Opcode::Beq.is_branch());
        assert!(Opcode::J.is_control());
        assert!(!Opcode::J.is_branch());
        assert!(Opcode::Halt.is_control());
        assert_eq!(Opcode::J.fu_class(), None);
    }
}
