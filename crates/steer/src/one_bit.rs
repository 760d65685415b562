//! The 1-bit-Hamming upper bound: optimal assignment over information bits.

use fua_isa::Case;
use fua_power::ModulePorts;
use fua_vm::FuOp;

use crate::policy::assign_by_cost;
use crate::{ModuleChoice, SteeringPolicy, MAX_MODULES};

/// Optimal per-cycle assignment where each operand is summarised by its
/// information bit — the *1-bit Ham* bar of Figure 4. This bounds what any
/// scheme based solely on information bits (such as the LUTs) can achieve.
///
/// The cost of an (instruction, module) pair is the number of
/// information bits (0, 1 or 2) in which the instruction's case differs
/// from the case of the module's latched operands; a module never driven
/// costs nothing. The instruction cases are the ones the caller passes;
/// each module's case is read once per group. The cost matrix is built
/// on the stack: steady-state assignment allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct OneBitHamPolicy {
    allow_swap: bool,
    assignment: Vec<usize>,
}

impl OneBitHamPolicy {
    /// Creates the policy; `allow_swap` lets it consider the swapped
    /// operand order for commutative instructions.
    pub fn new(allow_swap: bool) -> Self {
        OneBitHamPolicy {
            allow_swap,
            ..OneBitHamPolicy::default()
        }
    }
}

impl SteeringPolicy for OneBitHamPolicy {
    fn name(&self) -> &str {
        "1-bit Ham"
    }

    fn assign_into(
        &mut self,
        ops: &[FuOp],
        cases: &[u8],
        modules: &[ModulePorts],
        out: &mut Vec<ModuleChoice>,
    ) {
        // Each module's latched case bits and a mask that is zero for a
        // module never driven.
        let mut latched = [(0u8, 0u8); MAX_MODULES];
        for (slot, module) in latched.iter_mut().zip(modules) {
            if let Some((a, b)) = module.prev() {
                *slot = (Case::of_operands(a, b).index() as u8, 3);
            }
        }
        let latched = &latched[..modules.len()];
        assign_by_cost(
            ops,
            latched.len(),
            self.allow_swap,
            |i, j| {
                let (case, (prev, driven)) = (cases[i], latched[j]);
                (
                    ((prev ^ case) & driven).count_ones(),
                    ((prev ^ Case::swap_index(case)) & driven).count_ones(),
                )
            },
            &mut self.assignment,
            out,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::validate_choices;
    use fua_isa::{FuClass, Word};

    fn op(a: i32, b: i32, commutative: bool) -> FuOp {
        FuOp {
            class: FuClass::IntAlu,
            op1: Word::int(a),
            op2: Word::int(b),
            commutative,
        }
    }

    fn latched(pairs: &[(i32, i32)]) -> Vec<ModulePorts> {
        pairs
            .iter()
            .map(|&(a, b)| {
                let mut m = ModulePorts::new();
                m.latch(Word::int(a), Word::int(b));
                m
            })
            .collect()
    }

    #[test]
    fn matches_cases_not_values() {
        // Module 0 last saw case 00 (with very different *values*); module
        // 1 last saw case 11. A new case-00 op prefers module 0 even though
        // its values differ wildly.
        let modules = latched(&[(0x7FFF_0000, 0x0FFF_FFF0), (-1, -2)]);
        let ops = [op(1, 2, false)];
        let choices = OneBitHamPolicy::new(false).assign(&ops, &modules);
        validate_choices(&ops, modules.len(), &choices);
        assert_eq!(choices[0].module, 0);
    }

    #[test]
    fn swap_fixes_mirrored_cases() {
        // Module saw case 10; a commutative case-01 op swaps into 10.
        let modules = latched(&[(-1, 1)]);
        let ops = [op(1, -1, true)];
        let choices = OneBitHamPolicy::new(true).assign(&ops, &modules);
        assert!(choices[0].swap);
        // Without swap permission the op still issues, unswapped.
        let plain = OneBitHamPolicy::new(false).assign(&ops, &modules);
        assert!(!plain[0].swap);
    }

    #[test]
    fn non_commutative_ops_never_swap() {
        let modules = latched(&[(-1, 1)]);
        let ops = [op(1, -1, false)];
        let choices = OneBitHamPolicy::new(true).assign(&ops, &modules);
        assert!(!choices[0].swap);
    }

    #[test]
    fn cold_modules_cost_nothing() {
        let modules = vec![ModulePorts::new(); 2];
        let ops = [op(-1, -1, false), op(1, 1, false)];
        let choices = OneBitHamPolicy::new(false).assign(&ops, &modules);
        validate_choices(&ops, modules.len(), &choices);
    }
}
