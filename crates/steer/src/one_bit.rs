//! The 1-bit-Hamming upper bound: optimal assignment over information bits.

use fua_isa::Case;
use fua_power::ModulePorts;
use fua_vm::FuOp;

use crate::{min_cost_assignment_into, ModuleChoice, SteeringPolicy};

/// Optimal per-cycle assignment where each operand is summarised by its
/// information bit — the *1-bit Ham* bar of Figure 4. This bounds what any
/// scheme based solely on information bits (such as the LUTs) can achieve.
///
/// The cost/swap matrices and assignment buffer live on the policy and
/// are reused every cycle, and the solver works on the stack:
/// steady-state assignment allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct OneBitHamPolicy {
    allow_swap: bool,
    /// Each module's last-latched case, refilled per call.
    prev_cases: Vec<Option<Case>>,
    /// Row-major `ops × modules` information-bit distances.
    cost: Vec<u32>,
    /// Row-major `ops × modules` swap decisions.
    swap: Vec<bool>,
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

    /// Information-bit distance between an instruction case and a module's
    /// last case (0, 1 or 2 mismatching information bits).
    fn case_cost(prev: Option<Case>, next: Case) -> u32 {
        match prev {
            None => 0,
            Some(p) => {
                (p.op1_bit() != next.op1_bit()) as u32 + (p.op2_bit() != next.op2_bit()) as u32
            }
        }
    }
}

impl SteeringPolicy for OneBitHamPolicy {
    fn name(&self) -> &str {
        "1-bit Ham"
    }

    fn assign_into(&mut self, ops: &[FuOp], modules: &[ModulePorts], out: &mut Vec<ModuleChoice>) {
        let m = modules.len();
        self.prev_cases.clear();
        self.prev_cases.extend(
            modules
                .iter()
                .map(|p| p.prev().map(|(a, b)| Case::of_operands(a, b))),
        );
        self.cost.clear();
        self.swap.clear();
        self.swap.resize(ops.len() * m, false);
        for (i, op) in ops.iter().enumerate() {
            let case = op.case();
            for (j, &prev) in self.prev_cases.iter().enumerate() {
                let direct = Self::case_cost(prev, case);
                let mut chosen = direct;
                if self.allow_swap && op.commutative {
                    let swapped = Self::case_cost(prev, case.swapped());
                    if swapped < direct {
                        self.swap[i * m + j] = true;
                        chosen = swapped;
                    }
                }
                self.cost.push(chosen);
            }
        }
        let cost = &self.cost;
        min_cost_assignment_into(ops.len(), m, |r, c| cost[r * m + c], &mut self.assignment);
        out.clear();
        out.extend(
            self.assignment
                .iter()
                .enumerate()
                .map(|(i, &module)| ModuleChoice {
                    module,
                    swap: self.swap[i * m + module],
                }),
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
