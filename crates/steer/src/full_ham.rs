//! The cost-prohibitive optimal scheme: full Hamming distances.

use fua_power::ModulePorts;
use fua_vm::FuOp;

use crate::policy::assign_by_cost;
use crate::{ModuleChoice, SteeringPolicy, MAX_MODULES};

/// Optimal per-cycle assignment using exact Hamming distances — the
/// *Full Ham* upper bound of Figure 4. Too expensive for real routing
/// logic (the cost computation alone would dominate the savings); modelled
/// here as the yardstick every practical scheme is measured against.
///
/// Each (instruction, module) cost is the paper's Figure-2 rule: the
/// Hamming distance from the module's latched operands over the
/// power-model bits, taking the swapped operand order for a commutative
/// instruction when `allow_swap` is set and the swap is strictly
/// cheaper. A module never driven costs nothing. The policy reads each
/// module's latched power bits once per group, builds the cost matrix on
/// the stack and solves it with [`min_cost_assignment_into`](crate::min_cost_assignment_into):
/// steady-state assignment allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct FullHamPolicy {
    allow_swap: bool,
    assignment: Vec<usize>,
}

impl FullHamPolicy {
    /// Creates the policy; `allow_swap` enables the per-assignment operand
    /// swap of Figure 2 (the "+ Hardware swapping" variant).
    pub fn new(allow_swap: bool) -> Self {
        FullHamPolicy {
            allow_swap,
            ..FullHamPolicy::default()
        }
    }
}

impl SteeringPolicy for FullHamPolicy {
    fn name(&self) -> &str {
        "Full Ham"
    }

    fn assign_into(
        &mut self,
        ops: &[FuOp],
        _cases: &[u8],
        modules: &[ModulePorts],
        out: &mut Vec<ModuleChoice>,
    ) {
        // Each module's latched power bits and a mask that is zero for
        // a module never driven, so every distance to it is zero.
        let mut latched = [(0u64, 0u64, 0u64); MAX_MODULES];
        for (slot, module) in latched.iter_mut().zip(modules) {
            if let Some((a, b)) = module.prev() {
                *slot = (a.power_bits(), b.power_bits(), u64::MAX);
            }
        }
        let latched = &latched[..modules.len()];
        // Each operation's power bits, read once.
        let mut bits = [(0u64, 0u64); MAX_MODULES];
        for (slot, op) in bits.iter_mut().zip(ops) {
            *slot = (op.op1.power_bits(), op.op2.power_bits());
        }
        assign_by_cost(
            ops,
            latched.len(),
            self.allow_swap,
            |i, j| {
                let ((x, y), (a, b, driven)) = (bits[i], latched[j]);
                (
                    ((a ^ x) & driven).count_ones() + ((b ^ y) & driven).count_ones(),
                    ((a ^ y) & driven).count_ones() + ((b ^ x) & driven).count_ones(),
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
    fn routes_to_the_matching_module() {
        // Module 0 holds small positives, module 1 holds -1s. A new all-ones
        // op must go to module 1.
        let modules = latched(&[(1, 2), (-1, -1)]);
        let ops = [op(-1, -1, false)];
        let choices = FullHamPolicy::new(false).assign(&ops, &modules);
        validate_choices(&ops, modules.len(), &choices);
        assert_eq!(choices[0].module, 1);
    }

    #[test]
    fn swap_is_chosen_when_it_wins() {
        let modules = latched(&[(-1, 0)]);
        let ops = [op(0, -1, true)];
        let choices = FullHamPolicy::new(true).assign(&ops, &modules);
        assert!(choices[0].swap);
        let no_swap = FullHamPolicy::new(false).assign(&ops, &modules);
        assert!(!no_swap[0].swap);
    }

    #[test]
    fn swap_is_used_only_when_cheaper_and_legal() {
        // Direct: ham(-1,0)+ham(0,-1) = 64; swapped: 0.
        let modules = latched(&[(-1, 0)]);
        let charged = |policy: &mut FullHamPolicy, op: FuOp| {
            let choice = policy.assign(&[op], &modules)[0];
            let op = if choice.swap { op.swapped() } else { op };
            (modules[0].peek_cost(op.op1, op.op2), choice.swap)
        };
        let commutative = op(0, -1, true);
        assert_eq!(
            charged(&mut FullHamPolicy::new(true), commutative),
            (0, true)
        );
        // Swap disallowed by the caller:
        assert_eq!(
            charged(&mut FullHamPolicy::new(false), commutative),
            (64, false)
        );
        // Swap illegal for the op:
        assert_eq!(
            charged(&mut FullHamPolicy::new(true), op(0, -1, false)),
            (64, false)
        );
        // Never cheaper: a tie keeps the direct order.
        assert_eq!(
            charged(&mut FullHamPolicy::new(true), op(-1, -1, true)),
            (32, false)
        );
    }

    /// Total cost of a set of choices against the modules' latched state.
    fn routing_cost(modules: &[ModulePorts], ops: &[FuOp], assignment: &[usize]) -> u32 {
        assignment
            .iter()
            .zip(ops)
            .map(|(&m, o)| fua_power::pair_cost(modules[m].prev(), o.op1, o.op2))
            .sum()
    }

    #[test]
    fn total_cost_matches_exhaustive_minimum() {
        let modules = latched(&[(0, 0), (1, 0), (255, 7)]);
        let ops = [op(0, 0, false), op(0, 1, false), op(254, 7, false)];
        let choices = FullHamPolicy::new(false).assign(&ops, &modules);
        let got = routing_cost(
            &modules,
            &ops,
            &choices.iter().map(|c| c.module).collect::<Vec<_>>(),
        );
        // Exhaustive over all 3! permutations.
        let perms = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        let best = perms
            .iter()
            .map(|p| routing_cost(&modules, &ops, p))
            .min()
            .expect("non-empty");
        assert_eq!(got, best);
    }

    #[test]
    fn paper_figure_1_example_saves_energy() {
        // Figure 1: three FUs, two cycles, 16-bit hex values; the paper
        // reports the alternative routing uses 57% less energy than the
        // default. The figure does not label which cycle-2 operand pair
        // the default router sends to which FU, so we compare the optimal
        // routing against the worst and the in-order ones.
        let modules = latched(&[
            (0x0A01, 0x0001),
            (0x7FFF, 0x0001),
            (0xFFF7u32 as i32, 0x7F00),
        ]);
        let cycle2 = [
            op(0x0A71, 0x0111, false),
            op(0x0A01, 0x0001, false),
            op(0x7F00, 0x0001, false),
        ];
        let choices = FullHamPolicy::new(false).assign(&cycle2, &modules);
        let optimal = routing_cost(
            &modules,
            &cycle2,
            &choices.iter().map(|c| c.module).collect::<Vec<_>>(),
        );
        let in_order = routing_cost(&modules, &cycle2, &[0, 1, 2]);
        let worst = [
            [0usize, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ]
        .iter()
        .map(|p| routing_cost(&modules, &cycle2, p))
        .max()
        .expect("non-empty");
        assert!(optimal < in_order);
        let saving_vs_worst = 1.0 - optimal as f64 / worst as f64;
        assert!(
            saving_vs_worst > 0.3,
            "optimal routing should save substantially vs a bad default, got {saving_vs_worst:.2}"
        );
    }
}
