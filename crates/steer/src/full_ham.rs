//! The cost-prohibitive optimal scheme: full Hamming distances.

use fua_power::{steering_cost, ModulePorts};
use fua_vm::FuOp;

use crate::{min_cost_assignment_into, ModuleChoice, SteeringPolicy};

/// The paper's Figure-2 algorithm: the cost of every (instruction,
/// module) pairing, taking the cheaper of the direct and swapped operand
/// orders for commutative instructions when `allow_swap` is set.
///
/// Returns `costs[i][j] = (cost, swapped)` for instruction `i` on module
/// `j`.
///
/// # Examples
///
/// ```
/// use fua_isa::{FuClass, Word};
/// use fua_power::ModulePorts;
/// use fua_steer::assignment_costs;
/// use fua_vm::FuOp;
///
/// let op = FuOp {
///     class: FuClass::IntAlu,
///     op1: Word::int(0),
///     op2: Word::int(0),
///     commutative: true,
/// };
/// let modules = vec![ModulePorts::new(); 2];
/// let costs = assignment_costs(&[op], &modules, true);
/// assert_eq!(costs[0][0], (0, false)); // empty latches are free
/// ```
pub fn assignment_costs(
    ops: &[FuOp],
    modules: &[ModulePorts],
    allow_swap: bool,
) -> Vec<Vec<(u32, bool)>> {
    ops.iter()
        .map(|op| {
            modules
                .iter()
                .map(|m| steering_cost(m.prev(), op, allow_swap))
                .collect()
        })
        .collect()
}

/// Optimal per-cycle assignment using exact Hamming distances — the
/// *Full Ham* upper bound of Figure 4. Too expensive for real routing
/// logic (the cost computation alone would dominate the savings); modelled
/// here as the yardstick every practical scheme is measured against.
///
/// The cost matrix and assignment buffer live on the policy and are
/// reused every cycle, and the solver works on the stack: steady-state
/// assignment allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct FullHamPolicy {
    allow_swap: bool,
    /// Row-major `ops × modules` (cost, swapped) pairs, refilled per call.
    costs: Vec<(u32, bool)>,
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

    fn assign_into(&mut self, ops: &[FuOp], modules: &[ModulePorts], out: &mut Vec<ModuleChoice>) {
        let m = modules.len();
        self.costs.clear();
        for op in ops {
            for module in modules {
                self.costs
                    .push(steering_cost(module.prev(), op, self.allow_swap));
            }
        }
        let costs = &self.costs;
        min_cost_assignment_into(
            ops.len(),
            m,
            |r, c| costs[r * m + c].0,
            &mut self.assignment,
        );
        out.clear();
        out.extend(
            self.assignment
                .iter()
                .enumerate()
                .map(|(i, &module)| ModuleChoice {
                    module,
                    swap: costs[i * m + module].1,
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
