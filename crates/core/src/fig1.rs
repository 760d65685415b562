//! Figure 1: the worked three-FU routing example.

use fua_isa::{FuClass, Word};
use fua_power::{pair_cost, ModulePorts};
use fua_steer::{FullHamPolicy, SteeringPolicy};
use fua_trace::TextTable;
use fua_vm::FuOp;

/// The regenerated Figure-1 example: per-routing switching energy for the
/// paper's operand values.
#[derive(Debug, Clone)]
pub struct RoutingExample {
    /// Energy of the in-order ("default") routing, in switched bits.
    pub default_bits: u32,
    /// Energy of the optimal routing found by Full Ham.
    pub optimal_bits: u32,
    /// Energy of the worst routing.
    pub worst_bits: u32,
    /// Percentage saved by the optimal routing relative to the worst.
    pub saving_vs_worst_pct: f64,
    /// The chosen module for each cycle-2 operation.
    pub assignment: Vec<usize>,
}

impl RoutingExample {
    /// Renders the example.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(["routing", "switched bits"]);
        t.push_row(["in-order".to_string(), self.default_bits.to_string()]);
        t.push_row(["optimal".to_string(), self.optimal_bits.to_string()]);
        t.push_row(["worst".to_string(), self.worst_bits.to_string()]);
        format!(
            "Figure 1: alternative data routes for a 3-way processor\n{t}\
             optimal assignment: {:?} ({:.0}% less energy than the worst \
             routing; paper reports 57% for its default)\n",
            self.assignment, self.saving_vs_worst_pct
        )
    }
}

/// Recomputes the Figure-1 example with the paper's operand values
/// (16-bit hex constants from the figure).
pub fn routing_example() -> RoutingExample {
    let cycle1 = [
        (Word::int(0x0A01), Word::int(0x0001)),
        (Word::int(0x7FFF), Word::int(0x0001)),
        (Word::int(0xFFF7u32 as i32), Word::int(0x7F00)),
    ];
    let cycle2 = [
        (Word::int(0x0A71), Word::int(0x0111)),
        (Word::int(0x0A01), Word::int(0x0001)),
        (Word::int(0x7F00), Word::int(0x0001)),
    ];

    let modules: Vec<ModulePorts> = cycle1
        .iter()
        .map(|&(a, b)| {
            let mut m = ModulePorts::new();
            m.latch(a, b);
            m
        })
        .collect();
    let ops: Vec<FuOp> = cycle2
        .iter()
        .map(|&(a, b)| FuOp {
            class: FuClass::IntAlu,
            op1: a,
            op2: b,
            commutative: false,
        })
        .collect();

    let routing_cost = |perm: &[usize]| -> u32 {
        perm.iter()
            .zip(&ops)
            .map(|(&m, o)| pair_cost(modules[m].prev(), o.op1, o.op2))
            .sum()
    };

    let perms: [[usize; 3]; 6] = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    let default_bits = routing_cost(&perms[0]);
    let worst_bits = perms
        .iter()
        .map(|p| routing_cost(p))
        .max()
        .expect("non-empty");

    let choices = FullHamPolicy::new(false).assign(&ops, &modules);
    let assignment: Vec<usize> = choices.iter().map(|c| c.module).collect();
    let optimal_bits = routing_cost(&assignment);

    RoutingExample {
        default_bits,
        optimal_bits,
        worst_bits,
        saving_vs_worst_pct: 100.0 * (1.0 - optimal_bits as f64 / worst_bits as f64),
        assignment,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimal_beats_default_and_worst() {
        let ex = routing_example();
        assert!(ex.optimal_bits < ex.default_bits);
        assert!(ex.optimal_bits < ex.worst_bits);
        assert!(ex.saving_vs_worst_pct > 25.0);
        assert!(ex.render().contains("Figure 1"));
    }

    #[test]
    fn assignment_is_a_permutation() {
        let mut a = routing_example().assignment;
        a.sort_unstable();
        assert_eq!(a, vec![0, 1, 2]);
    }
}
