//! Input-latch state of one functional-unit module.

use fua_isa::Word;

/// The input latches of a single FU module.
///
/// Power-management latches keep the inputs stable while the module is
/// idle (the paper assumes transparent-latch guarding per Tiwari et al.),
/// so the cost of issuing an operation is exactly the Hamming distance
/// from the *previously latched* operands, regardless of how many cycles
/// ago they were latched. The very first operation on a module is charged
/// zero — latch power-up state is unknown and identical across all
/// steering policies, so it cancels in every comparison.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModulePorts {
    prev: Option<(Word, Word)>,
}

impl ModulePorts {
    /// A module whose latches have not been written yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// The previously latched operand pair, if any.
    #[inline]
    pub fn prev(&self) -> Option<(Word, Word)> {
        self.prev
    }

    /// The switching cost of latching `(op1, op2)` now, without latching.
    #[inline]
    pub fn peek_cost(&self, op1: Word, op2: Word) -> u32 {
        pair_cost(self.prev, op1, op2)
    }

    /// Latches `(op1, op2)` and returns the switched-bit count charged.
    #[inline]
    pub fn latch(&mut self, op1: Word, op2: Word) -> u32 {
        let cost = self.peek_cost(op1, op2);
        self.prev = Some((op1, op2));
        cost
    }
}

/// Hamming cost of driving `(op1, op2)` onto ports that previously held
/// `prev` (0 if the ports were never driven).
#[inline]
pub fn pair_cost(prev: Option<(Word, Word)>, op1: Word, op2: Word) -> u32 {
    match prev {
        Some((p1, p2)) => p1.ham(op1) + p2.ham(op2),
        None => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_latch_is_free_then_costs_accumulate() {
        let mut m = ModulePorts::new();
        assert_eq!(m.latch(Word::int(0b1111), Word::int(0)), 0);
        assert_eq!(m.latch(Word::int(0b1010), Word::int(1)), 2 + 1);
        assert_eq!(m.prev(), Some((Word::int(0b1010), Word::int(1))));
    }

    #[test]
    fn peek_does_not_latch() {
        let mut m = ModulePorts::new();
        m.latch(Word::int(0), Word::int(0));
        let c1 = m.peek_cost(Word::int(3), Word::int(0));
        let c2 = m.peek_cost(Word::int(3), Word::int(0));
        assert_eq!(c1, c2);
        assert_eq!(c1, 2);
        assert_eq!(m.prev(), Some((Word::int(0), Word::int(0))));
    }

    #[test]
    fn fp_costs_are_mantissa_only() {
        let mut m = ModulePorts::new();
        m.latch(Word::fp(1.5), Word::fp(0.0));
        // 3.0 has the same mantissa as 1.5.
        assert_eq!(m.peek_cost(Word::fp(3.0), Word::fp(0.0)), 0);
    }

    #[test]
    fn figure1_routing_example_energy() {
        // The paper's Figure 1: cycle-1 operands on three FUs, then
        // cycle-2 operands; the alternative routing consumes 57% less
        // energy than the default. Values from the figure:
        let c1 = [
            (Word::int(0x0A01), Word::int(0x0001)),
            (Word::int(0x7FFF), Word::int(0x0001)),
            (Word::int(0xFFF7u32 as i32), Word::int(0x7F00)),
        ];
        let c2 = [
            (Word::int(0x0A71), Word::int(0x0111)),
            (Word::int(0x0A01), Word::int(0x0001)),
            (Word::int(0x7F00), Word::int(0x0001)),
        ];
        // Default: cycle-2 op i goes to FU i.
        let default: u32 = (0..3)
            .map(|i| pair_cost(Some(c1[i]), c2[i].0, c2[i].1))
            .sum();
        // Alternative routing from the figure: op0->FU0, op1->FU0? No —
        // the figure routes (0A71,0111)->FU1's previous (0A01,0001) etc.
        // Best assignment (computed exhaustively in fua-steer tests) is
        // strictly cheaper; here we simply check a better routing exists.
        let alt: u32 = pair_cost(Some(c1[0]), c2[1].0, c2[1].1)
            + pair_cost(Some(c1[1]), c2[2].0, c2[2].1)
            + pair_cost(Some(c1[2]), c2[0].0, c2[0].1);
        assert!(alt < default, "alternative routing must be cheaper");
    }
}
