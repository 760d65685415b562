//! The steering-policy trait and the FCFS baseline.

use fua_power::ModulePorts;
use fua_vm::FuOp;

use crate::{min_cost_assignment_into, MAX_MODULES};

/// One steering decision: which module an instruction issues to and
/// whether its operand ports are exchanged on the way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModuleChoice {
    /// Target module index.
    pub module: usize,
    /// Whether the crossbar swaps the two operands.
    pub swap: bool,
}

/// A per-cycle instruction→module assignment strategy.
///
/// The engine guarantees `ops.len() <= modules.len()`; implementations
/// must return exactly one [`ModuleChoice`] per instruction, with distinct
/// module indices, and may only set `swap` for commutative operations.
pub trait SteeringPolicy {
    /// A short name for reports ("Original", "4-bit LUT", ...).
    fn name(&self) -> &str;

    /// Assigns this cycle's ready instructions to modules, writing
    /// exactly one choice per instruction into `out` (cleared first).
    /// `cases[i]` is `ops[i]`'s case as a 2-bit index
    /// ([`FuOp::case_bits`]), which the engine carries through the
    /// static swap rule so that no policy re-derives it from the
    /// operand words.
    ///
    /// This is the hot-loop entry point: the engine passes a buffer it
    /// reuses every cycle, and implementations keep their own working
    /// memory across calls, so steady-state issue performs **zero**
    /// heap allocations (the allocation gate enforces this for every
    /// workload × scheme).
    fn assign_into(
        &mut self,
        ops: &[FuOp],
        cases: &[u8],
        modules: &[ModulePorts],
        out: &mut Vec<ModuleChoice>,
    );

    /// Allocating convenience wrapper around
    /// [`assign_into`](Self::assign_into) for one-shot callers (tests,
    /// the Figure-1 example, the reference engine), deriving each
    /// operation's case from its operands.
    fn assign(&mut self, ops: &[FuOp], modules: &[ModulePorts]) -> Vec<ModuleChoice> {
        let cases: Vec<u8> = ops.iter().map(FuOp::case_bits).collect();
        let mut out = Vec::with_capacity(ops.len());
        self.assign_into(ops, &cases, modules, &mut out);
        out
    }
}

/// The paper's *Original* strategy: instructions are placed on modules in
/// arrival order, exactly as a first-come-first-serve Tomasulo router
/// would, with no power awareness and no swapping.
///
/// See the crate-level example.
#[derive(Debug, Clone, Copy, Default)]
pub struct FcfsPolicy;

impl FcfsPolicy {
    /// Creates the baseline policy.
    pub fn new() -> Self {
        FcfsPolicy
    }
}

impl SteeringPolicy for FcfsPolicy {
    fn name(&self) -> &str {
        "Original"
    }

    fn assign_into(
        &mut self,
        ops: &[FuOp],
        _cases: &[u8],
        modules: &[ModulePorts],
        out: &mut Vec<ModuleChoice>,
    ) {
        debug_assert!(ops.len() <= modules.len());
        out.clear();
        out.extend((0..ops.len()).map(|i| ModuleChoice {
            module: i,
            swap: false,
        }));
    }
}

/// The paper's Figure-2 steering over any distance, shared by the two
/// optimal policies: `distance(i, j)` is the cost of operation `i` on
/// module `j` in the (direct, swapped) operand order. A commutative
/// operation takes the swapped order when `allow_swap` is set and it is
/// strictly cheaper. The cost matrix lives on the stack; `assignment` is
/// the policy's reused solver output.
pub(crate) fn assign_by_cost(
    ops: &[FuOp],
    modules: usize,
    allow_swap: bool,
    distance: impl Fn(usize, usize) -> (u32, u32),
    assignment: &mut Vec<usize>,
    out: &mut Vec<ModuleChoice>,
) {
    let mut cost = [[0u32; MAX_MODULES]; MAX_MODULES];
    // Bit `j` of `swap[i]`: operation `i` swaps on module `j`.
    let mut swap = [0u8; MAX_MODULES];
    for (i, (op, (row, swaps))) in ops.iter().zip(cost.iter_mut().zip(&mut swap)).enumerate() {
        let may_swap = allow_swap && op.commutative;
        for (j, cell) in row[..modules].iter_mut().enumerate() {
            let (direct, swapped) = distance(i, j);
            // Branch-free: which order wins is data, not control flow.
            let take = may_swap & (swapped < direct);
            *cell = if take { swapped } else { direct };
            *swaps |= (take as u8) << j;
        }
    }
    min_cost_assignment_into(ops.len(), modules, &cost, assignment);
    out.clear();
    out.extend(
        assignment
            .iter()
            .enumerate()
            .map(|(i, &module)| ModuleChoice {
                module,
                swap: swap[i] >> module & 1 != 0,
            }),
    );
}

/// Checks a policy's output invariants — one choice per instruction,
/// distinct in-range modules, swaps only on commutative operations.
/// The engine calls this in debug builds; tests use it directly.
/// Allocation-free (a bitmask tracks used modules), so the engine's
/// debug-build call sites stay invisible to the allocation gate.
///
/// # Panics
///
/// Panics when any invariant is violated, or when `modules > 64` (real
/// configurations duplicate a module a handful of times).
pub fn validate_choices(ops: &[FuOp], modules: usize, choices: &[ModuleChoice]) {
    assert_eq!(choices.len(), ops.len(), "one choice per instruction");
    assert!(modules <= 64, "module bitmask covers the configuration");
    let mut seen = 0u64;
    for (op, c) in ops.iter().zip(choices) {
        assert!(c.module < modules, "module index in range");
        assert!(
            seen & (1 << c.module) == 0,
            "modules are assigned at most once"
        );
        seen |= 1 << c.module;
        assert!(!c.swap || op.commutative, "swap only commutative ops");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fua_isa::{FuClass, Word};

    fn op(a: i32, b: i32) -> FuOp {
        FuOp {
            class: FuClass::IntAlu,
            op1: Word::int(a),
            op2: Word::int(b),
            commutative: true,
        }
    }

    #[test]
    fn fcfs_assigns_in_order() {
        let ops = [op(1, 2), op(3, 4), op(5, 6)];
        let modules = vec![ModulePorts::new(); 4];
        let mut p = FcfsPolicy::new();
        let choices = p.assign(&ops, &modules);
        validate_choices(&ops, modules.len(), &choices);
        assert_eq!(
            choices.iter().map(|c| c.module).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn fcfs_never_swaps() {
        let ops = [op(1, 2)];
        let modules = vec![ModulePorts::new(); 1];
        let choices = FcfsPolicy::new().assign(&ops, &modules);
        assert!(!choices[0].swap);
    }
}
