//! Power-aware functional-unit steering — the paper's core contribution.
//!
//! Every cycle the out-of-order engine hands the steering policy the set
//! of ready instructions of one FU type (at most one per module) together
//! with the modules' input-latch state; the policy returns which module
//! each instruction issues to and whether its operands are swapped:
//!
//! * [`FcfsPolicy`] — the paper's *Original* baseline: first-come,
//!   first-served, no power awareness;
//! * [`FullHamPolicy`] — the cost-prohibitive upper bound: exact Hamming
//!   distances, optimal assignment (Figure 2 + exhaustive matching);
//! * [`OneBitHamPolicy`] — optimal assignment over *information bits*
//!   only (the upper bound for any info-bit scheme);
//! * [`LutPolicy`] — the practical scheme of Section 4.3: a static lookup
//!   table indexed by the concatenated cases of the first 1, 2 or 4 ready
//!   instructions (2-, 4- and 8-bit vectors), built by [`LutBuilder`] from
//!   profiled case statistics;
//! * [`HardwareSwapRule`] — Section 4.4's static swap rule (always swap
//!   the chosen mixed case when legal), applied before any policy runs.
//!
//! [`Policy`] holds any of the four and dispatches by `match`;
//! [`make_policy`] builds one from a [`SteeringKind`].
//!
//! # Examples
//!
//! ```
//! use fua_isa::{FuClass, Word};
//! use fua_power::ModulePorts;
//! use fua_steer::{FcfsPolicy, SteeringPolicy};
//! use fua_vm::FuOp;
//!
//! let op = FuOp {
//!     class: FuClass::IntAlu,
//!     op1: Word::int(1),
//!     op2: Word::int(2),
//!     commutative: true,
//! };
//! let mut policy = FcfsPolicy::new();
//! let modules = vec![ModulePorts::new(); 4];
//! let choices = policy.assign(&[op], &modules);
//! assert_eq!(choices[0].module, 0);
//! assert!(!choices[0].swap);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod assign;
mod full_ham;
mod kind;
mod lut;
mod one_bit;
mod policy;
mod swap_rule;

pub use assign::{min_cost_assignment, min_cost_assignment_into, MAX_MODULES};
pub use full_ham::FullHamPolicy;
pub use kind::{make_policy, Policy, SteeringKind};
pub use lut::{
    HomeStrategy, LutBuilder, LutPolicy, LutTable, PAPER_FPAU_OCCUPANCY, PAPER_IALU_OCCUPANCY,
};
pub use one_bit::OneBitHamPolicy;
pub use policy::{validate_choices, FcfsPolicy, ModuleChoice, SteeringPolicy};
pub use swap_rule::HardwareSwapRule;
