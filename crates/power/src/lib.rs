//! Dynamic-power models for functional units.
//!
//! The paper's energy model (Section 2):
//!
//! ```text
//! Power ≈ ½ · Vdd² · f · C_module · h_input
//! ```
//!
//! where `h_input` is the Hamming distance between a module's current and
//! previous input operands. Because `½·Vdd²·f·C` is a constant per module,
//! every comparison in the paper — and in this workspace — reduces to
//! counting *switched input bits*. [`ModulePorts`] tracks the input latches
//! of one FU module and charges that count on every issue.
//!
//! The paper has no power model for the Booth multiplier; [`booth`]
//! provides one (clearly an extension, see DESIGN.md) so the Table-3 swap
//! opportunity can be quantified.
//!
//! # Examples
//!
//! ```
//! use fua_isa::Word;
//! use fua_power::ModulePorts;
//!
//! let mut ports = ModulePorts::new();
//! assert_eq!(ports.latch(Word::int(0x0A01), Word::int(0x0001)), 0); // first latch is free
//! // 0x0A01 -> 0x0A71 flips 3 bits; 0x0001 -> 0x0111 flips 2.
//! assert_eq!(ports.latch(Word::int(0x0A71), Word::int(0x0111)), 5);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod booth;
mod ledger;
mod ports;

pub use ledger::EnergyLedger;
pub use ports::{pair_cost, ModulePorts};
