//! Operand-statistics profilers: the machinery behind the paper's
//! Tables 1, 2 and 3.
//!
//! * [`BitPatternProfiler`] — classifies every FU operation by the
//!   information bits of its operands and its commutativity, and records
//!   per-operand bit densities (Table 1 for the IALU/FPAU, Table 3 for the
//!   multipliers).
//! * [`OccupancyProfiler`] — histogram of how many modules of an FU type
//!   issue together each cycle (Table 2).
//! * [`CaseProfile`] — the distilled case statistics the LUT builder
//!   consumes, constructible either from a profiler or from the paper's
//!   published numbers ([`CaseProfile::paper_ialu`],
//!   [`CaseProfile::paper_fpau`]).
//!
//! # Examples
//!
//! ```
//! use fua_isa::{Case, FuClass, Word};
//! use fua_stats::BitPatternProfiler;
//! use fua_vm::FuOp;
//!
//! let mut prof = BitPatternProfiler::new();
//! prof.record(&FuOp {
//!     class: FuClass::IntAlu,
//!     op1: Word::int(5),
//!     op2: Word::int(-9),
//!     commutative: true,
//! });
//! assert_eq!(prof.total(), 1);
//! assert!(prof.case_freq(Case::C01) > 0.99);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod bit_patterns;
mod occupancy;
mod profile;

pub use bit_patterns::{BitPatternProfiler, BitPatternRow, OperandInfoStats};
pub use occupancy::OccupancyProfiler;
pub use profile::CaseProfile;
