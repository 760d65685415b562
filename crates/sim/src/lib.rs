//! Trace-driven out-of-order superscalar timing and power model.
//!
//! This crate rebuilds the pipeline substrate the paper took from
//! SimpleScalar's `sim-outorder`: a 4-wide machine with per-FU-type
//! reservation stations, a reorder buffer, a bimodal branch predictor and
//! a direct-mapped data cache. Functional execution comes from
//! [`fua_vm`]; this crate decides *when* instructions issue, *which
//! module* each one issues to (via a [`fua_steer::SteeringPolicy`]), and
//! charges switched input bits to a [`fua_power::EnergyLedger`]. The
//! scheme-dependent half of a run is a [`Lane`]; since steering never
//! moves timing, [`Simulator::run_lanes`] feeds one timing run to any
//! number of lanes.
//!
//! The observable outputs — per-cycle FU occupancy (Table 2), operand bit
//! patterns (Tables 1/3) and switched capacitance per scheme (Figure 4) —
//! are exactly the quantities the paper reports.
//!
//! # Examples
//!
//! ```
//! use fua_isa::{IntReg, ProgramBuilder};
//! use fua_sim::{MachineConfig, Simulator, SteeringConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let r1 = IntReg::new(1);
//! let mut b = ProgramBuilder::new();
//! let top = b.new_label();
//! b.li(r1, 100);
//! b.bind(top);
//! b.addi(r1, r1, -1);
//! b.bgtz(r1, top);
//! b.halt();
//! let program = b.build()?;
//!
//! let mut sim = Simulator::new(MachineConfig::default(), SteeringConfig::original());
//! let result = sim.run_program(&program, 10_000)?;
//! assert!(result.halted);
//! assert!(result.cycles > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod cache;
mod config;
mod inflight;
mod lane;
mod pipeline;
mod predictor;
mod profiler;
mod reference;
mod result;
mod steering;

pub use cache::{CacheConfig, DataCache};
pub use config::MachineConfig;
pub use lane::Lane;
pub use pipeline::Simulator;
pub use predictor::BimodalPredictor;
pub use profiler::{NullProfiler, PhaseProfiler, PhaseTimers, SimPhase};
pub use reference::ReferenceSimulator;
pub use result::{BranchStats, CacheStats, SimResult, SwapStats};
pub use steering::SteeringConfig;
