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
//! of one FU module and charges that count on every issue; [`PowerParams`]
//! converts accumulated switched bits into joules/watts when physical
//! units are wanted for reporting.
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

/// Electrical parameters that scale switched-bit counts into physical
/// energy, for reports that want joules instead of bit counts.
///
/// # Examples
///
/// ```
/// use fua_power::PowerParams;
///
/// let p = PowerParams::default();
/// let energy = p.energy_joules(1_000_000);
/// assert!(energy > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerParams {
    /// Supply voltage in volts.
    pub vdd: f64,
    /// Clock frequency in hertz.
    pub freq: f64,
    /// Effective switched capacitance per toggled input bit, in farads.
    /// This lumps `C_module / width` into a single per-bit constant.
    pub cap_per_bit: f64,
}

impl PowerParams {
    /// Energy in joules for a total count of switched input bits:
    /// `½ · Vdd² · C_bit · switched_bits`.
    pub fn energy_joules(&self, switched_bits: u64) -> f64 {
        0.5 * self.vdd * self.vdd * self.cap_per_bit * switched_bits as f64
    }

    /// Average power in watts given switched bits and elapsed cycles.
    ///
    /// Returns 0 for zero cycles.
    pub fn average_watts(&self, switched_bits: u64, cycles: u64) -> f64 {
        if cycles == 0 {
            return 0.0;
        }
        self.energy_joules(switched_bits) * self.freq / cycles as f64
    }
}

impl Default for PowerParams {
    /// A circa-2003 design point: 1.5 V, 1 GHz, 50 fF per input bit.
    fn default() -> Self {
        PowerParams {
            vdd: 1.5,
            freq: 1.0e9,
            cap_per_bit: 50.0e-15,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_scales_linearly_with_switching() {
        let p = PowerParams::default();
        let one = p.energy_joules(1);
        assert!((p.energy_joules(10) - 10.0 * one).abs() < 1e-24);
    }

    #[test]
    fn average_power_handles_zero_cycles() {
        let p = PowerParams::default();
        assert_eq!(p.average_watts(100, 0), 0.0);
        assert!(p.average_watts(100, 10) > 0.0);
    }
}
