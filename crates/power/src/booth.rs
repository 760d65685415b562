//! A radix-4 Booth multiplier activity model.
//!
//! The paper observes (citing Lee et al.) that a Booth multiplier's power
//! depends on the switching activity of its operands *and on the number of
//! 1s in the second operand*, because the recoded second operand decides
//! how many non-zero partial products must be generated and summed. The
//! paper stops there — "we do not have a simple high-level power model for
//! the Booth multiplier" — and only reports swap opportunities (Table 3).
//!
//! This module supplies the missing model so the workspace can *quantify*
//! those opportunities; EXPERIMENTS.md flags every number derived from it
//! as an extension. The model:
//!
//! ```text
//! E(mul) = W_PP · nonzero_booth_digits(OP2) · width(OP1)
//!        + W_SW · Ham(inputs, previous inputs)
//! ```
//!
//! Non-zero radix-4 Booth digits are a monotone proxy for the number of 1s
//! in OP2 (a run of 1s recodes into just two non-zero digits, sparse 1s
//! recode into one digit each), which is exactly the effect the paper's
//! swap rule exploits.

use fua_isa::Word;

/// Weight of one non-zero partial-product row (switched bits per operand
/// bit of width), calibrated so a dense 32×32 multiply costs on the order
/// of the array's width².
pub const DEFAULT_PP_WEIGHT: f64 = 0.5;

/// Weight of one switched input bit.
pub const DEFAULT_SW_WEIGHT: f64 = 1.0;

/// Counts non-zero radix-4 Booth digits of a two's-complement value of the
/// given bit `width` (digits examine overlapping triplets
/// `b[2i+1] b[2i] b[2i-1]`).
///
/// # Panics
///
/// Panics if `width` is 0 or greater than 64.
///
/// # Examples
///
/// ```
/// use fua_power::booth::nonzero_booth_digits;
///
/// assert_eq!(nonzero_booth_digits(0, 32), 0);
/// // A solid run of 1s recodes into two non-zero digits (+1 at the
/// // bottom-as -1, one +1 above the run).
/// assert_eq!(nonzero_booth_digits(0b0111_1111, 32), 2);
/// // Sparse, isolated 1s cost one digit each.
/// assert_eq!(nonzero_booth_digits(0b0101_0101, 32), 4);
/// ```
pub fn nonzero_booth_digits(value: u64, width: u32) -> u32 {
    assert!((1..=64).contains(&width), "width out of range: {width}");
    // Sign-extend to 64 bits so the top digit sees the true sign.
    let v = if width < 64 {
        let shift = 64 - width;
        (((value << shift) as i64) >> shift) as u64
    } else {
        value
    };
    let digits = width.div_ceil(2);
    let mut count = 0;
    let mut prev_bit = 0u64; // b[-1] = 0
    for i in 0..digits {
        let b0 = (v >> (2 * i)) & 1;
        let b1 = if 2 * i + 1 < 64 {
            (v >> (2 * i + 1)) & 1
        } else {
            (v >> 63) & 1
        };
        // digit = -2*b1 + b0 + prev_bit; zero iff all three bits equal.
        let digit = b0 as i64 + prev_bit as i64 - 2 * b1 as i64;
        if digit != 0 {
            count += 1;
        }
        prev_bit = b1;
    }
    count
}

/// Parameters of the Booth activity model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoothModel {
    /// Energy weight per non-zero partial product per bit of OP1 width.
    pub pp_weight: f64,
    /// Energy weight per switched input bit.
    pub sw_weight: f64,
}

impl Default for BoothModel {
    fn default() -> Self {
        BoothModel {
            pp_weight: DEFAULT_PP_WEIGHT,
            sw_weight: DEFAULT_SW_WEIGHT,
        }
    }
}

impl BoothModel {
    /// Creates a model with the default weights.
    pub fn new() -> Self {
        Self::default()
    }

    /// Energy (in weighted switched-bit units) of a multiply whose input
    /// ports previously held `prev`.
    ///
    /// For floating-point operands the recoded value is the 53-bit
    /// significand (hidden bit included); for integers, all 32 bits.
    pub fn multiply_energy(&self, prev: Option<(Word, Word)>, op1: Word, op2: Word) -> f64 {
        let (recoded, width) = significand(op2);
        let pp = nonzero_booth_digits(recoded, width) as f64;
        let ham = fua_power_pair_cost(prev, op1, op2) as f64;
        self.pp_weight * pp * op1.power_width() as f64 + self.sw_weight * ham
    }
}

// Local alias so this module does not depend on the ports module's glob.
use crate::pair_cost as fua_power_pair_cost;

/// The bits a multiplier array actually recodes: the full word for
/// integers, the 53-bit significand (hidden bit restored) for doubles.
/// Zero, subnormals and other hidden-bit-less encodings recode their raw
/// mantissa.
pub fn significand(w: Word) -> (u64, u32) {
    match w {
        Word::Int(v) => (v as u64, 32),
        Word::Fp(bits) => {
            let mantissa = bits & ((1u64 << 52) - 1);
            let exponent = (bits >> 52) & 0x7FF;
            if exponent == 0 {
                (mantissa, 53)
            } else {
                (mantissa | (1u64 << 52), 53)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_has_no_partial_products() {
        assert_eq!(nonzero_booth_digits(0, 32), 0);
        assert_eq!(nonzero_booth_digits(0, 64), 0);
    }

    #[test]
    fn minus_one_recodes_to_a_single_digit() {
        // -1 = ...111: first digit sees (1,1,0) = -1, all later digits see
        // (1,1,1) = 0.
        assert_eq!(nonzero_booth_digits(-1i64 as u64, 32), 1);
        assert_eq!(nonzero_booth_digits(-1i64 as u64, 64), 1);
    }

    #[test]
    fn dense_values_cost_more_than_sparse_runs() {
        let run = 0x0000_FFFFu64; // one run of 16 ones
        let sparse = 0x5555_5555u64; // 16 isolated ones
        assert!(nonzero_booth_digits(run, 32) < nonzero_booth_digits(sparse, 32));
    }

    #[test]
    fn powers_of_two_recode_to_at_most_two_digits() {
        // Even bit positions align with a digit boundary and need one
        // digit; odd positions straddle it (8 = 16 - 8) and need two.
        for k in [0u32, 2, 10, 30] {
            assert_eq!(nonzero_booth_digits(1u64 << k, 32), 1, "2^{k}");
        }
        for k in [1u32, 3, 11, 29] {
            assert_eq!(nonzero_booth_digits(1u64 << k, 32), 2, "2^{k}");
        }
    }

    #[test]
    fn fp_significand_restores_hidden_bit() {
        let (sig, w) = significand(Word::fp(1.0));
        assert_eq!(w, 53);
        assert_eq!(sig, 1u64 << 52);
        let (zero_sig, _) = significand(Word::fp(0.0));
        assert_eq!(zero_sig, 0);
    }

    #[test]
    fn multiply_energy_increases_with_dense_op2() {
        let m = BoothModel::new();
        let e_sparse = m.multiply_energy(None, Word::int(1234), Word::int(16));
        let e_dense = m.multiply_energy(None, Word::int(1234), Word::int(0x5555_5555u32 as i32));
        assert!(e_dense > e_sparse);
    }
}
