//! Runtime operand values and bit-level helpers.

use std::fmt;

/// Width of an integer operand in bits.
pub const INT_BITS: u32 = 32;

/// Width of the mantissa of a 64-bit IEEE-754 double.
///
/// The paper's Hamming-distance definition considers "only the mantissa
/// portions" for floating-point values (Section 4 nomenclature), so the
/// power model and the information bit both operate on these 52 bits.
pub const FP_MANTISSA_BITS: u32 = 52;

const FP_MANTISSA_MASK: u64 = (1u64 << FP_MANTISSA_BITS) - 1;

/// `k / width` for every popcount `k` of a `width`-bit word, evaluated at
/// compile time with the same IEEE-754 division the run time would do.
const fn ones_fractions<const N: usize>(width: u32) -> [f64; N] {
    let mut table = [0.0; N];
    let mut k = 0;
    while k < N {
        table[k] = k as f64 / width as f64;
        k += 1;
    }
    table
}

const INT_ONES_FRACTION: [f64; INT_BITS as usize + 1] = ones_fractions(INT_BITS);
const FP_ONES_FRACTION: [f64; FP_MANTISSA_BITS as usize + 1] = ones_fractions(FP_MANTISSA_BITS);

/// Hamming distance between two 32-bit words.
///
/// # Examples
///
/// ```
/// assert_eq!(fua_isa::hamming_u32(0b1010, 0b0110), 2);
/// ```
#[inline]
pub fn hamming_u32(a: u32, b: u32) -> u32 {
    (a ^ b).count_ones()
}

/// Hamming distance between two 64-bit words.
///
/// # Examples
///
/// ```
/// assert_eq!(fua_isa::hamming_u64(u64::MAX, 0), 64);
/// ```
#[inline]
pub fn hamming_u64(a: u64, b: u64) -> u64 {
    (a ^ b).count_ones() as u64
}

/// A runtime operand value: either a 32-bit integer or a 64-bit IEEE-754
/// double, as carried on the operand buses of the modelled machine.
///
/// `Word` implements `Eq`/`Hash` by comparing raw bit patterns, which makes
/// `-0.0` and `+0.0` distinct and `NaN` equal to itself. That is the right
/// notion here: the hardware sees bits, not real numbers.
///
/// # Examples
///
/// ```
/// use fua_isa::Word;
///
/// let x = Word::int(-20);
/// assert_eq!(x.bits(), 0xFFFF_FFEC);
/// assert_eq!(x.ham(Word::int(20)), 29); // 0x00000014 ^ 0xFFFFFFEC = 0xFFFFFFF8
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Word {
    /// A 32-bit integer operand, stored as its raw two's-complement bits.
    Int(u32),
    /// A 64-bit double operand, stored as its raw IEEE-754 bits.
    Fp(u64),
}

impl Word {
    /// Creates an integer word from a signed value.
    #[inline]
    pub fn int(v: i32) -> Self {
        Word::Int(v as u32)
    }

    /// Creates a floating-point word from an `f64` value.
    #[inline]
    pub fn fp(v: f64) -> Self {
        Word::Fp(v.to_bits())
    }

    /// Returns `true` for [`Word::Int`].
    #[inline]
    pub fn is_int(self) -> bool {
        matches!(self, Word::Int(_))
    }

    /// Returns `true` for [`Word::Fp`].
    #[inline]
    pub fn is_fp(self) -> bool {
        matches!(self, Word::Fp(_))
    }

    /// The signed integer value.
    ///
    /// # Panics
    ///
    /// Panics if the word is a floating-point value.
    #[inline]
    pub fn as_int(self) -> i32 {
        match self {
            Word::Int(v) => v as i32,
            Word::Fp(_) => panic!("as_int on a floating-point word"),
        }
    }

    /// The floating-point value.
    ///
    /// # Panics
    ///
    /// Panics if the word is an integer value.
    #[inline]
    pub fn as_fp(self) -> f64 {
        match self {
            Word::Fp(b) => f64::from_bits(b),
            Word::Int(_) => panic!("as_fp on an integer word"),
        }
    }

    /// The raw bit pattern, zero-extended to 64 bits for integers.
    #[inline]
    pub fn bits(self) -> u64 {
        match self {
            Word::Int(v) => v as u64,
            Word::Fp(b) => b,
        }
    }

    /// The bits that participate in the power model: all 32 bits for
    /// integers, the 52 mantissa bits for doubles.
    #[inline]
    pub fn power_bits(self) -> u64 {
        match self {
            Word::Int(v) => v as u64,
            Word::Fp(b) => b & FP_MANTISSA_MASK,
        }
    }

    /// Number of bits the power model considers for this word kind.
    #[inline]
    pub fn power_width(self) -> u32 {
        match self {
            Word::Int(_) => INT_BITS,
            Word::Fp(_) => FP_MANTISSA_BITS,
        }
    }

    /// The paper's *information bit* for this operand.
    ///
    /// * integers: the sign bit (bit 31) — sign extension makes the
    ///   remaining bits mostly equal to it;
    /// * doubles: the OR of the least-significant four mantissa bits — zero
    ///   strongly suggests a long run of trailing zeros (integer casts,
    ///   single-precision casts, round constants).
    ///
    /// # Examples
    ///
    /// ```
    /// use fua_isa::Word;
    /// assert!(Word::int(-1).info_bit());
    /// assert!(!Word::int(12345).info_bit());
    /// assert!(!Word::fp(0.5).info_bit());     // exact power of two
    /// assert!(Word::fp(0.1).info_bit());      // full-precision fraction
    /// ```
    #[inline]
    pub fn info_bit(self) -> bool {
        self.info_bit_k(4)
    }

    /// Generalised information bit using the OR of the low `k` mantissa
    /// bits for floats (the paper fixes `k = 4`; `fua ablation
    /// fp-info-bits` sweeps it). Integers always use the sign bit
    /// regardless of `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or exceeds [`FP_MANTISSA_BITS`].
    #[inline]
    pub fn info_bit_k(self, k: u32) -> bool {
        assert!((1..=FP_MANTISSA_BITS).contains(&k), "k out of range: {k}");
        match self {
            Word::Int(v) => (v >> 31) & 1 == 1,
            Word::Fp(b) => b & ((1u64 << k) - 1) != 0,
        }
    }

    /// Fraction of power-model bits that are 1 (used by the Table-1/3
    /// profilers: "probability of any single bit being high"): the ones
    /// count over [`power_width`](Word::power_width), read from a table
    /// of those quotients so the profilers' hot path divides nothing.
    #[inline]
    pub fn ones_fraction(self) -> f64 {
        match self {
            Word::Int(v) => INT_ONES_FRACTION[v.count_ones() as usize],
            Word::Fp(b) => FP_ONES_FRACTION[(b & FP_MANTISSA_MASK).count_ones() as usize],
        }
    }

    /// Number of 1 bits among the power-model bits.
    #[inline]
    pub fn ones(self) -> u32 {
        self.power_bits().count_ones()
    }

    /// Hamming distance to `other` over the power-model bits.
    ///
    /// Mixed-kind distances (an integer module latching a float, or vice
    /// versa) never occur in the modelled machine; in debug builds they
    /// trip an assertion, in release builds the raw power bits are XOR-ed.
    #[inline]
    pub fn ham(self, other: Word) -> u32 {
        debug_assert_eq!(
            self.is_int(),
            other.is_int(),
            "hamming distance across operand kinds"
        );
        (self.power_bits() ^ other.power_bits()).count_ones()
    }
}

impl Default for Word {
    fn default() -> Self {
        Word::Int(0)
    }
}

impl fmt::Display for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Word::Int(v) => write!(f, "{}", *v as i32),
            Word::Fp(b) => write!(f, "{}", f64::from_bits(*b)),
        }
    }
}

impl fmt::LowerHex for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Word::Int(v) => fmt::LowerHex::fmt(v, f),
            Word::Fp(b) => fmt::LowerHex::fmt(b, f),
        }
    }
}

impl From<i32> for Word {
    fn from(v: i32) -> Self {
        Word::int(v)
    }
}

impl From<f64> for Word {
    fn from(v: f64) -> Self {
        Word::fp(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_extension_example_from_paper() {
        // Decimal 20 is 0x00000014; decimal -20 is 0xFFFFFFEC. In both,
        // 27 leading bits equal the sign bit.
        let plus = Word::int(20);
        let minus = Word::int(-20);
        assert_eq!(plus.bits(), 0x14);
        assert_eq!(minus.bits(), 0xFFFF_FFEC);
        assert!(!plus.info_bit());
        assert!(minus.info_bit());
        // 20 has two set bits; -20 in two's complement:
        assert_eq!(plus.ones(), 2);
        assert_eq!(minus.ones(), 0xFFFF_FFECu32.count_ones());
    }

    #[test]
    fn fp_mantissa_of_seven_has_fifty_trailing_zeros() {
        // 7.0 = 1.11 * 2^2, stored mantissa "11" followed by 50 zeros.
        let w = Word::fp(7.0);
        let mantissa = w.power_bits();
        assert_eq!(mantissa.trailing_zeros(), 50);
        assert!(!w.info_bit());
    }

    #[test]
    fn fp_info_bit_detects_full_precision() {
        assert!(Word::fp(0.1).info_bit());
        assert!(Word::fp(1.0 / 3.0).info_bit());
        assert!(!Word::fp(0.0).info_bit());
        assert!(!Word::fp(-2.5).info_bit());
        assert!(!Word::fp(1048576.0).info_bit());
    }

    #[test]
    fn info_bit_k_widens_the_window() {
        // A value with exactly one set bit at mantissa position 5 is missed
        // by k=4 but caught by k=8.
        let bits = 0x3FF0_0000_0000_0000u64 | (1 << 5);
        let w = Word::Fp(bits);
        assert!(!w.info_bit_k(4));
        assert!(w.info_bit_k(8));
    }

    #[test]
    fn ham_is_mantissa_only_for_fp() {
        // Same mantissa, wildly different exponents: distance 0.
        let a = Word::fp(1.5);
        let b = Word::fp(3.0);
        assert_eq!(a.ham(b), 0);
        // Integer distance covers all 32 bits.
        assert_eq!(Word::int(0).ham(Word::int(-1)), 32);
    }

    #[test]
    fn ones_fraction_is_the_runtime_quotient_bit_for_bit() {
        let mut words: Vec<Word> = (0..=32u32)
            .map(|k| Word::Int(((1u64 << k) - 1) as u32))
            .collect();
        words.extend((0..=52u32).map(|k| Word::Fp((1u64 << k) - 1)));
        words.push(Word::Fp(u64::MAX));
        for w in words {
            let quotient = w.power_bits().count_ones() as f64 / w.power_width() as f64;
            assert_eq!(w.ones_fraction().to_bits(), quotient.to_bits(), "{w:?}");
        }
    }

    #[test]
    fn power_width_matches_kind() {
        assert_eq!(Word::int(0).power_width(), 32);
        assert_eq!(Word::fp(0.0).power_width(), 52);
    }

    #[test]
    fn display_and_hex() {
        assert_eq!(Word::int(-5).to_string(), "-5");
        assert_eq!(Word::fp(2.5).to_string(), "2.5");
        assert_eq!(format!("{:08x}", Word::int(20)), "00000014");
    }

    #[test]
    #[should_panic]
    fn as_int_on_fp_panics() {
        let _ = Word::fp(1.0).as_int();
    }

    #[test]
    #[should_panic]
    fn info_bit_k_zero_panics() {
        let _ = Word::fp(1.0).info_bit_k(0);
    }
}
