//! Table-1/Table-3 bit-pattern profiling.

use fua_isa::Case;
use fua_vm::FuOp;

use crate::CaseProfile;

/// One row of the paper's Table 1 (or Table 3 when rows are aggregated
/// over commutativity): an operand-bit/commutativity bucket with its
/// frequency and per-operand bit densities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BitPatternRow {
    /// The information-bit case of the bucket.
    pub case: Case,
    /// Whether the bucket holds commutative instructions.
    pub commutative: bool,
    /// Bucket frequency as a percentage of all profiled operations.
    pub freq_pct: f64,
    /// Mean probability that a single OP1 bit is 1.
    pub op1_prob: f64,
    /// Mean probability that a single OP2 bit is 1.
    pub op2_prob: f64,
}

/// Per-information-bit operand statistics: the data behind the paper's
/// derived claims such as "when the top bit is 0, so are 91.2% of the
/// bits".
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OperandInfoStats {
    /// Number of operands whose information bit was 0.
    pub count_info0: u64,
    /// Number of operands whose information bit was 1.
    pub count_info1: u64,
    /// Mean fraction of 1 bits among info-bit-0 operands.
    pub ones_frac_info0: f64,
    /// Mean fraction of 1 bits among info-bit-1 operands.
    pub ones_frac_info1: f64,
}

impl OperandInfoStats {
    /// Fraction of operands whose information bit is 0.
    pub fn info0_fraction(&self) -> f64 {
        let total = self.count_info0 + self.count_info1;
        if total == 0 {
            0.0
        } else {
            self.count_info0 as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Bucket {
    count: u64,
    op1_ones: f64,
    op2_ones: f64,
}

/// Streams [`FuOp`]s and accumulates the paper's bit-pattern statistics.
///
/// One profiler covers one FU channel (e.g. all IALU operations, or all
/// integer multiplies); keep separate profilers per channel as the paper's
/// tables do.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BitPatternProfiler {
    // [case][commutative as usize]
    buckets: [[Bucket; 2]; 4],
    // Per-operand info-bit buckets: [info_bit as usize]
    info_counts: [u64; 2],
    info_ones: [f64; 2],
    total: u64,
}

impl BitPatternProfiler {
    /// An empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one FU operation.
    pub fn record(&mut self, op: &FuOp) {
        let case = op.case();
        let (ones1, ones2) = (op.op1.ones_fraction(), op.op2.ones_fraction());
        let b = &mut self.buckets[case.index()][op.commutative as usize];
        b.count += 1;
        b.op1_ones += ones1;
        b.op2_ones += ones2;
        for (i, ones) in [(case.op1_bit(), ones1), (case.op2_bit(), ones2)] {
            self.info_counts[i as usize] += 1;
            self.info_ones[i as usize] += ones;
        }
        self.total += 1;
    }

    /// Total operations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The eight Table-1 rows, in the paper's order (case 00/01/10/11,
    /// commutative before non-commutative). Rows with zero count still
    /// appear, with zero frequency and densities.
    pub fn rows(&self) -> Vec<BitPatternRow> {
        let mut out = Vec::with_capacity(8);
        for case in Case::ALL {
            for commutative in [true, false] {
                let b = &self.buckets[case.index()][commutative as usize];
                let n = b.count.max(1) as f64;
                out.push(BitPatternRow {
                    case,
                    commutative,
                    freq_pct: if self.total == 0 {
                        0.0
                    } else {
                        100.0 * b.count as f64 / self.total as f64
                    },
                    op1_prob: if b.count == 0 { 0.0 } else { b.op1_ones / n },
                    op2_prob: if b.count == 0 { 0.0 } else { b.op2_ones / n },
                });
            }
        }
        out
    }

    /// Frequency of a case, commutative and non-commutative rows combined
    /// (0..=1).
    pub fn case_freq(&self, case: Case) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let c = self.buckets[case.index()];
        (c[0].count + c[1].count) as f64 / self.total as f64
    }

    /// Frequency of *non-commutative* operations of a case (0..=1) — the
    /// quantity the hardware swap rule minimises over.
    pub fn noncommutative_case_freq(&self, case: Case) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.buckets[case.index()][0].count as f64 / self.total as f64
    }

    /// Per-information-bit operand statistics (paper: "when the top bit is
    /// 0, so are 91.2% of the bits, and when this bit is 1, so are 63.7%").
    pub fn operand_info_stats(&self) -> OperandInfoStats {
        let mean = |i: usize| {
            if self.info_counts[i] == 0 {
                0.0
            } else {
                self.info_ones[i] / self.info_counts[i] as f64
            }
        };
        OperandInfoStats {
            count_info0: self.info_counts[0],
            count_info1: self.info_counts[1],
            ones_frac_info0: mean(0),
            ones_frac_info1: mean(1),
        }
    }

    /// Distils the profile into the form the LUT builder consumes.
    pub fn case_profile(&self) -> CaseProfile {
        let mut freq = [0.0; 4];
        let mut noncomm = [0.0; 4];
        let mut op1_prob = [0.5; 4];
        let mut op2_prob = [0.5; 4];
        for case in Case::ALL {
            let i = case.index();
            freq[i] = self.case_freq(case);
            noncomm[i] = self.noncommutative_case_freq(case);
            let c = self.buckets[i];
            let count = c[0].count + c[1].count;
            if count > 0 {
                op1_prob[i] = (c[0].op1_ones + c[1].op1_ones) / count as f64;
                op2_prob[i] = (c[0].op2_ones + c[1].op2_ones) / count as f64;
            }
        }
        CaseProfile {
            case_freq: freq,
            noncommutative_freq: noncomm,
            op1_ones_prob: op1_prob,
            op2_ones_prob: op2_prob,
        }
    }

    /// Merges another profiler of the same channel into this one.
    pub fn merge(&mut self, other: &BitPatternProfiler) {
        for c in 0..4 {
            for k in 0..2 {
                self.buckets[c][k].count += other.buckets[c][k].count;
                self.buckets[c][k].op1_ones += other.buckets[c][k].op1_ones;
                self.buckets[c][k].op2_ones += other.buckets[c][k].op2_ones;
            }
        }
        for i in 0..2 {
            self.info_counts[i] += other.info_counts[i];
            self.info_ones[i] += other.info_ones[i];
        }
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fua_isa::{FuClass, Word};

    fn op(a: Word, b: Word, commutative: bool) -> FuOp {
        FuOp {
            class: FuClass::IntAlu,
            op1: a,
            op2: b,
            commutative,
        }
    }

    #[test]
    fn rows_partition_the_stream() {
        let mut p = BitPatternProfiler::new();
        p.record(&op(Word::int(1), Word::int(2), true));
        p.record(&op(Word::int(-1), Word::int(2), false));
        p.record(&op(Word::int(-1), Word::int(-2), true));
        p.record(&op(Word::int(1), Word::int(2), true));
        let rows = p.rows();
        let total_pct: f64 = rows.iter().map(|r| r.freq_pct).sum();
        assert!((total_pct - 100.0).abs() < 1e-9);
        let c00_comm = rows
            .iter()
            .find(|r| r.case == Case::C00 && r.commutative)
            .expect("row exists");
        assert!((c00_comm.freq_pct - 50.0).abs() < 1e-9);
    }

    #[test]
    fn bit_densities_follow_sign_extension() {
        let mut p = BitPatternProfiler::new();
        // Small positive numbers: mostly zero bits; small negatives: mostly
        // one bits.
        for v in 1..100 {
            p.record(&op(Word::int(v), Word::int(-v), true));
        }
        let stats = p.operand_info_stats();
        assert!(stats.ones_frac_info0 < 0.3, "{stats:?}");
        assert!(stats.ones_frac_info1 > 0.7, "{stats:?}");
        assert!((stats.info0_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn noncommutative_frequency_is_separated() {
        let mut p = BitPatternProfiler::new();
        p.record(&op(Word::int(1), Word::int(-1), true));
        p.record(&op(Word::int(1), Word::int(-1), false));
        p.record(&op(Word::int(1), Word::int(-1), false));
        assert!((p.case_freq(Case::C01) - 1.0).abs() < 1e-12);
        assert!((p.noncommutative_case_freq(Case::C01) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn merge_matches_sequential_recording() {
        let ops = [
            op(Word::int(3), Word::int(-4), true),
            op(Word::int(-3), Word::int(4), false),
            op(Word::int(7), Word::int(7), true),
        ];
        let mut whole = BitPatternProfiler::new();
        for o in &ops {
            whole.record(o);
        }
        let mut a = BitPatternProfiler::new();
        a.record(&ops[0]);
        let mut b = BitPatternProfiler::new();
        b.record(&ops[1]);
        b.record(&ops[2]);
        a.merge(&b);
        assert_eq!(a.total(), whole.total());
        for case in Case::ALL {
            assert!((a.case_freq(case) - whole.case_freq(case)).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_profiler_yields_zeroes_not_nans() {
        let p = BitPatternProfiler::new();
        for r in p.rows() {
            assert_eq!(r.freq_pct, 0.0);
            assert!(!r.op1_prob.is_nan());
        }
        assert_eq!(p.case_freq(Case::C00), 0.0);
    }
}

#[cfg(test)]
mod randomized_tests {
    use super::*;
    use fua_isa::{FuClass, Word};

    /// SplitMix64 step: a tiny deterministic generator so these checks
    /// sweep many operand mixes without an external test-case library.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn random_ops(state: &mut u64, max_len: usize) -> Vec<(i32, i32, bool)> {
        let len = (next(state) as usize) % max_len;
        (0..len)
            .map(|_| {
                let a = next(state) as i32;
                let b = next(state) as i32;
                (a, b, next(state) & 1 == 1)
            })
            .collect()
    }

    #[test]
    fn frequencies_always_partition() {
        let mut state = 0x5EED_0001u64;
        for _ in 0..64 {
            let mut ops = random_ops(&mut state, 200);
            ops.push((next(&mut state) as i32, next(&mut state) as i32, true));
            let mut p = BitPatternProfiler::new();
            for (a, b, c) in &ops {
                p.record(&FuOp {
                    class: FuClass::IntAlu,
                    op1: Word::int(*a),
                    op2: Word::int(*b),
                    commutative: *c,
                });
            }
            let total_pct: f64 = p.rows().iter().map(|r| r.freq_pct).sum();
            assert!((total_pct - 100.0).abs() < 1e-6);
            let case_total: f64 = Case::ALL.iter().map(|&c| p.case_freq(c)).sum();
            assert!((case_total - 1.0).abs() < 1e-9);
            // Non-commutative frequency never exceeds the case frequency.
            for c in Case::ALL {
                assert!(p.noncommutative_case_freq(c) <= p.case_freq(c) + 1e-12);
            }
            // The distilled profile is a valid probability model.
            let profile = p.case_profile();
            let freq_sum: f64 = profile.case_freq.iter().sum();
            assert!((freq_sum - 1.0).abs() < 1e-9);
            for i in 0..4 {
                assert!((0.0..=1.0).contains(&profile.op1_ones_prob[i]));
                assert!((0.0..=1.0).contains(&profile.op2_ones_prob[i]));
            }
        }
    }

    #[test]
    fn merge_commutes_with_recording() {
        let rec = |ops: &[(i32, i32, bool)], p: &mut BitPatternProfiler| {
            for (a, b, _) in ops {
                p.record(&FuOp {
                    class: FuClass::IntAlu,
                    op1: Word::int(*a),
                    op2: Word::int(*b),
                    commutative: true,
                });
            }
        };
        let mut state = 0x5EED_0002u64;
        for _ in 0..64 {
            let left = random_ops(&mut state, 50);
            let right = random_ops(&mut state, 50);
            let mut whole = BitPatternProfiler::new();
            rec(&left, &mut whole);
            rec(&right, &mut whole);
            let mut a = BitPatternProfiler::new();
            rec(&left, &mut a);
            let mut b = BitPatternProfiler::new();
            rec(&right, &mut b);
            a.merge(&b);
            assert_eq!(a.total(), whole.total());
            for c in Case::ALL {
                assert!((a.case_freq(c) - whole.case_freq(c)).abs() < 1e-12);
            }
            let sa = a.operand_info_stats();
            let sw = whole.operand_info_stats();
            assert_eq!(sa.count_info0, sw.count_info0);
            assert!((sa.ones_frac_info1 - sw.ones_frac_info1).abs() < 1e-9);
        }
    }
}
