//! Fixed-bucket histograms with a JSON snapshot.

use crate::{Json, ToJson};

/// A fixed-bucket histogram: bucket `i` counts observations `v <=
/// bounds[i]`, plus one implicit overflow bucket. Bounds are fixed at
/// construction, so two runs that observe the same values snapshot
/// identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Histogram {
    /// A histogram with the given strictly increasing upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing.
    pub fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "a histogram needs buckets");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
        }
    }

    /// Records one observation. The running sum saturates instead of
    /// overflowing, so a histogram fed `u64::MAX`-ish values (the top
    /// bucket's natural diet) stays well-defined.
    pub fn observe(&mut self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Adds `other`'s observations into this histogram, as if every
    /// value it observed had been observed here too.
    ///
    /// # Panics
    ///
    /// Panics if the two histograms' bounds differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different bounds"
        );
        for (acc, n) in self.counts.iter_mut().zip(&other.counts) {
            *acc += n;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// `(upper_bound, count)` pairs; the final pair has `None` as its
    /// bound (the overflow bucket).
    pub fn buckets(&self) -> impl Iterator<Item = (Option<u64>, u64)> + '_ {
        self.bounds
            .iter()
            .map(|&b| Some(b))
            .chain(std::iter::once(None))
            .zip(self.counts.iter().copied())
    }
}

impl ToJson for Histogram {
    fn to_json(&self) -> Json {
        let buckets = self
            .buckets()
            .map(|(le, count)| {
                Json::obj([
                    (
                        "le",
                        match le {
                            Some(b) => Json::UInt(b),
                            None => Json::Null,
                        },
                    ),
                    ("count", Json::UInt(count)),
                ])
            })
            .collect();
        Json::obj([
            ("type", Json::Str("histogram".into())),
            ("count", Json::UInt(self.count)),
            ("sum", Json::UInt(self.sum)),
            ("mean", Json::Float(self.mean())),
            ("buckets", Json::Arr(buckets)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_upper_inclusive() {
        let mut h = Histogram::new(&[0, 4, 16]);
        for v in [0, 1, 4, 5, 16, 17, 1000] {
            h.observe(v);
        }
        let counts: Vec<u64> = h.buckets().map(|(_, c)| c).collect();
        assert_eq!(counts, [1, 2, 2, 2]); // {0}, {1,4}, {5,16}, {17,1000}
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 1043);
    }

    #[test]
    fn single_sample_histogram_is_exact() {
        let mut h = Histogram::new(&[10]);
        h.observe(7);
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 7);
        assert_eq!(h.mean(), 7.0);
        let buckets: Vec<(Option<u64>, u64)> = h.buckets().collect();
        assert_eq!(buckets, [(Some(10), 1), (None, 0)]);
    }

    #[test]
    fn merged_histograms_equal_one_that_observed_both_streams() {
        let (first, second) = ([0, 3, 4, 99], [5, 16, 17, 1]);
        let mut both = Histogram::new(&[0, 4, 16]);
        let mut a = Histogram::new(&[0, 4, 16]);
        let mut b = Histogram::new(&[0, 4, 16]);
        for v in first {
            both.observe(v);
            a.observe(v);
        }
        for v in second {
            both.observe(v);
            b.observe(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
        assert_eq!(a.to_json(), both.to_json());
    }

    #[test]
    #[should_panic(expected = "different bounds")]
    fn histograms_with_different_bounds_cannot_merge() {
        Histogram::new(&[0, 4]).merge(&Histogram::new(&[0, 8]));
    }

    #[test]
    fn top_bucket_saturates_instead_of_overflowing() {
        let mut h = Histogram::new(&[1, 2]);
        h.observe(u64::MAX);
        h.observe(u64::MAX);
        // Both land in the overflow bucket; the sum saturates rather
        // than wrapping to a tiny number.
        let counts: Vec<u64> = h.buckets().map(|(_, c)| c).collect();
        assert_eq!(counts, [0, 0, 2]);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.count(), 2);
        assert!(h.mean() > 0.0);
    }
}
