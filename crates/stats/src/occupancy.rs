//! Table-2 module-occupancy profiling.

/// Histogram of how many modules of one FU type issue together in a cycle
/// (the paper's Table 2).
///
/// Cycles in which the FU type issues nothing are not recorded,
/// matching the paper: "we only consider cycles which use at least one
/// module".
///
/// # Examples
///
/// ```
/// use fua_stats::OccupancyProfiler;
///
/// let mut occ = OccupancyProfiler::new(4);
/// occ.record(1);
/// occ.record(1);
/// occ.record(3);
/// assert_eq!(occ.busy_cycles(), 3);
/// assert!((occ.freq(1) - 2.0 / 3.0).abs() < 1e-12);
/// assert_eq!(occ.freq(4), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OccupancyProfiler {
    counts: Vec<u64>,
}

impl OccupancyProfiler {
    /// Creates a profiler for an FU type with `max_modules` modules.
    /// Idle (zero-issue) cycles are ignored, as in the paper's Table 2.
    ///
    /// # Panics
    ///
    /// Panics if `max_modules` is 0.
    pub fn new(max_modules: usize) -> Self {
        assert!(max_modules >= 1, "an FU type has at least one module");
        OccupancyProfiler {
            counts: vec![0; max_modules + 1],
        }
    }

    /// Records a cycle in which `num_issued` instructions of this FU type
    /// issued. Zero is ignored (idle cycles are excluded from Table 2).
    ///
    /// # Panics
    ///
    /// Panics if `num_issued` exceeds the module count.
    pub fn record(&mut self, num_issued: usize) {
        if num_issued == 0 {
            return;
        }
        assert!(
            num_issued < self.counts.len(),
            "issued {} > {} modules",
            num_issued,
            self.counts.len() - 1
        );
        self.counts[num_issued] += 1;
    }

    /// Number of cycles in which at least one module issued.
    pub fn busy_cycles(&self) -> u64 {
        self.counts[1..].iter().sum()
    }

    /// `P(Num(I) = k | Num(I) >= 1)` — a Table-2 cell.
    pub fn freq(&self, k: usize) -> f64 {
        let busy = self.busy_cycles();
        if busy == 0 || k == 0 || k >= self.counts.len() {
            return 0.0;
        }
        self.counts[k] as f64 / busy as f64
    }

    /// The full Table-2 row: `[P(1), P(2), ..., P(max)]`.
    pub fn distribution(&self) -> Vec<f64> {
        (1..self.counts.len()).map(|k| self.freq(k)).collect()
    }

    /// Maximum number of modules this profiler tracks.
    pub fn max_modules(&self) -> usize {
        self.counts.len() - 1
    }

    /// Merges another profiler with the same module count.
    ///
    /// # Panics
    ///
    /// Panics if the module counts differ.
    pub fn merge(&mut self, other: &OccupancyProfiler) {
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "occupancy profilers track different module counts"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distribution_sums_to_one_when_busy() {
        let mut occ = OccupancyProfiler::new(4);
        for k in [1, 2, 2, 3, 4, 1, 1] {
            occ.record(k);
        }
        let sum: f64 = occ.distribution().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn idle_cycles_are_ignored() {
        let mut occ = OccupancyProfiler::new(2);
        occ.record(0);
        occ.record(0);
        assert_eq!(occ.busy_cycles(), 0);
        assert_eq!(occ.freq(1), 0.0);
    }

    #[test]
    #[should_panic]
    fn overflow_is_a_bug() {
        let mut occ = OccupancyProfiler::new(2);
        occ.record(3);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = OccupancyProfiler::new(4);
        a.record(1);
        let mut b = OccupancyProfiler::new(4);
        b.record(1);
        b.record(2);
        a.merge(&b);
        assert_eq!(a.busy_cycles(), 3);
        assert!((a.freq(1) - 2.0 / 3.0).abs() < 1e-12);
    }
}
