//! Trend banding over a history of BENCH artifacts.
//!
//! [`compare`](crate::compare) answers "did this run drift from that
//! run?"; [`trends`] answers it for the newest of an ordered history
//! captured under one comparable manifest (oldest first). For each
//! metric of the shared gate catalogue — the same metrics `compare`
//! bands, under the same [`BandKind`](crate::BandKind) rule and
//! [`Tolerance`] — it bands each point against the median of its
//! `TREND_WINDOW` most recent predecessors. perfbench's `ledger`
//! workload runs it over a stored artifact and a fresh one.
//!
//! The classification is positional. An out-of-band *newest* point is a
//! [`Severity::Regression`] (`trend-regression`) — the latest run broke
//! the trajectory and the gate fails. An out-of-band *interior* point
//! is only [`Severity::Info`] (`trend-shift`): it marks where the
//! history stepped, which is not something to fail retroactively.
//!
//! A point without the metric (a scheme row or hotspot only some runs
//! have, a rate pass under the floor, a run without the counting
//! allocator) is a hole, which is never banded and which the median
//! skips.

use crate::bench::BenchReport;
use crate::compare::{regressions, Finding, Severity, Tolerance};
use crate::gate::{band, catalogue, describe, Verdict};
use std::fmt;

/// Rolling-median window: each point is banded against the median of
/// up to this many most recent non-hole predecessors.
const TREND_WINDOW: usize = 8;

/// The change points of a history, regressions first.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendReport {
    /// Change-point findings, regressions first.
    pub findings: Vec<Finding>,
}

impl TrendReport {
    /// Whether the newest point stayed in band on every metric.
    pub fn passed(&self) -> bool {
        regressions(&self.findings) == 0
    }
}

/// Why a trend analysis could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrendError {
    /// Fewer than two points — there is no trajectory to judge.
    TooFew {
        /// How many points were supplied.
        have: usize,
    },
    /// A point's manifest is not comparable with the first point's.
    Incomparable {
        /// Label of the offending point.
        label: String,
        /// Label of the point it was checked against.
        against: String,
    },
}

impl fmt::Display for TrendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrendError::TooFew { have } => {
                write!(
                    f,
                    "need at least 2 comparable runs for a trend, have {have}"
                )
            }
            TrendError::Incomparable { label, against } => {
                write!(
                    f,
                    "run {label} was captured under a different configuration than {against}; \
                     trends only run over one manifest key"
                )
            }
        }
    }
}

impl std::error::Error for TrendError {}

/// Median of non-empty values (midpoint average for even lengths).
fn median(mut sorted: Vec<f64>) -> f64 {
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Bands every catalogue metric over a comparable artifact history
/// (oldest first) and classifies change points against rolling
/// medians.
///
/// Returns [`TrendError::TooFew`] below two points and
/// [`TrendError::Incomparable`] when any point's manifest disagrees
/// with the first point's (tag aside). The result's
/// [`passed`](TrendReport::passed) is `false` exactly when the newest
/// point sits out of band on some metric.
pub fn trends(
    points: &[(String, BenchReport)],
    tol: &Tolerance,
) -> Result<TrendReport, TrendError> {
    if points.len() < 2 {
        return Err(TrendError::TooFew { have: points.len() });
    }
    let (first_label, first) = &points[0];
    for (label, report) in &points[1..] {
        if !first.manifest.comparable_with(&report.manifest) {
            return Err(TrendError::Incomparable {
                label: label.clone(),
                against: first_label.clone(),
            });
        }
    }

    // The newest point's scheme rows, estimator schemes and hotspots
    // decide which per-key metrics exist.
    let mut findings = Vec::new();
    for metric in catalogue(&points[points.len() - 1].1, tol) {
        let values: Vec<Option<f64>> = points.iter().map(|(_, r)| (metric.extract)(r)).collect();

        // Band each present point against the median of its most
        // recent present predecessors.
        for (i, value) in values.iter().enumerate() {
            let Some(value) = value else { continue };
            let prior: Vec<f64> = values[..i]
                .iter()
                .copied()
                .flatten()
                .rev()
                .take(TREND_WINDOW)
                .collect();
            if prior.is_empty() {
                continue;
            }
            let med = median(prior);
            if band(metric.kind, *value, med, tol) == Verdict::Out {
                let (severity, category) = if i == points.len() - 1 {
                    (Severity::Regression, "trend-regression")
                } else {
                    (Severity::Info, "trend-shift")
                };
                findings.push(Finding {
                    severity,
                    category,
                    message: format!(
                        "{} at {}: {}",
                        metric.name,
                        points[i].0,
                        describe(metric.kind, *value, med, "rolling median", tol)
                    ),
                });
            }
        }
    }

    findings.sort_by_key(|f| f.severity != Severity::Regression);
    Ok(TrendReport { findings })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::bench_suite_jobs;
    use fua_core::ExperimentConfig;
    use fua_exec::Jobs;

    /// A tiny suite run with its rate pass pinned at 10 ms: measured,
    /// it may sit near the 5 ms floor in a debug build, and a timer
    /// under the floor is a hole.
    fn tiny() -> BenchReport {
        let config = ExperimentConfig {
            inst_limit: 1_500,
            ..ExperimentConfig::quick()
        };
        let mut r = bench_suite_jobs("tiny", &config, 512, Jobs::serial());
        r.throughput.as_mut().unwrap().hot_nanos = 10_000_000;
        r
    }

    fn history(n: usize) -> Vec<(String, BenchReport)> {
        let base = tiny();
        (0..n).map(|i| (format!("run-{i}"), base.clone())).collect()
    }

    #[test]
    fn a_flat_history_passes_with_no_findings() {
        // The allocation metric is a hole on every point, because the
        // test binary runs without the counting allocator installed.
        let points = history(4);
        let tol = Tolerance::default();
        let report = trends(&points, &tol).unwrap();
        assert!(report.passed());
        assert!(report.findings.is_empty(), "{:#?}", report.findings);
        // Every other metric has a value at every point, so every one
        // of them was banded.
        for metric in catalogue(&points[0].1, &tol) {
            let allocs = metric.name == "harness allocs/kcycle";
            for (_, point) in &points {
                assert_eq!((metric.extract)(point).is_none(), allocs, "{}", metric.name);
            }
        }
    }

    #[test]
    fn fewer_than_two_points_is_an_error() {
        assert_eq!(
            trends(&history(1), &Tolerance::default()),
            Err(TrendError::TooFew { have: 1 })
        );
    }

    #[test]
    fn a_foreign_manifest_is_rejected_by_label() {
        let mut points = history(3);
        points[2].1.manifest.inst_limit += 1;
        let err = trends(&points, &Tolerance::default()).unwrap_err();
        assert_eq!(
            err,
            TrendError::Incomparable {
                label: "run-2".to_string(),
                against: "run-0".to_string(),
            }
        );
    }

    #[test]
    fn a_drifted_newest_point_is_a_regression() {
        let mut points = history(4);
        points[3].1.headline_ialu_pct += 5.0;
        let report = trends(&points, &Tolerance::default()).unwrap();
        assert!(!report.passed());
        assert!(report.findings.iter().any(|f| {
            f.category == "trend-regression"
                && f.severity == Severity::Regression
                && f.message.contains("headline IALU %")
                && f.message.contains("run-3")
        }));
    }

    #[test]
    fn an_interior_step_is_informational_only() {
        let mut points = history(5);
        points[2].1.headline_ialu_pct += 5.0;
        let report = trends(&points, &Tolerance::default()).unwrap();
        assert!(report.passed(), "{:#?}", report.findings);
        assert!(report
            .findings
            .iter()
            .any(|f| f.category == "trend-shift" && f.severity == Severity::Info));
    }

    #[test]
    fn wall_clock_noise_never_regresses_but_a_collapse_does() {
        let mut points = history(4);
        for (_, r) in &mut points {
            r.throughput.as_mut().unwrap().hot_nanos = 20_000_000;
        }
        // 2x slower: inside the generous factor, no finding.
        points[3].1.throughput.as_mut().unwrap().hot_nanos = 40_000_000;
        let report = trends(&points, &Tolerance::default()).unwrap();
        assert!(report.passed(), "{:#?}", report.findings);

        // 30x slower: flagged on the rate series.
        points[3].1.throughput.as_mut().unwrap().hot_nanos = 20_000_000 * 30;
        let report = trends(&points, &Tolerance::default()).unwrap();
        assert!(!report.passed());
        assert!(report
            .findings
            .iter()
            .any(|f| f.category == "trend-regression" && f.message.contains("sim MHz")));
    }

    #[test]
    fn allocation_inflation_gates_only_on_an_explosion() {
        let mut points = history(4);
        for (_, r) in &mut points {
            r.harness.as_mut().unwrap().allocs_per_kcycle = Some(5.0);
        }
        // Doubling is noise under the generous factor: no finding.
        points[3].1.harness.as_mut().unwrap().allocs_per_kcycle = Some(10.0);
        let report = trends(&points, &Tolerance::default()).unwrap();
        assert!(report.passed(), "{:#?}", report.findings);

        // A 1000x explosion on the newest point fails the gate.
        points[3].1.harness.as_mut().unwrap().allocs_per_kcycle = Some(5_000.0);
        let report = trends(&points, &Tolerance::default()).unwrap();
        assert!(!report.passed());
        assert!(report.findings.iter().any(|f| {
            f.category == "trend-regression" && f.message.contains("harness allocs/kcycle")
        }));

        // Shrinking is never a finding for a cost series.
        points[3].1.harness.as_mut().unwrap().allocs_per_kcycle = Some(0.001);
        let report = trends(&points, &Tolerance::default()).unwrap();
        assert!(report.passed(), "{:#?}", report.findings);
    }
}
