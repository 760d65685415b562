//! Longitudinal trend analysis over a history of BENCH artifacts.
//!
//! [`compare`](crate::compare) answers "did this run drift from that
//! run?"; this module answers "is the trajectory healthy?". Given an
//! ordered history of artifacts captured under one comparable manifest
//! (oldest first, as the run store hands them out), [`trends`] extracts
//! one time series per metric of the shared gate catalogue — the same
//! metrics `compare` bands, under the same [`BandKind`] rule and
//! [`Tolerance`] — and bands each point against the median of its
//! [`TREND_WINDOW`] most recent predecessors.
//!
//! The classification is positional. An out-of-band *newest* point is a
//! [`Severity::Regression`] (`trend-regression`) — the latest run broke
//! the trajectory and the gate fails. An out-of-band *interior* point
//! is only [`Severity::Info`] (`trend-shift`): it marks where the
//! history stepped (an intentional model change, a retagged baseline),
//! which is exactly the provenance question the store exists to answer,
//! not something to fail retroactively.
//!
//! Series are aligned to the input points with `Vec<Option<f64>>`: a
//! point without the metric (a scheme row or hotspot only some runs
//! have, a timer under the floor, a run without the counting
//! allocator) contributes a hole, which the median skips and
//! [`sparkline`] renders as a gap.

use crate::bench::BenchReport;
use crate::compare::{Finding, Severity, Tolerance};
use crate::gate::{band, catalogue, describe, BandKind, Verdict};
use fua_trace::Json;
use std::fmt;

/// Schema identifier stamped into `trends --json` output.
pub const TRENDS_SCHEMA: &str = "fua-trends/1";

/// Rolling-median window: each point is banded against the median of
/// up to this many most recent non-hole predecessors.
pub const TREND_WINDOW: usize = 8;

/// Characters of the ASCII sparkline, lowest value first.
const SPARK_LEVELS: &[u8] = b"_.:-=+*#";

/// One metric's history across the input points.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendSeries {
    /// Human-readable metric name (also the JSON key).
    pub metric: String,
    /// The band shape applied to this series.
    pub kind: BandKind,
    /// One slot per input point, oldest first; `None` is a hole, where
    /// the point has no value for the metric (see the module doc).
    pub values: Vec<Option<f64>>,
}

impl TrendSeries {
    /// The newest recorded value, if the latest artifact carries one.
    pub fn newest(&self) -> Option<f64> {
        self.values.last().copied().flatten()
    }
}

/// The assembled trend analysis: aligned series plus classified
/// change points.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendReport {
    /// One label per input point, oldest first (store tags or
    /// sequence numbers).
    pub labels: Vec<String>,
    /// One series per tracked metric.
    pub series: Vec<TrendSeries>,
    /// Change-point findings, regressions first.
    pub findings: Vec<Finding>,
}

impl TrendReport {
    /// Whether the newest point stayed in band on every series.
    pub fn passed(&self) -> bool {
        self.regressions() == 0
    }

    /// Number of regression-severity findings.
    pub fn regressions(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Regression)
            .count()
    }

    /// Renders the report as a stable JSON document.
    pub fn to_json(&self) -> Json {
        let series = self
            .series
            .iter()
            .map(|s| {
                let values = s
                    .values
                    .iter()
                    .map(|v| match v {
                        Some(x) => Json::Float(*x),
                        None => Json::Null,
                    })
                    .collect();
                Json::obj([
                    ("metric", Json::Str(s.metric.clone())),
                    ("kind", Json::Str(s.kind.name().to_string())),
                    ("values", Json::Arr(values)),
                    ("spark", Json::Str(sparkline(&s.values))),
                ])
            })
            .collect();
        let findings = self
            .findings
            .iter()
            .map(|f| {
                let severity = match f.severity {
                    Severity::Info => "info",
                    Severity::Regression => "regression",
                };
                Json::obj([
                    ("severity", Json::Str(severity.to_string())),
                    ("category", Json::Str(f.category.to_string())),
                    ("message", Json::Str(f.message.clone())),
                ])
            })
            .collect();
        Json::obj([
            ("schema", Json::Str(TRENDS_SCHEMA.to_string())),
            ("points", Json::UInt(self.labels.len() as u64)),
            (
                "labels",
                Json::Arr(self.labels.iter().cloned().map(Json::Str).collect()),
            ),
            ("passed", Json::Bool(self.passed())),
            ("series", Json::Arr(series)),
            ("findings", Json::Arr(findings)),
        ])
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

/// Renders a series as one ASCII sparkline character per point.
///
/// Values are scaled to the series' own min–max range over eight
/// levels (`_.:-=+*#`); holes render as spaces; a flat series renders
/// at the middle level.
pub fn sparkline(values: &[Option<f64>]) -> String {
    let present: Vec<f64> = values.iter().copied().flatten().collect();
    let (min, max) = present
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
            (lo.min(*v), hi.max(*v))
        });
    let span = max - min;
    values
        .iter()
        .map(|v| match v {
            None => ' ',
            Some(v) => {
                let level = if span <= 0.0 || !span.is_finite() {
                    SPARK_LEVELS.len() / 2
                } else {
                    let t = (v - min) / span;
                    ((t * (SPARK_LEVELS.len() - 1) as f64).round() as usize)
                        .min(SPARK_LEVELS.len() - 1)
                };
                SPARK_LEVELS[level] as char
            }
        })
        .collect()
}

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

/// Assembles per-metric time series over a comparable artifact history
/// (oldest first) and classifies change points against rolling
/// medians.
///
/// Returns [`TrendError::TooFew`] below two points and
/// [`TrendError::Incomparable`] when any point's manifest disagrees
/// with the first point's (tag aside). The result's
/// [`passed`](TrendReport::passed) is `false` exactly when the newest
/// point sits out of band on some series.
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
    // decide which per-key series exist.
    let metrics = catalogue(&points[points.len() - 1].1, tol);
    let mut series = Vec::with_capacity(metrics.len());
    let mut findings = Vec::new();

    for metric in metrics {
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

        series.push(TrendSeries {
            metric: metric.name,
            kind: metric.kind,
            values,
        });
    }

    findings.sort_by_key(|f| f.severity != Severity::Regression);

    Ok(TrendReport {
        labels: points.iter().map(|(l, _)| l.clone()).collect(),
        series,
        findings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::bench_suite_jobs;
    use fua_core::ExperimentConfig;
    use fua_exec::Jobs;

    /// A tiny suite run with its phase timers and rate pass pinned at
    /// 10 ms: measured, some sit near the 5 ms floor in a debug build,
    /// and a timer under the floor is a hole.
    fn tiny() -> BenchReport {
        let config = ExperimentConfig {
            inst_limit: 1_500,
            ..ExperimentConfig::quick()
        };
        let mut r = bench_suite_jobs("tiny", &config, 512, Jobs::serial());
        r.phase_nanos.0 = [10_000_000; 5];
        r.throughput.as_mut().unwrap().hot_nanos = 10_000_000;
        r
    }

    fn history(n: usize) -> Vec<(String, BenchReport)> {
        let base = tiny();
        (0..n).map(|i| (format!("run-{i}"), base.clone())).collect()
    }

    #[test]
    fn a_flat_history_passes_with_no_findings() {
        let report = trends(&history(4), &Tolerance::default()).unwrap();
        assert!(report.passed());
        assert!(report.findings.is_empty(), "{:#?}", report.findings);
        assert_eq!(report.labels.len(), 4);
        // Every series is fully populated on same-schema artifacts —
        // except the allocation series, which is all holes because the
        // test binary runs without the counting allocator installed.
        assert!(report
            .series
            .iter()
            .all(|s| s.metric == "harness allocs/kcycle" || s.values.iter().all(Option::is_some)));
        let allocs = report
            .series
            .iter()
            .find(|s| s.metric == "harness allocs/kcycle")
            .unwrap();
        assert!(allocs.values.iter().all(Option::is_none));
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

    #[test]
    fn sparklines_scale_to_the_series_range() {
        let values: Vec<Option<f64>> = vec![Some(0.0), Some(100.0), None, Some(50.0), Some(100.0)];
        let spark = sparkline(&values);
        assert_eq!(spark.len(), 5);
        assert_eq!(&spark[0..1], "_");
        assert_eq!(&spark[1..2], "#");
        assert_eq!(&spark[2..3], " ");
        assert_eq!(&spark[4..5], "#");
        // Flat series sit at the middle level.
        assert_eq!(sparkline(&[Some(7.0), Some(7.0)]), "==");
    }

    #[test]
    fn the_json_rendering_round_trips_holes_as_null() {
        let mut points = history(3);
        points[0].1.throughput = None;
        let report = trends(&points, &Tolerance::default()).unwrap();
        let json = report.to_json();
        assert_eq!(
            json.get("schema").and_then(Json::as_str),
            Some(TRENDS_SCHEMA)
        );
        assert_eq!(json.get("passed").and_then(Json::as_bool), Some(true));
        let text = json.pretty();
        let reparsed = Json::parse(&text).unwrap();
        let series = reparsed.get("series").and_then(Json::as_arr).unwrap();
        let ipc = series
            .iter()
            .find(|s| s.get("metric").and_then(Json::as_str) == Some("suite IPC"))
            .unwrap();
        let vals = ipc.get("values").and_then(Json::as_arr).unwrap();
        assert_eq!(vals[0], Json::Null);
        assert!(vals[1].as_f64().is_some());
    }
}
