//! Baseline comparison with tolerance bands.
//!
//! [`compare`] diffs a current [`BenchReport`] against a baseline and
//! classifies every difference as [`Severity::Info`] (within band) or
//! [`Severity::Regression`] (actionable).
//!
//! **Banded metrics.** Every single number the gate bands comes from
//! the catalogue in `gate.rs`, which [`trends`](crate::trends)
//! shares: the Figure-4 columns, headlines, Table-1/2 aggregates,
//! suite IPC and the simulated rates, the stall mix, the estimator's
//! mean and worst-block ratios, and the hotspot shares. Each is banded by the
//! same rule `trends` applies, with the baseline's value as the
//! reference; per-key entries (scheme rows, estimator schemes,
//! hotspots) follow the baseline. A model metric that moved but stayed
//! in band is an `Info` finding. The model is deterministic, so an
//! identical re-run diffs to zero; measured rates are only ever
//! findings when out of band.
//!
//! **Pairwise-only checks.** What is not one banded number stays here,
//! because a series of single values cannot express it:
//!
//! - **Manifest** — configurations must be comparable; diffing a quick
//!   run against a full run is meaningless and is itself a regression.
//! - **Section presence** — every section the schema requires must be
//!   present on both sides. A report built in memory without one is a
//!   `schema-shape` regression, since that section's checks cannot run.
//! - **Row set and scheme ordering** — a scheme row or Table-2 level on
//!   one side only is a `schema-shape` regression. The paper's
//!   qualitative result is a *shape*: on the hardware-swap bars, e.g.
//!   8-bit LUT saves more than 2-bit LUT. The expected order is derived
//!   from the baseline itself, pairs closer than `ordering_margin_pct`
//!   are ties, and any surviving inversion is a regression.
//! - **Exactness and soundness** — inexact windowed telemetry, an
//!   inexact energy-attribution or stall partition, or a violated
//!   static bound recorded on either side is a regression regardless
//!   of tolerances.
//! - **Membership** — a baseline hotspot that left the current top
//!   list, or a baseline estimator scheme missing from the current
//!   digest, is a regression.
//! - **Harness health** — worker utilization and allocation pressure
//!   are measured, and two runs with different worker counts
//!   legitimately differ, so they are compared only between harness
//!   sections recording the same `jobs`. Then the busy fraction falling
//!   below half the baseline (and by more than 0.2 absolute) is a
//!   regression, and allocations per simulated kilocycle are banded by
//!   the shared growth-only rule. Different `jobs` give no finding at
//!   all: `fua report` across `--jobs` values must diff to zero.

use crate::bench::BenchReport;
use crate::gate::{band, catalogue, describe, BandKind, Verdict};

/// Finding severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Within tolerance; reported for visibility only.
    Info,
    /// Out of tolerance; fails the gate.
    Regression,
}

/// One comparison finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// [`Severity::Info`] or [`Severity::Regression`].
    pub severity: Severity,
    /// Short machine-greppable category, e.g. `"metric-drift"`.
    pub category: &'static str,
    /// Human-readable description with both values.
    pub message: String,
}

/// Tolerance bands for [`compare`] and [`trends`](crate::trends).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// The model-metric band: maximum absolute drift in percentage
    /// points for reductions, shares and Table-1/2 aggregates (scaled
    /// to percent), and maximum relative drift in percent for ratios.
    pub metric_pct: f64,
    /// Scheme pairs whose baseline reductions differ by less than this
    /// are treated as ties and exempt from ordering checks.
    pub ordering_margin_pct: f64,
    /// A measured rate may be up to this factor slower than its
    /// reference.
    pub timer_factor: f64,
    /// A rate pass (the timer behind the simulated rates) under this is
    /// a hole, never checked (sub-millisecond noise would dominate).
    pub timer_floor_nanos: u64,
}

impl Default for Tolerance {
    fn default() -> Self {
        Tolerance {
            // The model is deterministic; the band exists so future
            // intentional small model changes can be waved through by
            // retagging rather than forcing a baseline refresh for
            // sub-point noise.
            metric_pct: 0.75,
            ordering_margin_pct: 0.5,
            // Generous: CI machines differ wildly; this catches
            // asymptotic blowups, not cache effects.
            timer_factor: 25.0,
            timer_floor_nanos: 5_000_000,
        }
    }
}

/// The outcome of a baseline diff.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Every finding, regressions first.
    pub findings: Vec<Finding>,
}

impl Comparison {
    /// Whether the current run passes the gate.
    pub fn passed(&self) -> bool {
        self.regressions() == 0
    }

    /// Number of regression-severity findings.
    pub fn regressions(&self) -> usize {
        regressions(&self.findings)
    }

    /// The `fua report` text: one line per finding, regressions
    /// flagged, then the verdict line (`PASS`/`FAIL`, the finding and
    /// regression counts) against the baseline tagged `baseline_tag`.
    pub fn render(&self, baseline_tag: &str) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let tag = match f.severity {
                Severity::Regression => "REGRESSION",
                Severity::Info => "info",
            };
            out += &format!("{tag:<10} [{}] {}\n", f.category, f.message);
        }
        let regressions = self.regressions();
        out + &format!(
            "{}: {} finding(s), {regressions} regression(s) vs baseline \"{baseline_tag}\"",
            if regressions == 0 { "PASS" } else { "FAIL" },
            self.findings.len(),
        )
    }
}

/// Number of regression-severity findings among `findings`.
pub(crate) fn regressions(findings: &[Finding]) -> usize {
    findings
        .iter()
        .filter(|f| f.severity == Severity::Regression)
        .count()
}

/// Findings under construction.
#[derive(Default)]
struct Findings(Vec<Finding>);

impl Findings {
    fn regression(&mut self, category: &'static str, message: String) {
        self.0.push(Finding {
            severity: Severity::Regression,
            category,
            message,
        });
    }

    fn info(&mut self, category: &'static str, message: String) {
        self.0.push(Finding {
            severity: Severity::Info,
            category,
            message,
        });
    }

    /// The comparison, regressions first.
    fn finish(mut self) -> Comparison {
        self.0.sort_by_key(|f| f.severity != Severity::Regression);
        Comparison { findings: self.0 }
    }
}

/// Checks one unit's scheme row set and the baseline-derived ordering
/// of its hardware-swap column.
fn check_rows(
    out: &mut Findings,
    tol: &Tolerance,
    unit: &str,
    baseline: &crate::UnitFigure,
    current: &crate::UnitFigure,
) {
    for (side, rows, other) in [
        ("missing from current run", baseline, current),
        ("absent from baseline", current, baseline),
    ] {
        for row in rows.rows.iter().filter(|r| other.row(&r.scheme).is_none()) {
            out.regression(
                "schema-shape",
                format!("{unit}: scheme \"{}\" {side}", row.scheme),
            );
        }
    }

    // Require the current run to preserve the order of every pair the
    // baseline separates by more than the margin.
    for (i, a) in baseline.rows.iter().enumerate() {
        for b in baseline.rows.iter().skip(i + 1) {
            let gap = a.hardware_pct - b.hardware_pct;
            if gap.abs() <= tol.ordering_margin_pct {
                continue; // tie in the baseline; no order to preserve
            }
            let (hi, lo) = if gap > 0.0 { (a, b) } else { (b, a) };
            let (Some(chi), Some(clo)) = (current.row(&hi.scheme), current.row(&lo.scheme)) else {
                continue; // already reported as schema-shape above
            };
            if chi.hardware_pct < clo.hardware_pct {
                out.regression(
                    "scheme-ordering",
                    format!(
                        "{unit}: \"{}\" ({:.2}%) fell below \"{}\" ({:.2}%); \
                         baseline had {:.2}% vs {:.2}%",
                        hi.scheme,
                        chi.hardware_pct,
                        lo.scheme,
                        clo.hardware_pct,
                        hi.hardware_pct,
                        lo.hardware_pct
                    ),
                );
            }
        }
    }
}

/// Diffs `current` against `baseline` under `tol`.
pub fn compare(baseline: &BenchReport, current: &BenchReport, tol: &Tolerance) -> Comparison {
    let mut out = Findings::default();

    if !baseline.manifest.comparable_with(&current.manifest) {
        // Metric diffs against a different configuration would be pure
        // noise — stop here.
        out.regression(
            "manifest",
            format!(
                "configurations differ (baseline tag \"{}\", current tag \"{}\"); \
                 a diff across configurations is not meaningful",
                baseline.manifest.tag, current.manifest.tag
            ),
        );
        return out.finish();
    }

    for (side, r) in [("baseline", baseline), ("current", current)] {
        let present = [
            ("throughput", r.throughput.is_some()),
            ("attribution", r.attribution.is_some()),
            ("stalls", r.stalls.is_some()),
            ("estimator", r.estimator.is_some()),
            ("parallel", r.parallel.is_some()),
            ("harness", r.harness.is_some()),
        ];
        for (section, _) in present.into_iter().filter(|(_, p)| !p) {
            out.regression(
                "schema-shape",
                format!("{side} artifact has no {section} section"),
            );
        }
    }

    check_rows(&mut out, tol, "IALU", &baseline.ialu, &current.ialu);
    check_rows(&mut out, tol, "FPAU", &baseline.fpau, &current.fpau);
    let levels = |r: &BenchReport| {
        [
            ("IALU", r.ialu_occupancy.len()),
            ("FPAU", r.fpau_occupancy.len()),
        ]
    };
    for ((unit, b), (_, c)) in levels(baseline).into_iter().zip(levels(current)) {
        if b != c {
            out.regression(
                "schema-shape",
                format!("table2 {unit}: {c} entries vs baseline {b}"),
            );
        }
    }

    // Every banded number, against the baseline's value. Allocation
    // pressure is only comparable at equal `jobs`; it is banded with
    // the rest of the harness section below.
    for metric in catalogue(baseline, tol) {
        if metric.category == "harness-allocs" {
            continue;
        }
        let (Some(b), Some(c)) = ((metric.extract)(baseline), (metric.extract)(current)) else {
            continue; // a hole: nothing to band
        };
        let message = || {
            let line = describe(metric.kind, c, b, "baseline", tol);
            format!("{}: {line}", metric.name)
        };
        match band(metric.kind, c, b, tol) {
            Verdict::Out => out.regression(metric.category, message()),
            Verdict::Within => out.info(metric.category, message()),
            Verdict::Quiet => {}
        }
    }

    for (side, report) in [("baseline", baseline), ("current", current)] {
        if !report.telemetry.exact {
            out.regression(
                "telemetry-exactness",
                format!("{side} artifact records inexact windowed telemetry sums"),
            );
        }
        if report.attribution.as_ref().is_some_and(|a| !a.exact) {
            out.regression(
                "attribution-exactness",
                format!("{side} artifact records an inexact energy-attribution partition"),
            );
        }
        if let Some(s) = report.stalls.as_ref().filter(|s| !s.exact) {
            out.regression(
                "stall-exactness",
                format!(
                    "{side} artifact records an inexact stall partition \
                     ({} slots accounted, {} cycles x {} issue slots expected)",
                    s.slots, s.cycles, s.issue_width
                ),
            );
        }
        let entries = report.estimator.iter().flat_map(|e| &e.entries);
        for entry in entries.filter(|e| !e.sound) {
            out.regression(
                "estimator-soundness",
                format!(
                    "{side} artifact records a violated static bound under \
                     scheme \"{}\" (worst block {})",
                    entry.scheme, entry.worst_block
                ),
            );
        }
    }

    // Membership: a baseline hotspot or estimator scheme the current
    // run no longer records. Its shares and ratios are holes above.
    if let (Some(b), Some(c)) = (&baseline.attribution, &current.attribution) {
        for bh in &b.top_hotspots {
            if !c
                .top_hotspots
                .iter()
                .any(|ch| ch.workload == bh.workload && ch.pc == bh.pc)
            {
                out.regression(
                    "hotspot-drift",
                    format!(
                        "hotspot {} pc{} ({:.3}% of suite bits in baseline) \
                         left the current top-{} list",
                        bh.workload,
                        bh.pc,
                        bh.share_pct,
                        c.top_hotspots.len()
                    ),
                );
            }
        }
    }
    if let (Some(b), Some(c)) = (&baseline.estimator, &current.estimator) {
        for be in &b.entries {
            if !c.entries.iter().any(|ce| ce.scheme == be.scheme) {
                out.regression(
                    "estimator-precision",
                    format!(
                        "scheme \"{}\" missing from the current estimator digest",
                        be.scheme
                    ),
                );
            }
        }
    }

    // Harness health, only between runs with the same worker count
    // (see the module doc). A missing section was already reported as
    // a schema-shape regression.
    let harness = baseline.harness.as_ref().zip(current.harness.as_ref());
    let Some((b, c)) = harness.filter(|(b, c)| b.jobs == c.jobs) else {
        return out.finish();
    };
    if c.busy_fraction < b.busy_fraction * 0.5 && b.busy_fraction - c.busy_fraction > 0.2 {
        out.regression(
            "harness-utilization",
            format!(
                "worker busy fraction collapsed to {:.3} from baseline {:.3} \
                 on {} worker(s)",
                c.busy_fraction, b.busy_fraction, c.jobs
            ),
        );
    }
    match (b.allocs_per_kcycle, c.allocs_per_kcycle) {
        (Some(bv), Some(cv)) => {
            if band(BandKind::Inflation, cv, bv, tol) == Verdict::Out {
                out.regression(
                    "harness-allocs",
                    format!(
                        "allocations per simulated kilocycle exploded to {cv:.1} \
                         from baseline {bv:.1}"
                    ),
                );
            } else if (cv - bv).abs() > 0.05 * bv.abs().max(1.0) {
                out.info(
                    "harness-allocs",
                    format!("allocs per kilocycle {cv:.1} vs baseline {bv:.1}"),
                );
            }
        }
        (None, None) => {}
        (b_allocs, _) => out.info(
            "harness-allocs",
            format!(
                "{} artifact has no allocation figure (counting allocator not installed)",
                if b_allocs.is_some() {
                    "current"
                } else {
                    "baseline"
                }
            ),
        ),
    }
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::bench_suite_jobs;
    use fua_core::ExperimentConfig;
    use fua_exec::Jobs;
    use fua_trace::StallReason;

    fn tiny() -> crate::BenchReport {
        let config = ExperimentConfig {
            inst_limit: 1_500,
            ..ExperimentConfig::quick()
        };
        bench_suite_jobs("tiny", &config, 512, Jobs::serial())
    }

    #[test]
    fn identical_rerun_passes_the_gate() {
        let baseline = tiny();
        let current = tiny();
        let cmp = compare(&baseline, &current, &Tolerance::default());
        assert!(cmp.passed(), "findings: {:#?}", cmp.findings);
        // Determinism means zero drift — not even Info findings on
        // the model metrics (rates are only checked for slowdown).
        assert!(cmp
            .findings
            .iter()
            .all(|f| f.category != "metric-drift" || f.severity == Severity::Info));
    }

    #[test]
    fn seeded_ordering_inversion_is_detected() {
        let baseline = tiny();
        let mut corrupt = baseline.clone();
        // Find the two IALU schemes the baseline separates most and
        // swap their hardware columns — a deliberate shape regression.
        let mut rows: Vec<(usize, f64)> = corrupt
            .ialu
            .rows
            .iter()
            .enumerate()
            .map(|(i, r)| (i, r.hardware_pct))
            .collect();
        rows.sort_by(|a, b| a.1.total_cmp(&b.1));
        let (lo, hi) = (rows[0].0, rows[rows.len() - 1].0);
        corrupt.ialu.rows[lo].hardware_pct = rows[rows.len() - 1].1;
        corrupt.ialu.rows[hi].hardware_pct = rows[0].1;
        let cmp = compare(&baseline, &corrupt, &Tolerance::default());
        assert!(!cmp.passed());
        assert!(
            cmp.findings
                .iter()
                .any(|f| f.category == "scheme-ordering" && f.severity == Severity::Regression),
            "findings: {:#?}",
            cmp.findings
        );
    }

    #[test]
    fn metric_drift_beyond_band_is_a_regression() {
        let baseline = tiny();
        let mut drifted = baseline.clone();
        drifted.headline_ialu_pct += 5.0;
        let cmp = compare(&baseline, &drifted, &Tolerance::default());
        assert!(!cmp.passed());
        assert!(cmp.findings.iter().any(|f| f.category == "metric-drift"
            && f.severity == Severity::Regression
            && f.message.contains("headline IALU")));

        // The same drift within a wider band is only informational.
        let wide = Tolerance {
            metric_pct: 10.0,
            ..Tolerance::default()
        };
        assert!(compare(&baseline, &drifted, &wide).passed());
    }

    #[test]
    fn incomparable_manifests_short_circuit() {
        let baseline = tiny();
        let mut other = baseline.clone();
        other.manifest.inst_limit += 1;
        let cmp = compare(&baseline, &other, &Tolerance::default());
        assert!(!cmp.passed());
        assert_eq!(cmp.findings.len(), 1);
        assert_eq!(cmp.findings[0].category, "manifest");
    }

    #[test]
    fn timer_slowdown_past_factor_is_flagged_and_noise_is_not() {
        fn hot(r: &mut BenchReport) -> &mut u64 {
            &mut r.throughput.as_mut().unwrap().hot_nanos
        }
        let baseline = tiny();
        let mut slow = baseline.clone();
        // A rate pass 30x slower than a baseline comfortably above the
        // floor: flagged.
        *hot(&mut slow) = 300_000_000;
        let mut base = baseline.clone();
        *hot(&mut base) = 10_000_000;
        let cmp = compare(&base, &slow, &Tolerance::default());
        assert!(cmp
            .findings
            .iter()
            .any(|f| f.category == "sim-rate" && f.severity == Severity::Regression));

        // Below the floor the same factor is ignored.
        *hot(&mut base) = 100;
        *hot(&mut slow) = 3_000;
        let cmp = compare(&base, &slow, &Tolerance::default());
        assert!(
            !cmp.findings.iter().any(|f| f.category == "sim-rate"),
            "sub-floor timers must not be checked"
        );
    }

    #[test]
    fn inexact_telemetry_fails_the_gate() {
        let baseline = tiny();
        let mut bad = baseline.clone();
        bad.telemetry.exact = false;
        let cmp = compare(&baseline, &bad, &Tolerance::default());
        assert!(!cmp.passed());
        assert!(cmp
            .findings
            .iter()
            .any(|f| f.category == "telemetry-exactness"));
    }

    #[test]
    fn inexact_attribution_fails_the_gate() {
        let baseline = tiny();
        let mut bad = baseline.clone();
        bad.attribution.as_mut().unwrap().exact = false;
        let cmp = compare(&baseline, &bad, &Tolerance::default());
        assert!(!cmp.passed());
        assert!(cmp
            .findings
            .iter()
            .any(|f| f.category == "attribution-exactness"));
    }

    #[test]
    fn a_seeded_stall_partition_violation_fails_the_gate() {
        let baseline = tiny();
        let mut bad = baseline.clone();
        {
            let s = bad.stalls.as_mut().unwrap();
            s.slots -= 1; // one slot unaccounted
            s.exact = false;
        }
        let cmp = compare(&baseline, &bad, &Tolerance::default());
        assert!(!cmp.passed());
        assert!(
            cmp.findings.iter().any(|f| {
                f.category == "stall-exactness"
                    && f.severity == Severity::Regression
                    && f.message.contains("issue slots expected")
            }),
            "findings: {:#?}",
            cmp.findings
        );
        // A violation recorded in the *baseline* fails the gate too.
        let cmp = compare(&bad, &baseline, &Tolerance::default());
        assert!(!cmp.passed());
    }

    #[test]
    fn stall_mix_drift_past_band_is_a_regression() {
        let baseline = tiny();
        let mut shifted = baseline.clone();
        {
            // Move 10% of the suite's slots from 'issued' to
            // 'operand-wait' — the totals still balance, so exactness
            // holds, but the mix shape moved far past the band.
            let s = shifted.stalls.as_mut().unwrap();
            let moved = s.slots / 10;
            s.mix[StallReason::Issued.index()] -= moved;
            s.mix[StallReason::OperandWait.index()] += moved;
        }
        let cmp = compare(&baseline, &shifted, &Tolerance::default());
        assert!(!cmp.passed());
        assert!(cmp.findings.iter().any(|f| {
            f.category == "metric-drift"
                && f.severity == Severity::Regression
                && f.message.starts_with("stall ")
        }));

        // The same shift within a wider band is only informational.
        let wide = Tolerance {
            metric_pct: 25.0,
            ..Tolerance::default()
        };
        assert!(compare(&baseline, &shifted, &wide).passed());
    }

    #[test]
    fn ipc_drift_past_band_is_a_regression_and_khz_noise_is_not() {
        let baseline = tiny();
        let mut drifted = baseline.clone();
        {
            let t = drifted.throughput.as_mut().unwrap();
            t.instructions = t.instructions + t.instructions / 10; // +10% IPC
        }
        let cmp = compare(&baseline, &drifted, &Tolerance::default());
        assert!(!cmp.passed());
        assert!(cmp
            .findings
            .iter()
            .any(|f| f.category == "throughput-ipc" && f.severity == Severity::Regression));

        // Wall-clock noise in the denominator alone never regresses:
        // double the hot nanos (half the kHz), same model totals.
        let mut noisy = baseline.clone();
        {
            let t = noisy.throughput.as_mut().unwrap();
            t.hot_nanos *= 2;
        }
        let cmp = compare(&baseline, &noisy, &Tolerance::default());
        assert!(cmp.passed(), "findings: {:#?}", cmp.findings);
    }

    #[test]
    fn a_gross_simulated_rate_collapse_is_flagged() {
        let baseline = tiny();
        let mut base = baseline.clone();
        {
            let t = base.throughput.as_mut().unwrap();
            t.hot_nanos = 10_000_000; // above the floor
        }
        let mut slow = base.clone();
        {
            let t = slow.throughput.as_mut().unwrap();
            t.hot_nanos = 10_000_000 * 30; // 30x slower than baseline
        }
        let cmp = compare(&base, &slow, &Tolerance::default());
        assert!(!cmp.passed());
        assert!(cmp
            .findings
            .iter()
            .any(|f| f.category == "sim-rate" && f.severity == Severity::Regression));
    }

    #[test]
    fn a_seeded_bound_violation_fails_the_gate() {
        let baseline = tiny();
        let mut bad = baseline.clone();
        let entry = &mut bad.estimator.as_mut().unwrap().entries[0];
        entry.sound = false;
        let scheme = entry.scheme.clone();
        let cmp = compare(&baseline, &bad, &Tolerance::default());
        assert!(!cmp.passed());
        assert!(
            cmp.findings.iter().any(|f| {
                f.category == "estimator-soundness"
                    && f.severity == Severity::Regression
                    && f.message.contains(&scheme)
            }),
            "findings: {:#?}",
            cmp.findings
        );
        // A violation recorded in the *baseline* fails the gate too.
        let cmp = compare(&bad, &baseline, &Tolerance::default());
        assert!(!cmp.passed());
    }

    #[test]
    fn estimator_precision_drift_past_band_is_a_regression() {
        let baseline = tiny();
        let mut loose = baseline.clone();
        let entry = &mut loose.estimator.as_mut().unwrap().entries[0];
        entry.mean_ratio *= 1.25; // 25% relative drift >> the band
        let mean = format!("estimator {} ratio:", entry.scheme);
        let cmp = compare(&baseline, &loose, &Tolerance::default());
        assert!(!cmp.passed());
        assert!(cmp.findings.iter().any(|f| {
            f.category == "estimator-precision"
                && f.severity == Severity::Regression
                && f.message.starts_with(&mean)
        }));

        // The same drift within a wider band is only informational.
        let wide = Tolerance {
            metric_pct: 50.0,
            ..Tolerance::default()
        };
        let cmp = compare(&baseline, &loose, &wide);
        assert!(cmp.passed(), "findings: {:#?}", cmp.findings);
    }

    #[test]
    fn vanished_or_drifted_hotspots_are_regressions() {
        let baseline = tiny();

        // A baseline hotspot absent from the current top list.
        let mut moved = baseline.clone();
        let gone = moved.attribution.as_mut().unwrap().top_hotspots.remove(0);
        let cmp = compare(&baseline, &moved, &Tolerance::default());
        assert!(!cmp.passed());
        assert!(cmp.findings.iter().any(|f| {
            f.category == "hotspot-drift"
                && f.severity == Severity::Regression
                && f.message.contains(&format!("pc{}", gone.pc))
        }));

        // A hotspot still present but with its share far out of band.
        let mut drifted = baseline.clone();
        drifted.attribution.as_mut().unwrap().top_hotspots[0].share_pct += 5.0;
        let cmp = compare(&baseline, &drifted, &Tolerance::default());
        assert!(!cmp.passed());
        assert!(cmp
            .findings
            .iter()
            .any(|f| f.category == "hotspot-drift" && f.severity == Severity::Regression));
    }

    #[test]
    fn a_harness_utilization_collapse_fails_the_gate_and_noise_does_not() {
        let mut base = tiny();
        base.harness.as_mut().unwrap().busy_fraction = 0.9;

        // Collapse: below half the baseline and more than 0.2 absolute.
        let mut collapsed = base.clone();
        collapsed.harness.as_mut().unwrap().busy_fraction = 0.01;
        let cmp = compare(&base, &collapsed, &Tolerance::default());
        assert!(!cmp.passed());
        assert!(
            cmp.findings
                .iter()
                .any(|f| f.category == "harness-utilization" && f.severity == Severity::Regression),
            "findings: {:#?}",
            cmp.findings
        );

        // An ordinary dip in utilization or balance is measurement
        // noise: no finding at all.
        let mut noisy = base.clone();
        noisy.harness.as_mut().unwrap().busy_fraction = 0.7;
        noisy.harness.as_mut().unwrap().imbalance += 0.5;
        let cmp = compare(&base, &noisy, &Tolerance::default());
        assert!(cmp.findings.is_empty(), "findings: {:#?}", cmp.findings);
    }

    #[test]
    fn inflated_allocation_pressure_fails_the_gate() {
        let mut base = tiny();
        base.harness.as_mut().unwrap().allocs_per_kcycle = Some(5.0);

        // 1000x the baseline's allocation pressure: the hot loop grew
        // a per-cycle allocation somewhere.
        let mut leaky = base.clone();
        leaky.harness.as_mut().unwrap().allocs_per_kcycle = Some(5_000.0);
        let cmp = compare(&base, &leaky, &Tolerance::default());
        assert!(!cmp.passed());
        assert!(
            cmp.findings
                .iter()
                .any(|f| f.category == "harness-allocs" && f.severity == Severity::Regression),
            "findings: {:#?}",
            cmp.findings
        );

        // Small drift stays informational.
        let mut drifted = base.clone();
        drifted.harness.as_mut().unwrap().allocs_per_kcycle = Some(6.0);
        assert!(compare(&base, &drifted, &Tolerance::default()).passed());

        // A side measured without the counting allocator installed is
        // noted, never gated.
        let mut unmeasured = base.clone();
        unmeasured.harness.as_mut().unwrap().allocs_per_kcycle = None;
        for (b, c) in [(&base, &unmeasured), (&unmeasured, &base)] {
            let cmp = compare(b, c, &Tolerance::default());
            assert!(cmp.passed(), "findings: {:#?}", cmp.findings);
            assert!(cmp
                .findings
                .iter()
                .any(|f| f.category == "harness-allocs" && f.severity == Severity::Info));
        }
    }

    #[test]
    fn harness_sections_with_different_jobs_are_skipped_silently() {
        let mut base = tiny();
        {
            let h = base.harness.as_mut().unwrap();
            h.jobs = 1;
            h.busy_fraction = 0.95;
        }
        // Even a would-be collapse produces no finding across worker
        // counts: `fua report` between --jobs 1 and --jobs 4 artifacts
        // must diff to zero.
        let mut other = base.clone();
        {
            let h = other.harness.as_mut().unwrap();
            h.jobs = 4;
            h.busy_fraction = 0.01;
        }
        for (b, c) in [(&base, &other), (&other, &base)] {
            let cmp = compare(b, c, &Tolerance::default());
            assert!(cmp.passed());
            assert!(
                !cmp.findings
                    .iter()
                    .any(|f| f.category.starts_with("harness")),
                "findings: {:#?}",
                cmp.findings
            );
        }
    }

    #[test]
    fn missing_scheme_is_a_schema_shape_regression() {
        let baseline = tiny();
        let mut pruned = baseline.clone();
        pruned.fpau.rows.pop();
        let cmp = compare(&baseline, &pruned, &Tolerance::default());
        assert!(!cmp.passed());
        assert!(cmp
            .findings
            .iter()
            .any(|f| f.category == "schema-shape" && f.message.contains("FPAU")));
    }

    #[test]
    fn a_missing_section_on_either_side_is_a_schema_shape_regression() {
        let full = tiny();
        let mut partial = full.clone();
        partial.stalls = None;
        for (b, c, side) in [(&full, &partial, "current"), (&partial, &full, "baseline")] {
            let cmp = compare(b, c, &Tolerance::default());
            assert!(!cmp.passed());
            let shape: Vec<_> = cmp
                .findings
                .iter()
                .filter(|f| f.category == "schema-shape")
                .collect();
            assert_eq!(shape.len(), 1, "findings: {:#?}", cmp.findings);
            assert_eq!(shape[0].severity, Severity::Regression);
            assert_eq!(
                shape[0].message,
                format!("{side} artifact has no stalls section")
            );
        }
    }
}
