//! Baseline comparison with tolerance bands.
//!
//! [`compare`] diffs a current [`BenchReport`] against a baseline and
//! classifies every difference as [`Severity::Info`] (within band) or
//! [`Severity::Regression`] (actionable). The checks:
//!
//! - **Manifest** — configurations must be comparable; diffing a quick
//!   run against a full run is meaningless and is itself a regression.
//! - **Section presence** — every section the schema requires must be
//!   present on both sides. A report built in memory without one is a
//!   `schema-shape` regression, since that section's checks cannot run.
//! - **Metric drift** — every Figure-4 percentage, headline number and
//!   Table-1/2 aggregate must stay within `metric_pct` points of the
//!   baseline. The model is deterministic, so an identical re-run drifts
//!   by exactly zero.
//! - **Scheme ordering** — the paper's qualitative result is a *shape*:
//!   on the hardware-swap bars, e.g. 8-bit LUT saves more than 2-bit
//!   LUT. The expected order is derived from the baseline itself (not
//!   hardcoded), pairs closer than `ordering_margin_pct` are skipped as
//!   statistical ties, and any surviving inversion is a regression.
//! - **Phase timers** — wall-clock per simulator phase may vary between
//!   machines; only a slowdown beyond `timer_factor` of a phase that
//!   took at least `timer_floor_nanos` in the baseline is flagged.
//! - **Telemetry exactness** — the artifact records whether windowed
//!   sums reproduced the energy ledger; `exact: false` on either side
//!   is a regression regardless of tolerances.
//! - **Attribution exactness & hotspot drift** — likewise for the
//!   energy-attribution digest: an inexact partition is a regression,
//!   and when both artifacts carry the section, every baseline top
//!   hotspot must still rank in the current list with its share of the
//!   suite's switched bits inside the metric band.
//! - **Stall-partition exactness & mix drift** — the cycle-attribution
//!   digest: a stall partition that fails to account exactly
//!   `cycles × issue_width` slots on either side is a hard regression,
//!   and when both artifacts carry the section each stall reason's
//!   share of the suite's issue bandwidth may drift by at most
//!   `metric_pct` points.
//! - **Throughput** — the simulated-rate headline: suite IPC is a
//!   deterministic model metric and is banded relatively by
//!   `metric_pct`; the simulated-MHz figure divides model cycles by
//!   measured wall-clock, so only a slowdown beyond `timer_factor` of
//!   a run whose hot loop took at least `timer_floor_nanos` is
//!   flagged.
//! - **Harness health** — the harness self-observability digest:
//!   worker utilization and allocation pressure are wall-clock
//!   measurements, so they are gated only on a *collapse* — busy
//!   fraction falling below half the baseline (and by more than 0.2
//!   absolute), or allocations per simulated kilocycle exploding past
//!   10× the baseline (and by more than 100 absolute). Two runs with
//!   different worker counts legitimately utilize differently, so
//!   harness sections recording different `jobs` are skipped entirely
//!   (no findings — `fua report` across `--jobs` values must diff to
//!   zero).
//! - **Estimator soundness & precision** — the static switched-bit
//!   estimator's digest: a violated bound (`sound: false`) on either
//!   side is a hard regression regardless of tolerances, and when both
//!   artifacts carry the section each scheme's mean and worst
//!   bound/actual ratios may drift relatively by at most `metric_pct`
//!   percent.

use crate::bench::BenchReport;
use fua_sim::SimPhase;
use fua_trace::StallReason;

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

/// Tolerance bands for [`compare`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Maximum absolute drift, in percentage points, for any reduction
    /// percentage or Table-1/2 aggregate (aggregates are scaled to
    /// percent before banding).
    pub metric_pct: f64,
    /// Scheme pairs whose baseline reductions differ by less than this
    /// are treated as ties and exempt from ordering checks.
    pub ordering_margin_pct: f64,
    /// A phase may take up to this factor of its baseline wall-clock.
    pub timer_factor: f64,
    /// Phases faster than this in the baseline are never timer-checked
    /// (sub-millisecond noise would dominate).
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
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Regression)
            .count()
    }
}

struct Checker<'a> {
    tol: &'a Tolerance,
    findings: Vec<Finding>,
}

impl Checker<'_> {
    fn regression(&mut self, category: &'static str, message: String) {
        self.findings.push(Finding {
            severity: Severity::Regression,
            category,
            message,
        });
    }

    fn info(&mut self, category: &'static str, message: String) {
        self.findings.push(Finding {
            severity: Severity::Info,
            category,
            message,
        });
    }

    /// Bands an absolute drift in percentage points.
    fn metric(&mut self, name: &str, baseline: f64, current: f64) {
        let drift = (current - baseline).abs();
        if drift > self.tol.metric_pct {
            self.regression(
                "metric-drift",
                format!(
                    "{name}: {current:.3} vs baseline {baseline:.3} \
                     (drift {drift:.3} pts > {:.3})",
                    self.tol.metric_pct
                ),
            );
        } else if drift > 0.0 {
            self.info(
                "metric-drift",
                format!("{name}: {current:.3} vs baseline {baseline:.3} (within band)"),
            );
        }
    }
}

fn check_unit(
    chk: &mut Checker<'_>,
    unit: &str,
    baseline: &crate::UnitFigure,
    current: &crate::UnitFigure,
) {
    // Row-by-row drift. The row set itself is part of the schema shape:
    // a missing or renamed scheme is a structural regression.
    for brow in &baseline.rows {
        let Some(crow) = current.row(&brow.scheme) else {
            chk.regression(
                "schema-shape",
                format!(
                    "{unit}: scheme \"{}\" missing from current run",
                    brow.scheme
                ),
            );
            continue;
        };
        for (metric, b, c) in [
            ("base", brow.base_pct, crow.base_pct),
            ("hw", brow.hardware_pct, crow.hardware_pct),
            (
                "hw+comp",
                brow.hardware_compiler_pct,
                crow.hardware_compiler_pct,
            ),
            ("comp", brow.compiler_only_pct, crow.compiler_only_pct),
        ] {
            chk.metric(&format!("{unit} {} {metric}", brow.scheme), b, c);
        }
    }
    for crow in &current.rows {
        if baseline.row(&crow.scheme).is_none() {
            chk.regression(
                "schema-shape",
                format!("{unit}: scheme \"{}\" absent from baseline", crow.scheme),
            );
        }
    }

    // Ordering: derive the expected ranking from the baseline's
    // hardware-swap column and require the current run to preserve it
    // for every pair the baseline separates by more than the margin.
    for (i, a) in baseline.rows.iter().enumerate() {
        for b in baseline.rows.iter().skip(i + 1) {
            let gap = a.hardware_pct - b.hardware_pct;
            if gap.abs() <= chk.tol.ordering_margin_pct {
                continue; // tie in the baseline; no order to preserve
            }
            let (hi, lo) = if gap > 0.0 { (a, b) } else { (b, a) };
            let (Some(chi), Some(clo)) = (current.row(&hi.scheme), current.row(&lo.scheme)) else {
                continue; // already reported as schema-shape above
            };
            if chi.hardware_pct < clo.hardware_pct {
                chk.regression(
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

fn check_distribution(chk: &mut Checker<'_>, name: &str, baseline: &[f64], current: &[f64]) {
    if baseline.len() != current.len() {
        chk.regression(
            "schema-shape",
            format!(
                "{name}: {} entries vs baseline {}",
                current.len(),
                baseline.len()
            ),
        );
        return;
    }
    for (k, (b, c)) in baseline.iter().zip(current).enumerate() {
        // Occupancy distributions are fractions; band them in percent
        // like every other metric.
        chk.metric(&format!("{name} P(k={})", k + 1), b * 100.0, c * 100.0);
    }
}

/// Diffs `current` against `baseline` under `tol`.
pub fn compare(baseline: &BenchReport, current: &BenchReport, tol: &Tolerance) -> Comparison {
    let mut chk = Checker {
        tol,
        findings: Vec::new(),
    };

    if !baseline.manifest.comparable_with(&current.manifest) {
        chk.regression(
            "manifest",
            format!(
                "configurations differ (baseline tag \"{}\", current tag \"{}\"); \
                 a diff across configurations is not meaningful",
                baseline.manifest.tag, current.manifest.tag
            ),
        );
        // Metric diffs against a different configuration would be pure
        // noise — stop here.
        chk.findings
            .sort_by_key(|f| f.severity != Severity::Regression);
        return Comparison {
            findings: chk.findings,
        };
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
            chk.regression(
                "schema-shape",
                format!("{side} artifact has no {section} section"),
            );
        }
    }

    check_unit(&mut chk, "IALU", &baseline.ialu, &current.ialu);
    check_unit(&mut chk, "FPAU", &baseline.fpau, &current.fpau);

    chk.metric(
        "headline IALU",
        baseline.headline_ialu_pct,
        current.headline_ialu_pct,
    );
    chk.metric(
        "headline FPAU",
        baseline.headline_fpau_pct,
        current.headline_fpau_pct,
    );
    chk.metric(
        "headline IALU+compiler",
        baseline.headline_ialu_compiler_pct,
        current.headline_ialu_compiler_pct,
    );

    for (name, b, c) in [
        (
            "table1 IALU ones|info0",
            baseline.operands.ialu_ones_frac_info0,
            current.operands.ialu_ones_frac_info0,
        ),
        (
            "table1 IALU ones|info1",
            baseline.operands.ialu_ones_frac_info1,
            current.operands.ialu_ones_frac_info1,
        ),
        (
            "table1 FPAU P(info=0)",
            baseline.operands.fpau_info0_fraction,
            current.operands.fpau_info0_fraction,
        ),
        (
            "table1 FPAU ones|info0",
            baseline.operands.fpau_ones_frac_info0,
            current.operands.fpau_ones_frac_info0,
        ),
    ] {
        // Fractions → percent before banding.
        chk.metric(name, b * 100.0, c * 100.0);
    }

    check_distribution(
        &mut chk,
        "table2 IALU",
        &baseline.ialu_occupancy,
        &current.ialu_occupancy,
    );
    check_distribution(
        &mut chk,
        "table2 FPAU",
        &baseline.fpau_occupancy,
        &current.fpau_occupancy,
    );

    for phase in SimPhase::ALL {
        let b = baseline.phase_nanos.of(phase);
        let c = current.phase_nanos.of(phase);
        if b < tol.timer_floor_nanos {
            continue;
        }
        let factor = c as f64 / b as f64;
        if factor > tol.timer_factor {
            chk.regression(
                "phase-timer",
                format!(
                    "{} phase took {:.1}x baseline ({} ns vs {} ns, limit {:.0}x)",
                    phase.name(),
                    factor,
                    c,
                    b,
                    tol.timer_factor
                ),
            );
        }
    }

    // Simulated-rate headline: IPC is pure model arithmetic (cycles and
    // retired instructions are deterministic), so it is banded like the
    // estimator ratios; the MHz figure divides by measured wall-clock,
    // so — exactly like the phase timers — only a gross slowdown of a
    // non-trivial run is gated.
    if let (Some(b), Some(c)) = (&baseline.throughput, &current.throughput) {
        let (bi, ci) = (b.ipc(), c.ipc());
        let drift_pct = if bi == 0.0 {
            0.0
        } else {
            100.0 * (ci / bi - 1.0).abs()
        };
        if drift_pct > tol.metric_pct {
            chk.regression(
                "throughput-ipc",
                format!(
                    "suite IPC {ci:.4} vs baseline {bi:.4} \
                     (drift {drift_pct:.3}% > {:.3}%)",
                    tol.metric_pct
                ),
            );
        } else if drift_pct > 0.0 {
            chk.info(
                "throughput-ipc",
                format!("suite IPC {ci:.4} vs baseline {bi:.4} (within band)"),
            );
        }
        if b.hot_nanos >= tol.timer_floor_nanos && c.sim_khz() > 0.0 {
            let factor = b.sim_khz() / c.sim_khz();
            if factor > tol.timer_factor {
                chk.regression(
                    "sim-rate",
                    format!(
                        "simulated rate fell to {:.3} MHz from {:.3} MHz \
                         ({factor:.1}x slower, limit {:.0}x)",
                        c.sim_mhz(),
                        b.sim_mhz(),
                        tol.timer_factor
                    ),
                );
            }
        }
    }

    for (side, report) in [("baseline", baseline), ("current", current)] {
        if !report.telemetry.exact {
            chk.regression(
                "telemetry-exactness",
                format!("{side} artifact records inexact windowed telemetry sums"),
            );
        }
        if let Some(a) = &report.attribution {
            if !a.exact {
                chk.regression(
                    "attribution-exactness",
                    format!("{side} artifact records an inexact energy-attribution partition"),
                );
            }
        }
        if let Some(s) = &report.stalls {
            if !s.exact {
                chk.regression(
                    "stall-exactness",
                    format!(
                        "{side} artifact records an inexact stall partition \
                         ({} slots accounted, {} cycles x {} issue slots expected)",
                        s.slots, s.cycles, s.issue_width
                    ),
                );
            }
        }
        if let Some(e) = &report.estimator {
            for entry in &e.entries {
                if !entry.sound {
                    chk.regression(
                        "estimator-soundness",
                        format!(
                            "{side} artifact records a violated static bound under \
                             scheme \"{}\" (worst block {})",
                            entry.scheme, entry.worst_block
                        ),
                    );
                }
            }
        }
    }

    // Hotspot drift: the energy-attribution digest names the suite's
    // hottest PCs; a hotspot vanishing from the top list, or its share
    // of the suite's switched bits drifting past the metric band, means
    // the *location* of the energy changed even if the totals did not.
    if let (Some(b), Some(c)) = (&baseline.attribution, &current.attribution) {
        for bh in &b.top_hotspots {
            let found = c
                .top_hotspots
                .iter()
                .find(|ch| ch.workload == bh.workload && ch.pc == bh.pc);
            match found {
                None => chk.regression(
                    "hotspot-drift",
                    format!(
                        "hotspot {} pc{} ({:.3}% of suite bits in baseline) \
                         left the current top-{} list",
                        bh.workload,
                        bh.pc,
                        bh.share_pct,
                        c.top_hotspots.len()
                    ),
                ),
                Some(ch) => {
                    let drift = (ch.share_pct - bh.share_pct).abs();
                    if drift > tol.metric_pct {
                        chk.regression(
                            "hotspot-drift",
                            format!(
                                "hotspot {} pc{}: {:.3}% of suite bits vs baseline \
                                 {:.3}% (drift {drift:.3} pts > {:.3})",
                                bh.workload, bh.pc, ch.share_pct, bh.share_pct, tol.metric_pct
                            ),
                        );
                    } else if drift > 0.0 {
                        chk.info(
                            "hotspot-drift",
                            format!(
                                "hotspot {} pc{}: {:.3}% of suite bits vs baseline \
                                 {:.3}% (within band)",
                                bh.workload, bh.pc, ch.share_pct, bh.share_pct
                            ),
                        );
                    }
                }
            }
        }
    }

    // Stall-mix drift: the cycle partition says where the machine's
    // issue bandwidth went; each reason's share of the total slots is a
    // deterministic model metric, banded like every other percentage.
    if let (Some(b), Some(c)) = (&baseline.stalls, &current.stalls) {
        let (b_total, c_total) = (b.slots, c.slots);
        for reason in StallReason::ALL {
            let share = |mix: &[u64; 8], total: u64| {
                if total == 0 {
                    0.0
                } else {
                    100.0 * mix[reason.index()] as f64 / total as f64
                }
            };
            chk.metric(
                &format!("stall-mix {}", reason.name()),
                share(&b.mix, b_total),
                share(&c.mix, c_total),
            );
        }
    }

    // Estimator precision drift: the bounds are pure model arithmetic,
    // so an identical re-run drifts by exactly zero; a looser (or
    // suspiciously tighter) ratio means the abstract domain or the
    // power model changed underneath the estimator.
    if let (Some(b), Some(c)) = (&baseline.estimator, &current.estimator) {
        for be in &b.entries {
            let Some(ce) = c.entries.iter().find(|ce| ce.scheme == be.scheme) else {
                chk.regression(
                    "estimator-precision",
                    format!(
                        "scheme \"{}\" missing from the current estimator digest",
                        be.scheme
                    ),
                );
                continue;
            };
            for (metric, bv, cv) in [
                ("mean", be.mean_ratio, ce.mean_ratio),
                ("worst-block", be.worst_ratio, ce.worst_ratio),
            ] {
                let drift_pct = if bv == 0.0 {
                    0.0
                } else {
                    100.0 * (cv / bv - 1.0).abs()
                };
                if drift_pct > tol.metric_pct {
                    chk.regression(
                        "estimator-precision",
                        format!(
                            "scheme \"{}\" {metric} bound/actual ratio {cv:.3} vs \
                             baseline {bv:.3} (drift {drift_pct:.3}% > {:.3}%)",
                            be.scheme, tol.metric_pct
                        ),
                    );
                } else if drift_pct > 0.0 {
                    chk.info(
                        "estimator-precision",
                        format!(
                            "scheme \"{}\" {metric} bound/actual ratio {cv:.3} vs \
                             baseline {bv:.3} (within band)",
                            be.scheme
                        ),
                    );
                }
            }
        }
    }

    // Harness health: utilization and allocation pressure are measured,
    // not modelled, so only a collapse is actionable — and only between
    // runs with the same worker count. Different `jobs` values utilize
    // the pool differently by construction, so those pairs are skipped
    // without even an Info finding (artifact diffs across `--jobs` must
    // come out empty).
    match (&baseline.harness, &current.harness) {
        (Some(b), Some(c)) if b.jobs == c.jobs => {
            let dropped = b.busy_fraction - c.busy_fraction;
            if c.busy_fraction < b.busy_fraction * 0.5 && dropped > 0.2 {
                chk.regression(
                    "harness-utilization",
                    format!(
                        "worker busy fraction collapsed to {:.3} from baseline {:.3} \
                         on {} worker(s)",
                        c.busy_fraction, b.busy_fraction, c.jobs
                    ),
                );
            } else if (c.busy_fraction - b.busy_fraction).abs() > 0.05 {
                // Below the floor the difference is scheduler jitter two
                // honest runs always exhibit; reporting it would keep any
                // same-config pair from ever diffing to zero findings.
                chk.info(
                    "harness-utilization",
                    format!(
                        "worker busy fraction {:.3} vs baseline {:.3} (measurement noise)",
                        c.busy_fraction, b.busy_fraction
                    ),
                );
            }
            if (c.imbalance - b.imbalance).abs() > 0.05 {
                chk.info(
                    "harness-imbalance",
                    format!(
                        "load imbalance {:.2} vs baseline {:.2} (measurement noise)",
                        c.imbalance, b.imbalance
                    ),
                );
            }
            match (b.allocs_per_kcycle, c.allocs_per_kcycle) {
                (Some(bv), Some(cv)) => {
                    if cv > bv * 10.0 && cv - bv > 100.0 {
                        chk.regression(
                            "harness-allocs",
                            format!(
                                "allocations per simulated kilocycle exploded to {cv:.1} \
                                 from baseline {bv:.1}"
                            ),
                        );
                    } else if (cv - bv).abs() > 0.05 * bv.abs().max(1.0) {
                        chk.info(
                            "harness-allocs",
                            format!("allocs per kilocycle {cv:.1} vs baseline {bv:.1}"),
                        );
                    }
                }
                (Some(_), None) => chk.info(
                    "harness-allocs",
                    "current artifact has no allocation figure \
                     (counting allocator not installed)"
                        .to_string(),
                ),
                (None, Some(_)) => chk.info(
                    "harness-allocs",
                    "baseline artifact has no allocation figure \
                     (counting allocator not installed)"
                        .to_string(),
                ),
                (None, None) => {}
            }
        }
        // Different worker counts: nothing comparable, deliberately
        // silent (see the module doc). A missing section was already
        // reported as a schema-shape regression.
        _ => {}
    }

    chk.findings
        .sort_by_key(|f| f.severity != Severity::Regression);
    Comparison {
        findings: chk.findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::bench_suite;
    use fua_core::ExperimentConfig;

    fn tiny() -> crate::BenchReport {
        let config = ExperimentConfig {
            inst_limit: 1_500,
            ..ExperimentConfig::quick()
        };
        bench_suite("tiny", &config, 512)
    }

    #[test]
    fn identical_rerun_passes_the_gate() {
        let baseline = tiny();
        let current = tiny();
        let cmp = compare(&baseline, &current, &Tolerance::default());
        assert!(cmp.passed(), "findings: {:#?}", cmp.findings);
        // Determinism means zero drift — not even Info findings on
        // the model metrics (timers are only checked for slowdown).
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
        let baseline = tiny();
        let mut slow = baseline.clone();
        // Every phase 30x slower than a baseline comfortably above the
        // floor: flagged.
        for slot in &mut slow.phase_nanos.0 {
            *slot = 300_000_000;
        }
        let mut base = baseline.clone();
        for slot in &mut base.phase_nanos.0 {
            *slot = 10_000_000;
        }
        let cmp = compare(&base, &slow, &Tolerance::default());
        assert!(cmp
            .findings
            .iter()
            .any(|f| f.category == "phase-timer" && f.severity == Severity::Regression));

        // Below the floor the same factor is ignored.
        for slot in &mut base.phase_nanos.0 {
            *slot = 100;
        }
        for slot in &mut slow.phase_nanos.0 {
            *slot = 3_000;
        }
        let cmp = compare(&base, &slow, &Tolerance::default());
        assert!(
            !cmp.findings.iter().any(|f| f.category == "phase-timer"),
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
                && f.message.contains("stall-mix")
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
        let cmp = compare(&baseline, &loose, &Tolerance::default());
        assert!(!cmp.passed());
        assert!(cmp.findings.iter().any(|f| {
            f.category == "estimator-precision"
                && f.severity == Severity::Regression
                && f.message.contains("mean")
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

        // An ordinary dip is measurement noise: informational only.
        let mut noisy = base.clone();
        noisy.harness.as_mut().unwrap().busy_fraction = 0.7;
        let cmp = compare(&base, &noisy, &Tolerance::default());
        assert!(cmp.passed(), "findings: {:#?}", cmp.findings);
        assert!(cmp
            .findings
            .iter()
            .any(|f| f.category == "harness-utilization" && f.severity == Severity::Info));
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
