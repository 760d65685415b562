//! The gate catalogue: every metric [`compare`](crate::compare) and
//! [`trends`](crate::trends) band, and the one rule that bands them.
//!
//! Both gates ask the same question of each number — did it leave its
//! band around a reference? — and differ only in the reference:
//! `compare` bands the current artifact against the baseline's value,
//! `trends` bands each point against the rolling median of its
//! predecessors. So the policy is decided here once. [`catalogue`]
//! lists each banded metric (its name, its `compare` category, its
//! [`BandKind`] and an extractor), and [`band`] decides in or out of
//! band for each kind. A new banded BENCH field needs one catalogue
//! line, and both gates then check it.
//!
//! An extractor returns `None` for a *hole*: a scheme row, Table-2
//! level, estimator scheme or hotspot the artifact lacks, a rate pass
//! under `timer_floor_nanos`, or a run without the counting allocator.
//! A hole is never a finding; `compare`'s structural checks report what
//! went missing.

use crate::bench::{BenchReport, EstimatorEntry, OperandAggregates, ThroughputSummary, UnitFigure};
use crate::compare::Tolerance;
use fua_core::Figure4Row;
use fua_trace::StallReason;

/// An [`BandKind::Inflation`] metric is out of band only past this
/// factor of its reference...
const INFLATION_FACTOR: f64 = 10.0;

/// ...and only when it grew by more than this much in absolute terms.
const INFLATION_FLOOR: f64 = 100.0;

/// How a metric is banded against its reference value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BandKind {
    /// Absolute drift in percentage points, limited by `metric_pct`:
    /// reductions and shares already on a 0–100 scale.
    Points,
    /// Relative drift in percent of the reference, limited by
    /// `metric_pct`: dimensionless ratios. Moving off a zero reference
    /// is out of band.
    RelativePct,
    /// Slowdown-only on a measured rate, where higher is better: out of
    /// band when the reference is more than `timer_factor` times the
    /// value.
    WallClock,
    /// Growth-only on a measured cost: out of band when the value is
    /// more than 10× the reference and more than 100 above it.
    Inflation,
}

impl BandKind {
    /// `value`'s drift from `reference` in this kind's unit (points,
    /// percent, or a slowdown or growth factor), and whether that drift
    /// is out of band.
    fn drift(self, value: f64, reference: f64, tol: &Tolerance) -> (f64, bool) {
        match self {
            BandKind::Points => {
                let drift = (value - reference).abs();
                (drift, drift > tol.metric_pct)
            }
            BandKind::RelativePct => {
                let drift = if reference.abs() >= 1e-12 {
                    (value - reference).abs() / reference.abs() * 100.0
                } else if (value - reference).abs() < 1e-12 {
                    0.0
                } else {
                    f64::INFINITY
                };
                (drift, drift > tol.metric_pct)
            }
            BandKind::WallClock => {
                if reference <= 0.0 || value <= 0.0 {
                    return (1.0, false);
                }
                let factor = reference / value;
                (factor, factor > tol.timer_factor)
            }
            BandKind::Inflation => (
                value / reference,
                value > reference * INFLATION_FACTOR && value - reference > INFLATION_FLOOR,
            ),
        }
    }
}

/// Where a value sits against its reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// In band, and nothing worth a note: unchanged, or a measured
    /// rate or cost that moved by noise.
    Quiet,
    /// A deterministic model metric (a point or relative band) that
    /// moved but stayed in band.
    Within,
    /// Out of band.
    Out,
}

/// The band rule both gates apply: where `value` sits against
/// `reference` under `kind`.
pub(crate) fn band(kind: BandKind, value: f64, reference: f64, tol: &Tolerance) -> Verdict {
    let model = matches!(kind, BandKind::Points | BandKind::RelativePct);
    if kind.drift(value, reference, tol).1 {
        Verdict::Out
    } else if model && value != reference {
        Verdict::Within
    } else {
        Verdict::Quiet
    }
}

/// Says how `value` sits against `reference` under `kind`; `against`
/// names the reference ("baseline", "rolling median").
pub(crate) fn describe(
    kind: BandKind,
    value: f64,
    reference: f64,
    against: &str,
    tol: &Tolerance,
) -> String {
    use BandKind::*;
    let (drift, out) = kind.drift(value, reference, tol);
    let why = match kind {
        _ if !out => "within band".to_string(),
        Points => format!("drift {drift:.3} pts > {:.3}", tol.metric_pct),
        RelativePct => format!("drift {drift:.3}% > {:.3}%", tol.metric_pct),
        WallClock => format!("{drift:.1}x slower, limit {:.0}x", tol.timer_factor),
        Inflation => {
            format!("{drift:.1}x growth, limit {INFLATION_FACTOR:.0}x and +{INFLATION_FLOOR:.0}")
        }
    };
    let digits = match kind {
        RelativePct => 4,
        Inflation => 1,
        _ => 3,
    };
    format!("{value:.digits$} vs {against} {reference:.digits$} ({why})")
}

/// Pulls one metric out of an artifact; `None` is a hole.
type Extract = Box<dyn Fn(&BenchReport) -> Option<f64>>;

/// A named float field of `T`.
type Field<T> = (&'static str, fn(&T) -> f64);

/// A named part of an artifact.
type Part<T> = (&'static str, fn(&BenchReport) -> &T);

/// One banded metric.
pub(crate) struct Metric {
    /// The message prefix of its findings in `compare` and `trends`.
    pub name: String,
    /// The `compare` finding category.
    pub category: &'static str,
    /// How the metric is banded.
    pub kind: BandKind,
    /// Reads the metric from an artifact.
    pub extract: Extract,
}

/// Every banded metric. Per-key entries (scheme rows, Table-2 levels,
/// estimator schemes, hotspots) follow `shape`: the baseline for
/// `compare`, the newest point for `trends`.
pub(crate) fn catalogue(shape: &BenchReport, tol: &Tolerance) -> Vec<Metric> {
    use BandKind::*;
    let mut metrics = Vec::new();
    let mut push = |name: String, category, kind, extract: Extract| {
        metrics.push(Metric {
            name,
            category,
            kind,
            extract,
        })
    };
    let floor = tol.timer_floor_nanos;

    let headlines: [Field<BenchReport>; 3] = [
        ("IALU", |r| r.headline_ialu_pct),
        ("FPAU", |r| r.headline_fpau_pct),
        ("IALU+compiler", |r| r.headline_ialu_compiler_pct),
    ];
    for (unit, pick) in headlines {
        push(
            format!("headline {unit} %"),
            "metric-drift",
            Points,
            Box::new(move |r| Some(pick(r))),
        );
    }

    // Figure 4: every column of every scheme row, per unit.
    let units: [Part<UnitFigure>; 2] = [("IALU", |r| &r.ialu), ("FPAU", |r| &r.fpau)];
    let columns: [Field<Figure4Row>; 4] = [
        ("base", |row| row.base_pct),
        ("hw", |row| row.hardware_pct),
        ("hw+comp", |row| row.hardware_compiler_pct),
        ("comp", |row| row.compiler_only_pct),
    ];
    for (unit, figure) in units {
        for (column, pick) in columns {
            for row in &figure(shape).rows {
                let scheme = row.scheme.clone();
                push(
                    format!("{unit} {scheme} {column} %"),
                    "metric-drift",
                    Points,
                    Box::new(move |r| figure(r).row(&scheme).map(pick)),
                );
            }
        }
    }

    // Tables 1 and 2 record fractions; band them in percent.
    let table1: [Field<OperandAggregates>; 4] = [
        ("IALU ones|info0", |o| o.ialu_ones_frac_info0),
        ("IALU ones|info1", |o| o.ialu_ones_frac_info1),
        ("FPAU P(info=0)", |o| o.fpau_info0_fraction),
        ("FPAU ones|info0", |o| o.fpau_ones_frac_info0),
    ];
    for (name, pick) in table1 {
        push(
            format!("table1 {name} %"),
            "metric-drift",
            Points,
            Box::new(move |r| Some(pick(&r.operands) * 100.0)),
        );
    }
    let table2: [Part<[f64]>; 2] = [
        ("IALU", |r| &r.ialu_occupancy),
        ("FPAU", |r| &r.fpau_occupancy),
    ];
    for (unit, occupancy) in table2 {
        for k in 0..occupancy(shape).len() {
            push(
                format!("table2 {unit} P(k={}) %", k + 1),
                "metric-drift",
                Points,
                Box::new(move |r| occupancy(r).get(k).map(|p| p * 100.0)),
            );
        }
    }

    // Throughput: IPC is a deterministic model ratio; the simulated
    // rates divide by the rate pass's wall-clock.
    push(
        "suite IPC".into(),
        "throughput-ipc",
        RelativePct,
        Box::new(|r| r.throughput.as_ref().map(|t| t.ipc())),
    );
    let rates: [Field<ThroughputSummary>; 2] =
        [("sim MHz", |t| t.sim_mhz()), ("sim kinst/s", |t| t.kips())];
    for (name, rate) in rates {
        push(
            name.into(),
            "sim-rate",
            WallClock,
            Box::new(move |r| {
                let t = r.throughput.as_ref()?;
                (t.hot_nanos >= floor).then(|| rate(t))
            }),
        );
    }

    // Stall mix, as each reason's share of all issue slots.
    for reason in StallReason::ALL {
        push(
            format!("stall {} share %", reason.name()),
            "metric-drift",
            Points,
            Box::new(move |r| {
                let s = r.stalls.as_ref().filter(|s| s.slots > 0)?;
                Some(s.mix[reason.index()] as f64 / s.slots as f64 * 100.0)
            }),
        );
    }

    // Estimator precision: bound/actual ratios per scheme.
    let ratios: [Field<EstimatorEntry>; 2] = [
        ("ratio", |e| e.mean_ratio),
        ("worst-block ratio", |e| e.worst_ratio),
    ];
    for (ratio, pick) in ratios {
        for entry in shape.estimator.iter().flat_map(|e| &e.entries) {
            let scheme = entry.scheme.clone();
            push(
                format!("estimator {scheme} {ratio}"),
                "estimator-precision",
                RelativePct,
                Box::new(move |r| {
                    let entries = &r.estimator.as_ref()?.entries;
                    entries.iter().find(|e| e.scheme == scheme).map(pick)
                }),
            );
        }
    }

    push(
        "harness allocs/kcycle".into(),
        "harness-allocs",
        Inflation,
        Box::new(|r| r.harness.as_ref()?.allocs_per_kcycle),
    );

    // Where the energy goes: how top-heavy the profile is, and each
    // recorded hotspot's own share.
    push(
        "hotspot top-1 share %".into(),
        "hotspot-drift",
        Points,
        Box::new(|r| Some(r.attribution.as_ref()?.top_hotspots.first()?.share_pct)),
    );
    push(
        "hotspot top-10 share %".into(),
        "hotspot-drift",
        Points,
        Box::new(|r| {
            let spots = &r.attribution.as_ref()?.top_hotspots;
            Some(spots.iter().map(|h| h.share_pct).sum())
        }),
    );
    for spot in shape.attribution.iter().flat_map(|a| &a.top_hotspots) {
        let (workload, pc) = (spot.workload.clone(), spot.pc);
        push(
            format!("hotspot {workload} pc{pc} share %"),
            "hotspot-drift",
            Points,
            Box::new(move |r| {
                let mut spots = r.attribution.as_ref()?.top_hotspots.iter();
                Some(
                    spots
                        .find(|h| h.workload == workload && h.pc == pc)?
                        .share_pct,
                )
            }),
        );
    }

    metrics
}

#[cfg(test)]
mod tests {
    use super::{band, catalogue, BandKind, Verdict};
    use crate::bench::{bench_suite_jobs, BenchReport};
    use crate::{compare, trends, Tolerance};
    use fua_core::ExperimentConfig;
    use fua_exec::Jobs;
    use fua_trace::StallReason;

    /// A tiny suite run with its rate pass above the timer floor and an
    /// allocation figure, so that no banded metric is a hole.
    fn clean() -> BenchReport {
        let config = ExperimentConfig {
            inst_limit: 1_500,
            ..ExperimentConfig::quick()
        };
        let mut r = bench_suite_jobs("tiny", &config, 512, Jobs::serial());
        r.throughput.as_mut().unwrap().hot_nanos = 10_000_000;
        r.harness.as_mut().unwrap().allocs_per_kcycle = Some(5.0);
        r
    }

    #[test]
    fn every_catalogue_metric_reads_a_value_from_a_clean_run() {
        // A `None` is a hole, which neither gate bands: an extractor
        // that broke would silently stop gating its metric.
        let clean = clean();
        let holes: Vec<String> = catalogue(&clean, &Tolerance::default())
            .into_iter()
            .filter(|m| (m.extract)(&clean).is_none())
            .map(|m| m.name)
            .collect();
        assert!(holes.is_empty(), "holes: {holes:?}");
    }

    #[test]
    fn compare_and_trends_agree_on_every_seeded_drift() {
        let clean = clean();
        let tol = Tolerance::default();
        let history = |newest: &BenchReport| {
            let mut points = vec![
                ("a".to_string(), clean.clone()),
                ("b".to_string(), clean.clone()),
            ];
            points.push(("c".to_string(), newest.clone()));
            points
        };
        assert!(compare(&clean, &clean, &tol).findings.is_empty());
        assert!(trends(&history(&clean), &tol).unwrap().findings.is_empty());

        type Mutation = (&'static str, fn(&mut BenchReport));
        let mutations: [Mutation; 14] = [
            ("headline IALU +5 points", |r| r.headline_ialu_pct += 5.0),
            ("IALU hw ordering inverted", |r| {
                let hw = |r: &BenchReport, i: usize| r.ialu.rows[i].hardware_pct;
                let rows = 0..r.ialu.rows.len();
                let lo = rows.clone().min_by(|&a, &b| hw(r, a).total_cmp(&hw(r, b)));
                let hi = rows.max_by(|&a, &b| hw(r, a).total_cmp(&hw(r, b)));
                let (lo, hi) = (lo.unwrap(), hi.unwrap());
                let (lo_pct, hi_pct) = (hw(r, lo), hw(r, hi));
                r.ialu.rows[lo].hardware_pct = hi_pct;
                r.ialu.rows[hi].hardware_pct = lo_pct;
            }),
            ("one hw+comp column +5 points", |r| {
                r.fpau.rows[0].hardware_compiler_pct += 5.0
            }),
            ("a Table-1 fraction +0.05", |r| {
                r.operands.ialu_ones_frac_info1 += 0.05
            }),
            ("Table-2 IALU P(k=1) -20 points", |r| {
                r.ialu_occupancy[0] -= 0.2
            }),
            ("suite IPC +10%", |r| {
                let t = r.throughput.as_mut().unwrap();
                t.instructions += t.instructions / 10;
            }),
            ("simulated rate 30x slower", |r| {
                r.throughput.as_mut().unwrap().hot_nanos = 300_000_000
            }),
            ("10% of slots moved from issued to operand-wait", |r| {
                let s = r.stalls.as_mut().unwrap();
                let moved = s.slots / 10;
                s.mix[StallReason::Issued.index()] -= moved;
                s.mix[StallReason::OperandWait.index()] += moved;
            }),
            ("estimator mean ratio x1.25", |r| {
                r.estimator.as_mut().unwrap().entries[0].mean_ratio *= 1.25
            }),
            ("estimator worst_ratio x4", |r| {
                r.estimator.as_mut().unwrap().entries[0].worst_ratio *= 4.0
            }),
            ("top hotspot share +5 points", |r| {
                r.attribution.as_mut().unwrap().top_hotspots[0].share_pct += 5.0
            }),
            ("every top-10 hotspot share +0.7 points", |r| {
                for h in &mut r.attribution.as_mut().unwrap().top_hotspots {
                    h.share_pct += 0.7;
                }
            }),
            ("allocations 5 -> 5000 per kilocycle", |r| {
                r.harness.as_mut().unwrap().allocs_per_kcycle = Some(5_000.0)
            }),
            ("IALU P(k=1) -20 points, P(k=2) +20 points", |r| {
                r.ialu_occupancy[0] -= 0.2;
                r.ialu_occupancy[1] += 0.2;
            }),
        ];
        for (name, mutate) in mutations {
            let mut mutated = clean.clone();
            mutate(&mut mutated);
            let pairwise = compare(&clean, &mutated, &tol);
            let trend = trends(&history(&mutated), &tol).unwrap();
            assert_eq!(
                pairwise.passed(),
                trend.passed(),
                "{name}: compare {:#?}\ntrends {:#?}",
                pairwise.findings,
                trend.findings
            );
            assert!(!pairwise.passed(), "{name} passed both gates");
        }
    }

    #[test]
    fn the_band_rule_reconciles_both_gates() {
        let tol = Tolerance::default();
        let verdict = |kind, value, reference| band(kind, value, reference, &tol);
        // A ratio moving off zero is out of band; staying there is not.
        assert_eq!(verdict(BandKind::RelativePct, 0.1, 0.0), Verdict::Out);
        assert_eq!(verdict(BandKind::RelativePct, 0.0, 0.0), Verdict::Quiet);
        assert_eq!(verdict(BandKind::RelativePct, 1.005, 1.0), Verdict::Within);
        // Allocation growth: past 10x *and* by more than 100.
        assert_eq!(verdict(BandKind::Inflation, 5_000.0, 5.0), Verdict::Out);
        assert_eq!(verdict(BandKind::Inflation, 90.0, 5.0), Verdict::Quiet);
        assert_eq!(verdict(BandKind::Inflation, 1_500.0, 100.0), Verdict::Out);
        // Rates only gate a slowdown past the factor.
        assert_eq!(verdict(BandKind::WallClock, 0.1, 3.0), Verdict::Out);
        assert_eq!(verdict(BandKind::WallClock, 300.0, 3.0), Verdict::Quiet);
        assert_eq!(verdict(BandKind::Points, 10.7, 10.0), Verdict::Within);
        assert_eq!(verdict(BandKind::Points, 10.8, 10.0), Verdict::Out);
    }
}
