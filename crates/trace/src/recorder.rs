//! A sink that folds the event stream into [`WindowRecord`]s plus the
//! distributions a sum cannot hold.

use std::fmt;

use fua_isa::{Case, FuClass};

use crate::windowed::module_slot;
use crate::{
    Histogram, Json, Stage, StallReason, SwapKind, ToJson, TraceEvent, TraceSink, WindowRecord,
    WindowedSeries, WindowedSink, MAX_MODULES,
};

/// Upper bounds for per-module switched-bit (inter-arrival Hamming
/// distance) histograms: a 32-bit pair can toggle at most 64 bits, an FP
/// mantissa pair fewer.
const HAM_BOUNDS: [u64; 9] = [0, 1, 2, 4, 8, 16, 24, 32, 64];

/// Upper bounds for the per-cycle instruction-window occupancy histogram.
const WINDOW_BOUNDS: [u64; 8] = [0, 1, 2, 4, 8, 16, 32, 64];

/// Upper bounds for the per-cycle issue-width histogram.
const ISSUE_BOUNDS: [u64; 6] = [0, 1, 2, 3, 4, 8];

/// The `--metrics` snapshot: the run's counters (stage throughput,
/// per-module switching and ops, steering cases, swap, branch, cache
/// and stall counters) plus per-module Hamming-distance,
/// window-occupancy and issue-width histograms.
///
/// The counters are the column sums of a [`WindowedSink`] (one window
/// for a [`new`](MetricsRecorder::new) recorder), so each event goes
/// through [`WindowRecord::record`] once and the per-module switched
/// bits sum exactly to the energy ledger's per-class totals.
///
/// The text and JSON views list the fixed metrics, then per class in
/// [`FuClass::ALL`] order the steering cases (when the class was
/// steered) and each module that latched an operation, ascending.
/// Recorders threaded through several runs, or merged in run order,
/// accumulate, so `cycles` is the number of cycles summarised over all
/// of them.
///
/// # Examples
///
/// ```
/// use fua_isa::{Case, FuClass};
/// use fua_trace::{MetricsRecorder, TraceEvent, TraceSink};
///
/// let mut rec = MetricsRecorder::new();
/// rec.record(&TraceEvent::Energy {
///     cycle: 0, serial: 0, pc: 0, class: FuClass::IntAlu, module: 1, case: Case::C00, bits: 9,
/// });
/// assert_eq!(rec.totals().module_bits[FuClass::IntAlu.index()][1], 9);
/// assert!(rec.to_string().contains("switched_bits.IALU.m1  9"));
/// ```
#[derive(Debug, Clone)]
pub struct MetricsRecorder {
    windows: WindowedSink,
    hamming: [[Histogram; MAX_MODULES]; 4],
    occupancy: Histogram,
    issue_width: Histogram,
}

/// One rendered metric's value.
enum Value<'a> {
    Count(u64),
    Gauge(f64),
    Histogram(&'a Histogram),
}

impl MetricsRecorder {
    /// An empty whole-run recorder: one window spans every cycle.
    pub fn new() -> Self {
        Self::windowed(u64::MAX)
    }

    /// An empty recorder whose counters fold into `window_cycles`-cycle
    /// windows.
    ///
    /// # Panics
    ///
    /// Panics if `window_cycles` is 0.
    pub fn windowed(window_cycles: u64) -> Self {
        MetricsRecorder {
            windows: WindowedSink::new(window_cycles),
            hamming: std::array::from_fn(|_| std::array::from_fn(|_| Histogram::new(&HAM_BOUNDS))),
            occupancy: Histogram::new(&WINDOW_BOUNDS),
            issue_width: Histogram::new(&ISSUE_BOUNDS),
        }
    }

    /// The counters of every event recorded so far: the column sums of
    /// its windows.
    pub fn totals(&self) -> WindowRecord {
        self.windows.total()
    }

    /// The per-window counters recorded so far.
    pub fn series(&self) -> WindowedSeries {
        self.windows.clone().into_series()
    }

    /// Adds `other`'s counters and histograms into this recorder, so
    /// recorders of separate runs merged in run order render exactly as
    /// one recorder threaded through the same runs.
    ///
    /// # Panics
    ///
    /// Panics if the two recorders' window sizes differ.
    pub fn merge(&mut self, other: &MetricsRecorder) {
        self.windows.merge(&other.windows);
        let hamming = other.hamming.iter().flatten();
        for (acc, h) in self.hamming.iter_mut().flatten().zip(hamming) {
            acc.merge(h);
        }
        self.occupancy.merge(&other.occupancy);
        self.issue_width.merge(&other.issue_width);
    }

    /// Every metric, named, in rendering order.
    fn metrics(&self) -> Vec<(String, Value<'_>)> {
        let t = self.totals();
        let mut out: Vec<(String, Value<'_>)> = Stage::ALL
            .iter()
            .map(|&s| {
                (
                    format!("stage.{}", s.name()),
                    Value::Count(t.stages[s as usize]),
                )
            })
            .collect();
        out.push(("cycles".into(), Value::Gauge(t.cycles as f64)));
        out.push(("window.occupancy".into(), Value::Histogram(&self.occupancy)));
        out.push(("issue.width".into(), Value::Histogram(&self.issue_width)));
        for (name, n) in [
            ("branch.executed", t.branches),
            ("branch.mispredicted", t.mispredicts),
            ("cache.hits", t.cache_hits),
            ("cache.misses", t.cache_misses),
        ] {
            out.push((name.into(), Value::Count(n)));
        }
        for kind in [SwapKind::Rule, SwapKind::Policy] {
            out.push((
                format!("swaps.{}", kind.name()),
                Value::Count(t.swaps[kind as usize]),
            ));
        }
        for r in StallReason::ALL {
            out.push((
                format!("stall.{}", r.name()),
                Value::Count(t.stall_slots[r.index()]),
            ));
        }
        for class in FuClass::ALL {
            let c = class.index();
            if t.steer_cases[c].iter().any(|&n| n > 0) {
                for case in Case::ALL {
                    out.push((
                        format!("steer.{class}.case{case}"),
                        Value::Count(t.steer_cases[c][case.index()]),
                    ));
                }
            }
            for m in (0..MAX_MODULES).filter(|&m| t.module_ops[c][m] > 0) {
                out.push((
                    format!("switched_bits.{class}.m{m}"),
                    Value::Count(t.module_bits[c][m]),
                ));
                out.push((
                    format!("ops.{class}.m{m}"),
                    Value::Count(t.module_ops[c][m]),
                ));
                out.push((
                    format!("ham.{class}.m{m}"),
                    Value::Histogram(&self.hamming[c][m]),
                ));
            }
        }
        out
    }
}

impl Default for MetricsRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceSink for MetricsRecorder {
    #[inline]
    fn record(&mut self, event: &TraceEvent) {
        self.windows.record(event);
        match *event {
            TraceEvent::Energy {
                class,
                module,
                bits,
                ..
            } => self.hamming[class.index()][module_slot(module)].observe(bits as u64),
            TraceEvent::CycleSummary { window, issued, .. } => {
                self.occupancy.observe(window as u64);
                self.issue_width.observe(issued as u64);
            }
            _ => {}
        }
    }
}

impl ToJson for MetricsRecorder {
    fn to_json(&self) -> Json {
        Json::Obj(
            self.metrics()
                .into_iter()
                .map(|(name, value)| {
                    let value = match value {
                        Value::Count(v) => Json::UInt(v),
                        Value::Gauge(v) => Json::Float(v),
                        Value::Histogram(h) => h.to_json(),
                    };
                    (name, value)
                })
                .collect(),
        )
    }
}

impl fmt::Display for MetricsRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let metrics = self.metrics();
        let width = metrics.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        for (name, value) in metrics {
            match value {
                Value::Count(v) => writeln!(f, "{name:width$}  {v}")?,
                Value::Gauge(v) => writeln!(f, "{name:width$}  {v:.3}")?,
                Value::Histogram(h) => {
                    write!(f, "{name:width$}  n={} mean={:.2} |", h.count(), h.mean())?;
                    for (le, count) in h.buckets() {
                        match le {
                            Some(b) => write!(f, " ≤{b}:{count}")?,
                            None => write!(f, " inf:{count}")?,
                        }
                    }
                    writeln!(f)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fua_isa::Opcode;

    fn energy(class: FuClass, module: u8, bits: u32) -> TraceEvent {
        TraceEvent::Energy {
            cycle: 1,
            serial: 0,
            pc: 0,
            class,
            module,
            case: Case::C00,
            bits,
        }
    }

    #[test]
    fn energy_events_build_per_module_counters() {
        let mut rec = MetricsRecorder::new();
        for (module, bits) in [(0u8, 5u32), (1, 7), (0, 3)] {
            rec.record(&energy(FuClass::IntAlu, module, bits));
        }
        let t = rec.totals();
        let c = FuClass::IntAlu.index();
        assert_eq!(t.module_bits[c][..2], [8, 7]);
        assert_eq!(t.module_ops[c][..2], [2, 1]);
        assert_eq!(t.switched_bits()[c], 15);
        let ham = &rec.hamming[c][0];
        assert_eq!((ham.count(), ham.sum()), (2, 8));
    }

    #[test]
    fn steer_and_swap_events_count_cases() {
        let mut rec = MetricsRecorder::new();
        rec.record(&TraceEvent::Steer {
            cycle: 0,
            serial: 0,
            class: FuClass::FpAlu,
            case: Case::C01,
            module: 2,
            swap: true,
            cost_bits: 4,
        });
        rec.record(&TraceEvent::OperandSwap {
            cycle: 0,
            serial: 0,
            class: FuClass::FpAlu,
            kind: SwapKind::Policy,
        });
        assert_eq!(
            rec.totals().steer_cases[FuClass::FpAlu.index()],
            [0, 1, 0, 0]
        );
        assert_eq!(rec.totals().swaps[SwapKind::Policy as usize], 1);
        let json = rec.to_json().compact();
        assert!(json.contains("\"steer.FPAU.case00\":0"), "{json}");
        assert!(
            !json.contains("steer.IALU"),
            "an unsteered class is not listed"
        );
    }

    #[test]
    fn stall_events_fill_per_reason_counters() {
        let mut rec = MetricsRecorder::new();
        rec.record(&TraceEvent::Stall {
            cycle: 0,
            class: FuClass::IntAlu,
            reason: StallReason::OperandWait,
            slots: 1,
            pc: Some(4),
            case: None,
        });
        rec.record(&TraceEvent::Stall {
            cycle: 0,
            class: FuClass::FpAlu,
            reason: StallReason::FetchStarved,
            slots: 4,
            pc: None,
            case: None,
        });
        let slots = rec.totals().stall_slots;
        assert_eq!(slots[StallReason::OperandWait.index()], 1);
        assert_eq!(slots[StallReason::FetchStarved.index()], 4);
        assert_eq!(slots[StallReason::Issued.index()], 0);
    }

    #[test]
    fn stage_and_cycle_events_fill_throughput_metrics() {
        let mut rec = MetricsRecorder::new();
        rec.record(&TraceEvent::Stage {
            stage: Stage::Fetch,
            cycle: 0,
            serial: 0,
            opcode: Opcode::Add,
        });
        for cycle in 0..10 {
            rec.record(&TraceEvent::CycleSummary {
                cycle,
                window: 3,
                issued: 2,
            });
        }
        assert_eq!(rec.totals().stages[Stage::Fetch as usize], 1);
        assert_eq!(rec.occupancy.count(), 10);
        assert_eq!(rec.issue_width.sum(), 20);
        let json = rec.to_json().pretty();
        assert!(json.contains("\"cycles\": 10"));
    }

    #[test]
    fn modules_render_in_class_then_module_order() {
        let mut rec = MetricsRecorder::new();
        rec.record(&energy(FuClass::FpAlu, 1, 4));
        rec.record(&energy(FuClass::IntAlu, 0, 2));
        rec.record(&energy(FuClass::FpAlu, 0, 6));
        let text = rec.to_string();
        let names: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("switched_bits."))
            .map(|l| l.split_whitespace().next().unwrap())
            .collect();
        assert_eq!(names, ["IALU.m0", "FPAU.m0", "FPAU.m1"]);
        let json = rec.to_json().compact();
        let at = |key: &str| json.find(key).expect(key);
        assert!(at("\"ham.IALU.m0\"") < at("\"ham.FPAU.m0\""));
        assert!(at("\"ham.FPAU.m0\"") < at("\"ham.FPAU.m1\""));
    }

    fn summary(cycle: u64, window: u32, issued: u32) -> TraceEvent {
        TraceEvent::CycleSummary {
            cycle,
            window,
            issued,
        }
    }

    #[test]
    fn merged_recorders_render_as_one_threaded_recorder() {
        let runs = [
            vec![
                energy(FuClass::IntAlu, 0, 5),
                summary(0, 3, 2),
                energy(FuClass::FpAlu, 1, 4),
            ],
            vec![energy(FuClass::IntAlu, 1, 70), summary(0, 9, 4)],
        ];
        let mut threaded = MetricsRecorder::new();
        let mut merged = MetricsRecorder::new();
        for run in &runs {
            let mut own = MetricsRecorder::new();
            for event in run {
                threaded.record(event);
                own.record(event);
            }
            merged.merge(&own);
        }
        assert_eq!(merged.to_string(), threaded.to_string());
        assert_eq!(merged.to_json(), threaded.to_json());
        assert_eq!(merged.totals().cycles, 2);
        assert_eq!(merged.hamming[FuClass::IntAlu.index()][1].count(), 1);
    }

    #[test]
    fn windowed_counters_total_to_the_whole_run_snapshot() {
        let mut windowed = MetricsRecorder::windowed(10);
        let mut whole = MetricsRecorder::new();
        for event in [
            summary(3, 2, 1),
            energy(FuClass::IntAlu, 0, 6),
            summary(15, 4, 2),
        ] {
            windowed.record(&event);
            whole.record(&event);
        }
        let series = windowed.series();
        assert_eq!(series.len(), 2);
        assert_eq!(series.total(), windowed.totals());
        assert_eq!(whole.series().len(), 1);
        assert_eq!(windowed.to_string(), whole.to_string());
    }

    #[test]
    #[should_panic(expected = "different window sizes")]
    fn recorders_with_different_windows_cannot_merge() {
        MetricsRecorder::new().merge(&MetricsRecorder::windowed(10));
    }
}
