//! Interval telemetry: per-K-cycle snapshots of the event stream.
//!
//! End-of-run aggregates hide phase behaviour — a steering policy that
//! wins on average can still lose badly during a pointer-chasing phase.
//! [`WindowedSink`] buckets every event into fixed windows of `K` cycles
//! and accumulates per-window deltas: switched bits per class and per
//! module, operation counts, steering-case mix, swap counts, retired/
//! issued instructions, window occupancy, cache and branch outcomes.
//!
//! The sink is **exact, not sampled**: every [`TraceEvent::Energy`]
//! charge lands in exactly one window (by its stamped cycle), so summing
//! any column over all windows reproduces the run total bit-for-bit.
//! That invariant is what lets `fua report` treat the time-series as an
//! alternative decomposition of the final `EnergyLedger` rather than an
//! approximation of it. Events may arrive out of cycle order (writeback
//! events are emitted eagerly with future cycles); the window store grows
//! on demand and attribution is by stamped cycle, so ordering does not
//! matter.
//!
//! # Examples
//!
//! ```
//! use fua_isa::{Case, FuClass};
//! use fua_trace::{TraceEvent, TraceSink, WindowedSink};
//!
//! let mut sink = WindowedSink::new(100);
//! sink.record(&TraceEvent::Energy {
//!     cycle: 5, serial: 0, pc: 2, class: FuClass::IntAlu, module: 1, case: Case::C00, bits: 9,
//! });
//! sink.record(&TraceEvent::Energy {
//!     cycle: 150, serial: 1, pc: 3, class: FuClass::IntAlu, module: 0, case: Case::C11, bits: 4,
//! });
//! let series = sink.into_series();
//! assert_eq!(series.len(), 2);
//! assert_eq!(series.total().switched_bits(), [13, 0, 0, 0]);
//! ```

use fua_isa::FuClass;

use crate::{Json, Stage, StallReason, ToJson, TraceEvent, TraceSink};

/// Per-class module capacity tracked by [`WindowRecord`]; modules past
/// it fold into the last slot (the paper's machine uses at most 4).
pub const MAX_MODULES: usize = 8;

/// The telemetry process id in Chrome trace exports (pid 1 is the
/// pipeline, pid 2 the functional units — see [`crate::ChromeTraceSink`]).
const PID_TELEMETRY: u64 = 3;

/// Adds `from` into `acc` element-wise.
fn add_into<const N: usize>(acc: &mut [u64; N], from: &[u64; N]) {
    for (a, v) in acc.iter_mut().zip(from) {
        *a += v;
    }
}

/// Counters folded from a slice of the event stream: one window of `K`
/// cycles in a [`WindowedSink`], or a whole run in a
/// [`MetricsRecorder`](crate::MetricsRecorder).
///
/// All fields are *deltas within the slice*, never cumulative values;
/// cumulative series are recovered by prefix sums, and run totals by
/// column sums (exactly — see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowRecord {
    /// Switched input bits charged per FU class × module (classes
    /// indexed by [`FuClass::index`]; modules ≥ [`MAX_MODULES`] fold
    /// into the last slot).
    pub module_bits: [[u64; MAX_MODULES]; 4],
    /// Operations latched (energy charges) per class × module, folded
    /// like `module_bits`.
    pub module_ops: [[u64; MAX_MODULES]; 4],
    /// Steering decisions per class × information-bit case.
    pub steer_cases: [[u64; 4]; 4],
    /// Operand swaps by mechanism (indexed rule/policy, the
    /// [`crate::SwapKind`] order).
    pub swaps: [u64; 2],
    /// Pipeline-stage events per [`Stage`], in [`Stage::ALL`] order
    /// (the execute count is the [`TraceEvent::Execute`] events).
    pub stages: [u64; 6],
    /// Instructions issued (summed from cycle summaries).
    pub issued: u64,
    /// Cycles summarised in this window (< K only for the last window).
    pub cycles: u64,
    /// Sum of end-of-cycle window occupancies (divide by `cycles` for
    /// the mean).
    pub occupancy_sum: u64,
    /// D-cache hits.
    pub cache_hits: u64,
    /// D-cache misses.
    pub cache_misses: u64,
    /// Conditional branches resolved.
    pub branches: u64,
    /// Branches the bimodal predictor got wrong.
    pub mispredicts: u64,
    /// Issue-slot counts per [`StallReason`], in [`StallReason::ALL`]
    /// order. Within any fully-summarised window these sum to
    /// `cycles × issue_width` — the same exact partition the
    /// [`StallSink`](crate::StallSink) proves over sites, here proved
    /// over time intervals.
    pub stall_slots: [u64; 7],
}

impl WindowRecord {
    /// The record of no events.
    pub(crate) const ZERO: WindowRecord = WindowRecord {
        module_bits: [[0; MAX_MODULES]; 4],
        module_ops: [[0; MAX_MODULES]; 4],
        steer_cases: [[0; 4]; 4],
        swaps: [0; 2],
        stages: [0; 6],
        issued: 0,
        cycles: 0,
        occupancy_sum: 0,
        cache_hits: 0,
        cache_misses: 0,
        branches: 0,
        mispredicts: 0,
        stall_slots: [0; 7],
    };

    /// Folds one event into the counters. This is the one per-event
    /// fold of the crate's counting sinks: [`WindowedSink`] applies it
    /// to the event's window, [`MetricsRecorder`](crate::MetricsRecorder)
    /// to its whole-run record.
    #[inline]
    pub fn record(&mut self, event: &TraceEvent) {
        match *event {
            TraceEvent::Stage { stage, .. } => self.stages[stage as usize] += 1,
            TraceEvent::Steer { class, case, .. } => {
                self.steer_cases[class.index()][case.index()] += 1;
            }
            TraceEvent::OperandSwap { kind, .. } => self.swaps[kind as usize] += 1,
            TraceEvent::Energy {
                class,
                module,
                bits,
                ..
            } => {
                let (c, m) = (class.index(), module_slot(module));
                self.module_bits[c][m] += bits as u64;
                self.module_ops[c][m] += 1;
            }
            TraceEvent::Execute { .. } => self.stages[Stage::Execute as usize] += 1,
            TraceEvent::Cache { hit, .. } => {
                if hit {
                    self.cache_hits += 1;
                } else {
                    self.cache_misses += 1;
                }
            }
            TraceEvent::Branch {
                taken, predicted, ..
            } => {
                self.branches += 1;
                if taken != predicted {
                    self.mispredicts += 1;
                }
            }
            TraceEvent::Stall { reason, slots, .. } => {
                self.stall_slots[reason.index()] += slots as u64;
            }
            // Dependence records feed critical-path extraction only;
            // the counters have no per-instruction columns.
            TraceEvent::Dependence { .. } => {}
            TraceEvent::CycleSummary { window, issued, .. } => {
                self.cycles += 1;
                self.issued += issued as u64;
                self.occupancy_sum += window as u64;
            }
        }
    }

    /// Adds another record's deltas into this one, field-wise. The
    /// counters are unsigned, so accumulation is associative and
    /// commutative — merging per-run sinks window-by-window yields the
    /// identical record a single sink threaded through the same runs
    /// would hold.
    pub fn merge(&mut self, other: &WindowRecord) {
        for (acc, v) in self.module_bits.iter_mut().zip(&other.module_bits) {
            add_into(acc, v);
        }
        for (acc, v) in self.module_ops.iter_mut().zip(&other.module_ops) {
            add_into(acc, v);
        }
        for (acc, v) in self.steer_cases.iter_mut().zip(&other.steer_cases) {
            add_into(acc, v);
        }
        add_into(&mut self.swaps, &other.swaps);
        add_into(&mut self.stages, &other.stages);
        self.issued += other.issued;
        self.cycles += other.cycles;
        self.occupancy_sum += other.occupancy_sum;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.branches += other.branches;
        self.mispredicts += other.mispredicts;
        add_into(&mut self.stall_slots, &other.stall_slots);
    }

    /// Switched input bits per FU class: the module columns summed.
    pub fn switched_bits(&self) -> [u64; 4] {
        self.module_bits.map(|m| m.iter().sum())
    }

    /// Operations latched per FU class: the module columns summed.
    pub fn ops(&self) -> [u64; 4] {
        self.module_ops.map(|m| m.iter().sum())
    }

    /// Instructions retired (commit-stage events).
    pub fn retired(&self) -> u64 {
        self.stages[Stage::Retire as usize]
    }

    /// Retired instructions per summarised cycle (0 for an empty window).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired() as f64 / self.cycles as f64
        }
    }

    /// Mean end-of-cycle window occupancy (0 for an empty window).
    pub fn mean_occupancy(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.occupancy_sum as f64 / self.cycles as f64
        }
    }
}

/// The slot a module's counters land in: its index, with modules past
/// [`MAX_MODULES`] folded into the last slot.
pub(crate) fn module_slot(module: u8) -> usize {
    (module as usize).min(MAX_MODULES - 1)
}

/// The column sums of `windows`: one record of every event they hold.
fn column_sums(windows: &[WindowRecord]) -> WindowRecord {
    let mut total = WindowRecord::ZERO;
    for w in windows {
        total.merge(w);
    }
    total
}

/// A [`TraceSink`] that folds the event stream into per-K-cycle
/// [`WindowRecord`]s; call [`into_series`](WindowedSink::into_series)
/// after the run.
#[derive(Debug, Clone)]
pub struct WindowedSink {
    window_cycles: u64,
    windows: Vec<WindowRecord>,
    /// The window the last event fell in: its index, first cycle and
    /// length (0 before the first event, so that nothing falls in it).
    /// Events arrive nearly in cycle order, so most land in it and need
    /// no division.
    current: usize,
    current_start: u64,
    current_cycles: u64,
}

/// Two sinks are equal when their window sizes and windows are; which
/// window each last touched does not count.
impl PartialEq for WindowedSink {
    fn eq(&self, other: &Self) -> bool {
        self.window_cycles == other.window_cycles && self.windows == other.windows
    }
}

impl Eq for WindowedSink {}

impl WindowedSink {
    /// A sink bucketing by `window_cycles`-cycle windows.
    ///
    /// # Panics
    ///
    /// Panics if `window_cycles` is 0.
    pub fn new(window_cycles: u64) -> Self {
        assert!(window_cycles > 0, "window size must be at least one cycle");
        WindowedSink {
            window_cycles,
            windows: Vec::new(),
            current: 0,
            current_start: 0,
            current_cycles: 0,
        }
    }

    /// The configured window size in cycles.
    pub fn window_cycles(&self) -> u64 {
        self.window_cycles
    }

    #[inline]
    fn window(&mut self, cycle: u64) -> &mut WindowRecord {
        // A cycle before the current window wraps to a huge offset, so
        // out-of-order events (writebacks are stamped in the future)
        // fall through to the division too.
        if cycle.wrapping_sub(self.current_start) >= self.current_cycles {
            self.current = (cycle / self.window_cycles) as usize;
            self.current_start = self.current as u64 * self.window_cycles;
            self.current_cycles = self.window_cycles;
            if self.current >= self.windows.len() {
                self.windows.resize(self.current + 1, WindowRecord::ZERO);
            }
        }
        &mut self.windows[self.current]
    }

    /// Merges another sink's windows into this one, index-aligned.
    ///
    /// Every run starts at cycle 0, so window *i* of each sink covers
    /// the same cycle interval; adding them window-by-window produces
    /// exactly the store a single sink moved through the same sequence
    /// of runs would have accumulated. This is what lets a parallel
    /// sweep give each cell its own sink and still emit a byte-identical
    /// time-series: cell sinks are merged in cell-index order.
    ///
    /// # Panics
    ///
    /// Panics if the window sizes differ — the bucketing would be
    /// incomparable.
    pub fn merge(&mut self, other: &WindowedSink) {
        assert_eq!(
            self.window_cycles, other.window_cycles,
            "cannot merge windowed sinks with different window sizes"
        );
        if self.windows.len() < other.windows.len() {
            self.windows.resize(other.windows.len(), WindowRecord::ZERO);
        }
        for (acc, w) in self.windows.iter_mut().zip(&other.windows) {
            acc.merge(w);
        }
    }

    /// The column sums of every window so far — the running form of
    /// [`WindowedSeries::total`].
    pub fn total(&self) -> WindowRecord {
        column_sums(&self.windows)
    }

    /// Finishes the run and yields the time-series.
    pub fn into_series(self) -> WindowedSeries {
        WindowedSeries {
            window_cycles: self.window_cycles,
            windows: self.windows,
        }
    }
}

impl Default for WindowedSink {
    /// A sink with a 1 024-cycle window.
    fn default() -> Self {
        WindowedSink::new(1024)
    }
}

impl TraceSink for WindowedSink {
    fn record(&mut self, event: &TraceEvent) {
        self.window(event.cycle()).record(event);
    }
}

/// The finished per-window time-series of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowedSeries {
    window_cycles: u64,
    windows: Vec<WindowRecord>,
}

impl WindowedSeries {
    /// The window size in cycles.
    pub fn window_cycles(&self) -> u64 {
        self.window_cycles
    }

    /// Number of windows (including interior all-zero windows).
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Whether no window was ever touched.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The window records, in time order.
    pub fn windows(&self) -> &[WindowRecord] {
        &self.windows
    }

    /// The column sums of every window: the record of the whole run.
    /// By the exactness invariant its per-class `switched_bits()` and
    /// `ops()` equal the final `EnergyLedger`'s, and its `stall_slots`
    /// equal the matching [`StallSink`](crate::StallSink) totals, bit
    /// for bit.
    pub fn total(&self) -> WindowRecord {
        column_sums(&self.windows)
    }

    /// Renders the series as CSV: one row per window, a fixed header of
    /// per-class aggregates plus per-module columns for every module
    /// that saw traffic (so the column set is a function of the machine
    /// configuration, not of the run length).
    pub fn to_csv(&self) -> String {
        let total = self.total();
        let module_cols: Vec<(usize, usize)> = (0..4)
            .flat_map(|c| {
                let last = total.module_bits[c].iter().rposition(|&b| b > 0);
                (0..=last.unwrap_or(0)).map(move |m| (c, m))
            })
            .collect();

        let mut out = String::from("window,start_cycle,cycles,retired,issued,ipc,occupancy_avg");
        for class in FuClass::ALL {
            out.push_str(&format!(",bits_{class},ops_{class}"));
        }
        for &(c, m) in &module_cols {
            out.push_str(&format!(",bits_{}_m{m}", FuClass::ALL[c]));
        }
        for class in FuClass::ALL {
            for case in 0..4 {
                out.push_str(&format!(",steer_{class}_case{case:02b}"));
            }
        }
        for reason in StallReason::ALL {
            out.push_str(&format!(",stall_{}", reason.name()));
        }
        out.push_str(
            ",swaps_rule,swaps_policy,\
             cache_hits,cache_misses,branches,mispredicts\n",
        );

        for (i, w) in self.windows.iter().enumerate() {
            out.push_str(&format!(
                "{i},{},{},{},{},{:.4},{:.4}",
                i as u64 * self.window_cycles,
                w.cycles,
                w.retired(),
                w.issued,
                w.ipc(),
                w.mean_occupancy(),
            ));
            for (bits, ops) in w.switched_bits().iter().zip(w.ops()) {
                out.push_str(&format!(",{bits},{ops}"));
            }
            for &(c, m) in &module_cols {
                out.push_str(&format!(",{}", w.module_bits[c][m]));
            }
            for c in 0..4 {
                for case in 0..4 {
                    out.push_str(&format!(",{}", w.steer_cases[c][case]));
                }
            }
            for slots in w.stall_slots {
                out.push_str(&format!(",{slots}"));
            }
            out.push_str(&format!(
                ",{},{},{},{},{},{}\n",
                w.swaps[0], w.swaps[1], w.cache_hits, w.cache_misses, w.branches, w.mispredicts,
            ));
        }
        out
    }

    /// Chrome trace-event counter tracks (`ph: "C"`) for the series,
    /// one sample per window at the window's start cycle (1 cycle =
    /// 1 µs), under a dedicated *telemetry* process. Concatenate with
    /// [`ChromeTraceSink`](crate::ChromeTraceSink) events or wrap with
    /// [`into_chrome_json`](WindowedSeries::into_chrome_json).
    pub fn counter_events(&self) -> Vec<Json> {
        let mut events = vec![Json::obj([
            ("name", Json::Str("process_name".into())),
            ("ph", Json::Str("M".into())),
            ("pid", Json::UInt(PID_TELEMETRY)),
            ("args", Json::obj([("name", Json::Str("telemetry".into()))])),
        ])];
        let counter = |name: &str, ts: u64, args: Json| {
            Json::obj([
                ("name", Json::Str(name.into())),
                ("ph", Json::Str("C".into())),
                ("ts", Json::UInt(ts)),
                ("pid", Json::UInt(PID_TELEMETRY)),
                ("args", args),
            ])
        };
        for (i, w) in self.windows.iter().enumerate() {
            let ts = i as u64 * self.window_cycles;
            let bits = w.switched_bits();
            events.push(counter(
                "window.switched_bits",
                ts,
                Json::Obj(
                    FuClass::ALL
                        .iter()
                        .map(|c| (c.to_string(), Json::UInt(bits[c.index()])))
                        .collect(),
                ),
            ));
            events.push(counter(
                "window.ipc",
                ts,
                Json::obj([("ipc", Json::Float(w.ipc()))]),
            ));
            events.push(counter(
                "window.occupancy",
                ts,
                Json::obj([("entries", Json::Float(w.mean_occupancy()))]),
            ));
            if w.stall_slots.iter().any(|&n| n > 0) {
                events.push(counter(
                    "window.stall_mix",
                    ts,
                    Json::Obj(
                        StallReason::ALL
                            .iter()
                            .map(|r| (r.name().to_string(), Json::UInt(w.stall_slots[r.index()])))
                            .collect(),
                    ),
                ));
            }
            for class in FuClass::ALL {
                let cases = w.steer_cases[class.index()];
                if cases.iter().all(|&n| n == 0) {
                    continue;
                }
                events.push(counter(
                    &format!("window.steer.{class}"),
                    ts,
                    Json::Obj(
                        (0..4)
                            .map(|k| (format!("case{k:02b}"), Json::UInt(cases[k])))
                            .collect(),
                    ),
                ));
            }
        }
        events
    }

    /// The counter tracks wrapped as a standalone Chrome trace JSON
    /// document, loadable at `ui.perfetto.dev`.
    pub fn into_chrome_json(self) -> Json {
        Json::obj([
            ("traceEvents", Json::Arr(self.counter_events())),
            ("displayTimeUnit", Json::Str("ms".into())),
            (
                "otherData",
                Json::obj([("producer", Json::Str("fua-trace windowed".into()))]),
            ),
        ])
    }
}

impl ToJson for WindowedSeries {
    /// A compact JSON form: window size plus per-window rows of the
    /// headline columns (bits/ops per class, retired, cycles, IPC).
    fn to_json(&self) -> Json {
        Json::obj([
            ("window_cycles", Json::UInt(self.window_cycles)),
            (
                "windows",
                Json::Arr(
                    self.windows
                        .iter()
                        .map(|w| {
                            Json::obj([
                                (
                                    "switched_bits",
                                    Json::Arr(w.switched_bits().map(Json::UInt).to_vec()),
                                ),
                                ("ops", Json::Arr(w.ops().map(Json::UInt).to_vec())),
                                (
                                    "stall_slots",
                                    Json::Arr(
                                        w.stall_slots.iter().map(|&s| Json::UInt(s)).collect(),
                                    ),
                                ),
                                ("retired", Json::UInt(w.retired())),
                                ("issued", Json::UInt(w.issued)),
                                ("cycles", Json::UInt(w.cycles)),
                                ("ipc", Json::Float(w.ipc())),
                                ("occupancy", Json::Float(w.mean_occupancy())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SwapKind;
    use fua_isa::{Case, Opcode};

    fn energy(cycle: u64, class: FuClass, module: u8, bits: u32) -> TraceEvent {
        TraceEvent::Energy {
            cycle,
            serial: 0,
            pc: 0,
            class,
            module,
            case: Case::C00,
            bits,
        }
    }

    #[test]
    fn events_bucket_by_stamped_cycle() {
        let mut sink = WindowedSink::new(10);
        sink.record(&energy(0, FuClass::IntAlu, 0, 3));
        sink.record(&energy(9, FuClass::IntAlu, 1, 4));
        sink.record(&energy(10, FuClass::FpAlu, 0, 5));
        let series = sink.into_series();
        assert_eq!(series.len(), 2);
        assert_eq!(series.windows()[0].switched_bits()[0], 7);
        assert_eq!(
            series.windows()[1].switched_bits()[FuClass::FpAlu.index()],
            5
        );
    }

    #[test]
    fn out_of_order_future_cycles_land_in_the_right_window() {
        let mut sink = WindowedSink::new(100);
        // Eagerly-emitted writeback for a far-future cycle, then an
        // earlier energy charge: both must land where stamped.
        sink.record(&TraceEvent::Stage {
            stage: Stage::Writeback,
            cycle: 950,
            serial: 1,
            opcode: Opcode::Add,
        });
        sink.record(&energy(350, FuClass::IntAlu, 2, 8));
        sink.record(&energy(955, FuClass::IntAlu, 2, 6));
        let series = sink.into_series();
        assert_eq!(series.len(), 10);
        assert_eq!(series.windows()[3].switched_bits()[0], 8);
        assert_eq!(series.windows()[9].switched_bits()[0], 6);
        assert_eq!(series.total().switched_bits(), [14, 0, 0, 0]);
    }

    #[test]
    fn interleaved_cycles_match_one_division_per_event() {
        // Cycles that jump back and forth across windows, and around
        // each window's edges, land where a division per event puts
        // them; a sink fed the same events in another order compares
        // equal, whichever window it touched last.
        let cycles = [0u64, 9, 10, 3, 29, 19, 20, 21, 2, 100, 99, 0, 55];
        let mut sink = WindowedSink::new(10);
        let mut expect = vec![0u64; 11];
        for (i, &cycle) in cycles.iter().enumerate() {
            sink.record(&energy(cycle, FuClass::IntAlu, 0, i as u32 + 1));
            expect[(cycle / 10) as usize] += i as u64 + 1;
        }
        let mut reversed = WindowedSink::new(10);
        for (i, &cycle) in cycles.iter().enumerate().rev() {
            reversed.record(&energy(cycle, FuClass::IntAlu, 0, i as u32 + 1));
        }
        assert_eq!(sink, reversed);
        let got: Vec<u64> = sink
            .into_series()
            .windows()
            .iter()
            .map(|w| w.switched_bits()[0])
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn totals_sum_every_window_exactly() {
        let mut sink = WindowedSink::new(7);
        let mut expect_bits = [[0u64; MAX_MODULES]; 4];
        let mut expect_ops = [[0u64; MAX_MODULES]; 4];
        // A deterministic pseudo-stream across all classes and modules.
        for i in 0..1000u64 {
            let class = FuClass::ALL[(i % 4) as usize];
            let module = (i % 5) as u8;
            let bits = (i * 7 % 33) as u32;
            sink.record(&energy(i * 3 % 400, class, module, bits));
            expect_bits[class.index()][module as usize] += bits as u64;
            expect_ops[class.index()][module as usize] += 1;
        }
        let total = sink.into_series().total();
        assert_eq!(total.module_bits, expect_bits);
        assert_eq!(total.module_ops, expect_ops);
        assert_eq!(total.switched_bits()[1], expect_bits[1].iter().sum::<u64>());
        assert_eq!(total.ops(), [250; 4]);
    }

    #[test]
    fn ipc_and_occupancy_derive_from_cycle_summaries() {
        let mut sink = WindowedSink::new(4);
        for cycle in 0..4 {
            sink.record(&TraceEvent::CycleSummary {
                cycle,
                window: 6,
                issued: 2,
            });
            sink.record(&TraceEvent::Stage {
                stage: Stage::Retire,
                cycle,
                serial: cycle,
                opcode: Opcode::Add,
            });
        }
        let series = sink.into_series();
        let w = &series.windows()[0];
        assert_eq!(w.cycles, 4);
        assert_eq!(w.issued, 8);
        assert_eq!(w.retired(), 4);
        assert!((w.ipc() - 1.0).abs() < 1e-12);
        assert!((w.mean_occupancy() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn steering_swap_cache_branch_mixes_accumulate() {
        let mut sink = WindowedSink::new(100);
        sink.record(&TraceEvent::Steer {
            cycle: 1,
            serial: 0,
            class: FuClass::IntAlu,
            case: Case::C10,
            module: 1,
            swap: false,
            cost_bits: 2,
        });
        sink.record(&TraceEvent::OperandSwap {
            cycle: 1,
            serial: 0,
            class: FuClass::IntAlu,
            kind: SwapKind::Rule,
        });
        sink.record(&TraceEvent::Cache {
            cycle: 2,
            serial: 1,
            addr: 64,
            hit: false,
            latency: 10,
        });
        sink.record(&TraceEvent::Branch {
            cycle: 3,
            serial: 2,
            taken: true,
            predicted: false,
        });
        let w = sink.into_series().windows()[0];
        assert_eq!(w.steer_cases[FuClass::IntAlu.index()][Case::C10.index()], 1);
        assert_eq!(w.swaps[SwapKind::Rule as usize], 1);
        assert_eq!(w.cache_misses, 1);
        assert_eq!(w.branches, 1);
        assert_eq!(w.mispredicts, 1);
    }

    #[test]
    fn csv_has_one_row_per_window_and_a_stable_header() {
        let mut sink = WindowedSink::new(10);
        sink.record(&energy(0, FuClass::IntAlu, 3, 5));
        sink.record(&energy(25, FuClass::IntAlu, 0, 2));
        let csv = sink.into_series().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4, "header + 3 windows");
        assert!(lines[0].starts_with("window,start_cycle,cycles"));
        assert!(lines[0].contains("bits_IALU_m3"), "{}", lines[0]);
        assert!(lines[0].contains("steer_IALU_case00"));
        assert!(lines[1].starts_with("0,0,"));
        assert!(lines[2].starts_with("1,10,"));
        // Every row has the same column count as the header.
        let cols = lines[0].split(',').count();
        for row in &lines[1..] {
            assert_eq!(row.split(',').count(), cols);
        }
    }

    #[test]
    fn counter_events_form_a_loadable_chrome_trace() {
        let mut sink = WindowedSink::new(50);
        sink.record(&energy(10, FuClass::IntAlu, 0, 4));
        sink.record(&TraceEvent::CycleSummary {
            cycle: 10,
            window: 3,
            issued: 1,
        });
        let json = sink.into_series().into_chrome_json().compact();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("window.switched_bits"));
        assert!(json.contains("\"telemetry\""));
        // And the document round-trips through our own parser.
        assert!(Json::parse(&json).is_ok());
    }

    fn stall(cycle: u64, reason: StallReason, slots: u32) -> TraceEvent {
        TraceEvent::Stall {
            cycle,
            class: FuClass::IntAlu,
            reason,
            slots,
            pc: None,
            case: None,
        }
    }

    #[test]
    fn stall_mix_buckets_by_cycle_and_sums_exactly() {
        let mut sink = WindowedSink::new(10);
        sink.record(&stall(0, StallReason::Issued, 1));
        sink.record(&stall(3, StallReason::FetchStarved, 9));
        sink.record(&stall(15, StallReason::OperandWait, 2));
        let series = sink.into_series();
        assert_eq!(
            series.windows()[0].stall_slots[StallReason::FetchStarved.index()],
            9
        );
        let totals = series.total().stall_slots;
        assert_eq!(totals[StallReason::Issued.index()], 1);
        assert_eq!(totals[StallReason::OperandWait.index()], 2);
        assert_eq!(totals.iter().sum::<u64>(), 12);
    }

    #[test]
    fn csv_includes_one_column_per_stall_reason() {
        let mut sink = WindowedSink::new(10);
        sink.record(&stall(0, StallReason::RobFull, 4));
        let csv = sink.into_series().to_csv();
        let header = csv.lines().next().unwrap();
        for reason in StallReason::ALL {
            assert!(
                header.contains(&format!(",stall_{}", reason.name())),
                "missing stall_{} in {header}",
                reason.name()
            );
        }
    }

    #[test]
    fn stall_mix_counter_track_round_trips_through_the_parser() {
        let mut sink = WindowedSink::new(50);
        sink.record(&stall(10, StallReason::Issued, 3));
        sink.record(&stall(12, StallReason::BranchRecovery, 7));
        let json = sink.into_series().into_chrome_json().compact();
        assert!(json.contains("window.stall_mix"));
        assert!(json.contains("\"branch-recovery\":7"));
        let parsed = Json::parse(&json).expect("loadable chrome trace");
        let events = parsed.get("traceEvents").and_then(Json::as_arr).unwrap();
        let mix = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("window.stall_mix"))
            .expect("stall-mix counter present");
        assert_eq!(mix.get("ph").and_then(Json::as_str), Some("C"));
        let args = mix.get("args").expect("counter args");
        assert_eq!(args.get("issued").and_then(Json::as_u64), Some(3));
        assert_eq!(args.get("branch-recovery").and_then(Json::as_u64), Some(7));
    }

    #[test]
    fn all_zero_stall_mix_emits_no_counter_track() {
        let mut sink = WindowedSink::new(50);
        sink.record(&energy(10, FuClass::IntAlu, 0, 4));
        let json = sink.into_series().into_chrome_json().compact();
        assert!(!json.contains("window.stall_mix"));
    }

    #[test]
    fn oversized_module_indices_fold_into_the_last_slot() {
        let mut sink = WindowedSink::new(10);
        sink.record(&energy(0, FuClass::IntMul, 200, 7));
        let series = sink.into_series();
        assert_eq!(
            series.windows()[0].module_bits[FuClass::IntMul.index()][MAX_MODULES - 1],
            7
        );
        assert_eq!(series.total().switched_bits()[FuClass::IntMul.index()], 7);
    }

    #[test]
    #[should_panic(expected = "window size")]
    fn zero_window_size_panics() {
        WindowedSink::new(0);
    }

    #[test]
    fn merged_sinks_equal_one_threaded_sink() {
        // Reference: one sink fed two "runs" back to back (both starting
        // at cycle 0, as runs do).
        let runs: [Vec<TraceEvent>; 2] = [
            vec![
                energy(0, FuClass::IntAlu, 0, 3),
                energy(25, FuClass::FpAlu, 1, 9),
                TraceEvent::CycleSummary {
                    cycle: 3,
                    window: 2,
                    issued: 1,
                },
            ],
            vec![
                energy(7, FuClass::IntAlu, 2, 5),
                energy(31, FuClass::IntMul, 0, 2),
            ],
        ];
        let mut threaded = WindowedSink::new(10);
        for run in &runs {
            for e in run {
                threaded.record(e);
            }
        }
        // Candidate: one sink per run, merged in run order.
        let mut merged = WindowedSink::new(10);
        for run in &runs {
            let mut own = WindowedSink::new(10);
            for e in run {
                own.record(e);
            }
            merged.merge(&own);
        }
        assert_eq!(merged, threaded);
        assert_eq!(
            merged.clone().into_series().to_csv(),
            threaded.clone().into_series().to_csv()
        );
    }

    #[test]
    fn merge_grows_the_window_store() {
        let mut short = WindowedSink::new(10);
        short.record(&energy(5, FuClass::IntAlu, 0, 1));
        let mut long = WindowedSink::new(10);
        long.record(&energy(95, FuClass::IntAlu, 0, 4));
        short.merge(&long);
        let series = short.into_series();
        assert_eq!(series.len(), 10);
        assert_eq!(series.total().switched_bits(), [5, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "different window sizes")]
    fn mismatched_window_sizes_cannot_merge() {
        WindowedSink::new(10).merge(&WindowedSink::new(20));
    }
}
