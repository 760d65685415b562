//! Wall-clock phase profiling for the simulator hot loop.
//!
//! Mirrors the zero-cost [`TraceSink`](fua_trace::TraceSink) pattern: the
//! engine is generic over a [`PhaseProfiler`] whose default
//! [`NullProfiler`] sets [`PhaseProfiler::ENABLED`] to `false`, so every
//! timing hook — including the `Instant::now()` reads — compiles away
//! and the untraced hot path is unchanged. Attach [`PhaseTimers`] to
//! measure where simulator wall-clock goes, phase by phase
//! (fetch/rename/steer/issue/writeback). The timers serve perfbench's
//! `sim.phase_timers_ns_per_op` probe and the tests; no command or BENCH
//! section reads them, and ROADMAP's "One timing mechanism" item
//! deletes this module together with that probe.
//!
//! Timers use [`std::time::Instant`] (monotonic), never the wall clock,
//! and never feed back into simulation state — a profiled run retires
//! the identical instruction stream cycle for cycle.

use std::fmt;
use std::time::Duration;

use fua_trace::{Json, ToJson};

/// A phase of the simulator's per-cycle hot loop.
///
/// `Steer` nests inside `Issue` (the policy's assignment problem) and
/// `Rename` nests inside `Fetch` (dependence capture at dispatch), so
/// the five totals are *not* disjoint: `Issue` includes `Steer`, and
/// `Fetch` includes `Rename`. Subtract to get exclusive times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimPhase {
    /// Pulling instructions from the dynamic source into the window.
    Fetch,
    /// Dependence capture + predictor/branch handling at dispatch
    /// (nested inside `Fetch`).
    Rename,
    /// The steering policy's module-assignment solve (nested inside
    /// `Issue`).
    Steer,
    /// Wakeup/select, swap rules, latching and energy accounting.
    Issue,
    /// In-order commit from the head of the window.
    Writeback,
}

impl SimPhase {
    /// All phases, in hot-loop order.
    pub const ALL: [SimPhase; 5] = [
        SimPhase::Fetch,
        SimPhase::Rename,
        SimPhase::Steer,
        SimPhase::Issue,
        SimPhase::Writeback,
    ];

    /// A short lowercase name ("fetch", "steer", ...).
    pub fn name(self) -> &'static str {
        match self {
            SimPhase::Fetch => "fetch",
            SimPhase::Rename => "rename",
            SimPhase::Steer => "steer",
            SimPhase::Issue => "issue",
            SimPhase::Writeback => "writeback",
        }
    }
}

/// Receives per-phase elapsed wall-clock from an instrumented engine.
///
/// Like [`TraceSink`](fua_trace::TraceSink), the engine monomorphises
/// per profiler type; with [`NullProfiler`] every hook (and its
/// `Instant::now()` call) is dead code.
pub trait PhaseProfiler {
    /// Whether the engine should read clocks at all. Only no-op
    /// profilers set this to `false`.
    const ENABLED: bool = true;

    /// Accumulates one timed interval of `phase`.
    fn add(&mut self, phase: SimPhase, elapsed: Duration);
}

/// The default profiler: no clocks, no cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullProfiler;

impl PhaseProfiler for NullProfiler {
    const ENABLED: bool = false;

    #[inline(always)]
    fn add(&mut self, _phase: SimPhase, _elapsed: Duration) {}
}

/// Accumulated wall-clock per hot-loop phase.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use fua_sim::{PhaseProfiler, PhaseTimers, SimPhase};
///
/// let mut timers = PhaseTimers::new();
/// timers.add(SimPhase::Issue, Duration::from_micros(7));
/// timers.add(SimPhase::Issue, Duration::from_micros(3));
/// assert_eq!(timers.total(SimPhase::Issue), Duration::from_micros(10));
/// assert_eq!(timers.intervals(SimPhase::Issue), 2);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimers {
    totals: [Duration; 5],
    intervals: [u64; 5],
}

impl PhaseTimers {
    /// All-zero timers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total wall-clock accumulated for `phase`.
    pub fn total(&self, phase: SimPhase) -> Duration {
        self.totals[phase as usize]
    }

    /// Number of timed intervals folded into `phase`.
    pub fn intervals(&self, phase: SimPhase) -> u64 {
        self.intervals[phase as usize]
    }

    /// Total nanoseconds per phase, in [`SimPhase::ALL`] order.
    pub fn nanos(&self) -> [u64; 5] {
        let mut out = [0u64; 5];
        for (o, d) in out.iter_mut().zip(self.totals) {
            *o = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        }
        out
    }

    /// Merges another set of timers into this one (aggregating runs).
    pub fn merge(&mut self, other: &PhaseTimers) {
        for i in 0..5 {
            self.totals[i] += other.totals[i];
            self.intervals[i] += other.intervals[i];
        }
    }
}

impl PhaseProfiler for PhaseTimers {
    #[inline]
    fn add(&mut self, phase: SimPhase, elapsed: Duration) {
        self.totals[phase as usize] += elapsed;
        self.intervals[phase as usize] += 1;
    }
}

impl ToJson for PhaseTimers {
    /// `{"fetch": {"nanos": …, "intervals": …}, …}` in hot-loop order.
    fn to_json(&self) -> Json {
        Json::Obj(
            SimPhase::ALL
                .iter()
                .map(|&p| {
                    (
                        p.name().to_string(),
                        Json::obj([
                            (
                                "nanos",
                                Json::UInt(
                                    u64::try_from(self.total(p).as_nanos()).unwrap_or(u64::MAX),
                                ),
                            ),
                            ("intervals", Json::UInt(self.intervals(p))),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

impl fmt::Display for PhaseTimers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for phase in SimPhase::ALL {
            writeln!(
                f,
                "{:9} {:>12.3?} over {:>10} intervals",
                phase.name(),
                self.total(phase),
                self.intervals(phase)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn null_profiler_is_disabled() {
        assert!(!NullProfiler::ENABLED);
        assert!(PhaseTimers::ENABLED);
    }

    #[test]
    fn timers_accumulate_and_merge() {
        let mut a = PhaseTimers::new();
        a.add(SimPhase::Fetch, Duration::from_nanos(100));
        a.add(SimPhase::Steer, Duration::from_nanos(50));
        let mut b = PhaseTimers::new();
        b.add(SimPhase::Fetch, Duration::from_nanos(25));
        a.merge(&b);
        assert_eq!(a.total(SimPhase::Fetch), Duration::from_nanos(125));
        assert_eq!(a.intervals(SimPhase::Fetch), 2);
        assert_eq!(a.nanos(), [125, 0, 50, 0, 0]);
    }

    #[test]
    fn json_names_every_phase() {
        let mut t = PhaseTimers::new();
        t.add(SimPhase::Writeback, Duration::from_nanos(9));
        let json = t.to_json().pretty();
        for phase in SimPhase::ALL {
            assert!(json.contains(phase.name()), "{json}");
        }
        assert!(json.contains("\"nanos\": 9"));
    }

    #[test]
    fn display_lists_phases_in_order() {
        let s = PhaseTimers::new().to_string();
        let fetch = s.find("fetch").unwrap();
        let wb = s.find("writeback").unwrap();
        assert!(fetch < wb);
    }
}
