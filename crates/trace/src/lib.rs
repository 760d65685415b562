//! Cycle-level observability for the steering pipeline: structured trace
//! events, pluggable sinks, one counter fold, and Chrome
//! trace-event/Perfetto export.
//!
//! The paper's argument is per-cycle — which module each ready
//! instruction is steered to and how many input bits toggle — so the
//! engine emits a [`TraceEvent`] at every pipeline stage, steering
//! decision, operand swap, cache access and energy-ledger charge. Sinks
//! implement [`TraceSink`]; the default [`NullSink`] sets
//! [`TraceSink::ENABLED`] to `false` so the monomorphised engine contains
//! no tracing code at all and the untraced hot path is unchanged.
//!
//! Shipped sinks:
//!
//! * [`RingBufferSink`] — bounded tail of the event stream for
//!   post-mortem inspection;
//! * [`WindowedSink`] — per-K-cycle interval telemetry whose column sums
//!   reproduce the final energy ledger exactly (CSV + Perfetto counter
//!   export);
//! * [`MetricsRecorder`] — the `--metrics` snapshot: a [`WindowedSink`]
//!   (one window for a whole run) whose column sums are its counters,
//!   plus fixed-bucket [`Histogram`]s (per-module Hamming distance,
//!   window occupancy, issue width); recorders of separate runs merge;
//! * [`ChromeTraceSink`] — Chrome trace-event JSON that loads directly in
//!   Perfetto (`ui.perfetto.dev`) or `chrome://tracing`;
//! * [`StallSink`] — the cycle-side twin of the energy attribution: an
//!   exact partition of every issue slot of every cycle into the
//!   [`StallReason`] taxonomy, keyed by culprit site;
//! * [`DepSink`] — per-instruction dependence/timing records for
//!   retirement critical-path extraction;
//! * [`VecSink`] — unbounded capture for tests;
//! * tuples `(A, B)` — fan-out to several sinks at once.
//!
//! The windowed and metrics sinks count through one fold:
//! [`WindowRecord::record`] adds an event to a record of counters
//! (switched bits and ops per class and module, steering cases, stages,
//! swaps, cache, branch and stall counts). [`WindowedSink`] keeps one
//! record per window, and [`MetricsRecorder`] owns a windowed sink, so
//! its totals are the series' column sums by construction and a
//! recorder that also yields the series counts each event once.
//!
//! Beyond the sinks, the crate exports **harness** worker timelines
//! ([`HarnessTimeline`]) as a third Perfetto process next to the
//! simulated pipeline and functional units.
//!
//! This crate also hosts the workspace's dependency-free JSON emitter
//! ([`Json`]/[`ToJson`]), which moved here from `fua-core` so sinks can
//! serialise without a dependency cycle through the experiment layer,
//! and its matching parser ([`Json::parse`]) used by the baseline-
//! comparison tooling in `fua-report`. Next to it sits [`TextTable`],
//! the fixed-width text table every report renders through, so each
//! report's text and JSON views can live next to the type they render.
//!
//! # Examples
//!
//! ```
//! use fua_trace::{MetricsRecorder, RingBufferSink, ToJson, TraceEvent, TraceSink};
//!
//! let mut sink = (RingBufferSink::new(1024), MetricsRecorder::new());
//! sink.record(&TraceEvent::CycleSummary { cycle: 0, window: 4, issued: 2 });
//! assert_eq!(sink.0.recorded(), 1);
//! assert_eq!(sink.1.totals().cycles, 1);
//! assert!(sink.1.to_json().pretty().contains("window.occupancy"));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod event;
mod json;
mod metrics;
mod parse;
mod perfetto;
mod recorder;
mod ring;
mod sites;
mod stall;
mod table;
mod windowed;

pub use event::{NullSink, Stage, StallReason, SwapKind, TraceEvent, TraceSink, VecSink};
pub use json::{Json, ToJson};
pub use metrics::Histogram;
pub use parse::JsonParseError;
pub use perfetto::{ChromeTraceSink, HarnessTimeline};
pub use recorder::MetricsRecorder;
pub use ring::RingBufferSink;
pub use sites::SiteTable;
pub use stall::{DepRecord, DepSink, StallKey, StallSink};
pub use table::TextTable;
pub use windowed::{WindowRecord, WindowedSeries, WindowedSink, MAX_MODULES};
