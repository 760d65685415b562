//! Chrome trace-event / Perfetto JSON export.
//!
//! Produces the classic Chrome `traceEvents` JSON ("JSON trace format"),
//! which `ui.perfetto.dev` and `chrome://tracing` both load directly.
//! One simulated cycle maps to one microsecond of trace time. The export
//! lays out two processes:
//!
//! * **pid 1 "pipeline"** — one thread (track) per pipeline stage plus
//!   tracks for steering decisions, operand swaps, cache accesses and
//!   branch resolutions;
//! * **pid 2 "functional units"** — one thread per FU module (e.g.
//!   `IALU.m2`), carrying `X` (complete) events whose duration is the
//!   operation's latency, plus per-class cumulative switched-bit counter
//!   tracks and the window-occupancy counter.

use fua_isa::FuClass;

use crate::{Json, Stage, TraceEvent, TraceSink};

const PID_PIPELINE: u64 = 1;
const PID_UNITS: u64 = 2;
const PID_HARNESS: u64 = 3;

/// Thread id of the arena-pool event track in the harness process.
const TID_ARENA: u64 = 1_000;

// Pipeline-process thread ids: the six stages, then the decision tracks.
const TID_STEER: u64 = 6;
const TID_SWAP: u64 = 7;
const TID_CACHE: u64 = 8;
const TID_BRANCH: u64 = 9;
const TID_STALL: u64 = 10;

/// A [`TraceSink`] that accumulates Chrome trace events; call
/// [`into_json`](ChromeTraceSink::into_json) after the run and write the
/// result to a `.json` file for Perfetto.
#[derive(Debug, Clone, Default)]
pub struct ChromeTraceSink {
    events: Vec<Json>,
    cumulative_bits: [u64; 4],
    stage_named: [bool; 6],
    module_named: [[bool; 16]; 4],
}

fn module_tid(class: FuClass, module: u8) -> u64 {
    (class.index() as u64) * 16 + module as u64
}

fn meta(name: &str, pid: u64, tid: Option<u64>, value: &str) -> Json {
    let mut fields = vec![
        ("name".to_string(), Json::Str(name.into())),
        ("ph".to_string(), Json::Str("M".into())),
        ("pid".to_string(), Json::UInt(pid)),
    ];
    if let Some(tid) = tid {
        fields.push(("tid".to_string(), Json::UInt(tid)));
    }
    fields.push((
        "args".to_string(),
        Json::obj([("name", Json::Str(value.into()))]),
    ));
    Json::Obj(fields)
}

fn complete(name: String, cat: &str, ts: u64, dur: u64, pid: u64, tid: u64, args: Json) -> Json {
    Json::obj([
        ("name", Json::Str(name)),
        ("cat", Json::Str(cat.into())),
        ("ph", Json::Str("X".into())),
        ("ts", Json::UInt(ts)),
        ("dur", Json::UInt(dur.max(1))),
        ("pid", Json::UInt(pid)),
        ("tid", Json::UInt(tid)),
        ("args", args),
    ])
}

fn counter(name: String, ts: u64, pid: u64, key: &str, value: u64) -> Json {
    Json::obj([
        ("name", Json::Str(name)),
        ("ph", Json::Str("C".into())),
        ("ts", Json::UInt(ts)),
        ("pid", Json::UInt(pid)),
        ("args", Json::obj([(key, Json::UInt(value))])),
    ])
}

impl ChromeTraceSink {
    /// An empty exporter with the process metadata pre-recorded.
    pub fn new() -> Self {
        Self::with_process_labels("pipeline", "functional units")
    }

    /// As [`new`](ChromeTraceSink::new), labelling both processes with
    /// the workload name so multi-workload exports stay distinguishable
    /// in the Perfetto process list.
    ///
    /// The label travels through the JSON layer like every other string,
    /// so workload names containing quotes, backslashes or control
    /// characters are escaped, never spliced into the document raw.
    pub fn for_workload(workload: &str) -> Self {
        Self::with_process_labels(
            &format!("pipeline [{workload}]"),
            &format!("functional units [{workload}]"),
        )
    }

    fn with_process_labels(pipeline: &str, units: &str) -> Self {
        let mut sink = ChromeTraceSink::default();
        sink.events
            .push(meta("process_name", PID_PIPELINE, None, pipeline));
        sink.events
            .push(meta("process_name", PID_UNITS, None, units));
        for (tid, label) in [
            (TID_STEER, "steer"),
            (TID_SWAP, "operand-swap"),
            (TID_CACHE, "d-cache"),
            (TID_BRANCH, "branch"),
            (TID_STALL, "stall"),
        ] {
            sink.events
                .push(meta("thread_name", PID_PIPELINE, Some(tid), label));
        }
        sink
    }

    /// Events accumulated so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing beyond metadata has been recorded (the two
    /// process labels plus the five fixed decision-track labels).
    pub fn is_empty(&self) -> bool {
        self.events.len() <= 7
    }

    fn name_stage(&mut self, stage: Stage) {
        if !self.stage_named[stage as usize] {
            self.stage_named[stage as usize] = true;
            self.events.push(meta(
                "thread_name",
                PID_PIPELINE,
                Some(stage as u64),
                stage.name(),
            ));
        }
    }

    fn name_module(&mut self, class: FuClass, module: u8) {
        let m = (module as usize).min(15);
        if !self.module_named[class.index()][m] {
            self.module_named[class.index()][m] = true;
            self.events.push(meta(
                "thread_name",
                PID_UNITS,
                Some(module_tid(class, module)),
                &format!("{class}.m{m}"),
            ));
        }
    }

    /// The complete trace as a `{"traceEvents": [...]}` JSON document.
    pub fn into_json(self) -> Json {
        Json::obj([
            ("traceEvents", Json::Arr(self.events)),
            ("displayTimeUnit", Json::Str("ms".into())),
            (
                "otherData",
                Json::obj([("producer", Json::Str("fua-trace".into()))]),
            ),
        ])
    }
}

/// Builder for **harness** timelines: one Perfetto thread track per
/// `fua-exec` worker (pid 3, alongside the simulated pipeline's pid 1
/// and functional units' pid 2), a queue-depth counter sampled at every
/// chunk claim, and an arena-pool event track.
///
/// Timestamps are wall-clock nanoseconds since the harness span
/// collector's epoch, mapped to the Chrome trace's microsecond
/// timebase. Every name and label travels through the [`Json`] string
/// layer, so workload- or stage-derived strings with quotes, controls
/// or non-ASCII are escaped, never spliced raw.
#[derive(Debug, Clone, Default)]
pub struct HarnessTimeline {
    events: Vec<Json>,
    named_workers: Vec<u64>,
    arena_named: bool,
}

impl HarnessTimeline {
    /// An empty harness timeline whose process is labelled
    /// `harness [{label}]`.
    pub fn new(label: &str) -> Self {
        let mut timeline = HarnessTimeline::default();
        timeline.events.push(meta(
            "process_name",
            PID_HARNESS,
            None,
            &format!("harness [{label}]"),
        ));
        timeline
    }

    /// Events accumulated so far (including metadata records).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing beyond the process label has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.len() <= 1
    }

    fn name_worker(&mut self, worker: u64) {
        if !self.named_workers.contains(&worker) {
            self.named_workers.push(worker);
            self.events.push(meta(
                "thread_name",
                PID_HARNESS,
                Some(worker),
                &format!("worker {worker}"),
            ));
        }
    }

    /// Records one worker busy segment — a claimed chunk of sweep cells
    /// `[lo, hi)` executed under `stage` — plus a queue-depth counter
    /// sample at the claim instant.
    #[allow(clippy::too_many_arguments)]
    pub fn worker_span(
        &mut self,
        worker: u32,
        stage: &str,
        lo: u32,
        hi: u32,
        queue_depth: u32,
        start_nanos: u64,
        end_nanos: u64,
    ) {
        self.name_worker(worker as u64);
        let stage = if stage.is_empty() { "chunk" } else { stage };
        let ts = start_nanos / 1_000;
        self.events.push(complete(
            format!("{stage} [{lo}..{hi})"),
            "harness",
            ts,
            end_nanos.saturating_sub(start_nanos) / 1_000,
            PID_HARNESS,
            worker as u64,
            Json::obj([
                ("stage", Json::Str(stage.into())),
                ("lo", Json::UInt(lo.into())),
                ("hi", Json::UInt(hi.into())),
                ("queue_depth", Json::UInt(queue_depth.into())),
            ]),
        ));
        self.events.push(counter(
            "queue_depth".to_string(),
            ts,
            PID_HARNESS,
            "cells",
            queue_depth.into(),
        ));
    }

    /// Records an arena-pool event (lease/return) on the dedicated
    /// arena track.
    pub fn arena_event(&mut self, label: &str, nanos: u64) {
        if !self.arena_named {
            self.arena_named = true;
            self.events.push(meta(
                "thread_name",
                PID_HARNESS,
                Some(TID_ARENA),
                "arena-pool",
            ));
        }
        self.events.push(complete(
            label.to_string(),
            "arena",
            nanos / 1_000,
            1,
            PID_HARNESS,
            TID_ARENA,
            Json::obj([]),
        ));
    }

    /// The standalone timeline as a `{"traceEvents": [...]}` document.
    pub fn into_json(self) -> Json {
        Json::obj([
            ("traceEvents", Json::Arr(self.events)),
            ("displayTimeUnit", Json::Str("ms".into())),
            (
                "otherData",
                Json::obj([("producer", Json::Str("fua-trace".into()))]),
            ),
        ])
    }
}

impl TraceSink for ChromeTraceSink {
    fn record(&mut self, event: &TraceEvent) {
        match *event {
            TraceEvent::Stage {
                stage,
                cycle,
                serial,
                opcode,
            } => {
                self.name_stage(stage);
                self.events.push(complete(
                    opcode.to_string(),
                    "stage",
                    cycle,
                    1,
                    PID_PIPELINE,
                    stage as u64,
                    Json::obj([("serial", Json::UInt(serial))]),
                ));
            }
            TraceEvent::Steer {
                cycle,
                serial,
                class,
                case,
                module,
                swap,
                cost_bits,
            } => {
                self.events.push(complete(
                    format!("{class} case{case}→m{module}"),
                    "steer",
                    cycle,
                    1,
                    PID_PIPELINE,
                    TID_STEER,
                    Json::obj([
                        ("serial", Json::UInt(serial)),
                        ("case", Json::Str(case.to_string())),
                        ("module", Json::UInt(module.into())),
                        ("swap", Json::Bool(swap)),
                        ("cost_bits", Json::UInt(cost_bits.into())),
                    ]),
                ));
            }
            TraceEvent::OperandSwap {
                cycle,
                serial,
                class,
                kind,
            } => {
                self.events.push(complete(
                    format!("{} swap ({class})", kind.name()),
                    "swap",
                    cycle,
                    1,
                    PID_PIPELINE,
                    TID_SWAP,
                    Json::obj([("serial", Json::UInt(serial))]),
                ));
            }
            TraceEvent::Energy {
                cycle, class, bits, ..
            } => {
                self.cumulative_bits[class.index()] += bits as u64;
                self.events.push(counter(
                    format!("switched_bits.{class}"),
                    cycle,
                    PID_UNITS,
                    "bits",
                    self.cumulative_bits[class.index()],
                ));
            }
            TraceEvent::Execute {
                cycle,
                serial,
                class,
                module,
                latency,
                opcode,
            } => {
                self.name_module(class, module);
                self.events.push(complete(
                    opcode.to_string(),
                    "execute",
                    cycle,
                    latency,
                    PID_UNITS,
                    module_tid(class, module),
                    Json::obj([("serial", Json::UInt(serial))]),
                ));
            }
            TraceEvent::Cache {
                cycle,
                serial,
                addr,
                hit,
                latency,
            } => {
                self.events.push(complete(
                    (if hit { "hit" } else { "miss" }).to_string(),
                    "cache",
                    cycle,
                    latency,
                    PID_PIPELINE,
                    TID_CACHE,
                    Json::obj([
                        ("serial", Json::UInt(serial)),
                        ("addr", Json::UInt(addr.into())),
                    ]),
                ));
            }
            TraceEvent::Branch {
                cycle,
                serial,
                taken,
                predicted,
            } => {
                let mispredicted = taken != predicted;
                self.events.push(complete(
                    (if mispredicted {
                        "mispredict"
                    } else {
                        "predict"
                    })
                    .to_string(),
                    "branch",
                    cycle,
                    1,
                    PID_PIPELINE,
                    TID_BRANCH,
                    Json::obj([
                        ("serial", Json::UInt(serial)),
                        ("taken", Json::Bool(taken)),
                        ("predicted", Json::Bool(predicted)),
                    ]),
                ));
            }
            TraceEvent::Stall {
                cycle,
                class,
                reason,
                slots,
                pc,
                ..
            } => {
                // Issued slots already render as Issue-stage events;
                // the stall track shows only lost bandwidth.
                if reason != crate::StallReason::Issued {
                    let mut args = vec![
                        ("class".to_string(), Json::Str(class.to_string())),
                        ("slots".to_string(), Json::UInt(slots.into())),
                    ];
                    if let Some(pc) = pc {
                        args.push(("pc".to_string(), Json::UInt(pc.into())));
                    }
                    self.events.push(complete(
                        reason.name().to_string(),
                        "stall",
                        cycle,
                        1,
                        PID_PIPELINE,
                        TID_STALL,
                        Json::Obj(args),
                    ));
                }
            }
            // Dependence records carry no renderable span of their own.
            TraceEvent::Dependence { .. } => {}
            TraceEvent::CycleSummary { cycle, window, .. } => {
                self.events.push(counter(
                    "window".to_string(),
                    cycle,
                    PID_UNITS,
                    "entries",
                    window as u64,
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fua_isa::{Case, Opcode};

    #[test]
    fn export_has_the_chrome_trace_shape() {
        let mut sink = ChromeTraceSink::new();
        assert!(sink.is_empty());
        sink.record(&TraceEvent::Stage {
            stage: Stage::Fetch,
            cycle: 3,
            serial: 0,
            opcode: Opcode::Add,
        });
        sink.record(&TraceEvent::Execute {
            cycle: 4,
            serial: 0,
            class: FuClass::IntAlu,
            module: 2,
            latency: 3,
            opcode: Opcode::Add,
        });
        sink.record(&TraceEvent::Steer {
            cycle: 4,
            serial: 0,
            class: FuClass::IntAlu,
            case: Case::C11,
            module: 2,
            swap: false,
            cost_bits: 9,
        });
        assert!(!sink.is_empty());
        let json = sink.into_json().pretty();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"ph\": \"M\""));
        assert!(json.contains("\"ts\": 3"));
        assert!(json.contains("\"dur\": 3"));
        assert!(json.contains("IALU.m2"));
        assert!(json.contains("case11"));
    }

    #[test]
    fn energy_events_become_cumulative_counters() {
        let mut sink = ChromeTraceSink::new();
        for bits in [5u32, 7] {
            sink.record(&TraceEvent::Energy {
                cycle: 1,
                serial: 0,
                pc: 0,
                class: FuClass::FpAlu,
                module: 0,
                case: Case::C00,
                bits,
            });
        }
        let json = sink.into_json().compact();
        assert!(json.contains("\"bits\":5"));
        assert!(json.contains("\"bits\":12"));
        assert!(json.contains("switched_bits.FPAU"));
    }

    #[test]
    fn workload_labels_with_quotes_and_controls_round_trip() {
        // A deliberately hostile workload name: quote, backslash, tab,
        // newline and a raw control byte. The exported document must
        // still parse, and the label must come back verbatim.
        let name = "he\"ll\\o\tworld\n\u{1}";
        let sink = ChromeTraceSink::for_workload(name);
        let doc = sink.into_json().compact();
        let parsed = Json::parse(&doc).expect("escaped export parses");
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        let labels: Vec<&str> = events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("process_name"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        assert_eq!(
            labels,
            [
                format!("pipeline [{name}]"),
                format!("functional units [{name}]")
            ]
        );
    }

    #[test]
    fn stall_events_render_on_the_stall_track_except_issued() {
        let mut sink = ChromeTraceSink::new();
        sink.record(&TraceEvent::Stall {
            cycle: 2,
            class: FuClass::IntAlu,
            reason: crate::StallReason::OperandWait,
            slots: 2,
            pc: Some(17),
            case: None,
        });
        sink.record(&TraceEvent::Stall {
            cycle: 2,
            class: FuClass::IntAlu,
            reason: crate::StallReason::Issued,
            slots: 1,
            pc: Some(3),
            case: None,
        });
        let doc = sink.into_json().compact();
        let parsed = Json::parse(&doc).expect("export parses");
        let events = parsed.get("traceEvents").and_then(Json::as_arr).unwrap();
        let stalls: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("cat").and_then(Json::as_str) == Some("stall"))
            .collect();
        assert_eq!(stalls.len(), 1, "issued slots stay off the stall track");
        assert_eq!(
            stalls[0].get("name").and_then(Json::as_str),
            Some("operand-wait")
        );
        assert_eq!(
            stalls[0]
                .get("args")
                .and_then(|a| a.get("pc"))
                .and_then(Json::as_u64),
            Some(17)
        );
    }

    #[test]
    fn harness_timeline_renders_workers_queue_and_arena_tracks() {
        let mut t = HarnessTimeline::new("bench");
        assert!(t.is_empty());
        t.worker_span(0, "telemetry", 0, 4, 15, 2_000, 9_000);
        t.worker_span(1, "telemetry", 4, 8, 11, 2_500, 8_000);
        t.worker_span(0, "", 8, 9, 1, 10_000, 10_100);
        t.arena_event("lease-fresh", 1_500);
        assert!(!t.is_empty());
        assert!(t.len() > 5);
        let doc = t.into_json().compact();
        let parsed = Json::parse(&doc).expect("harness export parses");
        let events = parsed.get("traceEvents").and_then(Json::as_arr).unwrap();
        // Worker threads named once each, plus the arena track.
        let threads: Vec<&str> = events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("thread_name"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        assert_eq!(threads, ["worker 0", "worker 1", "arena-pool"]);
        // Spans land on pid 3 with their claim-time queue depth.
        let spans: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("cat").and_then(Json::as_str) == Some("harness"))
            .collect();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].get("pid").and_then(Json::as_u64), Some(3));
        assert_eq!(spans[0].get("ts").and_then(Json::as_u64), Some(2));
        assert_eq!(spans[0].get("dur").and_then(Json::as_u64), Some(7));
        assert_eq!(
            spans[0]
                .get("args")
                .and_then(|a| a.get("queue_depth"))
                .and_then(Json::as_u64),
            Some(15)
        );
        // The empty stage label falls back to "chunk".
        assert_eq!(
            spans[2].get("name").and_then(Json::as_str),
            Some("chunk [8..9)")
        );
        // Queue-depth counter samples ride along.
        let counters = events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("queue_depth"))
            .count();
        assert_eq!(counters, 3);
        // Arena events live on their own track.
        assert!(events.iter().any(|e| {
            e.get("cat").and_then(Json::as_str) == Some("arena")
                && e.get("name").and_then(Json::as_str) == Some("lease-fresh")
        }));
    }

    #[test]
    fn harness_labels_with_quotes_and_controls_round_trip() {
        // Stage and process labels are workload-derived; a hostile one
        // must survive the JSON layer verbatim (same contract as the
        // sim trace's process labels).
        let hostile = "st\"a\\ge\tx\n\u{1}";
        let mut t = HarnessTimeline::new(hostile);
        t.worker_span(0, hostile, 0, 1, 1, 0, 10);
        let doc = t.into_json().compact();
        let parsed = Json::parse(&doc).expect("escaped harness export parses");
        let events = parsed.get("traceEvents").and_then(Json::as_arr).unwrap();
        let process: Vec<&str> = events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("process_name"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        assert_eq!(process, [format!("harness [{hostile}]")]);
        let span = events
            .iter()
            .find(|e| e.get("cat").and_then(Json::as_str) == Some("harness"))
            .expect("span present");
        assert_eq!(
            span.get("args")
                .and_then(|a| a.get("stage"))
                .and_then(Json::as_str),
            Some(hostile)
        );
    }

    #[test]
    fn zero_latency_operations_still_render() {
        let mut sink = ChromeTraceSink::new();
        sink.record(&TraceEvent::Execute {
            cycle: 0,
            serial: 1,
            class: FuClass::IntMul,
            module: 0,
            latency: 0,
            opcode: Opcode::Mul,
        });
        let json = sink.into_json().compact();
        assert!(json.contains("\"dur\":1"), "durations are clamped to ≥1");
    }
}
