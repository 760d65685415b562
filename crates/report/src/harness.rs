//! `fua harness-report`: observe the harness observing.
//!
//! [`HarnessReport::run`] sweeps the full workload set twice with span
//! collection on: a serial reference pass that doubles as the
//! allocation-measurement window (it is the only thread doing work, so
//! the process-wide counters see exactly its allocations), then the
//! parallel sweep under `jobs` that feeds the worker timeline.
//!
//! The text and JSON views carry only model-deterministic figures — cell
//! counts, simulated cycles, arena-lease totals, and the serial-pass
//! allocation counts (constant for a given build) — so they are
//! byte-identical for every worker count. Everything wall-clock (worker
//! busy spans, utilization, imbalance) goes to the log line
//! ([`sweep_summary`](HarnessReport::sweep_summary)) and the side
//! exports: [`timeline`](HarnessReport::timeline) and
//! [`folded_stacks`](HarnessReport::folded_stacks).

use std::collections::BTreeMap;

use fua_core::ExperimentConfig;
use fua_exec::{heartbeat_stage, map_indexed, map_indexed_timed, ExecReport, Jobs};
use fua_obs::{AllocSnapshot, ArenaCounters, ArenaEvent, HarnessSpan};
use fua_trace::{HarnessTimeline, Json, TextTable, ToJson};
use fua_workloads::Workload;

use crate::bench::rate_cell;

/// One `harness-report` sweep: both passes' deterministic totals and the
/// wall-clock observations behind the side exports.
#[derive(Debug)]
pub struct HarnessReport {
    // Per pass (both passes agree on every model total).
    cells: u64,
    cycles: u64,
    retired: u64,
    serial_arena: ArenaCounters,
    parallel_arena: ArenaCounters,
    /// Heap allocations of the serial pass.
    allocations: AllocSnapshot,
    parallel_exec: ExecReport,
    /// Worker spans and arena events collected over both passes.
    spans: Vec<HarnessSpan>,
    arena_events: Vec<ArenaEvent>,
}

impl HarnessReport {
    /// Enables span collection and runs both passes over `workloads`
    /// under `config`; an error when the parallel sweep's simulated
    /// cycles diverge from the serial pass's.
    pub fn run(
        workloads: &[Workload],
        config: &ExperimentConfig,
        jobs: Jobs,
    ) -> Result<Self, String> {
        let cell = |_, w: &Workload| {
            let (_, cycles, retired) = rate_cell(&config.machine, w, config.inst_limit);
            (cycles, retired)
        };
        fua_obs::enable_spans();

        // Serial reference pass: the allocation window. Snapshot deltas
        // are attributable because nothing else runs concurrently yet.
        heartbeat_stage("harness-report: serial pass");
        let arena_before = fua_obs::arena_counters();
        let alloc_before = fua_obs::alloc_snapshot();
        let serial_cells = map_indexed(Jobs::serial(), workloads, cell);
        let allocations = fua_obs::alloc_snapshot().delta(&alloc_before);
        let serial_arena = fua_obs::arena_counters().delta(&arena_before);

        // The observed parallel sweep: same cells, `jobs` workers.
        heartbeat_stage("harness-report: parallel sweep");
        let arena_before = fua_obs::arena_counters();
        let (parallel_cells, parallel_exec) = map_indexed_timed(jobs, workloads, cell);
        let parallel_arena = fua_obs::arena_counters().delta(&arena_before);

        // The determinism claim the report leans on: both passes run the
        // same deterministic engine, so their model totals must agree.
        let cycles: u64 = serial_cells.iter().map(|c| c.0).sum();
        let parallel_cycles: u64 = parallel_cells.iter().map(|c| c.0).sum();
        if cycles != parallel_cycles {
            return Err(format!(
                "parallel sweep diverged from the serial reference: \
                 {parallel_cycles} simulated cycles vs {cycles}"
            ));
        }
        Ok(HarnessReport {
            cells: workloads.len() as u64,
            cycles,
            retired: serial_cells.iter().map(|c| c.1).sum(),
            serial_arena,
            parallel_arena,
            allocations,
            parallel_exec,
            spans: fua_obs::drain_spans(),
            arena_events: fua_obs::drain_arena_events(),
        })
    }

    /// The deterministic text report.
    pub fn render(&self) -> String {
        let mut table = TextTable::new(["stage", "cells", "simulated cycles", "arena leases"]);
        for (stage, arena) in [
            ("serial pass", &self.serial_arena),
            ("parallel sweep", &self.parallel_arena),
        ] {
            table.push_row([
                stage.to_string(),
                self.cells.to_string(),
                self.cycles.to_string(),
                arena.leases.to_string(),
            ]);
        }
        format!(
            "{table}\nretired {} instruction(s) per pass\n\
             serial-pass allocations: {} alloc(s), {} byte(s)",
            self.retired, self.allocations.allocs, self.allocations.bytes
        )
    }

    /// The parallel sweep's wall-clock summary, for the log.
    pub fn sweep_summary(&self) -> String {
        let exec = &self.parallel_exec;
        format!(
            "parallel sweep busy {:.1}% over {} worker(s), imbalance {:.2}, \
             wall {:.3}s ({} span(s), {} arena event(s) collected)",
            exec.busy_fraction() * 100.0,
            exec.jobs,
            exec.imbalance(),
            exec.wall_nanos as f64 / 1e9,
            self.spans.len(),
            self.arena_events.len()
        )
    }

    /// The worker and arena timeline as Perfetto JSON text.
    pub fn timeline(&self) -> String {
        let mut timeline = HarnessTimeline::new("harness-report");
        for s in &self.spans {
            timeline.worker_span(
                s.worker,
                &s.stage,
                s.lo,
                s.hi,
                s.queue_depth,
                s.start_nanos,
                s.end_nanos,
            );
        }
        for e in &self.arena_events {
            timeline.arena_event(e.kind.label(), e.nanos);
        }
        let mut text = timeline.into_json().pretty();
        text.push('\n');
        text
    }

    /// Folded stacks, `harness;worker-N;stage <busy nanoseconds>`.
    pub fn folded_stacks(&self) -> String {
        let mut folded: BTreeMap<(u32, String), u64> = BTreeMap::new();
        for s in &self.spans {
            let stage = if s.stage.is_empty() {
                "chunk".to_string()
            } else {
                flame_frame(&s.stage)
            };
            *folded.entry((s.worker, stage)).or_insert(0) +=
                s.end_nanos.saturating_sub(s.start_nanos);
        }
        folded
            .iter()
            .map(|((worker, stage), nanos)| format!("harness;worker-{worker};{stage} {nanos}\n"))
            .collect()
    }
}

impl ToJson for HarnessReport {
    fn to_json(&self) -> Json {
        let stage = |arena: &ArenaCounters| {
            Json::obj([
                ("cells", Json::UInt(self.cells)),
                ("cycles", Json::UInt(self.cycles)),
                ("retired", Json::UInt(self.retired)),
                ("arena_leases", Json::UInt(arena.leases)),
            ])
        };
        Json::obj([
            ("schema", Json::Str("fua-harness-report/1".into())),
            ("serial_pass", stage(&self.serial_arena)),
            ("parallel_sweep", stage(&self.parallel_arena)),
            (
                "serial_pass_allocations",
                Json::obj([
                    ("allocs", Json::UInt(self.allocations.allocs)),
                    ("bytes", Json::UInt(self.allocations.bytes)),
                ]),
            ),
        ])
    }
}

/// Frame-name sanitizer for the folded-stack export: `flamegraph.pl`
/// splits frames on `;` and the sample count on the last space, so
/// neither may appear inside a frame.
fn flame_frame(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c == ';' || c.is_whitespace() {
                '-'
            } else {
                c
            }
        })
        .collect()
}
