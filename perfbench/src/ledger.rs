//! `ledger`: the CI-gate path. `bench_suite_jobs` at the quick config
//! (serial, with the trace sinks attached), the artifact rendered,
//! parsed back and compared, filed in a fresh store, and the history
//! read back with its trends.

use std::fs;
use std::path::{Path, PathBuf};

use fua_analysis::estimate_transitions;
use fua_attr::{attribute_workload, check_attribution, AttributionSink, EnergyAttribution, Scheme};
use fua_core::{observed_scheme, ExperimentConfig, Figure4, Headline};
use fua_exec::Jobs;
use fua_obs::arena_counters;
use fua_report::{
    bench_suite_jobs, compare, trends, BenchReport, Tolerance, UnitFigure, DEFAULT_WINDOW_CYCLES,
};
use fua_sim::{PhaseTimers, Simulator};
use fua_steer::SteeringKind;
use fua_store::Store;
use fua_trace::{NullSink, StallSink, WindowedSink};
use fua_workloads::WorkloadArena;

use crate::digest::Digest;
use crate::metrics::{timed, Layer, LayerReport, LayerTable};
use crate::replay::{replay_figures, Probe, Tally};
use crate::sweep::{self, cell_count, fcfs_totals, sweep_totals};
use crate::{guarded, measure, paper, setup_median, Opts, Outcome};

/// Timed iterations a run makes at least.
const MIN_ITERS: usize = 3;

/// Where a run keeps its stores, under the working directory.
const TMP_ROOT: &str = ".perfbench-tmp";

/// Removes the run's scratch directory when the run ends.
struct TmpDir(PathBuf);

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
        let _ = fs::remove_dir(TMP_ROOT);
    }
}

/// One untraced iteration's products and stage times.
struct Pass {
    /// Seconds of `bench_suite_jobs` split by `suite_parts`, then of
    /// each artifact call.
    parts: Vec<f64>,
    bench_s: f64,
    report: BenchReport,
    /// Every output check of the iteration held.
    ok: bool,
}

/// The seconds of each call after `bench_suite_jobs`, and the bytes.
#[derive(Default)]
struct ArtifactTimes {
    render_s: f64,
    parse_s: f64,
    compare_s: f64,
    trends_s: f64,
    put_s: f64,
    read_s: f64,
    bytes: usize,
}

impl ArtifactTimes {
    fn parts(&self) -> [f64; 6] {
        [
            self.render_s,
            self.parse_s,
            self.compare_s,
            self.put_s,
            self.read_s,
            self.trends_s,
        ]
    }
}

/// Renders, parses, compares, stores and reads back `report` through
/// the public calls, timing each. The flag says every round trip held.
fn artifact_path(report: &BenchReport, store_dir: &Path) -> (ArtifactTimes, bool) {
    let failed = (ArtifactTimes::default(), false);
    let (rendered, render_s) = timed(|| {
        let mut text = report.to_json().pretty();
        text.push('\n');
        text
    });
    let (parsed, parse_s) = timed(|| rendered.parse::<BenchReport>());
    let Ok(parsed) = parsed else { return failed };
    let (cmp, compare_s) = timed(|| compare(&parsed, report, &Tolerance::default()));
    let (store, put_s) = timed(|| {
        let store = Store::open(store_dir).ok()?;
        let receipt = store.put(&rendered, Path::new("perfbench")).ok()?;
        Some((store, receipt))
    });
    let Some((store, receipt)) = store else {
        return failed;
    };
    let (stored, read_s) = timed(|| {
        let key = fua_store::manifest_key(&report.manifest, &receipt.entry.bench_schema);
        let history = store.history(&key).ok()?;
        let [entry] = &history[..] else { return None };
        let text = store.read(entry).ok()?;
        let stored = text.parse::<BenchReport>().ok()?;
        Some((text, stored))
    });
    let Some((stored_text, stored)) = stored else {
        return failed;
    };
    let points = [
        ("stored".to_string(), stored),
        ("fresh".to_string(), report.clone()),
    ];
    let (trend, trends_s) = timed(|| trends(&points, &Tolerance::default()));
    let times = ArtifactTimes {
        render_s,
        parse_s,
        compare_s,
        trends_s,
        put_s,
        read_s,
        bytes: rendered.len(),
    };
    let mut rerendered = parsed.to_json().pretty();
    rerendered.push('\n');
    let ok = rerendered == rendered
        && cmp.findings.is_empty()
        && compare(report, report, &Tolerance::default())
            .findings
            .is_empty()
        && stored_text == rendered
        && trend.is_ok_and(|t| t.passed());
    (times, ok)
}

/// The artifact's own exactness and soundness verdicts.
fn verdicts_hold(r: &BenchReport) -> bool {
    r.telemetry.exact
        && r.attribution.as_ref().is_some_and(|a| a.exact)
        && r.stalls.as_ref().is_some_and(|s| s.exact)
        && r.estimator.as_ref().is_some_and(|e| {
            e.entries.len() == Scheme::ALL.len() && e.entries.iter().all(|x| x.sound)
        })
}

/// Every model statistic in the artifact (wall-clock fields excluded).
fn digest(r: &BenchReport) -> String {
    let mut d = Digest::default();
    d.figure(r.ialu.baseline_switched_bits, &r.ialu.rows)
        .figure(r.fpau.baseline_switched_bits, &r.fpau.rows)
        .f64(r.headline_ialu_pct)
        .f64(r.headline_fpau_pct)
        .f64(r.headline_ialu_compiler_pct);
    for v in r.ialu_occupancy.iter().chain(&r.fpau_occupancy) {
        d.f64(*v);
    }
    d.u64(r.telemetry.windows);
    for v in r.telemetry.switched_bits {
        d.u64(v);
    }
    if let Some(t) = &r.throughput {
        d.u64(t.cycles).u64(t.instructions);
    }
    if let Some(s) = &r.stalls {
        d.u64(s.cycles).u64(s.slots);
        for v in s.mix {
            d.u64(v);
        }
    }
    if let Some(a) = &r.attribution {
        d.u64(a.sites);
        for v in a.switched_bits {
            d.u64(v);
        }
    }
    for e in r.estimator.iter().flat_map(|e| &e.entries) {
        d.str(&e.scheme)
            .u64(e.pcs)
            .u64(e.bound_bits)
            .u64(e.actual_bits);
    }
    d.hex()
}

/// `bench_suite_jobs`'s `bench_s` seconds split into parts: each stage
/// the executor ran (one span per `map_indexed` call, in call order),
/// then whatever the stages do not cover (the arena build, the folds,
/// the rate pass). The timed loop keeps each part's fastest, and parts
/// of a second or less catch fast phases of the host that a whole
/// 3 s suite rarely fits in.
fn suite_parts(bench_s: f64) -> Vec<f64> {
    fua_obs::drain_arena_events();
    let mut spans = fua_obs::drain_spans();
    spans.sort_by_key(|s| s.start_nanos);
    let mut parts: Vec<f64> = spans
        .iter()
        .map(|s| s.end_nanos.saturating_sub(s.start_nanos) as f64 / 1e9)
        .collect();
    parts.push(bench_s - parts.iter().sum::<f64>());
    parts
}

fn pass(config: &ExperimentConfig, store_dir: &Path) -> Pass {
    let (report, bench_s) =
        timed(|| bench_suite_jobs("perfbench", config, DEFAULT_WINDOW_CYCLES, Jobs::serial()));
    let mut parts = suite_parts(bench_s);
    let (times, round_trips) = artifact_path(&report, store_dir);
    let _ = fs::remove_dir_all(store_dir);
    parts.extend(times.parts());
    Pass {
        parts,
        bench_s,
        ok: round_trips && verdicts_hold(&report),
        report,
    }
}

/// Simulation cells of one iteration: the sweep's (profiling pass and
/// both figures), the telemetry and rate passes, and the estimator's
/// attributed run per scheme — one per workload each.
fn cells(arena: &WorkloadArena) -> u64 {
    cell_count(arena) + (arena.all().len() * (2 + Scheme::ALL.len())) as u64
}

fn same_unit(replayed: &Figure4, stored: &UnitFigure) -> bool {
    replayed.rows == stored.rows && replayed.baseline_switched_bits == stored.baseline_switched_bits
}

pub fn run(opts: &Opts) -> Outcome {
    let config = ExperimentConfig::quick();
    let mut out = Outcome {
        notes: vec![
            "ledger: bench_suite_jobs at quick config, serial, then render/parse/compare/store/trends; \
             the seed is recorded but unused (the arena builds input set 0 only)"
                .to_string(),
        ],
        ..Outcome::default()
    };
    // Span collection stays on for the whole run (it cannot be turned
    // off), so every iteration, warm-up included, pays its small cost.
    fua_obs::enable_spans();
    let tmp = TmpDir(Path::new(TMP_ROOT).join(format!("ledger-{}", std::process::id())));
    let setup = || {
        fs::create_dir_all(&tmp.0).expect("the working directory is writable");
        WorkloadArena::build(config.scale)
    };
    let (arena, setup_s) = setup_median(setup);
    let store_dir = tmp.0.join("store");
    let cells = cells(&arena);
    let Some(warm) = guarded(|| pass(&config, &store_dir)) else {
        out.tally(cells, false);
        return out;
    };
    let model = digest(&warm.report);
    // Cycles do not depend on the scheme: every cell counts the FCFS
    // cycles of its program (the artifact's telemetry total is checked
    // against that count).
    let (sweep_cycles, sweep_retired) = sweep_totals(&config, &arena);
    let fcfs = arena
        .all()
        .iter()
        .map(|w| fcfs_totals(&config, &w.program))
        .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    let per_workload_runs = 2 + Scheme::ALL.len() as u64;
    let cycles = sweep_cycles + per_workload_runs * fcfs.0;
    let retired = sweep_retired + per_workload_runs * fcfs.1;
    out.correct = warm.ok
        && warm
            .report
            .throughput
            .is_some_and(|t| (t.cycles, t.instructions) == fcfs);
    out.digest = model.clone();
    out.sheet.set("workloads.build_s", setup_s);
    out.sheet.set(
        "paper_gap_pts",
        paper::gap_pts(&Headline {
            ialu_pct: warm.report.headline_ialu_pct,
            fpau_pct: warm.report.headline_fpau_pct,
            ialu_compiler_pct: warm.report.headline_ialu_compiler_pct,
        }),
    );

    if !opts.trace {
        let measured = measure(opts.seconds, MIN_ITERS, setup, || {
            match guarded(|| pass(&config, &store_dir)) {
                Some(p) => {
                    out.tally(cells, p.ok && digest(&p.report) == model);
                    // A failed round trip reports zero seconds for the
                    // calls it skipped: keep them out of the minima.
                    if p.ok {
                        p.parts
                    } else {
                        Vec::new()
                    }
                }
                None => {
                    out.tally(cells, false);
                    Vec::new()
                }
            }
        });
        measured.record(&mut out, cells, cycles);
        return out;
    }

    let before = arena_counters();
    let Some(untraced) = guarded(|| pass(&config, &store_dir)) else {
        out.tally(cells, false);
        return out;
    };
    let arena_traffic = arena_counters().delta(&before);
    out.tally(cells, untraced.ok && digest(&untraced.report) == model);
    let report = &untraced.report;
    // The bench suite runs serially, so the executor's costs and the
    // stage times come from its sweep run once more through the library
    // on two workers, one per core.
    let jobs = Jobs::new(2).expect("2 > 0");
    let Some(fanned) = guarded(|| sweep::pass(&config, &arena, jobs)) else {
        out.tally(cell_count(&arena), false);
        return out;
    };
    out.tally(
        cell_count(&arena),
        same_unit(&fanned.fig_a, &report.ialu) && same_unit(&fanned.fig_b, &report.fpau),
    );
    let traced = guarded(|| traced_run(&config, report, &tmp.0.join("traced-store"), &mut out));
    let Some((layers, tally, replay_ok)) = traced else {
        out.tally(cells, false);
        return out;
    };
    // The cycle count behind `sim_mhz` assumes scheme-invariant cycles.
    out.tally(cells, replay_ok && tally.mismatches == 0);
    out.notes.push(format!(
        "replay reproduces the artifact's figures and estimator entries: {replay_ok}; \
         scheme mismatches: {}",
        tally.mismatches
    ));
    let s = &mut out.sheet;
    let [profile_s, ialu_s, fpau_s] = fanned.stage_secs;
    let exec = &fanned.exec;
    s.set("core.profile_suite_s", profile_s);
    s.set("core.figure4_ialu_s", ialu_s);
    s.set("core.figure4_fpau_s", fpau_s);
    s.set("exec.busy_fraction", exec.busy_fraction());
    s.set("exec.imbalance", exec.imbalance());
    s.set(
        "exec.idle_s",
        (exec.jobs as f64 * exec.wall_nanos as f64 - exec.busy_nanos() as f64) / 1e9,
    );
    s.set("report.bench_suite_s", untraced.bench_s);
    s.set(
        "sim.arena_fresh_ratio",
        arena_traffic.fresh as f64 / arena_traffic.leases.max(1) as f64,
    );
    s.set("sim.cycles", cycles as f64);
    s.set("sim.ipc", retired as f64 / cycles.max(1) as f64);
    s.set(
        "trace_overhead_s",
        layers.wall - untraced.parts.iter().sum::<f64>(),
    );
    s.set("swap.compiler_pass_s", layers.row(Layer::Swap));
    layers.record(s);
    out.layers = Some(layers);
    out
}

/// The serial traced run: the bench suite's simulations replayed one
/// public call at a time (figures, telemetry sinks one by one,
/// estimator), then the artifact path on `report`.
fn traced_run(
    config: &ExperimentConfig,
    report: &BenchReport,
    store_dir: &Path,
    out: &mut Outcome,
) -> (LayerReport, Tally, bool) {
    let machine = &config.machine;
    let limit = config.inst_limit;
    let mut table = LayerTable::start();
    let mut tally = Tally::default();
    let arena = table.time(Layer::Workloads, || WorkloadArena::build(config.scale));
    let (fig_a, fig_b) = replay_figures(config, &arena, &mut table, &mut tally);
    let mut ok = same_unit(&fig_a, &report.ialu) && same_unit(&fig_b, &report.fpau);

    // Telemetry and rate passes: the untraced 4-bit LUT run, then each
    // sink attached on its own.
    let lut4 = SteeringKind::Lut { slots: 2 };
    let mut references = Vec::new();
    for w in arena.all() {
        let ops = tally.vm_run(&mut table, &w.program, limit);
        let n = ops.len() as u64;
        let (base, base_secs) = tally.fcfs_run(&mut table, machine, &ops);
        let mut reference = Some((base.cycles, base.retired));
        let (r, secs) =
            timed(|| Simulator::new(machine.clone(), observed_scheme()).run_trace(&ops));
        tally.charge_scheme(&mut table, lut4, secs, base_secs, n);
        tally.check_invariant(&mut reference, &r);
        let charge_base = |table: &mut LayerTable, tally: &mut Tally| {
            tally.charge_scheme(table, lut4, secs, base_secs, n)
        };
        charge_base(&mut table, &mut tally);
        tally.probe(
            &mut table,
            Probe::Windowed,
            || {
                let mut sim = Simulator::with_sink(
                    machine.clone(),
                    observed_scheme(),
                    WindowedSink::new(DEFAULT_WINDOW_CYCLES),
                );
                sim.run_trace(&ops);
            },
            secs,
            n,
        );
        charge_base(&mut table, &mut tally);
        tally.probe(
            &mut table,
            Probe::Stall,
            || {
                let mut sim =
                    Simulator::with_sink(machine.clone(), observed_scheme(), StallSink::new());
                sim.run_trace(&ops);
            },
            secs,
            n,
        );
        charge_base(&mut table, &mut tally);
        let sink = tally.probe(
            &mut table,
            Probe::Attribution,
            || {
                let mut sim = Simulator::with_sink(
                    machine.clone(),
                    observed_scheme(),
                    AttributionSink::new(),
                );
                sim.run_trace(&ops);
                sim.into_sink()
            },
            secs,
            n,
        );
        table.time(Layer::Attr, || {
            EnergyAttribution::build(w.name, Scheme::Lut4.label(), &w.program, &sink)
        });
        charge_base(&mut table, &mut tally);
        tally.probe(
            &mut table,
            Probe::PhaseTimers,
            || {
                let mut sim = Simulator::with_parts(
                    machine.clone(),
                    observed_scheme(),
                    NullSink,
                    PhaseTimers::new(),
                );
                sim.run_trace(&ops);
            },
            secs,
            n,
        );
        references.push(reference);
    }

    // Estimator: static bounds per scheme joined against an attributed
    // run of every workload (`check_suite`, one call at a time).
    let mut check_s = 0.0;
    let mut estimate_s = 0.0;
    let entries = report
        .estimator
        .as_ref()
        .map_or(&[][..], |e| &e.entries[..]);
    for (scheme, entry) in Scheme::ALL.iter().zip(entries) {
        let (mut bound, mut actual, mut sound) = (0, 0, true);
        for (w, reference) in arena.all().iter().zip(&mut references) {
            let (est, e_s) = timed(|| estimate_transitions(&w.program, scheme.swap_model()));
            let (check, c_s) = timed(|| {
                let run = attribute_workload(w, *scheme, limit);
                tally.check_invariant(reference, &run.result);
                check_attribution(&est, &run.attribution)
            });
            table.add(Layer::Analysis, e_s);
            table.add(Layer::Attr, c_s);
            estimate_s += e_s;
            check_s += c_s;
            bound += check.bound_bits;
            actual += check.actual_bits;
            sound &= check.sound();
        }
        ok &= entry.scheme == scheme.name()
            && entry.bound_bits == bound
            && entry.actual_bits == actual
            && entry.sound == sound;
    }
    ok &= entries.len() == Scheme::ALL.len();

    // The artifact path, on the untraced iteration's report.
    let ((times, round_trips), secs) = timed(|| artifact_path(report, store_dir));
    let store_s = times.put_s + times.read_s;
    table.add(Layer::Store, store_s);
    table.add(Layer::Report, secs - store_s);
    ok &= round_trips;

    tally.record(&table, &mut out.sheet);
    let s = &mut out.sheet;
    s.set("attr.check_suite_s", check_s);
    s.set("analysis.estimate_s", estimate_s);
    s.set("report.render_s", times.render_s);
    s.set("report.parse_s", times.parse_s);
    s.set("report.compare_s", times.compare_s);
    s.set("report.trends_s", times.trends_s);
    s.set("report.artifact_bytes", times.bytes as f64);
    s.set("store.put_s", times.put_s);
    s.set("store.read_s", times.read_s);
    (table.finish(), tally, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_suite_splits_into_stage_parts_that_sum_to_its_seconds() {
        let config = ExperimentConfig {
            inst_limit: 2_000,
            ..ExperimentConfig::quick()
        };
        fua_obs::enable_spans();
        let (_, bench_s) =
            timed(|| bench_suite_jobs("test", &config, DEFAULT_WINDOW_CYCLES, Jobs::serial()));
        let parts = suite_parts(bench_s);
        // The profiling pass, both figures and the telemetry pass at least.
        assert!(parts.len() >= 5, "{parts:?}");
        assert!(parts.iter().all(|p| *p >= 0.0), "{parts:?}");
        assert!((parts.iter().sum::<f64>() - bench_s).abs() < 1e-9);
    }
}
