//! `fua` — command-line front end for the reproduction.
//!
//! ```text
//! fua tables                  regenerate Tables 1–3
//! fua figure4 <ialu|fpau>     regenerate Figure 4(a)/(b)
//! fua headline                the paper's headline numbers
//! fua fig1                    Figure 1 routing example
//! fua synth                   Section-5 gate-cost report
//! fua chip                    chip-level power extrapolation (§1)
//! fua breakdown <ialu|fpau>   per-workload results
//! fua sensitivity             compiler-swap cross-input study
//! fua staticswap <ialu|fpau>  static vs profile-guided swapping
//! fua analyze <workload>      static information-bit predictions
//! fua estimate <w|all>        static switched-bit upper bounds per PC/block
//! fua lint [workload]         lint one workload (or all 15)
//! fua workloads               list the bundled workloads
//! fua run <workload>          simulate one workload under every scheme
//! fua trace <workload>        cycle-level trace of one workload
//! fua profile-energy <w|all>  attribute switched bits to PCs/blocks
//! fua profile-cycles <w|all>  attribute issue slots to stall reasons/PCs
//! fua bench-suite             run the quick suite, write BENCH_<tag>.json
//!                             (or append to the run store with --store)
//! fua report                  diff a BENCH artifact against a baseline
//! fua store <ls|show|put|gc>  inspect the content-addressed run store
//! fua trends                  metric trajectories over the stored runs
//! fua harness-report          observe the harness observing: worker
//!                             timelines, arena traffic, allocations
//!
//! options: --limit <N>      retired-instruction cap per run
//!                           (default 150000; 20000 for `trace`; 25000 for
//!                           `bench-suite`/`report`/`profile-energy`/
//!                           `profile-cycles`)
//!          --scale <N>      workload scale factor (default 1)
//!          --jobs <N>       worker threads for the parallel sweeps
//!                           (figure4/headline/bench-suite/report;
//!                           default: available parallelism; 1 = serial)
//!          --json           emit machine-readable JSON instead of tables
//!          --metrics        print a metrics snapshot (run/figure4/headline/trace)
//!          --out <FILE>     write Chrome trace-event JSON (trace only)
//!          --last <N>       print the last N trace events (trace only)
//!          --window <N>     telemetry window in cycles (trace/bench-suite/report)
//!          --csv <FILE>     write windowed telemetry CSV (trace only)
//!          --scheme <S>     steering scheme for profile-energy/
//!                           profile-cycles/estimate (default lut4)
//!          --compare <A> <B> differential attribution of two schemes
//!          --per-block      aggregate estimate output per basic block
//!          --verify         check static bounds against dynamic attribution
//!          --top <N>        hotspot/mover rows to print (default 10)
//!          --flame <FILE>   write a collapsed-stack flamegraph file
//!          --critical-path  print the retirement critical path (profile-cycles)
//!          --tag <T>        artifact tag for bench-suite (default "local")
//!          --baseline <F>   baseline BENCH json for report (or --store)
//!          --current <F>    current BENCH json for report (default: fresh run)
//!          --store          bench-suite appends to the run store; report
//!                           diffs the two newest stored runs
//!          --store-dir <D>  run-store directory (default .fua-store;
//!                           implies --store)
//!          --progress       heartbeat lines on stderr; stdout and artifacts
//!                           are byte-identical with or without it
//!          --openmetrics <F> write an OpenMetrics text exposition
//!                           (harness-report only)
//!          --version        print the version and exit
//!          --help           print the command table and exit
//! ```
//!
//! Parallel runs are deterministic: `--jobs N` produces byte-identical
//! tables, artifacts and exports for every `N` (see EXPERIMENTS.md).
//!
//! Human-readable progress and log lines go to **stderr**; stdout carries
//! only the command's actual output (tables, JSON, trace tails, report
//! findings), so `fua run --json`, `fua trace --out` and the report
//! commands compose cleanly with pipes.

use std::path::Path;
use std::process::ExitCode;

mod cli;

use cli::{
    bench_config, config, dispatch, help, parse_options, parse_scheme, profile_workloads,
    unknown_workload, usage, Cmd, Options, StoreAction, DEFAULT_LIMIT, PROFILE_DEFAULT_LIMIT,
};
use fua::attr::Scheme;
use fua::core::{
    chip_estimate, figure4_jobs, headline_jobs, profile_suite, routing_example,
    static_swap_comparison, swap_sensitivity, synthesis_report, workload_breakdown, ChipEstimate,
    ExperimentConfig, Figure4, Headline, Json, RoutingExample, StaticSwapComparison,
    SwapSensitivity, SynthesisReport, ToJson, Unit, WorkloadBreakdown,
};
use fua::exec::{enable_heartbeat, heartbeat_stage};
use fua::isa::FuClass;
use fua::report::{
    bench_suite_jobs, compare, trends, BenchReport, Finding, Severity, Tolerance, TrendError,
    DEFAULT_WINDOW_CYCLES,
};
use fua::sim::{MachineConfig, Simulator, SteeringConfig};
use fua::stats::TextTable;
use fua::steer::SteeringKind;
use fua::store::{IndexEntry, Store};
use fua::trace::MetricsRegistry;

// With `--features harness-obs` every allocation in the binary routes
// through the counting wrapper, so `harness-report` and the BENCH
// harness digest carry real allocs/bytes figures. The default build
// keeps the untouched system allocator; results are byte-identical
// either way (the wrapper changes no allocation behaviour).
#[cfg(feature = "harness-obs")]
#[global_allocator]
static COUNTING_ALLOC: fua::obs::CountingAlloc = fua::obs::CountingAlloc;

/// What every command returns: `Ok(false)` when one of its gates
/// failed (the command already said why on stdout), `Err` for an error
/// `main` prints to stderr. Both exit nonzero.
type CmdResult = Result<bool, String>;

fn cmd_tables(opts: &Options) -> CmdResult {
    let p = profile_suite(&config(opts));
    println!("{}", p.table1());
    println!("{}", p.table2());
    println!("{}", p.table3());
    Ok(true)
}

/// Per-unit metrics snapshots, one suite run with a recorder attached
/// per unit; empty unless `--metrics` was given.
fn unit_metrics(
    units: &[Unit],
    cfg: &ExperimentConfig,
    opts: &Options,
) -> Vec<(Unit, MetricsRegistry)> {
    if !opts.metrics {
        return Vec::new();
    }
    units
        .iter()
        .map(|&u| (u, fua::core::suite_metrics(u, cfg)))
        .collect()
}

/// Prints a report as JSON or as its text rendering. With metrics, JSON
/// output wraps the report as `{"report": ..., "metrics": {...}}` and
/// text output appends the rendered registries.
fn emit<T: ToJson>(
    value: &T,
    render: impl FnOnce(&T) -> String,
    metrics: &[(Unit, MetricsRegistry)],
    json: bool,
) -> CmdResult {
    if json && metrics.is_empty() {
        println!("{}", value.to_json().pretty());
    } else if json {
        let m = Json::Obj(
            metrics
                .iter()
                .map(|(u, r)| (u.to_string(), r.to_json()))
                .collect(),
        );
        let doc = Json::obj([("report", value.to_json()), ("metrics", m)]);
        println!("{}", doc.pretty());
    } else {
        println!("{}", render(value));
        for (unit, registry) in metrics {
            println!("\nmetrics — {unit} suite under 4-bit LUT + hardware swap:\n{registry}");
        }
    }
    Ok(true)
}

fn cmd_figure4(unit: Unit, opts: &Options) -> CmdResult {
    let cfg = config(opts);
    heartbeat_stage("figure4: scheme sweep");
    let fig = figure4_jobs(unit, &cfg, opts.jobs);
    emit(
        &fig,
        Figure4::render,
        &unit_metrics(&[unit], &cfg, opts),
        opts.json,
    )
}

fn cmd_headline(opts: &Options) -> CmdResult {
    let cfg = config(opts);
    heartbeat_stage("headline: scheme sweeps");
    let h = headline_jobs(&cfg, opts.jobs);
    let render = |h: &Headline| {
        format!(
            "IALU 4-bit LUT + hw swap:            {:>6.1}%   (paper ~17%)\n\
             FPAU 4-bit LUT + hw swap:            {:>6.1}%   (paper ~18%)\n\
             IALU 4-bit LUT + hw + compiler swap: {:>6.1}%   (paper ~26%)",
            h.ialu_pct, h.fpau_pct, h.ialu_compiler_pct
        )
    };
    let metrics = unit_metrics(&[Unit::Ialu, Unit::Fpau], &cfg, opts);
    emit(&h, render, &metrics, opts.json)
}

fn cmd_workloads(opts: &Options) -> CmdResult {
    let mut t = TextTable::new(["name", "category", "static insts", "description"]);
    for w in fua::workloads::all(opts.scale) {
        t.push_row([
            w.name.to_string(),
            w.category.to_string(),
            w.program.len().to_string(),
            w.description.to_string(),
        ]);
    }
    println!("{t}");
    Ok(true)
}

/// Renders an abstract bit as `0`, `1`, or `?`.
fn bit_glyph(bit: fua::analysis::AbsBit) -> &'static str {
    match bit.definite() {
        Some(false) => "0",
        Some(true) => "1",
        None => "?",
    }
}

fn cmd_analyze(name: &str, opts: &Options) -> CmdResult {
    let w = fua::workloads::by_name(name, opts.scale)
        .ok_or_else(|| unknown_workload(name, opts.scale))?;
    let analysis = fua::analysis::InfoBitAnalysis::run(&w.program);
    let mut t = TextTable::new(["#", "op", "class", "op1", "op2", "case"]);
    for idx in 0..w.program.len() {
        let inst = w.program.inst(idx);
        if !analysis.is_reachable(idx) {
            t.push_row([
                idx.to_string(),
                inst.op.to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "unreachable".to_string(),
            ]);
            continue;
        }
        let Some(p) = analysis.prediction(idx) else {
            continue; // j/halt/fli occupy no FU
        };
        t.push_row([
            idx.to_string(),
            inst.op.to_string(),
            p.class.to_string(),
            bit_glyph(p.op1).to_string(),
            bit_glyph(p.op2).to_string(),
            match p.case() {
                Some(c) => c.to_string(),
                None => "?".to_string(),
            },
        ]);
    }
    let (with_fu, definite) = analysis.coverage();
    println!(
        "{}: static information-bit predictions (sign / low-4-mantissa domains)\n{t}\
         {definite}/{with_fu} FU instructions with a definite case",
        w.name
    );
    Ok(true)
}

fn lint_one(w: &fua::workloads::Workload) -> usize {
    let lints = fua::analysis::lint_program(&w.program);
    if lints.is_empty() {
        println!("{}: clean", w.name);
    } else {
        for l in &lints {
            println!("{}: {l}", w.name);
        }
    }
    lints.len()
}

fn cmd_lint(name: Option<&str>, opts: &Options) -> CmdResult {
    let total = match name {
        Some(n) => {
            let w = fua::workloads::by_name(n, opts.scale)
                .ok_or_else(|| unknown_workload(n, opts.scale))?;
            lint_one(&w)
        }
        None => fua::workloads::all(opts.scale).iter().map(lint_one).sum(),
    };
    if total > 0 {
        println!("{total} finding(s)");
    }
    Ok(total == 0)
}

fn cmd_run(name: &str, opts: &Options) -> CmdResult {
    let w = fua::workloads::by_name(name, opts.scale)
        .ok_or_else(|| unknown_workload(name, opts.scale))?;
    let class = match w.category {
        fua::workloads::Category::Integer => FuClass::IntAlu,
        fua::workloads::Category::FloatingPoint => FuClass::FpAlu,
    };
    let limit = opts.limit.unwrap_or(DEFAULT_LIMIT);

    // Baseline run — with `--metrics` it carries a recorder so the
    // snapshot can be cross-checked against the ledger.
    let (baseline, registry) = if opts.metrics {
        let mut sim = Simulator::with_sink(
            MachineConfig::paper_default(),
            SteeringConfig::original(),
            fua::trace::MetricsRecorder::new(),
        );
        let r = sim
            .run_program(&w.program, limit)
            .map_err(|e| e.to_string())?;
        (r, Some(sim.into_sink().into_registry()))
    } else {
        let mut sim = Simulator::new(MachineConfig::paper_default(), SteeringConfig::original());
        let r = sim
            .run_program(&w.program, limit)
            .map_err(|e| e.to_string())?;
        (r, None)
    };

    // (label, switched bits, reduction vs baseline) per scheme.
    let mut rows: Vec<(String, u64, Option<f64>)> = vec![(
        "Original".to_string(),
        baseline.ledger.switched_bits(class),
        None,
    )];
    for kind in SteeringKind::FIGURE4 {
        if kind == SteeringKind::Original {
            continue;
        }
        let mut sim = Simulator::new(
            MachineConfig::paper_default(),
            SteeringConfig::paper_scheme(kind, true),
        );
        let r = sim
            .run_program(&w.program, limit)
            .map_err(|e| e.to_string())?;
        rows.push((
            format!("{kind} + hw swap"),
            r.ledger.switched_bits(class),
            Some(100.0 * r.reduction_vs(&baseline, class)),
        ));
    }

    if opts.json {
        let schemes = Json::Arr(
            rows.iter()
                .map(|(label, bits, red)| {
                    Json::obj([
                        ("scheme", Json::Str(label.clone())),
                        ("switched_bits", Json::UInt(*bits)),
                        ("reduction_pct", red.map(Json::Float).unwrap_or(Json::Null)),
                    ])
                })
                .collect(),
        );
        let mut fields = vec![
            ("workload".to_string(), Json::Str(w.name.to_string())),
            ("class".to_string(), Json::Str(class.to_string())),
            ("retired".to_string(), Json::UInt(baseline.retired)),
            ("cycles".to_string(), Json::UInt(baseline.cycles)),
            ("ipc".to_string(), Json::Float(baseline.ipc())),
            ("halted".to_string(), Json::Bool(baseline.halted)),
            ("branches".to_string(), baseline.branches.to_json()),
            ("cache".to_string(), baseline.cache.to_json()),
            ("swaps".to_string(), baseline.swaps.to_json()),
            ("ledger".to_string(), baseline.ledger.to_json()),
            ("schemes".to_string(), schemes),
        ];
        if let Some(reg) = &registry {
            fields.push(("metrics".to_string(), reg.to_json()));
        }
        println!("{}", Json::Obj(fields).pretty());
        return Ok(true);
    }

    println!(
        "{}: retired {} in {} cycles (IPC {:.2}), branch mispredict {:.1}%, \
         D-cache hit {:.1}%",
        w.name,
        baseline.retired,
        baseline.cycles,
        baseline.ipc(),
        100.0 * baseline.branches.mispredict_rate(),
        100.0 * baseline.cache.hit_rate(),
    );
    let mut t = TextTable::new(["scheme", format!("{class} bits").as_str(), "reduction"]);
    for (label, bits, red) in &rows {
        t.push_row([
            label.clone(),
            bits.to_string(),
            match red {
                Some(r) => format!("{r:.1}%"),
                None => "-".to_string(),
            },
        ]);
    }
    println!("{t}");
    if let Some(reg) = &registry {
        println!("metrics — baseline (Original) run:\n{reg}");
    }
    Ok(true)
}

/// One-line rendering of a trace event for the terminal tail view.
fn fmt_event(e: &fua::trace::TraceEvent) -> String {
    use fua::trace::TraceEvent as E;
    match *e {
        E::Stage {
            stage,
            cycle,
            serial,
            opcode,
        } => format!("[{cycle:>7}] {:<9} #{serial} {opcode}", stage.name()),
        E::Steer {
            cycle,
            serial,
            class,
            case,
            module,
            swap,
            cost_bits,
        } => format!(
            "[{cycle:>7}] steer     #{serial} {class} case{case} -> m{module}{} ({cost_bits} bits)",
            if swap { " swapped" } else { "" }
        ),
        E::OperandSwap {
            cycle,
            serial,
            class,
            kind,
        } => format!("[{cycle:>7}] swap      #{serial} {class} ({})", kind.name()),
        E::Energy {
            cycle,
            serial,
            pc,
            class,
            module,
            case,
            bits,
        } => format!(
            "[{cycle:>7}] energy    #{serial} pc{pc} {class}.m{module} case{case} +{bits} bits"
        ),
        E::Execute {
            cycle,
            serial,
            class,
            module,
            latency,
            opcode,
        } => {
            format!("[{cycle:>7}] execute   #{serial} {opcode} on {class}.m{module} ({latency} cy)")
        }
        E::Cache {
            cycle,
            serial,
            addr,
            hit,
            latency,
        } => format!(
            "[{cycle:>7}] d-cache   #{serial} @{addr:#010x} {} ({latency} cy)",
            if hit { "hit" } else { "miss" }
        ),
        E::Branch {
            cycle,
            serial,
            taken,
            predicted,
        } => format!("[{cycle:>7}] branch    #{serial} taken={taken} predicted={predicted}"),
        E::Stall {
            cycle,
            class,
            reason,
            slots,
            pc,
            ..
        } => format!(
            "[{cycle:>7}] stall     {class} {} x{slots}{}",
            reason.name(),
            match pc {
                Some(pc) => format!(" pc{pc}"),
                None => String::new(),
            }
        ),
        E::Dependence {
            cycle,
            serial,
            pc,
            dep1,
            dep2,
        } => format!(
            "[{cycle:>7}] deps      #{serial} pc{pc} <- {}",
            match (dep1, dep2) {
                (None, None) => "none".to_string(),
                (Some(a), None) => format!("#{a}"),
                (None, Some(b)) => format!("#{b}"),
                (Some(a), Some(b)) => format!("#{a} #{b}"),
            }
        ),
        E::CycleSummary {
            cycle,
            window,
            issued,
        } => format!("[{cycle:>7}] cycle     window={window} issued={issued}"),
    }
}

fn cmd_trace(name: &str, opts: &Options) -> CmdResult {
    use fua::trace::{ChromeTraceSink, MetricsRecorder, RingBufferSink, WindowedSink};

    let w = fua::workloads::by_name(name, opts.scale)
        .ok_or_else(|| unknown_workload(name, opts.scale))?;
    let limit = opts.limit.unwrap_or(cli::TRACE_DEFAULT_LIMIT);
    let window = opts.window.unwrap_or(DEFAULT_WINDOW_CYCLES);
    let mut sim = Simulator::with_sink(
        MachineConfig::paper_default(),
        fua::core::observed_scheme(),
        (
            ChromeTraceSink::for_workload(w.name),
            (
                RingBufferSink::default(),
                (MetricsRecorder::new(), WindowedSink::new(window)),
            ),
        ),
    );
    let result = sim
        .run_program(&w.program, limit)
        .map_err(|e| e.to_string())?;
    let (chrome, (ring, (recorder, windowed))) = sim.into_sink();
    let registry = recorder.into_registry();
    let series = windowed.into_series();

    // Progress lines go to stderr; stdout stays machine-clean for
    // `--out`/`--csv` pipelines.
    eprintln!(
        "{}: retired {} in {} cycles (IPC {:.2}) under 4-bit LUT + hw swap; \
         {} trace events ({} retained in ring), {} telemetry windows of {} cycles",
        w.name,
        result.retired,
        result.cycles,
        result.ipc(),
        ring.recorded(),
        ring.events().len(),
        series.len(),
        series.window_cycles(),
    );

    if let Some(path) = &opts.out {
        // Merge the windowed counter tracks into the Chrome document so
        // Perfetto shows counters alongside the per-instruction slices.
        let mut doc = chrome.into_json();
        if let Json::Obj(fields) = &mut doc {
            if let Some((_, Json::Arr(events))) =
                fields.iter_mut().find(|(k, _)| k == "traceEvents")
            {
                events.extend(series.counter_events());
            }
        }
        std::fs::write(path, doc.compact()).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote Chrome trace JSON to {path} — load it at https://ui.perfetto.dev");
    }

    if let Some(path) = &opts.csv {
        std::fs::write(path, series.to_csv()).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote windowed telemetry CSV to {path}");
    }

    let tail = opts.last.unwrap_or(16);
    if opts.last.is_some() || (opts.out.is_none() && opts.csv.is_none()) {
        println!("last {} events:", tail.min(ring.events().len()));
        for e in ring.tail(tail) {
            println!("{}", fmt_event(e));
        }
    }

    if opts.metrics {
        println!("\nmetrics:\n{registry}");
    } else {
        eprintln!(
            "(--metrics prints the counter/histogram snapshot; \
             --out FILE exports Perfetto JSON; --csv FILE the telemetry series; \
             --last N sizes the tail)"
        );
    }
    Ok(true)
}

/// Writes the concatenated collapsed stacks of a profiler's runs to
/// `path`, logging the line count under the command's name.
fn write_flame(
    command: &str,
    path: &str,
    stacks: impl Iterator<Item = String>,
) -> Result<(), String> {
    let stacks: String = stacks.collect();
    std::fs::write(path, &stacks).map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!(
        "{command}: wrote {} collapsed-stack line(s) to {path}",
        stacks.lines().count()
    );
    Ok(())
}

/// The shared preamble of `estimate`, `profile-energy` and
/// `profile-cycles`: rejects `--scheme` with `--compare`, then resolves
/// the `<workload|all>` argument and the schemes to run — `--scheme`
/// (default 4-bit LUT) alone, or `--compare`'s A with its B.
fn profile_inputs(
    name: &str,
    opts: &Options,
) -> Result<(Vec<fua::workloads::Workload>, Scheme, Option<Scheme>), String> {
    if opts.scheme.is_some() && opts.compare.is_some() {
        return Err("--scheme and --compare are mutually exclusive".into());
    }
    let workloads = profile_workloads(name, opts.scale)?;
    Ok(match (&opts.compare, opts.scheme.as_deref()) {
        (Some((a, b)), _) => (
            workloads,
            parse_scheme("--compare", a)?,
            Some(parse_scheme("--compare", b)?),
        ),
        (None, Some(s)) => (workloads, parse_scheme("--scheme", s)?, None),
        (None, None) => (workloads, Scheme::Lut4, None),
    })
}

/// Checks every run's exact-partition invariant, logging per workload.
fn verify_exact(runs: &[fua::attr::AttributedRun]) -> Result<(), String> {
    for run in runs {
        let a = &run.attribution;
        eprintln!(
            "profile-energy: {} under {}: {} cycles, {} switched bits over {} sites, exact: {}",
            a.workload,
            a.scheme,
            run.result.cycles,
            a.total_bits(),
            a.rows().len(),
            run.exact()
        );
        if !run.exact() {
            return Err(format!(
                "attribution for {} did not reproduce the energy ledger",
                a.workload
            ));
        }
    }
    Ok(())
}

/// Renders the suite-wide top-N hotspot table for one scheme's runs.
fn hotspot_table(runs: &[fua::attr::AttributedRun], top: usize) -> TextTable {
    let suite_bits: u64 = runs.iter().map(|r| r.attribution.total_bits()).sum();
    let mut spots: Vec<(String, fua::attr::Hotspot)> = Vec::new();
    for run in runs {
        for h in run.attribution.hotspots(top) {
            spots.push((run.attribution.workload.clone(), h));
        }
    }
    spots.sort_by(|(wa, a), (wb, b)| {
        b.bits
            .cmp(&a.bits)
            .then_with(|| wa.cmp(wb))
            .then(a.pc.cmp(&b.pc))
    });
    spots.truncate(top);
    let mut table = TextTable::new(["workload", "pc", "block", "opcode", "bits", "ops", "share"]);
    for (workload, h) in &spots {
        let share = if suite_bits == 0 {
            0.0
        } else {
            100.0 * h.bits as f64 / suite_bits as f64
        };
        table.push_row([
            workload.clone(),
            format!("pc{}", h.pc),
            h.block.clone(),
            h.opcode.clone(),
            h.bits.to_string(),
            h.ops.to_string(),
            format!("{share:.2}%"),
        ]);
    }
    table
}

/// The per-module and per-case switched-bit breakdown for the
/// duplicated FU classes, summed across runs.
fn breakdown_table(runs: &[fua::attr::AttributedRun]) -> TextTable {
    let mut table = TextTable::new(["class", "m0", "m1", "m2", "m3", "c00", "c01", "c10", "c11"]);
    for class in [FuClass::IntAlu, FuClass::FpAlu] {
        let mut modules = [0u64; fua::attr::MAX_MODULES];
        let mut cases = [0u64; 4];
        for run in runs {
            let m = run.attribution.module_bits(class);
            let c = run.attribution.case_bits(class);
            for (acc, v) in modules.iter_mut().zip(m) {
                *acc += v;
            }
            for (acc, v) in cases.iter_mut().zip(c) {
                *acc += v;
            }
        }
        table.push_row(
            std::iter::once(class.to_string())
                .chain(modules.iter().take(4).map(u64::to_string))
                .chain(cases.iter().map(u64::to_string)),
        );
    }
    table
}

fn cmd_profile_energy(name: &str, opts: &Options) -> CmdResult {
    use fua::attr::{attribute_suite, AttributionDiff};

    let (workloads, scheme, compare_to) = profile_inputs(name, opts)?;
    let limit = opts.limit.unwrap_or(PROFILE_DEFAULT_LIMIT);
    let top = opts.top.unwrap_or(10);
    heartbeat_stage("profile-energy: attributing");

    if let Some(scheme_b) = compare_to {
        let scheme_a = scheme;
        eprintln!(
            "profile-energy: comparing {} vs {} over {} workload(s) (limit {limit}, {} job(s))",
            scheme_a.label(),
            scheme_b.label(),
            workloads.len(),
            opts.jobs
        );
        let runs_a = attribute_suite(&workloads, scheme_a, limit, opts.jobs);
        let runs_b = attribute_suite(&workloads, scheme_b, limit, opts.jobs);
        verify_exact(&runs_a)?;
        verify_exact(&runs_b)?;
        let diffs: Vec<AttributionDiff> = runs_a
            .iter()
            .zip(&runs_b)
            .map(|(a, b)| AttributionDiff::between(&a.attribution, &b.attribution))
            .collect();

        if opts.json {
            let doc = Json::Arr(diffs.iter().map(AttributionDiff::to_json).collect());
            println!("{}", doc.pretty());
        } else {
            let mut totals = TextTable::new([
                "workload".to_string(),
                format!("bits A ({})", scheme_a.name()),
                format!("bits B ({})", scheme_b.name()),
                "delta".to_string(),
                "saving".to_string(),
            ]);
            for d in &diffs {
                totals.push_row([
                    d.workload.clone(),
                    d.total_a.to_string(),
                    d.total_b.to_string(),
                    d.total_delta().to_string(),
                    format!("{:.2}%", d.saving_pct()),
                ]);
            }
            println!(
                "switched bits, {} (A) vs {} (B):",
                scheme_a.label(),
                scheme_b.label()
            );
            println!("{totals}");

            let mut movers: Vec<(&str, &fua::attr::PcDelta)> = diffs
                .iter()
                .flat_map(|d| d.movers.iter().map(move |m| (d.workload.as_str(), m)))
                .collect();
            movers.sort_by(|(wa, a), (wb, b)| {
                b.delta
                    .unsigned_abs()
                    .cmp(&a.delta.unsigned_abs())
                    .then_with(|| wa.cmp(wb))
                    .then(a.pc.cmp(&b.pc))
            });
            movers.truncate(top);
            let mut table = TextTable::new([
                "workload", "pc", "block", "opcode", "bits A", "bits B", "delta",
            ]);
            for (w, m) in &movers {
                table.push_row([
                    (*w).to_string(),
                    format!("pc{}", m.pc),
                    m.block.clone(),
                    m.opcode.clone(),
                    m.bits_a.to_string(),
                    m.bits_b.to_string(),
                    m.delta.to_string(),
                ]);
            }
            println!(
                "top {} mover(s) by |delta| (negative = B saves):",
                movers.len()
            );
            println!("{table}");
            println!("per-module / per-case switched bits under A:");
            println!("{}", breakdown_table(&runs_a));
            println!("per-module / per-case switched bits under B:");
            println!("{}", breakdown_table(&runs_b));
        }
        if let Some(path) = &opts.flame {
            // The flamegraph shows where the energy still goes under
            // scheme B (the "after" profile of the comparison).
            let stacks = runs_b.iter().map(|r| r.attribution.collapsed_stacks());
            write_flame("profile-energy", path, stacks)?;
        }
        return Ok(true);
    }

    eprintln!(
        "profile-energy: attributing {} workload(s) under {} (limit {limit}, {} job(s))",
        workloads.len(),
        scheme.label(),
        opts.jobs
    );
    let runs = attribute_suite(&workloads, scheme, limit, opts.jobs);
    verify_exact(&runs)?;

    if opts.json {
        let doc = Json::Arr(runs.iter().map(|r| r.attribution.to_json()).collect());
        println!("{}", doc.pretty());
    } else {
        println!("top {top} energy hotspot(s) under {}:", scheme.label());
        println!("{}", hotspot_table(&runs, top));
        println!("per-module / per-case switched bits:");
        println!("{}", breakdown_table(&runs));
    }
    if let Some(path) = &opts.flame {
        let stacks = runs.iter().map(|r| r.attribution.collapsed_stacks());
        write_flame("profile-energy", path, stacks)?;
    }
    Ok(true)
}

/// Checks every run's exact-partition invariants (ledger and issue
/// bandwidth), logging per workload — the cycle-side sibling of
/// [`verify_exact`].
fn verify_cycles_exact(runs: &[fua::attr::CycleProfiledRun]) -> Result<(), String> {
    for run in runs {
        let c = &run.cycles;
        eprintln!(
            "profile-cycles: {} under {}: {} cycles x {} slots = {} issue slots \
             over {} sites, exact: {}",
            c.workload,
            c.scheme,
            c.cycles,
            c.issue_width,
            c.total_slots(),
            c.rows().len(),
            run.exact()
        );
        if !run.exact() {
            return Err(format!(
                "cycle attribution for {} did not partition the issue bandwidth exactly",
                c.workload
            ));
        }
    }
    Ok(())
}

/// The per-workload stall-mix table: one row per run, one percentage
/// column per [`StallReason`](fua::trace::StallReason).
fn stall_mix_table(runs: &[fua::attr::CycleProfiledRun]) -> TextTable {
    use fua::trace::StallReason;
    let mut headers = vec![
        "workload".to_string(),
        "cycles".to_string(),
        "IPC".to_string(),
    ];
    headers.extend(StallReason::ALL.iter().map(|r| r.name().to_string()));
    let mut t = TextTable::new(headers);
    for run in runs {
        let totals = run.cycles.reason_totals();
        let slots = run.cycles.total_slots();
        let mut row = vec![
            run.cycles.workload.clone(),
            run.cycles.cycles.to_string(),
            format!("{:.2}", run.result.ipc()),
        ];
        row.extend(StallReason::ALL.iter().map(|r| {
            let share = if slots == 0 {
                0.0
            } else {
                100.0 * totals[r.index()] as f64 / slots as f64
            };
            format!("{share:.1}%")
        }));
        t.push_row(row);
    }
    t
}

/// The suite-wide top-N stall hotspot table for one scheme's runs.
fn stall_hotspot_table(runs: &[fua::attr::CycleProfiledRun], top: usize) -> TextTable {
    let suite_stalled: u64 = runs
        .iter()
        .map(|r| r.cycles.total_slots() - r.cycles.issued_slots())
        .sum();
    let mut spots: Vec<(String, fua::attr::StallHotspot)> = Vec::new();
    for run in runs {
        for h in run.cycles.hotspots(top) {
            spots.push((run.cycles.workload.clone(), h));
        }
    }
    spots.sort_by(|(wa, a), (wb, b)| {
        b.stalled
            .cmp(&a.stalled)
            .then_with(|| wa.cmp(wb))
            .then(a.pc.is_none().cmp(&b.pc.is_none()))
            .then(a.pc.cmp(&b.pc))
    });
    spots.truncate(top);
    let mut table = TextTable::new([
        "workload", "pc", "block", "opcode", "reason", "stalled", "issued", "share",
    ]);
    for (workload, h) in &spots {
        let share = if suite_stalled == 0 {
            0.0
        } else {
            100.0 * h.stalled as f64 / suite_stalled as f64
        };
        table.push_row([
            workload.clone(),
            match h.pc {
                Some(pc) => format!("pc{pc}"),
                None => "-".to_string(),
            },
            h.block.clone(),
            h.opcode.clone(),
            h.top_reason.name().to_string(),
            h.stalled.to_string(),
            h.issued.to_string(),
            format!("{share:.2}%"),
        ]);
    }
    table
}

/// The suite-wide joint energy × cycles table, ranked by switched bits.
fn joint_energy_cycles_table(runs: &[fua::attr::CycleProfiledRun], top: usize) -> TextTable {
    let mut rows: Vec<(String, fua::attr::JointRow)> = Vec::new();
    for run in runs {
        for r in fua::attr::joint_table(&run.energy, &run.cycles, top) {
            rows.push((run.cycles.workload.clone(), r));
        }
    }
    rows.sort_by(|(wa, a), (wb, b)| {
        b.bits
            .cmp(&a.bits)
            .then_with(|| wa.cmp(wb))
            .then(a.pc.cmp(&b.pc))
    });
    rows.truncate(top);
    let mut table = TextTable::new([
        "workload", "pc", "block", "opcode", "bits", "ops", "bits/op", "issued", "stalled",
    ]);
    for (workload, r) in &rows {
        table.push_row([
            workload.clone(),
            format!("pc{}", r.pc),
            r.block.clone(),
            r.opcode.clone(),
            r.bits.to_string(),
            r.ops.to_string(),
            format!("{:.1}", r.bits_per_op),
            r.issued_slots.to_string(),
            r.stalled_slots.to_string(),
        ]);
    }
    table
}

/// Prints one run's critical path: the summary line plus the last
/// `top` nodes of the chain (the tail decides the run's length).
fn print_critical_path(run: &fua::attr::CycleProfiledRun, top: usize) {
    let nodes = run.path.nodes();
    println!(
        "critical path — {}: {} node(s), span {} cycles, operand wait {}, \
         structural wait {}",
        run.cycles.workload,
        nodes.len(),
        run.path.span_cycles(),
        run.path.operand_wait(),
        run.path.structural_wait(),
    );
    let shown = nodes.len().min(top);
    let mut t = TextTable::new([
        "serial",
        "pc",
        "opcode",
        "dispatch",
        "issue",
        "done",
        "op wait",
        "struct wait",
    ]);
    for n in &nodes[nodes.len() - shown..] {
        t.push_row([
            format!("#{}", n.serial),
            format!("pc{}", n.pc),
            n.opcode.clone(),
            n.dispatch_cycle.to_string(),
            n.issue_cycle.to_string(),
            n.done_cycle.to_string(),
            n.operand_wait.to_string(),
            n.structural_wait.to_string(),
        ]);
    }
    if shown < nodes.len() {
        println!("(last {shown} of {} nodes)", nodes.len());
    }
    println!("{t}");
}

/// One cycle-profiled run as a JSON document: the slot attribution,
/// the critical path, and the joint energy × cycles rows.
fn cycle_run_json(run: &fua::attr::CycleProfiledRun, top: usize) -> Json {
    let joint = Json::Arr(
        fua::attr::joint_table(&run.energy, &run.cycles, top)
            .iter()
            .map(|r| {
                Json::obj([
                    ("pc", Json::UInt(r.pc as u64)),
                    ("block", Json::Str(r.block.clone())),
                    ("opcode", Json::Str(r.opcode.clone())),
                    ("bits", Json::UInt(r.bits)),
                    ("ops", Json::UInt(r.ops)),
                    ("bits_per_op", Json::Float(r.bits_per_op)),
                    ("issued_slots", Json::UInt(r.issued_slots)),
                    ("stalled_slots", Json::UInt(r.stalled_slots)),
                ])
            })
            .collect(),
    );
    Json::obj([
        ("attribution", run.cycles.to_json()),
        ("critical_path", run.path.to_json()),
        ("joint", joint),
    ])
}

fn cmd_profile_cycles(name: &str, opts: &Options) -> CmdResult {
    use fua::attr::profile_cycles_suite;
    use fua::trace::StallReason;

    let (workloads, scheme, compare_to) = profile_inputs(name, opts)?;
    let limit = opts.limit.unwrap_or(PROFILE_DEFAULT_LIMIT);
    let top = opts.top.unwrap_or(10);
    heartbeat_stage("profile-cycles: attributing");

    if let Some(scheme_b) = compare_to {
        let scheme_a = scheme;
        eprintln!(
            "profile-cycles: comparing {} vs {} over {} workload(s) (limit {limit}, {} job(s))",
            scheme_a.label(),
            scheme_b.label(),
            workloads.len(),
            opts.jobs
        );
        let runs_a = profile_cycles_suite(&workloads, scheme_a, limit, opts.jobs);
        let runs_b = profile_cycles_suite(&workloads, scheme_b, limit, opts.jobs);
        verify_cycles_exact(&runs_a)?;
        verify_cycles_exact(&runs_b)?;

        if opts.json {
            let doc = Json::Arr(
                runs_a
                    .iter()
                    .zip(&runs_b)
                    .map(|(a, b)| {
                        Json::obj([
                            ("workload", Json::Str(a.cycles.workload.clone())),
                            ("a", cycle_run_json(a, top)),
                            ("b", cycle_run_json(b, top)),
                        ])
                    })
                    .collect(),
            );
            println!("{}", doc.pretty());
        } else {
            let mut totals = TextTable::new([
                "workload".to_string(),
                format!("cycles A ({})", scheme_a.name()),
                format!("cycles B ({})", scheme_b.name()),
                "delta".to_string(),
                "issued A".to_string(),
                "issued B".to_string(),
            ]);
            for (a, b) in runs_a.iter().zip(&runs_b) {
                let issued_share = |r: &fua::attr::CycleProfiledRun| {
                    let slots = r.cycles.total_slots();
                    if slots == 0 {
                        0.0
                    } else {
                        100.0 * r.cycles.issued_slots() as f64 / slots as f64
                    }
                };
                totals.push_row([
                    a.cycles.workload.clone(),
                    a.cycles.cycles.to_string(),
                    b.cycles.cycles.to_string(),
                    (b.cycles.cycles as i64 - a.cycles.cycles as i64).to_string(),
                    format!("{:.1}%", issued_share(a)),
                    format!("{:.1}%", issued_share(b)),
                ]);
            }
            println!(
                "cycles, {} (A) vs {} (B):",
                scheme_a.label(),
                scheme_b.label()
            );
            println!("{totals}");

            // Suite-wide stall mix, side by side: where does each
            // scheme's issue bandwidth go?
            let sum_mix = |runs: &[fua::attr::CycleProfiledRun]| {
                let mut mix = [0u64; 8];
                for r in runs {
                    for (acc, v) in mix.iter_mut().zip(r.cycles.reason_totals()) {
                        *acc += v;
                    }
                }
                mix
            };
            let (mix_a, mix_b) = (sum_mix(&runs_a), sum_mix(&runs_b));
            let (slots_a, slots_b) = (
                mix_a.iter().sum::<u64>().max(1),
                mix_b.iter().sum::<u64>().max(1),
            );
            let mut mix = TextTable::new(["reason", "slots A", "share A", "slots B", "share B"]);
            for r in StallReason::ALL {
                mix.push_row([
                    r.name().to_string(),
                    mix_a[r.index()].to_string(),
                    format!("{:.1}%", 100.0 * mix_a[r.index()] as f64 / slots_a as f64),
                    mix_b[r.index()].to_string(),
                    format!("{:.1}%", 100.0 * mix_b[r.index()] as f64 / slots_b as f64),
                ]);
            }
            println!("suite stall mix (every issue slot, A vs B):");
            println!("{mix}");
            if opts.critical_path {
                for (a, b) in runs_a.iter().zip(&runs_b) {
                    print_critical_path(a, top);
                    print_critical_path(b, top);
                }
            }
        }
        if let Some(path) = &opts.flame {
            // The flamegraph shows where the cycles still go under
            // scheme B (the "after" profile of the comparison).
            let stacks = runs_b.iter().map(|r| r.cycles.collapsed_stacks());
            write_flame("profile-cycles", path, stacks)?;
        }
        return Ok(true);
    }

    eprintln!(
        "profile-cycles: attributing {} workload(s) under {} (limit {limit}, {} job(s))",
        workloads.len(),
        scheme.label(),
        opts.jobs
    );
    let runs = profile_cycles_suite(&workloads, scheme, limit, opts.jobs);
    verify_cycles_exact(&runs)?;

    if opts.json {
        let doc = Json::Arr(runs.iter().map(|r| cycle_run_json(r, top)).collect());
        println!("{}", doc.pretty());
    } else {
        println!(
            "issue-slot mix under {} ({} slots/cycle; every slot accounted):",
            scheme.label(),
            runs.first().map_or(0, |r| r.cycles.issue_width)
        );
        println!("{}", stall_mix_table(&runs));
        println!("top {top} stall hotspot(s) under {}:", scheme.label());
        println!("{}", stall_hotspot_table(&runs, top));
        println!("energy x cycles, top {top} PC(s) by switched bits:");
        println!("{}", joint_energy_cycles_table(&runs, top));
        if opts.critical_path {
            for run in &runs {
                print_critical_path(run, top);
            }
        }
    }
    if let Some(path) = &opts.flame {
        let stacks = runs.iter().map(|r| r.cycles.collapsed_stacks());
        write_flame("profile-cycles", path, stacks)?;
    }
    Ok(true)
}

/// Renders a [`SwapModel`](fua::analysis::SwapModel) for logs and JSON.
fn model_name(model: fua::analysis::SwapModel) -> &'static str {
    match model {
        fua::analysis::SwapModel::Direct => "direct",
        fua::analysis::SwapModel::Either => "either",
    }
}

/// The FU classes in [`fua::isa::FuClass::index`] display order.
const ESTIMATE_CLASSES: [FuClass; 4] = [
    FuClass::IntAlu,
    FuClass::IntMul,
    FuClass::FpAlu,
    FuClass::FpMul,
];

/// Maps block ids to their labels (every bounded PC's block carries at
/// least one FU op, so it appears in the estimate's block list).
fn estimate_block_labels(
    est: &fua::analysis::TransitionEstimate,
) -> std::collections::BTreeMap<usize, String> {
    est.blocks()
        .iter()
        .map(|b| (b.block, b.label.clone()))
        .collect()
}

/// The per-PC bound table for one workload's estimate.
fn estimate_pc_table(est: &fua::analysis::TransitionEstimate) -> TextTable {
    let labels = estimate_block_labels(est);
    let mut t = TextTable::new(["pc", "block", "opcode", "class", "case", "bits/op"]);
    for b in est.pc_bounds() {
        t.push_row([
            format!("pc{}", b.pc),
            labels
                .get(&b.block)
                .cloned()
                .unwrap_or_else(|| format!("bb{}", b.block)),
            b.opcode.clone(),
            b.class.to_string(),
            match b.case {
                Some(c) => c.to_string(),
                None => "?".to_string(),
            },
            b.bits_per_op.to_string(),
        ]);
    }
    t
}

/// The per-basic-block aggregate table for one workload's estimate.
fn estimate_block_table(est: &fua::analysis::TransitionEstimate) -> TextTable {
    let mut t = TextTable::new(["block", "ops", "bits/pass"]);
    for b in est.blocks() {
        t.push_row([
            b.label.clone(),
            b.ops.to_string(),
            b.bits_per_pass.to_string(),
        ]);
    }
    t
}

/// The suite summary table: one row per workload, with the per-class
/// breakdown of the bits-per-pass bound.
fn estimate_summary_table(ests: &[(String, fua::analysis::TransitionEstimate)]) -> TextTable {
    let mut headers = vec![
        "workload".to_string(),
        "PCs".to_string(),
        "definite".to_string(),
        "bits/pass".to_string(),
    ];
    headers.extend(ESTIMATE_CLASSES.iter().map(|c| c.to_string()));
    let mut t = TextTable::new(headers);
    for (w, est) in ests {
        let (bounded, definite) = est.coverage();
        let class_bits = est.class_bits_per_pass();
        let mut row = vec![
            w.clone(),
            bounded.to_string(),
            definite.to_string(),
            est.total_bits_per_pass().to_string(),
        ];
        row.extend(
            ESTIMATE_CLASSES
                .iter()
                .map(|c| class_bits[c.index()].to_string()),
        );
        t.push_row(row);
    }
    t
}

/// One workload's estimate as a JSON document.
fn estimate_json(scheme: Scheme, workload: &str, est: &fua::analysis::TransitionEstimate) -> Json {
    let labels = estimate_block_labels(est);
    let (bounded, definite) = est.coverage();
    let class_bits = est.class_bits_per_pass();
    let classes = Json::Obj(
        ESTIMATE_CLASSES
            .iter()
            .map(|c| (c.to_string(), Json::UInt(class_bits[c.index()])))
            .collect(),
    );
    let pcs = Json::Arr(
        est.pc_bounds()
            .map(|b| {
                Json::obj([
                    ("pc", Json::UInt(b.pc as u64)),
                    (
                        "block",
                        Json::Str(
                            labels
                                .get(&b.block)
                                .cloned()
                                .unwrap_or_else(|| format!("bb{}", b.block)),
                        ),
                    ),
                    ("opcode", Json::Str(b.opcode.clone())),
                    ("class", Json::Str(b.class.to_string())),
                    (
                        "case",
                        match b.case {
                            Some(c) => Json::Str(c.to_string()),
                            None => Json::Null,
                        },
                    ),
                    ("bits_per_op", Json::UInt(b.bits_per_op as u64)),
                ])
            })
            .collect(),
    );
    let blocks = Json::Arr(
        est.blocks()
            .iter()
            .map(|b| {
                Json::obj([
                    ("block", Json::Str(b.label.clone())),
                    ("ops", Json::UInt(b.ops as u64)),
                    ("bits_per_pass", Json::UInt(b.bits_per_pass)),
                ])
            })
            .collect(),
    );
    Json::obj([
        ("workload", Json::Str(workload.to_string())),
        ("scheme", Json::Str(scheme.name().to_string())),
        ("model", Json::Str(model_name(est.model()).to_string())),
        ("bounded_pcs", Json::UInt(bounded as u64)),
        ("definite_cases", Json::UInt(definite as u64)),
        ("total_bits_per_pass", Json::UInt(est.total_bits_per_pass())),
        ("class_bits_per_pass", classes),
        ("pc_bounds", pcs),
        ("blocks", blocks),
    ])
}

/// One soundness check as a JSON document (the `--verify` row shape).
fn estimate_check_json(c: &fua::attr::EstimateCheck) -> Json {
    Json::obj([
        ("workload", Json::Str(c.workload.clone())),
        ("scheme", Json::Str(c.scheme.clone())),
        ("pcs", Json::UInt(c.pcs as u64)),
        ("bound_bits", Json::UInt(c.bound_bits)),
        ("actual_bits", Json::UInt(c.actual_bits)),
        ("ratio", Json::Float(c.ratio())),
        ("sound", Json::Bool(c.sound())),
        (
            "worst_block",
            match &c.worst_block {
                Some((label, ratio)) => Json::obj([
                    ("block", Json::Str(label.clone())),
                    ("ratio", Json::Float(*ratio)),
                ]),
                None => Json::Null,
            },
        ),
        (
            "violations",
            Json::Arr(
                c.violations
                    .iter()
                    .map(|v| {
                        Json::obj([
                            ("pc", Json::UInt(v.pc as u64)),
                            ("bound_bits", Json::UInt(v.bound_bits)),
                            ("actual_bits", Json::UInt(v.actual_bits)),
                            ("ops", Json::UInt(v.ops)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The `estimate --verify` path: joins the static bounds with measured
/// attribution for every scheme under test and gates on soundness.
fn cmd_estimate_verify(
    workloads: &[fua::workloads::Workload],
    scheme: Scheme,
    opts: &Options,
) -> CmdResult {
    use fua::attr::{check_suite, EstimateCheck};

    let schemes = if opts.scheme.is_some() {
        vec![scheme]
    } else {
        Scheme::ALL.to_vec()
    };
    let limit = opts.limit.unwrap_or(PROFILE_DEFAULT_LIMIT);
    eprintln!(
        "estimate: verifying static bounds against measured attribution, \
         {} workload(s) x {} scheme(s) (limit {limit}, {} job(s))",
        workloads.len(),
        schemes.len(),
        opts.jobs
    );
    let mut checks: Vec<EstimateCheck> = Vec::new();
    for &scheme in &schemes {
        checks.extend(check_suite(workloads, scheme, limit, opts.jobs));
    }
    let violations: usize = checks.iter().map(|c| c.violations.len()).sum();

    if opts.json {
        let doc = Json::Arr(checks.iter().map(estimate_check_json).collect());
        println!("{}", doc.pretty());
    } else {
        let mut t = TextTable::new([
            "workload",
            "scheme",
            "PCs",
            "bound bits",
            "actual bits",
            "ratio",
            "worst block",
            "sound",
        ]);
        for c in &checks {
            let worst = match &c.worst_block {
                Some((label, ratio)) => format!("{label} ({ratio:.2}x)"),
                None => "-".to_string(),
            };
            t.push_row([
                c.workload.clone(),
                c.scheme.clone(),
                c.pcs.to_string(),
                c.bound_bits.to_string(),
                c.actual_bits.to_string(),
                format!("{:.2}x", c.ratio()),
                worst,
                if c.sound() { "yes" } else { "NO" }.to_string(),
            ]);
        }
        println!("static-vs-dynamic soundness and precision:");
        println!("{t}");
        let mean =
            checks.iter().map(EstimateCheck::ratio).sum::<f64>() / checks.len().max(1) as f64;
        println!(
            "{} check(s), {violations} violation(s); mean bound/actual ratio {mean:.2}x",
            checks.len()
        );
    }
    if violations > 0 {
        return Err(format!(
            "{violations} static bound(s) violated by the measured attribution"
        ));
    }
    Ok(true)
}

fn cmd_estimate(name: &str, opts: &Options) -> CmdResult {
    use fua::analysis::{estimate_transitions, TransitionEstimate};
    use fua::exec::map_indexed;

    let (workloads, scheme, compare_to) = profile_inputs(name, opts)?;
    if opts.verify && compare_to.is_some() {
        return Err("--verify and --compare are mutually exclusive".into());
    }
    heartbeat_stage("estimate: bounding");

    if opts.verify {
        return cmd_estimate_verify(&workloads, scheme, opts);
    }

    if let Some(scheme_b) = compare_to {
        let scheme_a = scheme;
        eprintln!(
            "estimate: bounding {} workload(s), {} vs {} ({} job(s))",
            workloads.len(),
            scheme_a.label(),
            scheme_b.label(),
            opts.jobs
        );
        let ests: Vec<(String, TransitionEstimate, TransitionEstimate)> =
            map_indexed(opts.jobs, &workloads, |_, w| {
                (
                    w.name.to_string(),
                    estimate_transitions(&w.program, scheme_a.swap_model()),
                    estimate_transitions(&w.program, scheme_b.swap_model()),
                )
            });
        if opts.json {
            let doc = Json::Arr(
                ests.iter()
                    .map(|(w, ea, eb)| {
                        Json::obj([
                            ("workload", Json::Str(w.clone())),
                            ("a", estimate_json(scheme_a, w, ea)),
                            ("b", estimate_json(scheme_b, w, eb)),
                        ])
                    })
                    .collect(),
            );
            println!("{}", doc.pretty());
        } else {
            let mut t = TextTable::new([
                "workload".to_string(),
                format!("bits/pass A ({})", scheme_a.name()),
                format!("bits/pass B ({})", scheme_b.name()),
                "delta".to_string(),
            ]);
            for (w, ea, eb) in &ests {
                let (a, b) = (ea.total_bits_per_pass(), eb.total_bits_per_pass());
                t.push_row([
                    w.clone(),
                    a.to_string(),
                    b.to_string(),
                    (b as i64 - a as i64).to_string(),
                ]);
            }
            println!(
                "static bits/pass bounds, {} (A) vs {} (B):",
                scheme_a.label(),
                scheme_b.label()
            );
            println!("{t}");
        }
        return Ok(true);
    }

    let model = scheme.swap_model();
    eprintln!(
        "estimate: bounding {} workload(s) under {} ({} operand order, {} job(s))",
        workloads.len(),
        scheme.label(),
        model_name(model),
        opts.jobs
    );
    let ests: Vec<(String, TransitionEstimate)> = map_indexed(opts.jobs, &workloads, |_, w| {
        (w.name.to_string(), estimate_transitions(&w.program, model))
    });

    if opts.json {
        let doc = Json::Arr(
            ests.iter()
                .map(|(w, e)| estimate_json(scheme, w, e))
                .collect(),
        );
        println!("{}", doc.pretty());
        return Ok(true);
    }

    for (w, est) in &ests {
        if ests.len() == 1 || opts.per_block {
            let (bounded, definite) = est.coverage();
            println!(
                "{w}: static switched-bit bounds under {} ({} operand order)",
                scheme.label(),
                model_name(est.model())
            );
            let table = if opts.per_block {
                estimate_block_table(est)
            } else {
                estimate_pc_table(est)
            };
            println!("{table}");
            println!(
                "{bounded} FU instruction(s) bounded ({definite} with a definite case); \
                 <= {} bits per straight-line pass\n",
                est.total_bits_per_pass()
            );
        }
    }
    if ests.len() > 1 {
        println!(
            "static bits/pass upper bounds under {} ({} operand order):",
            scheme.label(),
            model_name(model)
        );
        println!("{}", estimate_summary_table(&ests));
    }
    Ok(true)
}

fn load_bench(path: &str) -> Result<BenchReport, String> {
    let contents = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    contents
        .parse::<BenchReport>()
        .map_err(|e| format!("{path}: {e}"))
}

fn cmd_bench_suite(opts: &Options) -> CmdResult {
    let tag = opts.tag.as_deref().unwrap_or("local");
    let cfg = bench_config(opts);
    let window = opts.window.unwrap_or(DEFAULT_WINDOW_CYCLES);
    eprintln!(
        "bench-suite: measuring quick suite (scale {}, limit {}, window {} cycles, \
         {} job(s)) ...",
        cfg.scale, cfg.inst_limit, window, opts.jobs
    );
    heartbeat_stage("bench-suite: measuring");
    let report = bench_suite_jobs(tag, &cfg, window, opts.jobs);
    heartbeat_stage("bench-suite: writing artifact");
    let mut rendered = report.to_json().pretty();
    rendered.push('\n');
    let destination = if opts.use_store() {
        let receipt = open_store(opts)?
            .put(&rendered, Path::new("bench-suite"))
            .map_err(|e| e.to_string())?;
        format!(
            "run #{} (key {}{}) to {}",
            receipt.entry.seq,
            &receipt.entry.key[..12],
            if receipt.deduplicated {
                ", object deduplicated"
            } else {
                ""
            },
            opts.store_root()
        )
    } else {
        let path = format!("BENCH_{tag}.json");
        std::fs::write(&path, rendered).map_err(|e| format!("writing {path}: {e}"))?;
        path
    };
    eprintln!(
        "bench-suite: wrote {destination} (IALU {:.1}%, FPAU {:.1}%, {} windows, \
         telemetry exact: {}, attribution exact: {}, stall partition exact: {})",
        report.headline_ialu_pct,
        report.headline_fpau_pct,
        report.telemetry.windows,
        report.telemetry.exact,
        report.attribution.as_ref().is_some_and(|a| a.exact),
        report.stalls.as_ref().is_some_and(|s| s.exact)
    );
    if let Some(t) = &report.throughput {
        eprintln!(
            "bench-suite: simulated {} cycles / {} instructions in {:.2}s hot loop — \
             {:.2} MHz simulated ({:.0} kinst/s, IPC {:.3})",
            t.cycles,
            t.instructions,
            t.hot_nanos as f64 / 1e9,
            t.sim_mhz(),
            t.kips(),
            t.ipc()
        );
    }
    if let Some(p) = &report.parallel {
        eprintln!(
            "bench-suite: {} job(s), {:.2}s wall",
            p.jobs,
            p.wall_nanos as f64 / 1e9
        );
    }
    if !report.telemetry.exact {
        return Err("windowed telemetry sums did not reproduce the energy ledger".into());
    }
    if !report.attribution.as_ref().is_some_and(|a| a.exact) {
        return Err("energy attribution did not reproduce the energy ledger".into());
    }
    if !report.stalls.as_ref().is_some_and(|s| s.exact) {
        return Err("stall partition did not account every issue slot".into());
    }
    Ok(true)
}

/// Opens the run store `--store-dir` names (default `.fua-store`).
fn open_store(opts: &Options) -> Result<Store, String> {
    Store::open(Path::new(opts.store_root())).map_err(|e| e.to_string())
}

/// Prints one line per comparison or trend finding, regressions
/// flagged.
fn print_findings(findings: &[Finding]) {
    for f in findings {
        let tag = match f.severity {
            Severity::Regression => "REGRESSION",
            Severity::Info => "info",
        };
        println!("{tag:<10} [{}] {}", f.category, f.message);
    }
}

/// The newest stored run's manifest-key history, parsed in sequence
/// order — the artifact series `report --store` and `trends` operate
/// on.
fn store_history(store: &Store) -> Result<Vec<(IndexEntry, BenchReport)>, String> {
    let entries = store.entries().map_err(|e| e.to_string())?;
    let Some(newest) = entries.last() else {
        return Err(format!(
            "the run store at {} is empty; record runs with \
             `fua bench-suite --store` first",
            store.root().display()
        ));
    };
    entries
        .iter()
        .filter(|e| e.key == newest.key)
        .map(|entry| {
            let text = store.read(entry).map_err(|e| e.to_string())?;
            let report = text
                .parse::<BenchReport>()
                .map_err(|e| format!("stored run #{} ({}): {e}", entry.seq, &entry.key[..12]))?;
            Ok((entry.clone(), report))
        })
        .collect()
}

fn cmd_report(opts: &Options) -> CmdResult {
    if opts.use_store() && (opts.baseline.is_some() || opts.current.is_some()) {
        return Err("report --store picks both artifacts from the run store; \
                    it cannot be combined with --baseline/--current"
            .into());
    }
    let (baseline, current) = if opts.use_store() {
        let mut history = store_history(&open_store(opts)?)?;
        if history.len() < 2 {
            return Err(format!(
                "report --store needs two stored runs of the newest configuration, \
                 have {}; record another with `fua bench-suite --store`",
                history.len()
            ));
        }
        let (cur_entry, current) = history.pop().expect("len checked above");
        let (base_entry, baseline) = history.pop().expect("len checked above");
        eprintln!(
            "report: diffing stored run #{} ({}) against #{} ({})",
            cur_entry.seq, cur_entry.tag, base_entry.seq, base_entry.tag
        );
        (baseline, current)
    } else {
        let baseline_path = opts
            .baseline
            .as_deref()
            .ok_or("report needs --baseline <FILE> (a BENCH_<tag>.json artifact) or --store")?;
        let baseline = load_bench(baseline_path)?;
        let current = match opts.current.as_deref() {
            Some(path) => load_bench(path)?,
            None => {
                let cfg = bench_config(opts);
                let window = opts.window.unwrap_or(DEFAULT_WINDOW_CYCLES);
                eprintln!(
                    "report: no --current given; running a fresh bench-suite \
                     (scale {}, limit {}, {} job(s)) ...",
                    cfg.scale, cfg.inst_limit, opts.jobs
                );
                heartbeat_stage("report: fresh bench-suite");
                bench_suite_jobs("current", &cfg, window, opts.jobs)
            }
        };
        (baseline, current)
    };

    let cmp = compare(&baseline, &current, &Tolerance::default());
    print_findings(&cmp.findings);
    println!(
        "{}: {} finding(s), {} regression(s) vs baseline \"{}\"",
        if cmp.passed() { "PASS" } else { "FAIL" },
        cmp.findings.len(),
        cmp.regressions(),
        baseline.manifest.tag
    );
    Ok(cmp.passed())
}

fn cmd_store(action: &StoreAction, opts: &Options) -> CmdResult {
    let store = open_store(opts)?;
    match action {
        StoreAction::Ls => {
            let entries = store.entries().map_err(|e| e.to_string())?;
            if entries.is_empty() {
                println!("store at {} is empty", store.root().display());
                return Ok(true);
            }
            let mut table = TextTable::new(["seq", "key", "tag", "schema", "bytes"]);
            for e in &entries {
                table.push_row([
                    e.seq.to_string(),
                    e.key[..12].to_string(),
                    e.tag.clone(),
                    e.bench_schema.clone(),
                    e.bytes.to_string(),
                ]);
            }
            println!("{table}");
            println!(
                "{} run(s) over {} configuration(s) in {}",
                entries.len(),
                Store::summarize(&entries).len(),
                store.root().display()
            );
        }
        StoreAction::Show(reference) => {
            let entry = store.resolve(reference).map_err(|e| e.to_string())?;
            let text = store.read(&entry).map_err(|e| e.to_string())?;
            // Byte-identical: the artifact already ends in a newline.
            print!("{text}");
        }
        StoreAction::Put(file) => {
            let text = std::fs::read_to_string(file).map_err(|e| format!("reading {file}: {e}"))?;
            let receipt = store
                .put(&text, Path::new(file))
                .map_err(|e| e.to_string())?;
            println!(
                "stored run #{} (key {}, tag \"{}\", {} bytes{})",
                receipt.entry.seq,
                &receipt.entry.key[..12],
                receipt.entry.tag,
                receipt.entry.bytes,
                if receipt.deduplicated {
                    ", object deduplicated"
                } else {
                    ""
                }
            );
        }
        StoreAction::Gc => {
            let report = store.gc().map_err(|e| e.to_string())?;
            println!(
                "gc: kept {} object(s), removed {} unreferenced object(s) and {} staging file(s)",
                report.kept_objects, report.removed_objects, report.removed_tmp
            );
        }
    }
    Ok(true)
}

fn cmd_trends(opts: &Options) -> CmdResult {
    let history = store_history(&open_store(opts)?)?;
    let points: Vec<(String, BenchReport)> = history
        .into_iter()
        .map(|(entry, report)| (format!("#{} {}", entry.seq, entry.tag), report))
        .collect();
    let trend = trends(&points, &Tolerance::default()).map_err(|e| match e {
        TrendError::TooFew { have } => format!(
            "{e}; record more with `fua bench-suite --store` \
             (store holds {have} run(s) of the newest configuration)"
        ),
        other => other.to_string(),
    })?;

    if opts.json {
        println!("{}", trend.to_json().pretty());
        return Ok(trend.passed());
    }

    let mut table = TextTable::new(["metric", "trend", "newest"]);
    for series in &trend.series {
        table.push_row([
            series.metric.clone(),
            fua::report::sparkline(&series.values),
            match series.newest() {
                Some(v) => format!("{v:.3}"),
                None => "-".to_string(),
            },
        ]);
    }
    println!(
        "trends over {} stored run(s) ({} .. {}):",
        trend.labels.len(),
        trend.labels.first().map(String::as_str).unwrap_or("-"),
        trend.labels.last().map(String::as_str).unwrap_or("-")
    );
    println!("{table}");
    print_findings(&trend.findings);
    println!(
        "{}: {} finding(s), {} regression(s) on the newest run",
        if trend.passed() { "PASS" } else { "FAIL" },
        trend.findings.len(),
        trend.regressions()
    );
    Ok(trend.passed())
}

/// One sweep cell of `harness-report`: a full run of `w` under the
/// observed scheme on the untraced engine (the configuration the real
/// sweeps spend their time in).
fn harness_cell(w: &fua::workloads::Workload, machine: &MachineConfig, limit: u64) -> (u64, u64) {
    let mut sim = Simulator::new(machine.clone(), fua::core::observed_scheme());
    let result = sim
        .run_program(&w.program, limit)
        .unwrap_or_else(|e| panic!("workload {} faulted: {e}", w.name));
    (result.cycles, result.retired)
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

/// `fua harness-report` — observe the harness observing. Sweeps the
/// full workload set twice with span collection on: a serial reference
/// pass that doubles as the allocation-measurement window (it is the
/// only thread doing work, so the process-wide counters see exactly its
/// allocations), then the parallel sweep under `--jobs` that feeds the
/// worker timeline.
///
/// Stdout carries only model-deterministic figures — cell counts,
/// simulated cycles, arena-lease totals, and the serial-pass allocation
/// counts (constant for a given build) — and is **byte-identical for
/// every `--jobs N`**; CI `cmp`s the `--jobs 1` and `--jobs 4` outputs.
/// Everything wall-clock (worker busy spans, utilization, imbalance,
/// folded stacks) goes to stderr and the opt-in side files:
/// `--out` (Perfetto timeline), `--flame` (folded stacks),
/// `--openmetrics` (text exposition).
fn cmd_harness_report(opts: &Options) -> CmdResult {
    let cfg = bench_config(opts);
    let workloads = fua::workloads::all(cfg.scale);
    eprintln!(
        "harness-report: sweeping {} workload(s) twice (scale {}, limit {}, {} job(s)) ...",
        workloads.len(),
        cfg.scale,
        cfg.inst_limit,
        opts.jobs
    );
    fua::obs::enable_spans();

    // Serial reference pass: the allocation window. Snapshot deltas are
    // attributable because nothing else runs concurrently yet.
    heartbeat_stage("harness-report: serial pass");
    let arena_before = fua::obs::arena_counters();
    let alloc_before = fua::obs::alloc_snapshot();
    let (serial_cells, serial_exec) =
        fua::exec::map_indexed_timed(fua::exec::Jobs::serial(), &workloads, |_, w| {
            harness_cell(w, &cfg.machine, cfg.inst_limit)
        });
    let alloc_delta = fua::obs::alloc_snapshot().delta(&alloc_before);
    let serial_arena = fua::obs::arena_counters().delta(&arena_before);

    // The observed parallel sweep: same cells, `--jobs` workers.
    heartbeat_stage("harness-report: parallel sweep");
    let arena_before = fua::obs::arena_counters();
    let (parallel_cells, parallel_exec) =
        fua::exec::map_indexed_timed(opts.jobs, &workloads, |_, w| {
            harness_cell(w, &cfg.machine, cfg.inst_limit)
        });
    let parallel_arena = fua::obs::arena_counters().delta(&arena_before);

    let spans = fua::obs::drain_spans();
    let events = fua::obs::drain_arena_events();

    // The determinism claim the stdout report leans on: both passes run
    // the same deterministic engine, so their model totals must agree.
    let serial_cycles: u64 = serial_cells.iter().map(|c| c.0).sum();
    let parallel_cycles: u64 = parallel_cells.iter().map(|c| c.0).sum();
    if serial_cycles != parallel_cycles {
        return Err(format!(
            "parallel sweep diverged from the serial reference: \
             {parallel_cycles} simulated cycles vs {serial_cycles}"
        ));
    }
    let retired: u64 = serial_cells.iter().map(|c| c.1).sum();
    let allocs =
        fua::obs::counting_allocator_active().then_some((alloc_delta.allocs, alloc_delta.bytes));

    // --- Deterministic stdout report -----------------------------------
    if opts.json {
        let alloc_json = match allocs {
            Some((a, b)) => Json::obj([("allocs", Json::UInt(a)), ("bytes", Json::UInt(b))]),
            None => Json::Null,
        };
        let stage = |arena: &fua::obs::ArenaCounters| {
            Json::obj([
                ("cells", Json::UInt(workloads.len() as u64)),
                ("cycles", Json::UInt(serial_cycles)),
                ("retired", Json::UInt(retired)),
                ("arena_leases", Json::UInt(arena.leases)),
            ])
        };
        let doc = Json::obj([
            ("schema", Json::Str("fua-harness-report/1".into())),
            ("serial_pass", stage(&serial_arena)),
            ("parallel_sweep", stage(&parallel_arena)),
            ("serial_pass_allocations", alloc_json),
        ]);
        println!("{}", doc.pretty());
    } else {
        let mut table = TextTable::new(["stage", "cells", "simulated cycles", "arena leases"]);
        for (stage, arena) in [
            ("serial pass", &serial_arena),
            ("parallel sweep", &parallel_arena),
        ] {
            table.push_row([
                stage.to_string(),
                workloads.len().to_string(),
                serial_cycles.to_string(),
                arena.leases.to_string(),
            ]);
        }
        println!("{table}");
        println!("retired {retired} instruction(s) per pass");
        match allocs {
            Some((a, b)) => println!("serial-pass allocations: {a} alloc(s), {b} byte(s)"),
            None => println!(
                "serial-pass allocations: n/a \
                 (counting allocator not installed; build with --features harness-obs)"
            ),
        }
    }

    // --- Wall-clock views: stderr and the opt-in side files ------------
    eprintln!(
        "harness-report: parallel sweep busy {:.1}% over {} worker(s), imbalance {:.2}, \
         wall {:.3}s ({} span(s), {} arena event(s) collected)",
        parallel_exec.busy_fraction() * 100.0,
        parallel_exec.jobs,
        parallel_exec.imbalance(),
        parallel_exec.wall_nanos as f64 / 1e9,
        spans.len(),
        events.len()
    );

    if let Some(path) = &opts.out {
        let mut timeline = fua::trace::HarnessTimeline::new("harness-report");
        for s in &spans {
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
        for e in &events {
            timeline.arena_event(e.kind.label(), e.nanos);
        }
        let mut text = timeline.into_json().pretty();
        text.push('\n');
        std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("harness-report: wrote Perfetto timeline to {path}");
    }

    if let Some(path) = &opts.flame {
        // Folded stacks: harness;worker-N;stage  <busy nanoseconds>.
        let mut folded: std::collections::BTreeMap<(u32, String), u64> =
            std::collections::BTreeMap::new();
        for s in &spans {
            let stage = if s.stage.is_empty() {
                "chunk".to_string()
            } else {
                flame_frame(&s.stage)
            };
            *folded.entry((s.worker, stage)).or_insert(0) +=
                s.end_nanos.saturating_sub(s.start_nanos);
        }
        let mut text = String::new();
        for ((worker, stage), nanos) in &folded {
            text.push_str(&format!("harness;worker-{worker};{stage} {nanos}\n"));
        }
        std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("harness-report: wrote folded stacks to {path}");
    }

    if let Some(path) = &opts.openmetrics {
        use fua::trace::{metric_name, render_openmetrics, MetricsRegistry};
        let mut reg = MetricsRegistry::new();
        for (stage, exec) in [("serial", &serial_exec), ("parallel", &parallel_exec)] {
            let id = reg.counter(&metric_name("fua.harness.cells", &[("stage", stage)]));
            reg.add(id, exec.cells());
            let id = reg.counter(&metric_name("fua.harness.busy_nanos", &[("stage", stage)]));
            reg.add(id, exec.busy_nanos());
            let id = reg.counter(&metric_name("fua.harness.wall_nanos", &[("stage", stage)]));
            reg.add(id, exec.wall_nanos);
            let id = reg.gauge(&metric_name(
                "fua.harness.busy_fraction",
                &[("stage", stage)],
            ));
            reg.set(id, exec.busy_fraction());
            let id = reg.gauge(&metric_name("fua.harness.imbalance", &[("stage", stage)]));
            reg.set(id, exec.imbalance());
        }
        for (i, w) in parallel_exec.workers.iter().enumerate() {
            let worker = i.to_string();
            let id = reg.counter(&metric_name(
                "fua.harness.worker.busy_nanos",
                &[("worker", &worker)],
            ));
            reg.add(id, w.nanos);
            let id = reg.counter(&metric_name(
                "fua.harness.worker.cells",
                &[("worker", &worker)],
            ));
            reg.add(id, w.cells);
        }
        let qd = reg.histogram("fua.harness.queue_depth", &[0, 1, 2, 4, 8, 16, 32]);
        for s in &spans {
            reg.observe(qd, s.queue_depth as u64);
        }
        let id = reg.counter("fua.harness.arena.leases");
        reg.add(id, serial_arena.leases + parallel_arena.leases);
        let id = reg.counter("fua.harness.arena.fresh");
        reg.add(id, serial_arena.fresh + parallel_arena.fresh);
        let id = reg.counter("fua.harness.allocs");
        reg.add(id, alloc_delta.allocs);
        let id = reg.counter("fua.harness.alloc_bytes");
        reg.add(id, alloc_delta.bytes);
        std::fs::write(path, render_openmetrics(&reg))
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!(
            "harness-report: wrote OpenMetrics exposition to {path} ({} metric(s))",
            reg.len()
        );
    }

    Ok(true)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return usage();
    };
    match command.as_str() {
        "--version" | "-V" => {
            println!("fua {}", env!("CARGO_PKG_VERSION"));
            return ExitCode::SUCCESS;
        }
        "--help" | "-h" | "help" => {
            help();
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    // Positional arguments (for figure4/run/trace, and the two-word
    // store actions) precede the -- options.
    let mut opt_start = 1;
    let mut subs: Vec<&str> = Vec::new();
    while subs.len() < 2 {
        match args.get(opt_start).filter(|a| !a.starts_with("--")) {
            Some(sub) => {
                subs.push(sub.as_str());
                opt_start += 1;
            }
            None => break,
        }
    }
    let opts = match parse_options(&args[opt_start..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    if opts.progress {
        enable_heartbeat(std::time::Duration::from_secs(2));
    }

    let Some(cmd) = dispatch(command, &subs) else {
        return usage();
    };
    let result = match cmd {
        Cmd::Tables => cmd_tables(&opts),
        Cmd::Figure4(unit) => cmd_figure4(unit, &opts),
        Cmd::Headline => cmd_headline(&opts),
        Cmd::Fig1 => emit(&routing_example(), RoutingExample::render, &[], opts.json),
        Cmd::Synth => emit(&synthesis_report(), SynthesisReport::render, &[], opts.json),
        Cmd::Chip => emit(
            &chip_estimate(&config(&opts)),
            ChipEstimate::render,
            &[],
            opts.json,
        ),
        Cmd::Breakdown(unit) => emit(
            &workload_breakdown(unit, &config(&opts)),
            WorkloadBreakdown::render,
            &[],
            opts.json,
        ),
        Cmd::Sensitivity => emit(
            &swap_sensitivity(&config(&opts)),
            SwapSensitivity::render,
            &[],
            opts.json,
        ),
        Cmd::StaticSwap(unit) => emit(
            &static_swap_comparison(unit, &config(&opts)),
            StaticSwapComparison::render,
            &[],
            opts.json,
        ),
        Cmd::Analyze(name) => cmd_analyze(&name, &opts),
        Cmd::Lint(name) => cmd_lint(name.as_deref(), &opts),
        Cmd::Workloads => cmd_workloads(&opts),
        Cmd::Run(name) => cmd_run(&name, &opts),
        Cmd::Trace(name) => cmd_trace(&name, &opts),
        Cmd::Estimate(name) => cmd_estimate(&name, &opts),
        Cmd::ProfileEnergy(name) => cmd_profile_energy(&name, &opts),
        Cmd::ProfileCycles(name) => cmd_profile_cycles(&name, &opts),
        Cmd::BenchSuite => cmd_bench_suite(&opts),
        Cmd::Report => cmd_report(&opts),
        Cmd::Store(action) => cmd_store(&action, &opts),
        Cmd::Trends => cmd_trends(&opts),
        Cmd::HarnessReport => cmd_harness_report(&opts),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
