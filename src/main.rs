//! `fua` — command-line front end for the reproduction. `fua --help`
//! lists every command and the flags each one reads; `cli.rs` holds
//! that table, the parser and the dispatch.
//!
//! Parallel runs are deterministic: `--jobs N` produces byte-identical
//! tables, artifacts and exports for every `N` (see EXPERIMENTS.md).
//!
//! Human-readable progress and log lines go to **stderr**; stdout carries
//! only the command's actual output (tables, JSON, trace tails, report
//! findings), so `fua run --json`, `fua trace --out` and the report
//! commands compose cleanly with pipes.

use std::process::ExitCode;

mod cli;

use cli::{
    bench_config, config, dispatch, help, parse_options, parse_scheme, profile_workloads, usage,
    workload, Cmd, Options, ABLATIONS, DEFAULT_LIMIT, PROFILE_DEFAULT_LIMIT,
};
use fua::attr::{
    attribute_suite, profile_cycles_suite, CycleProfile, EnergyComparison, EnergyProfile,
    EstimateComparison, EstimateReport, EstimateVerification, ExactPartition, Scheme, SchemeRun,
};
use fua::core::{
    ablation, chip_estimate, figure4_with_profile_jobs, headline_from, info_bit_report,
    profile_suite_jobs, profile_suite_metrics_jobs, routing_example, static_swap_comparison,
    swap_sensitivity, synthesis_report, workload_breakdown, workload_table, ChipEstimate, Figure4,
    Headline, Json, RoutingExample, StaticSwapComparison, SwapSensitivity, SynthesisReport, ToJson,
    Unit, WorkloadBreakdown,
};
use fua::exec::{enable_heartbeat, heartbeat_stage, Jobs};
use fua::report::{
    bench_suite_jobs, compare, BenchReport, HarnessReport, Tolerance, DEFAULT_WINDOW_CYCLES,
};
use fua::sim::{MachineConfig, Simulator};
use fua::trace::MetricsRecorder;
use fua::workloads::{Workload, WorkloadArena};

// Every allocation in the binary routes through the counting wrapper,
// so `harness-report` and the BENCH harness digest carry real
// allocs/bytes figures. The wrapper changes no allocation behaviour.
#[global_allocator]
static COUNTING_ALLOC: fua::obs::CountingAlloc = fua::obs::CountingAlloc;

/// What every command returns: `Ok(false)` when one of its gates
/// failed (the command already said why on stdout), `Err` for an error
/// `main` prints to stderr. Both exit nonzero.
type CmdResult = Result<bool, String>;

fn cmd_tables(opts: &Options) -> CmdResult {
    let cfg = config(opts);
    let arena = WorkloadArena::build(cfg.scale);
    let (p, _) = profile_suite_jobs(&cfg, &arena, Jobs::serial());
    println!("{}", p.table1());
    println!("{}", p.table2());
    println!("{}", p.table3());
    Ok(true)
}

fn cmd_ablation(name: &str, opts: &Options) -> CmdResult {
    let cfg = config(opts);
    let table = match name {
        "fp-info-bits" => ablation::fp_info_bits(&cfg).render(),
        "modules" => ablation::module_count(&cfg).render(),
        "homes" => ablation::home_cases(&cfg).render(),
        "multiplier" => ablation::multiplier_swap(&cfg).render(),
        _ => {
            return Err(format!(
                "unknown ablation: {name}\navailable ablations: {}",
                ABLATIONS.join(", ")
            ))
        }
    };
    println!("{table}");
    Ok(true)
}

/// Prints a report as JSON or as its text rendering. With metrics, JSON
/// output wraps the report as `{"report": ..., "metrics": {...}}` and
/// text output appends the rendered recorders.
fn emit<T: ToJson>(
    value: &T,
    render: impl FnOnce(&T) -> String,
    metrics: &[(Unit, MetricsRecorder)],
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
        for (unit, recorder) in metrics {
            println!("\nmetrics — {unit} suite under 4-bit LUT + hardware swap:\n{recorder}");
        }
    }
    Ok(true)
}

fn cmd_figure4(unit: Unit, opts: &Options) -> CmdResult {
    let cfg = config(opts);
    heartbeat_stage("figure4: scheme sweep");
    let arena = WorkloadArena::build(cfg.scale);
    let units: &[Unit] = if opts.metrics { &[unit] } else { &[] };
    let (profile, metrics, _) = profile_suite_metrics_jobs(&cfg, &arena, opts.jobs, units);
    let fig = figure4_with_profile_jobs(unit, &cfg, &arena, &profile, opts.jobs).0;
    emit(&fig, Figure4::render, &metrics, opts.json)
}

fn cmd_headline(opts: &Options) -> CmdResult {
    let cfg = config(opts);
    heartbeat_stage("headline: scheme sweeps");
    let arena = WorkloadArena::build(cfg.scale);
    let units: &[Unit] = if opts.metrics {
        &[Unit::Ialu, Unit::Fpau]
    } else {
        &[]
    };
    let (profile, metrics, _) = profile_suite_metrics_jobs(&cfg, &arena, opts.jobs, units);
    let figure = |unit| figure4_with_profile_jobs(unit, &cfg, &arena, &profile, opts.jobs).0;
    let h = headline_from(&figure(Unit::Ialu), &figure(Unit::Fpau));
    emit(&h, Headline::render, &metrics, opts.json)
}

fn cmd_analyze(name: &str, opts: &Options) -> CmdResult {
    println!("{}", info_bit_report(&workload(name, opts.scale)?));
    Ok(true)
}

fn lint_one(w: &Workload) -> usize {
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
        Some(n) => lint_one(&workload(n, opts.scale)?),
        None => fua::workloads::all(opts.scale).iter().map(lint_one).sum(),
    };
    if total > 0 {
        println!("{total} finding(s)");
    }
    Ok(total == 0)
}

fn cmd_run(name: &str, opts: &Options) -> CmdResult {
    let w = workload(name, opts.scale)?;
    let limit = opts.limit.unwrap_or(DEFAULT_LIMIT);
    let run = SchemeRun::run(&w, limit, opts.metrics)?;
    emit(&run, SchemeRun::render, &[], opts.json)
}

/// Writes `contents` to `path`, naming the path in the error.
fn write_file(path: &str, contents: impl AsRef<[u8]>) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("writing {path}: {e}"))
}

fn cmd_trace(name: &str, opts: &Options) -> CmdResult {
    use fua::trace::{ChromeTraceSink, RingBufferSink};

    let w = workload(name, opts.scale)?;
    let limit = opts.limit.unwrap_or(cli::TRACE_DEFAULT_LIMIT);
    let window = opts.window.unwrap_or(DEFAULT_WINDOW_CYCLES);
    let mut sim = Simulator::with_sink(
        MachineConfig::paper_default(),
        fua::core::observed_scheme(),
        (
            ChromeTraceSink::for_workload(w.name),
            (RingBufferSink::default(), MetricsRecorder::windowed(window)),
        ),
    );
    let result = sim
        .run_program(&w.program, limit)
        .map_err(|e| e.to_string())?;
    let (chrome, (ring, recorder)) = sim.into_sink();
    let series = recorder.series();

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
        let doc = chrome.into_json_with_counters(&series);
        write_file(path, doc.compact())?;
        eprintln!("wrote Chrome trace JSON to {path} — load it at https://ui.perfetto.dev");
    }

    if let Some(path) = &opts.csv {
        write_file(path, series.to_csv())?;
        eprintln!("wrote windowed telemetry CSV to {path}");
    }

    let tail = opts.last.unwrap_or(16);
    if opts.last.is_some() || (opts.out.is_none() && opts.csv.is_none()) {
        println!("last {} events:", tail.min(ring.events().len()));
        for e in ring.tail(tail) {
            println!("{e}");
        }
    }

    if opts.metrics {
        println!("\nmetrics:\n{recorder}");
    } else {
        eprintln!(
            "(--metrics prints the counter/histogram snapshot; \
             --out FILE exports Perfetto JSON; --csv FILE the telemetry series; \
             --last N sizes the tail)"
        );
    }
    Ok(true)
}

/// Writes a profiler's collapsed stacks to the `--flame` file, if one
/// was named, logging the line count under the command's name.
fn write_flame(command: &str, opts: &Options, stacks: impl FnOnce() -> String) -> CmdResult {
    if let Some(path) = &opts.flame {
        let stacks = stacks();
        write_file(path, &stacks)?;
        eprintln!(
            "{command}: wrote {} collapsed-stack line(s) to {path}",
            stacks.lines().count()
        );
    }
    Ok(true)
}

/// The shared preamble of `estimate`, `profile-energy` and
/// `profile-cycles`: rejects `--scheme` with `--compare`, then resolves
/// the `<workload|all>` argument and the schemes to run — `--scheme`
/// (default 4-bit LUT) alone, or `--compare`'s A with its B
/// (`profile-cycles` does not read `--compare`: cycles do not depend on
/// the scheme).
fn profile_inputs(
    name: &str,
    opts: &Options,
) -> Result<(Vec<Workload>, Scheme, Option<Scheme>), String> {
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

/// Logs every run's exact-partition verdict under `command`; the first
/// inexact run is the command's error.
fn verify_exact(command: &str, runs: &[impl ExactPartition]) -> Result<(), String> {
    for run in runs {
        eprintln!("{command}: {}", run.summary());
        if let Some(e) = run.inexact() {
            return Err(e);
        }
    }
    Ok(())
}

fn cmd_profile_energy(name: &str, opts: &Options) -> CmdResult {
    let (workloads, scheme, compare_to) = profile_inputs(name, opts)?;
    let limit = opts.limit.unwrap_or(PROFILE_DEFAULT_LIMIT);
    let top = opts.top.unwrap_or(10);
    heartbeat_stage("profile-energy: attributing");

    if let Some(scheme_b) = compare_to {
        eprintln!(
            "profile-energy: comparing {} vs {} over {} workload(s) (limit {limit}, {} job(s))",
            scheme.label(),
            scheme_b.label(),
            workloads.len(),
            opts.jobs
        );
        let [runs_a, runs_b]: [_; 2] =
            attribute_suite(&workloads, &[scheme, scheme_b], limit, opts.jobs)
                .try_into()
                .expect("one suite per scheme");
        verify_exact("profile-energy", &runs_a)?;
        verify_exact("profile-energy", &runs_b)?;
        let cmp = EnergyComparison::new(
            EnergyProfile {
                scheme,
                top,
                runs: runs_a,
            },
            EnergyProfile {
                scheme: scheme_b,
                top,
                runs: runs_b,
            },
        );
        emit(&cmp, EnergyComparison::render, &[], opts.json)?;
        // The flamegraph shows where the energy still goes under scheme
        // B, the "after" profile of the comparison.
        return write_flame("profile-energy", opts, || cmp.b.collapsed_stacks());
    }

    eprintln!(
        "profile-energy: attributing {} workload(s) under {} (limit {limit}, {} job(s))",
        workloads.len(),
        scheme.label(),
        opts.jobs
    );
    let runs = attribute_suite(&workloads, &[scheme], limit, opts.jobs).remove(0);
    verify_exact("profile-energy", &runs)?;
    let profile = EnergyProfile { scheme, top, runs };
    emit(&profile, EnergyProfile::render, &[], opts.json)?;
    write_flame("profile-energy", opts, || profile.collapsed_stacks())
}

fn cmd_profile_cycles(name: &str, opts: &Options) -> CmdResult {
    let (workloads, scheme, _) = profile_inputs(name, opts)?;
    let limit = opts.limit.unwrap_or(PROFILE_DEFAULT_LIMIT);
    heartbeat_stage("profile-cycles: attributing");
    eprintln!(
        "profile-cycles: attributing {} workload(s) under {} (limit {limit}, {} job(s))",
        workloads.len(),
        scheme.label(),
        opts.jobs
    );
    let runs = profile_cycles_suite(&workloads, scheme, limit, opts.jobs);
    verify_exact("profile-cycles", &runs)?;
    let profile = CycleProfile {
        scheme,
        top: opts.top.unwrap_or(10),
        critical_path: opts.critical_path,
        runs,
    };
    emit(&profile, CycleProfile::render, &[], opts.json)?;
    write_flame("profile-cycles", opts, || profile.collapsed_stacks())
}

fn cmd_estimate(name: &str, opts: &Options) -> CmdResult {
    let (workloads, scheme, compare_to) = profile_inputs(name, opts)?;
    if opts.verify && compare_to.is_some() {
        return Err("--verify and --compare are mutually exclusive".into());
    }
    heartbeat_stage("estimate: bounding");

    if opts.verify {
        // Joins the static bounds with measured attribution for every
        // scheme under test and gates on soundness.
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
        let verification = EstimateVerification::run(&workloads, &schemes, limit, opts.jobs);
        emit(&verification, EstimateVerification::render, &[], opts.json)?;
        let violations = verification.violations();
        if violations > 0 {
            return Err(format!(
                "{violations} static bound(s) violated by the measured attribution"
            ));
        }
        return Ok(true);
    }

    if let Some(scheme_b) = compare_to {
        eprintln!(
            "estimate: bounding {} workload(s), {} vs {} ({} job(s))",
            workloads.len(),
            scheme.label(),
            scheme_b.label(),
            opts.jobs
        );
        let cmp = EstimateComparison::run(&workloads, scheme, scheme_b, opts.jobs);
        return emit(&cmp, EstimateComparison::render, &[], opts.json);
    }

    eprintln!(
        "estimate: bounding {} workload(s) under {} ({} operand order, {} job(s))",
        workloads.len(),
        scheme.label(),
        scheme.swap_model().name(),
        opts.jobs
    );
    let report = EstimateReport::run(&workloads, scheme, opts.per_block, opts.jobs);
    emit(&report, EstimateReport::render, &[], opts.json)
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
    let path = format!("BENCH_{tag}.json");
    write_file(&path, rendered)?;
    eprintln!(
        "bench-suite: wrote {path} (IALU {:.1}%, FPAU {:.1}%, {} windows, \
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

fn cmd_report(opts: &Options) -> CmdResult {
    let baseline_path = opts
        .baseline
        .as_deref()
        .ok_or("report needs --baseline <FILE> (a BENCH_<tag>.json artifact)")?;
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

    let cmp = compare(&baseline, &current, &Tolerance::default());
    println!("{}", cmp.render(&baseline.manifest.tag));
    Ok(cmp.passed())
}

/// `fua harness-report` — observe the harness observing (see
/// [`HarnessReport`]). Stdout carries only model-deterministic figures
/// and is byte-identical for every `--jobs N`; everything wall-clock
/// goes to stderr and the opt-in side files: `--out` (Perfetto
/// timeline) and `--flame` (folded stacks).
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
    let report = HarnessReport::run(&workloads, &cfg, opts.jobs)?;
    emit(&report, HarnessReport::render, &[], opts.json)?;

    eprintln!("harness-report: {}", report.sweep_summary());
    if let Some(path) = &opts.out {
        write_file(path, report.timeline())?;
        eprintln!("harness-report: wrote Perfetto timeline to {path}");
    }
    if let Some(path) = &opts.flame {
        write_file(path, report.folded_stacks())?;
        eprintln!("harness-report: wrote folded stacks to {path}");
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
    // Positional arguments (for figure4/run/trace) precede the --
    // options.
    let subs: Vec<&str> = args[1..]
        .iter()
        .take_while(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let opt_start = 1 + subs.len();
    let Some(cmd) = dispatch(command, &subs) else {
        return usage();
    };
    let opts = match parse_options(command, &args[opt_start..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    if opts.progress {
        enable_heartbeat(std::time::Duration::from_secs(2));
    }
    let result = match cmd {
        Cmd::Tables => cmd_tables(&opts),
        Cmd::Figure4(unit) => cmd_figure4(unit, &opts),
        Cmd::Headline => cmd_headline(&opts),
        Cmd::Fig1 => emit(&routing_example(), RoutingExample::render, &[], opts.json),
        Cmd::Synth => emit(&synthesis_report(), SynthesisReport::render, &[], opts.json),
        Cmd::Ablation(name) => cmd_ablation(&name, &opts),
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
        Cmd::Workloads => {
            println!("{}", workload_table(opts.scale));
            Ok(true)
        }
        Cmd::Run(name) => cmd_run(&name, &opts),
        Cmd::Trace(name) => cmd_trace(&name, &opts),
        Cmd::Estimate(name) => cmd_estimate(&name, &opts),
        Cmd::ProfileEnergy(name) => cmd_profile_energy(&name, &opts),
        Cmd::ProfileCycles(name) => cmd_profile_cycles(&name, &opts),
        Cmd::BenchSuite => cmd_bench_suite(&opts),
        Cmd::Report => cmd_report(&opts),
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
