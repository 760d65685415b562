//! Command-line surface: flag/scheme parsing and subcommand dispatch.
//!
//! Everything the `fua` binary does *before* running a command lives
//! here — the [`Options`] grammar, the shared positive-integer and
//! scheme parsers, the workload-set resolver, the [`Cmd`] table that
//! maps `(command, sub)` strings to a typed dispatch value, and the
//! [`COMMAND_FLAGS`] table of the flags each command reads.
//! `main.rs` keeps the command implementations; this module keeps the
//! strings, so the usage text, the help text and the dispatch table sit
//! next to each other and stay in sync.

use std::process::ExitCode;

use fua::core::{ExperimentConfig, Unit};
use fua::exec::Jobs;
use fua::report::DEFAULT_WINDOW_CYCLES;
use fua::sim::MachineConfig;
use fua::workloads::Workload;

/// Default retired-instruction cap for simulation commands.
pub const DEFAULT_LIMIT: u64 = 150_000;
/// Default cap for `fua trace` — full runs would emit millions of
/// events; 20k instructions already gives Perfetto a rich timeline.
pub const TRACE_DEFAULT_LIMIT: u64 = 20_000;
/// Default retired-instruction cap for `fua profile-energy` and
/// `fua profile-cycles` — matches the bench-suite quick config so
/// profiles explain BENCH artifacts.
pub const PROFILE_DEFAULT_LIMIT: u64 = 25_000;

/// Parsed `--flag` options, shared by every subcommand.
pub struct Options {
    pub limit: Option<u64>,
    pub scale: u32,
    pub jobs: Jobs,
    pub json: bool,
    pub metrics: bool,
    pub out: Option<String>,
    pub last: Option<usize>,
    pub window: Option<u64>,
    pub csv: Option<String>,
    pub tag: Option<String>,
    pub baseline: Option<String>,
    pub current: Option<String>,
    pub scheme: Option<String>,
    pub compare: Option<(String, String)>,
    pub top: Option<usize>,
    pub flame: Option<String>,
    pub per_block: bool,
    pub verify: bool,
    pub critical_path: bool,
    pub progress: bool,
}

/// A recognised `(command, sub)` pair, ready to dispatch.
pub enum Cmd {
    Tables,
    Figure4(Unit),
    Headline,
    Fig1,
    Synth,
    Chip,
    Ablation(String),
    Breakdown(Unit),
    Sensitivity,
    StaticSwap(Unit),
    Analyze(String),
    Lint(Option<String>),
    Workloads,
    Run(String),
    Trace(String),
    Estimate(String),
    ProfileEnergy(String),
    ProfileCycles(String),
    BenchSuite,
    Report,
    HarnessReport,
}

/// Maps a command plus its leading positional arguments to a typed
/// command, or `None` for anything the binary does not recognise (the
/// caller prints usage). The table mirrors the command list in
/// [`usage`]/[`help`].
pub fn dispatch(command: &str, subs: &[&str]) -> Option<Cmd> {
    Some(match (command, subs) {
        ("tables", []) => Cmd::Tables,
        ("figure4", ["ialu"]) => Cmd::Figure4(Unit::Ialu),
        ("figure4", ["fpau"]) => Cmd::Figure4(Unit::Fpau),
        ("headline", []) => Cmd::Headline,
        ("fig1", []) => Cmd::Fig1,
        ("synth", []) => Cmd::Synth,
        ("chip", []) => Cmd::Chip,
        ("ablation", [name]) => Cmd::Ablation(name.to_string()),
        ("breakdown", ["ialu"]) => Cmd::Breakdown(Unit::Ialu),
        ("breakdown", ["fpau"]) => Cmd::Breakdown(Unit::Fpau),
        ("sensitivity", []) => Cmd::Sensitivity,
        ("staticswap", ["ialu"]) => Cmd::StaticSwap(Unit::Ialu),
        ("staticswap", ["fpau"]) => Cmd::StaticSwap(Unit::Fpau),
        ("analyze", [name]) => Cmd::Analyze(name.to_string()),
        ("lint", []) => Cmd::Lint(None),
        ("lint", [name]) => Cmd::Lint(Some(name.to_string())),
        ("workloads", []) => Cmd::Workloads,
        ("run", [name]) => Cmd::Run(name.to_string()),
        ("trace", [name]) => Cmd::Trace(name.to_string()),
        ("estimate", [name]) => Cmd::Estimate(name.to_string()),
        ("profile-energy", [name]) => Cmd::ProfileEnergy(name.to_string()),
        ("profile-cycles", [name]) => Cmd::ProfileCycles(name.to_string()),
        ("bench-suite", []) => Cmd::BenchSuite,
        ("report", []) => Cmd::Report,
        ("harness-report", []) => Cmd::HarnessReport,
        _ => return None,
    })
}

/// The studies `fua ablation <name>` runs.
pub const ABLATIONS: [&str; 4] = ["fp-info-bits", "modules", "homes", "multiplier"];

/// Every command with the flags its `cmd_*` reads in some mode, in the
/// order `--help` lists commands. [`parse_options`] rejects any other
/// flag, and [`help`] prints this table, so neither can drift from the
/// code.
#[rustfmt::skip]
pub const COMMAND_FLAGS: &[(&str, &str)] = &[
    ("tables", "--limit --scale"),
    ("figure4", "--limit --scale --jobs --json --metrics --progress"),
    ("headline", "--limit --scale --jobs --json --metrics --progress"),
    ("fig1", "--json"),
    ("synth", "--json"),
    ("chip", "--limit --scale --json"),
    ("ablation", "--limit --scale"),
    ("breakdown", "--limit --scale --json"),
    ("sensitivity", "--limit --scale --json"),
    ("staticswap", "--limit --scale --json"),
    ("analyze", "--scale"),
    ("estimate", "--limit --scale --jobs --json --scheme --compare --per-block --verify --progress"),
    ("lint", "--scale"),
    ("workloads", "--scale"),
    ("run", "--limit --scale --json --metrics"),
    ("trace", "--limit --scale --metrics --out --last --window --csv"),
    ("profile-energy", "--limit --scale --jobs --json --scheme --compare --top --flame --progress"),
    ("profile-cycles", "--limit --scale --jobs --json --scheme --top --flame --critical-path --progress"),
    ("bench-suite", "--limit --scale --jobs --window --tag --progress"),
    ("report", "--limit --scale --jobs --window --baseline --current --progress"),
    ("harness-report", "--limit --scale --jobs --json --out --flame --progress"),
];

/// Whether a space-separated flag list holds `flag`.
fn lists(flags: &str, flag: &str) -> bool {
    flags.split(' ').any(|f| f == flag)
}

/// Prints the one-screen usage summary to stderr and returns failure.
pub fn usage() -> ExitCode {
    eprintln!(
        "usage: fua <command> [sub] [options]\n\
         commands: tables | figure4 <ialu|fpau> | headline | fig1 | synth | chip | \
         ablation <{}> | breakdown <ialu|fpau> | sensitivity | \
         staticswap <ialu|fpau> | analyze <workload> | lint [workload] | workloads | \
         run <workload> | estimate <workload|all> | trace <workload> | \
         profile-energy <workload|all> | profile-cycles <workload|all> | bench-suite | \
         report --baseline FILE [--current FILE] | harness-report\n\
         try `fua --help` for the full reference and the flags each command reads",
        ABLATIONS.join("|")
    );
    ExitCode::FAILURE
}

/// The full CLI reference: every subcommand with its arguments, every
/// flag, then [`COMMAND_FLAGS`]. Mirrored as the command table in
/// README.md — keep the two in sync.
pub fn help() {
    println!(
        "fua {} — dynamic functional unit assignment for low power\n\
         \n\
         usage: fua <command> [sub] [options]\n\
         \n\
         paper artefacts:\n\
         \x20 tables                  regenerate Tables 1-3 (bit patterns, occupancy)\n\
         \x20 figure4 <ialu|fpau>     regenerate Figure 4(a)/(b), the scheme sweep\n\
         \x20 headline                headline numbers (paper: ~17% / ~18% / ~26%)\n\
         \x20 fig1                    Figure 1 routing example\n\
         \x20 synth                   Section-5 gate-cost report (58 gates / 6 levels)\n\
         \x20 chip                    chip-level power extrapolation (Section 1)\n\
         \x20 ablation <name>         ablations of the paper's fixed choices:\n\
         \x20                         fp-info-bits, modules, homes, multiplier\n\
         \n\
         studies:\n\
         \x20 breakdown <ialu|fpau>   per-workload reduction results\n\
         \x20 sensitivity             compiler-swap cross-input sensitivity study\n\
         \x20 staticswap <ialu|fpau>  static analysis vs profile-guided swapping\n\
         \x20 analyze <workload>      static information-bit predictions\n\
         \x20 estimate <w|all>        static switched-bit upper bounds per PC, block\n\
         \x20                         and FU class; --verify gates them against the\n\
         \x20                         measured attribution (nonzero exit on violation)\n\
         \x20 lint [workload]         lint one workload (or all; nonzero exit on findings)\n\
         \n\
         simulation and observability:\n\
         \x20 workloads               list the bundled workloads\n\
         \x20 run <workload>          simulate one workload under every scheme\n\
         \x20 trace <workload>        cycle-level trace under 4-bit LUT + hw swap\n\
         \x20 profile-energy <w|all>  attribute every switched bit to its static PC,\n\
         \x20                         basic block, FU module and steering case;\n\
         \x20                         rank hotspots, export flamegraphs, diff schemes\n\
         \x20 profile-cycles <w|all>  attribute every issue slot of every cycle to a\n\
         \x20                         stall reason and its culprit PC — an exact\n\
         \x20                         partition of cycles x issue width; rank stall\n\
         \x20                         hotspots, join with the energy profile, export\n\
         \x20                         flamegraphs, extract the critical path\n\
         \n\
         experiment ledger:\n\
         \x20 bench-suite             quick suite -> BENCH_<tag>.json artifact\n\
         \x20 report                  tolerance-banded diff vs a BENCH baseline\n\
         \x20                         (nonzero exit on regression — the CI gate)\n\
         \x20 harness-report          observe the harness observing: sweep the\n\
         \x20                         workloads with span collection on and print\n\
         \x20                         per-stage cell counts, simulated cycles,\n\
         \x20                         arena-pool traffic and allocation counts\n\
         \x20                         (stdout is byte-identical for every --jobs N;\n\
         \x20                         wall-clock views go to the side files:\n\
         \x20                         --flame, --out for Perfetto)\n\
         \n\
         options (the table after them lists the flags each command reads):\n\
         \x20 --limit <N>     retired-instruction cap per run\n\
         \x20                 (default {DEFAULT_LIMIT}; {TRACE_DEFAULT_LIMIT} for trace;\n\
         \x20                 {PROFILE_DEFAULT_LIMIT} for profile-energy/profile-cycles;\n\
         \x20                 quick-config 25000 for bench-suite/report/\n\
         \x20                 harness-report)\n\
         \x20 --scale <N>     workload scale factor, default 1\n\
         \x20 --jobs <N>      worker threads for the sweep; default: available\n\
         \x20                 parallelism; 1 = serial reference path. Output is\n\
         \x20                 byte-identical for every N — parallelism only\n\
         \x20                 changes wall-clock\n\
         \x20 --json          emit machine-readable JSON instead of tables\n\
         \x20 --metrics       print a metrics snapshot\n\
         \x20 --out <FILE>    write Chrome trace-event JSON for Perfetto\n\
         \x20                 (harness-report: worker/arena timeline tracks)\n\
         \x20 --last <N>      print the last N trace events, default 16\n\
         \x20 --window <N>    telemetry window in cycles, default {DEFAULT_WINDOW_CYCLES}\n\
         \x20 --csv <FILE>    write the windowed telemetry time-series CSV\n\
         \x20 --scheme <S>    steering scheme to attribute or bound, default lut4\n\
         \x20                 (naive|fullham|1bitham|lut2|lut4|lut8)\n\
         \x20 --compare <A> <B>  run both schemes and report where B saves or\n\
         \x20                 loses switched bits vs A;\n\
         \x20                 for estimate, diff the two schemes' static bounds\n\
         \x20 --per-block     print per-basic-block aggregates instead of the\n\
         \x20                 per-PC bound table\n\
         \x20 --verify        join the static bounds with a measured attribution\n\
         \x20                 and report soundness + precision; nonzero exit on\n\
         \x20                 any violated bound\n\
         \x20 --top <N>       hotspot/mover rows to print, default 10\n\
         \x20 --flame <FILE>  write collapsed stacks (workload;block;pc weight;\n\
         \x20                 harness-report: harness;worker;stage nanos)\n\
         \x20                 for flamegraph renderers\n\
         \x20 --critical-path print the retirement-dependence critical path with\n\
         \x20                 per-node operand/structural wait\n\
         \x20 --tag <T>       artifact tag, default \"local\": bench-suite writes\n\
         \x20                 BENCH_<T>.json\n\
         \x20 --baseline <F>  baseline artifact\n\
         \x20 --current <F>   current artifact; omitted = run a fresh bench-suite\n\
         \x20                 and diff that\n\
         \x20 --progress      print a heartbeat line to stderr every few seconds\n\
         \x20                 (elapsed, stage, cells done/total, eta) plus a\n\
         \x20                 per-stage worker-utilization summary; stdout and\n\
         \x20                 artifacts are byte-identical with or without it\n\
         \x20 --version, -V   print the version and exit\n\
         \x20 --help, -h      print this help and exit\n\
         \n\
         flags each command reads (any other flag is an error):",
        env!("CARGO_PKG_VERSION")
    );
    for (command, flags) in COMMAND_FLAGS {
        let mut line = format!("  {command:<15}");
        for flag in flags.split(' ') {
            if line.len() + flag.len() >= 78 {
                println!("{line}");
                line = " ".repeat(17);
            }
            line = format!("{line} {flag}");
        }
        println!("{line}");
    }
    println!(
        "\nstdout carries only the command's output (tables, JSON, findings);\n\
         progress and log lines go to stderr, so pipelines compose cleanly."
    );
}

/// Parses a flag value as a positive integer; 0 and non-numeric input
/// are rejected with an error naming the flag.
pub fn positive_u64(flag: &str, value: &str) -> Result<u64, String> {
    let n: u64 = value
        .parse()
        .map_err(|_| format!("{flag} expects a positive integer, got `{value}`"))?;
    if n == 0 {
        return Err(format!("{flag} must be at least 1, got 0"));
    }
    Ok(n)
}

/// Parses the `--flag` tail of an invocation of `command` into
/// [`Options`]. A flag `command` does not read is an error naming both,
/// so a flag is never silently ignored.
pub fn parse_options(command: &str, args: &[String]) -> Result<Options, String> {
    let flags = COMMAND_FLAGS
        .iter()
        .find(|(c, _)| *c == command)
        .map_or("", |(_, flags)| flags);
    let mut opts = Options {
        limit: None,
        scale: 1,
        jobs: Jobs::auto(),
        json: false,
        metrics: false,
        out: None,
        last: None,
        window: None,
        csv: None,
        tag: None,
        baseline: None,
        current: None,
        scheme: None,
        compare: None,
        top: None,
        flame: None,
        per_block: false,
        verify: false,
        critical_path: false,
        progress: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        if !lists(flags, flag) && COMMAND_FLAGS.iter().any(|(_, f)| lists(f, flag)) {
            return Err(format!(
                "`fua {command}` does not read {flag} (its options: {flags})"
            ));
        }
        match flag {
            "--limit" => {
                let v = it.next().ok_or("--limit needs a value")?;
                opts.limit = Some(positive_u64("--limit", v)?);
            }
            "--scale" => {
                let v = it.next().ok_or("--scale needs a value")?;
                let n = positive_u64("--scale", v)?;
                opts.scale = u32::try_from(n).map_err(|_| format!("--scale is too large: {v}"))?;
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                opts.jobs = v.parse().map_err(|e| format!("--jobs: {e}"))?;
            }
            "--json" => opts.json = true,
            "--metrics" => opts.metrics = true,
            "--out" => {
                let v = it.next().ok_or("--out needs a file path")?;
                opts.out = Some(v.clone());
            }
            "--last" => {
                let v = it.next().ok_or("--last needs a value")?;
                opts.last = Some(positive_u64("--last", v)? as usize);
            }
            "--window" => {
                let v = it.next().ok_or("--window needs a value")?;
                opts.window = Some(positive_u64("--window", v)?);
            }
            "--csv" => {
                let v = it.next().ok_or("--csv needs a file path")?;
                opts.csv = Some(v.clone());
            }
            "--tag" => {
                let v = it.next().ok_or("--tag needs a value")?;
                opts.tag = Some(v.clone());
            }
            "--baseline" => {
                let v = it.next().ok_or("--baseline needs a file path")?;
                opts.baseline = Some(v.clone());
            }
            "--current" => {
                let v = it.next().ok_or("--current needs a file path")?;
                opts.current = Some(v.clone());
            }
            "--scheme" => {
                let v = it.next().ok_or("--scheme needs a value")?;
                opts.scheme = Some(v.clone());
            }
            "--compare" => {
                let a = it
                    .next()
                    .ok_or("--compare needs two scheme names (e.g. --compare naive lut4)")?;
                let b = it
                    .next()
                    .ok_or("--compare needs a second scheme name (e.g. --compare naive lut4)")?;
                opts.compare = Some((a.clone(), b.clone()));
            }
            "--top" => {
                let v = it.next().ok_or("--top needs a value")?;
                opts.top = Some(positive_u64("--top", v)? as usize);
            }
            "--flame" => {
                let v = it.next().ok_or("--flame needs a file path")?;
                opts.flame = Some(v.clone());
            }
            "--per-block" => opts.per_block = true,
            "--verify" => opts.verify = true,
            "--critical-path" => opts.critical_path = true,
            "--progress" => opts.progress = true,
            other => return Err(format!("unknown option: {other}")),
        }
    }
    Ok(opts)
}

/// The configuration a full-fat experiment command simulates under.
pub fn config(opts: &Options) -> ExperimentConfig {
    ExperimentConfig {
        scale: opts.scale,
        inst_limit: opts.limit.unwrap_or(DEFAULT_LIMIT),
        machine: MachineConfig::paper_default(),
    }
}

/// The configuration `bench-suite`/`report` measure under: the quick
/// experiment config unless `--limit`/`--scale` override it.
pub fn bench_config(opts: &Options) -> ExperimentConfig {
    let quick = ExperimentConfig::quick();
    ExperimentConfig {
        scale: opts.scale,
        inst_limit: opts.limit.unwrap_or(quick.inst_limit),
        machine: quick.machine,
    }
}

/// The error for a workload name that does not exist, listing the names
/// that do (the same list `fua workloads` prints).
pub fn unknown_workload(name: &str, scale: u32) -> String {
    let names: Vec<&str> = fua::workloads::all(scale).iter().map(|w| w.name).collect();
    format!(
        "unknown workload: {name}\navailable workloads: {}",
        names.join(", ")
    )
}

/// The workload a `<workload>` sub-argument names.
pub fn workload(name: &str, scale: u32) -> Result<Workload, String> {
    fua::workloads::by_name(name, scale).ok_or_else(|| unknown_workload(name, scale))
}

/// The workload set a `<workload|all>` sub-argument names.
pub fn profile_workloads(name: &str, scale: u32) -> Result<Vec<Workload>, String> {
    if name == "all" {
        Ok(fua::workloads::all(scale))
    } else {
        Ok(vec![workload(name, scale)?])
    }
}

/// The error for a scheme name that does not exist, listing the names
/// that do — the same shape as [`unknown_workload`], prefixed with the
/// flag that carried the bad value.
pub fn unknown_scheme(flag: &str, name: &str) -> String {
    let names: Vec<&str> = fua::attr::Scheme::ALL.iter().map(|s| s.name()).collect();
    format!(
        "{flag}: unknown scheme: {name}\navailable schemes: {}",
        names.join(", ")
    )
}

/// Parses a scheme name carried by `flag` into a [`Scheme`](fua::attr::Scheme).
pub fn parse_scheme(flag: &str, name: &str) -> Result<fua::attr::Scheme, String> {
    name.parse().map_err(|_| unknown_scheme(flag, name))
}
