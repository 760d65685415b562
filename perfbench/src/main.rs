//! The repository benchmark: times the workspace crates' public calls
//! from outside on two workloads and checks their outputs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <engine|ledger> --seed N --seconds S --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics; with `--trace 1` a
//! serial traced run prints the per-crate layer table and the per-layer
//! metrics. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md`.

mod digest;
mod engine;
mod ledger;
mod metrics;
mod paper;
mod replay;
mod sweep;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use metrics::{median, result_line, timed, LayerReport, Sheet, END_TO_END, PER_LAYER};

/// Set-ups a run makes before its first timed call; the traced run
/// reports their median as `workloads.build_s`.
const SETUP_REPS: usize = 21;

/// Set-ups the untraced loop repeats before each timed iteration, so
/// that `setup_s` samples the whole run, not just its first
/// milliseconds.
const SETUP_REPS_PER_ITER: usize = 5;

/// Command-line options shared by every workload.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload run hands back for printing.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub sheet: Sheet,
    pub digest: String,
    pub layers: Option<LayerReport>,
    /// Human-readable lines printed before the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts `cells` attempted, all failed if `ok` is false.
    pub fn tally(&mut self, cells: u64, ok: bool) {
        self.attempted += cells;
        if !ok {
            self.failed += cells;
        }
    }
}

/// Runs `f`, turning a panic into `None` (the panic message still goes
/// to standard error).
pub fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Runs the set-up `SETUP_REPS` times; returns the last result and the
/// median seconds.
pub fn setup_median<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let (value, s) = timed(&mut f);
        secs.push(s);
        last = Some(value);
    }
    (last.expect("at least one set-up"), median(&secs))
}

/// What the untraced timed loop measured.
pub struct Measured {
    /// Seconds of one iteration at its fastest: the sum over the
    /// iteration's parts of each part's fastest time in the run.
    wall: f64,
    /// Median seconds per set-up.
    setup: f64,
    /// Peak resident set after the warm-up and the first timed
    /// iteration: a fixed amount of work, however many iterations fit.
    peak_rss: f64,
    /// Every iteration's seconds, for the human-readable output.
    note: String,
}

impl Measured {
    /// Records the end-to-end timing metrics of iterations that run
    /// `cells` cells simulating `cycles` cycles.
    pub fn record(self, out: &mut Outcome, cells: u64, cycles: u64) {
        let s = &mut out.sheet;
        s.set("wall_s", self.wall);
        s.set("cells_per_s", cells as f64 / self.wall);
        s.set("sim_mhz", cycles as f64 / self.wall / 1e6);
        s.set("setup_s", self.setup);
        s.set("peak_rss_mb", self.peak_rss);
        out.notes.push(self.note);
    }
}

/// The untraced run's timed loop: calls `iterate` at least `min` times
/// and then until the next call would end past `seconds`, timing
/// `SETUP_REPS_PER_ITER` calls of `setup` before each.
///
/// `iterate` returns the seconds of each of its parts, always in the
/// same order, or nothing when the iteration failed. The host's speed
/// moves in phases of seconds to minutes that a median over one run
/// cannot escape, so the run reports each part's fastest time: the
/// reading least disturbed by other tenants. Taking the minimum per
/// part rather than per iteration lets fast phases shorter than an
/// iteration count.
pub fn measure<T>(
    seconds: f64,
    min: usize,
    mut setup: impl FnMut() -> T,
    mut iterate: impl FnMut() -> Vec<f64>,
) -> Measured {
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut best: Vec<f64> = Vec::new();
    let mut sums = Vec::new();
    let mut peak_rss = 0.0;
    loop {
        for _ in 0..SETUP_REPS_PER_ITER {
            setups.push(timed(&mut setup).1);
        }
        let parts = iterate();
        if best.is_empty() {
            best.clone_from(&parts);
        } else if parts.len() == best.len() {
            for (b, p) in best.iter_mut().zip(&parts) {
                *b = b.min(*p);
            }
        }
        sums.push(if parts.is_empty() {
            f64::NAN
        } else {
            parts.iter().sum()
        });
        if sums.len() == 1 {
            peak_rss = metrics::peak_rss_mib().unwrap_or(0.0);
        }
        let elapsed = start.elapsed().as_secs_f64();
        if sums.len() >= min && elapsed * (sums.len() + 1) as f64 / sums.len() as f64 > seconds {
            break;
        }
    }
    let listed: Vec<String> = sums.iter().map(|w| format!("{w:.4}")).collect();
    Measured {
        wall: best.iter().sum(),
        setup: median(&setups),
        peak_rss,
        note: format!(
            "{} timed iterations (s): {}; fastest parts sum to {:.4} s",
            sums.len(),
            listed.join(" "),
            best.iter().sum::<f64>()
        ),
    }
}

const USAGE: &str =
    "usage: fua-perfbench --workload <engine|ledger> --seed N --seconds S --trace <0|1>";

fn parse_args() -> Result<(String, Opts), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut opts = Opts {
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut i = 0;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", args[i]))?;
        match args[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                opts.seed = value
                    .parse()
                    .map_err(|_| format!("--seed expects an unsigned integer, got `{value}`"))?;
            }
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds expects a positive number, got `{value}`"))?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got `{value}`")),
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 2;
    }
    Ok((workload.ok_or("--workload is required")?, opts))
}

fn main() -> ExitCode {
    let (workload, opts) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match workload.as_str() {
        "engine" => engine::run(&opts),
        "ledger" => ledger::run(&opts),
        other => {
            eprintln!("unknown workload `{other}` (expected engine or ledger)\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    report(&workload, &opts, &outcome);
    ExitCode::SUCCESS
}

fn report(workload: &str, opts: &Opts, outcome: &Outcome) {
    println!(
        "workload {workload}, seed {}, {} run",
        opts.seed,
        if opts.trace { "traced" } else { "untraced" }
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    if let Some(layers) = &outcome.layers {
        println!("{}", layers.render());
    }
    let list: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = outcome.sheet.select(list);
    for (name, unit, value) in &metrics {
        println!("{name:<28} {value:>16.6} {unit}");
    }
    let fail_ratio = if outcome.attempted == 0 {
        0.0
    } else {
        outcome.failed as f64 / outcome.attempted as f64
    };
    println!(
        "fail_ratio {fail_ratio} ({} of {} cells failed)",
        outcome.failed, outcome.attempted
    );
    println!("model_digest {}", outcome.digest);
    println!("{}", paper::validation_note());
    println!(
        "{}",
        result_line(
            outcome.correct && outcome.failed == 0,
            outcome.attempted.max(1),
            outcome.failed,
            &metrics
        )
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_timed_loop_sums_each_parts_fastest_time() {
        let mut script = vec![vec![3.0, 1.0], vec![], vec![1.0, 3.0], vec![2.0, 2.0]].into_iter();
        let measured = measure(1e-9, 4, || (), || script.next().unwrap());
        // A failed iteration (no parts) leaves the minima alone.
        assert_eq!(measured.wall, 2.0);
        assert!(measured.note.starts_with("4 timed iterations"));
    }
}
