//! BENCH artifacts: one durable, diffable JSON ledger per suite run.
//!
//! [`bench_suite_jobs`] runs the paper's quick experiment suite end to end —
//! one windowed observation run per workload with a lane per scheme
//! (the Table-1/2 statistics, telemetry, attribution, stall and
//! estimator digests), the Figure-4 scheme sweep for both duplicated
//! units, and an untraced rate pass — and packages
//! everything, with its [`RunManifest`], into a [`BenchReport`]
//! serialised as `BENCH_<tag>.json`. The observation run also *proves*
//! the interval-telemetry exactness invariant on the spot: the
//! time-series column sums are reassembled into an
//! [`EnergyLedger`](fua_power::EnergyLedger) and compared bit-for-bit
//! with the simulator's own ledger; the verdict is recorded in the
//! artifact (`telemetry.exact`).

use fua_attr::{
    attribute_schemes, check_runs, suite_hotspots, AttributedRun, EstimateCheck, Scheme,
};
use fua_exec::{map_indexed_timed, ExecReport, Jobs};
use fua_power::EnergyLedger;
use fua_sim::{MachineConfig, Simulator};
use fua_trace::{Json, StallReason, ToJson, WindowedSink};
use fua_workloads::{Workload, WorkloadArena};

use fua_core::{
    figure4_with_profile_jobs, headline_from, observed_scheme, ExperimentConfig, Figure4,
    Figure4Row, SuiteProfile, Unit,
};

use crate::{
    array, expect_bool, expect_f64, expect_str, expect_u64, fixed, numbers, section, ReportError,
    RunManifest,
};

/// The artifact schema identifier, the only one this build reads; bump
/// it on any change to the artifact's shape. Every section is required.
pub const BENCH_SCHEMA: &str = "fua-bench/1.8";

/// Hotspots recorded in the artifact's `attribution` section (the
/// suite-wide top-N by switched bits).
pub const ATTRIBUTION_HOTSPOTS: usize = 10;

/// Default telemetry window for the bench suite, in cycles.
pub const DEFAULT_WINDOW_CYCLES: u64 = 1024;

/// One unit's Figure-4 measurement: baseline denominator plus the
/// per-scheme reduction rows in the paper's bar order.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitFigure {
    /// Total baseline switched bits (denominator of every percentage).
    pub baseline_switched_bits: u64,
    /// One row per scheme.
    pub rows: Vec<Figure4Row>,
}

impl UnitFigure {
    fn from_figure(fig: &Figure4) -> Self {
        UnitFigure {
            baseline_switched_bits: fig.baseline_switched_bits,
            rows: fig.rows.clone(),
        }
    }

    /// The row for a scheme, if present.
    pub fn row(&self, scheme: &str) -> Option<&Figure4Row> {
        self.rows.iter().find(|r| r.scheme == scheme)
    }
}

/// Table-1 aggregate operand statistics (the paper's derived one-liners).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperandAggregates {
    /// IALU: mean fraction of 1 bits among info-bit-0 operands.
    pub ialu_ones_frac_info0: f64,
    /// IALU: mean fraction of 1 bits among info-bit-1 operands.
    pub ialu_ones_frac_info1: f64,
    /// FPAU: fraction of operands with a 0 information bit.
    pub fpau_info0_fraction: f64,
    /// FPAU: mean fraction of 1 bits among info-bit-0 operands.
    pub fpau_ones_frac_info0: f64,
}

/// The windowed-telemetry summary recorded in the artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySummary {
    /// Window size used, in cycles.
    pub window_cycles: u64,
    /// Windows accumulated across the observation run.
    pub windows: u64,
    /// Per-class switched-bit totals reassembled from the time-series.
    pub switched_bits: [u64; 4],
    /// Whether the reassembled totals equalled the simulator's own
    /// [`EnergyLedger`](fua_power::EnergyLedger) bit-for-bit.
    pub exact: bool,
}

/// One suite-wide energy hotspot in the artifact's `attribution`
/// section.
#[derive(Debug, Clone, PartialEq)]
pub struct HotspotEntry {
    /// The workload the PC belongs to.
    pub workload: String,
    /// Static program counter within the workload.
    pub pc: u64,
    /// Basic-block label of the PC.
    pub block: String,
    /// Switched bits attributed to the PC.
    pub bits: u64,
    /// Share of the whole suite's switched bits, in percent.
    pub share_pct: f64,
}

/// The `attribution` section of the artifact: the energy-attribution
/// digest of the observation run. The per-PC partition itself stays out
/// of the artifact (it is large and workload-addressed); what is
/// recorded is the exactness verdict and the suite-wide hotspot ranking
/// [`compare`](crate::compare) gates on.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionSummary {
    /// Label of the steering scheme the pass ran under.
    pub scheme: String,
    /// Distinct (pc, class, module, case) charge sites across the suite.
    pub sites: u64,
    /// Per-class switched-bit totals reassembled from the partition.
    pub switched_bits: [u64; 4],
    /// Whether every workload's partition — and their sum — reproduced
    /// the simulator ledgers bit-for-bit.
    pub exact: bool,
    /// The suite-wide top-[`ATTRIBUTION_HOTSPOTS`] PCs by switched bits.
    pub top_hotspots: Vec<HotspotEntry>,
}

/// The `stalls` section of the artifact: the cycle-attribution digest
/// of the observation run. Like the energy `attribution` section, the
/// per-site partition stays out of the artifact; what is recorded is
/// the exact-partition verdict (every issue slot of every cycle counted
/// exactly once) and the suite-wide stall mix
/// [`compare`](crate::compare) gates on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallSummary {
    /// Label of the steering scheme the pass ran under.
    pub scheme: String,
    /// Issue slots per cycle on the benched machine.
    pub issue_width: u64,
    /// Cycles summed over every workload of the observation run.
    pub cycles: u64,
    /// Issue slots the run's stall events accounted, summed over the
    /// telemetry windows.
    pub slots: u64,
    /// Whether `slots == cycles × issue_width` bit-for-bit — the
    /// exact-partition invariant over the whole suite.
    pub exact: bool,
    /// Slot totals per [`StallReason`], in [`StallReason::ALL`] order.
    pub mix: [u64; 7],
}

/// The `throughput` section of the artifact: how fast the simulator
/// itself runs, in simulated MHz. `cycles` and
/// `instructions` are deterministic model totals from the observation
/// run; `hot_nanos` is the summed wall-clock of the *rate pass* — each
/// workload re-run on the default engine (one lane measuring every
/// class, untraced and unprofiled) with a single timer read per
/// workload, so the denominator measures the optimised hot loop itself,
/// not the instrumented observation run. The rate pass must reproduce the
/// observation run's cycle/instruction totals exactly (the engine is
/// deterministic; `bench_suite_jobs` asserts it), so only the
/// denominator is measurement. The derived MHz varies run to run and
/// machine to machine; [`compare`](crate::compare) gates only a gross
/// slowdown of it, never banded drift.
/// `docs/PERFORMANCE.md` documents the methodology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThroughputSummary {
    /// Simulated cycles summed over every workload of the telemetry
    /// pass (bit-identical to the rate pass's total).
    pub cycles: u64,
    /// Retired instructions summed over the same runs.
    pub instructions: u64,
    /// Summed wall-clock of the untraced, unprofiled rate pass, in
    /// nanoseconds (the denominator of the simulated-rate headline).
    pub hot_nanos: u64,
}

impl ThroughputSummary {
    /// Simulated kilohertz: cycles per wall-second of hot loop, /1000.
    pub fn sim_khz(&self) -> f64 {
        if self.hot_nanos == 0 {
            0.0
        } else {
            self.cycles as f64 * 1e6 / self.hot_nanos as f64
        }
    }

    /// Simulated megahertz — the headline `fua bench-suite` prints and
    /// EXPERIMENTS.md reproduces.
    pub fn sim_mhz(&self) -> f64 {
        self.sim_khz() / 1e3
    }

    /// Simulated kilo-instructions per wall-second of hot loop.
    pub fn kips(&self) -> f64 {
        if self.hot_nanos == 0 {
            0.0
        } else {
            self.instructions as f64 * 1e6 / self.hot_nanos as f64
        }
    }

    /// Instructions per simulated cycle — a deterministic model metric.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

/// One scheme's static-vs-dynamic digest in the artifact's `estimator`
/// section, aggregated over the whole suite.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimatorEntry {
    /// Command-line spelling of the scheme checked.
    pub scheme: String,
    /// Whether every per-PC static bound dominated its measurement, for
    /// every workload in the suite.
    pub sound: bool,
    /// Charged PCs compared, summed over the workloads.
    pub pcs: u64,
    /// `Σ bits_per_op × ops` over every charged PC in the suite.
    pub bound_bits: u64,
    /// `Σ measured bits` over the same PCs.
    pub actual_bits: u64,
    /// The aggregate `bound / actual` precision ratio (1.0 = exact;
    /// soundness keeps it ≥ 1.0).
    pub mean_ratio: f64,
    /// The least precise basic block's `bound / actual` ratio.
    pub worst_ratio: f64,
    /// `"workload block"` address of that least precise block.
    pub worst_block: String,
}

/// The `estimator` section of the artifact: for every named scheme, the
/// static switched-bit bounds joined against the measured attribution —
/// the soundness verdict [`compare`](crate::compare) hard-gates on and
/// the precision headline it tolerance-bands.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimatorSummary {
    /// One entry per scheme, in [`Scheme::ALL`] order.
    pub entries: Vec<EstimatorEntry>,
}

/// Aggregates one scheme's per-workload checks into its artifact entry.
fn estimator_entry(scheme: Scheme, checks: &[EstimateCheck]) -> EstimatorEntry {
    let bound_bits: u64 = checks.iter().map(|c| c.bound_bits).sum();
    let actual_bits: u64 = checks.iter().map(|c| c.actual_bits).sum();
    let mean_ratio = if actual_bits == 0 {
        1.0
    } else {
        bound_bits as f64 / actual_bits as f64
    };
    let worst = checks
        .iter()
        .filter_map(|c| {
            c.worst_block
                .as_ref()
                .map(|(label, ratio)| (format!("{} {label}", c.workload), *ratio))
        })
        .max_by(|a, b| a.1.total_cmp(&b.1).then_with(|| b.0.cmp(&a.0)));
    let (worst_block, worst_ratio) = worst.unwrap_or_else(|| ("-".to_string(), 1.0));
    EstimatorEntry {
        scheme: scheme.name().to_string(),
        sound: checks.iter().all(EstimateCheck::sound),
        pcs: checks.iter().map(|c| c.pcs as u64).sum(),
        bound_bits,
        actual_bits,
        mean_ratio,
        worst_ratio,
        worst_block,
    }
}

/// One executor worker's wall-clock accounting in the `parallel`
/// section of the artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerNanos {
    /// Sweep cells this worker executed across all stages.
    pub cells: u64,
    /// Nanoseconds this worker spent busy.
    pub nanos: u64,
}

/// The `parallel` section of the artifact: how the suite's cells were
/// fanned out and what it cost in wall-clock. Purely observational —
/// [`compare`](crate::compare) never diffs it, since the model metrics
/// are identical for every worker count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParallelSummary {
    /// Worker count the suite ran with (1 = the serial reference path).
    pub jobs: u64,
    /// End-to-end wall-clock of the whole suite, in nanoseconds.
    pub wall_nanos: u64,
    /// Per-worker busy time, summed across the suite's stages.
    pub workers: Vec<WorkerNanos>,
}

impl ParallelSummary {
    fn from_report(jobs: Jobs, wall_nanos: u64, report: &ExecReport) -> Self {
        ParallelSummary {
            jobs: jobs.get() as u64,
            wall_nanos,
            workers: report
                .workers
                .iter()
                .map(|w| WorkerNanos {
                    cells: w.cells,
                    nanos: w.nanos,
                })
                .collect(),
        }
    }
}

/// The `harness` section of the artifact: how well the measurement
/// harness itself behaved — worker utilization, load imbalance, arena
/// reuse, and (when the counting allocator is installed) allocation
/// pressure normalised per simulated kilocycle. `busy_fraction` and
/// `imbalance` are wall-clock measurements; `jobs` and the arena
/// counters are configuration/model facts. [`compare`](crate::compare)
/// gates only a *collapse* (utilization halving, allocation pressure
/// exploding) and only between runs with the same `jobs` — two worker
/// counts legitimately utilize differently, so cross-jobs diffs are
/// skipped entirely.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessSummary {
    /// Worker count the suite ran with.
    pub jobs: u64,
    /// Busy wall-clock over pool capacity, `busy / (jobs × wall)`.
    pub busy_fraction: f64,
    /// Busiest worker's nanoseconds over the mean worker's (1.0 =
    /// perfectly balanced).
    pub imbalance: f64,
    /// Heap allocations per simulated kilocycle over the whole suite;
    /// `None` when the counting allocator was not installed (the
    /// default build).
    pub allocs_per_kcycle: Option<f64>,
    /// Inflight-arena leases the suite performed.
    pub arena_leases: u64,
    /// Leases that had to allocate a fresh arena (pool misses).
    pub arena_fresh: u64,
}

/// A complete `BENCH_<tag>.json` artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Provenance: tag, configuration, workload seeds.
    pub manifest: RunManifest,
    /// Figure 4(a): the IALU scheme sweep.
    pub ialu: UnitFigure,
    /// Figure 4(b): the FPAU scheme sweep.
    pub fpau: UnitFigure,
    /// Headline reductions (4-bit LUT + hw swap; + compiler on IALU).
    pub headline_ialu_pct: f64,
    /// FPAU headline reduction.
    pub headline_fpau_pct: f64,
    /// IALU headline with compiler swapping added.
    pub headline_ialu_compiler_pct: f64,
    /// Table-1 aggregates.
    pub operands: OperandAggregates,
    /// Table-2 row 1: `P(Num(I)=k)` for the IALU, k = 1….
    pub ialu_occupancy: Vec<f64>,
    /// Table-2 row 2: the FPAU occupancy distribution.
    pub fpau_occupancy: Vec<f64>,
    /// Windowed-telemetry summary and exactness verdict.
    pub telemetry: TelemetrySummary,
    // The six sections below are required in every parsed artifact.
    // They stay `Option` so a report built in memory without one still
    // renders; `compare` flags such a report as a `schema-shape`
    // regression.
    /// Simulated-throughput headline.
    pub throughput: Option<ThroughputSummary>,
    /// Energy-attribution digest.
    pub attribution: Option<AttributionSummary>,
    /// Cycle-attribution (stall) digest.
    pub stalls: Option<StallSummary>,
    /// Static-estimator soundness/precision digest.
    pub estimator: Option<EstimatorSummary>,
    /// Executor accounting.
    pub parallel: Option<ParallelSummary>,
    /// Harness self-observability digest.
    pub harness: Option<HarnessSummary>,
}

/// Runs the full bench suite under `config` and assembles the artifact,
/// fanning every stage's cells out across `jobs` workers over a shared,
/// decode-once [`WorkloadArena`] ([`Jobs::serial`] is `--jobs 1`).
///
/// The model metrics (figures, tables) are deterministic — two runs
/// under the same manifest produce identical values; only the measured
/// fields (the rate pass's `hot_nanos`, the `parallel` and `harness`
/// sections) vary run to run.
///
/// Each cell runs with its own [`WindowedSink`] and [`EnergyLedger`];
/// the calling thread merges them **in cell-index order**, so every
/// model metric in the artifact — and therefore every rendered table
/// and export derived from it — is byte-identical to the serial run for
/// any worker count. Only the `parallel` section reflects the fan-out.
pub fn bench_suite_jobs(
    tag: &str,
    config: &ExperimentConfig,
    window_cycles: u64,
    jobs: Jobs,
) -> BenchReport {
    let started = std::time::Instant::now();
    let alloc_start = fua_obs::alloc_snapshot();
    let arena_start = fua_obs::arena_counters();
    let manifest = RunManifest::capture(tag, config);
    let arena = WorkloadArena::build(config.scale);

    // One observation run per workload feeds everything but the
    // figures and the rate: its 4-bit-LUT lane 0 is the profile behind
    // both figures (and the tables), since occupancy and bit patterns
    // are engine state, and the telemetry, stall and attribution
    // digests; every lane is an estimator check.
    let (observations, mut exec) = observe(config, &arena, window_cycles, jobs);
    let profile = SuiteProfile::fold(
        &config.machine,
        arena.all(),
        observations.iter().map(|o| &o.observed.result),
    );
    let (fig_a, exec_a) = figure4_with_profile_jobs(Unit::Ialu, config, &arena, &profile, jobs);
    let (fig_b, exec_b) = figure4_with_profile_jobs(Unit::Fpau, config, &arena, &profile, jobs);
    exec.merge(&exec_a);
    exec.merge(&exec_b);
    let headline = headline_from(&fig_a, &fig_b);

    let ialu_info = profile.ialu.operand_info_stats();
    let fpau_info = profile.fpau.operand_info_stats();

    // Prove both exactness invariants against lane 0's own ledger. The
    // in-order merge below reproduces a serial pass that threaded one
    // sink through every run (every run restarts at cycle 0, so window
    // i covers the same interval in every cell).
    let issue_width = config.machine.issue_width() as u64;
    let mut sink = WindowedSink::new(window_cycles);
    let mut ledger = EnergyLedger::new();
    let mut attr_ledger = EnergyLedger::new();
    let mut attr_exact = true;
    let mut attr_sites = 0u64;
    let mut stall_cycles = 0u64;
    let mut stall_exact = true;
    let mut retired_total = 0u64;
    for o in &observations {
        let (attribution, l) = (&o.observed.attribution, &o.observed.result.ledger);
        let cycles = o.observed.result.cycles;
        ledger.merge(l);
        retired_total += o.observed.result.retired;
        // The stall partition must be exact per workload *and* in
        // aggregate; the windowed sink counts every stall event's slots.
        let slots: u64 = o.windowed.total().stall_slots.iter().sum();
        stall_exact &= slots == cycles * issue_width;
        sink.merge(&o.windowed);
        stall_cycles += cycles;
        let reassembled = attribution.ledger();
        attr_exact &= reassembled == *l;
        attr_ledger.merge(&reassembled);
        attr_sites += attribution.rows().len() as u64;
    }
    let series = sink.into_series();
    let total = series.total();
    let mut reassembled = EnergyLedger::new();
    reassembled.accumulate(total.switched_bits(), total.ops());
    let telemetry = TelemetrySummary {
        window_cycles,
        windows: series.len() as u64,
        switched_bits: total.switched_bits(),
        exact: reassembled == ledger,
    };
    // The attribution partition must reassemble per workload *and* in
    // aggregate; hotspot shares are fractions of the suite total.
    attr_exact &= attr_ledger == ledger;
    let top_hotspots = suite_hotspots(
        observations.iter().map(|o| &o.observed.attribution),
        ATTRIBUTION_HOTSPOTS,
    )
    .into_iter()
    .map(|(workload, h)| HotspotEntry {
        workload: workload.to_string(),
        pc: h.pc as u64,
        block: h.block,
        bits: h.bits,
        share_pct: h.share_pct,
    })
    .collect();
    let attribution = AttributionSummary {
        scheme: Scheme::Lut4.label().to_string(),
        sites: attr_sites,
        switched_bits: attr_ledger.switched_array(),
        exact: attr_exact,
        top_hotspots,
    };
    // Rate pass: the simulated-rate headline times the default engine —
    // one lane measuring every class, untraced and unprofiled — with one
    // clock read per workload, so the denominator measures the
    // optimised hot loop rather than the instrumented observation run.
    // The engine is deterministic, so the pass must reproduce the
    // observation run's model totals bit-for-bit.
    let (rate_cells, exec_r) = map_indexed_timed(jobs, arena.all(), |_, w| {
        rate_cell(&config.machine, w, config.inst_limit)
    });
    exec.merge(&exec_r);
    let mut hot_nanos = 0u64;
    let mut rate_cycles = 0u64;
    let mut rate_retired = 0u64;
    for (nanos, cycles, retired) in &rate_cells {
        hot_nanos += nanos;
        rate_cycles += cycles;
        rate_retired += retired;
    }
    assert_eq!(
        (rate_cycles, rate_retired),
        (stall_cycles, retired_total),
        "rate pass must reproduce the observation run's model totals"
    );
    let throughput = ThroughputSummary {
        cycles: stall_cycles,
        instructions: retired_total,
        hot_nanos,
    };
    let mix = total.stall_slots;
    let slots: u64 = mix.iter().sum();
    stall_exact &= slots == stall_cycles * issue_width;
    let stalls = StallSummary {
        scheme: Scheme::Lut4.label().to_string(),
        issue_width,
        cycles: stall_cycles,
        slots,
        exact: stall_exact,
        mix,
    };

    // Static-estimator digest: every lane's static switched-bit bounds
    // joined against its measured attribution, in `Scheme::ALL` order.
    // Pure model arithmetic — deterministic for any worker count.
    let estimator = EstimatorSummary {
        entries: Scheme::ALL
            .iter()
            .map(|&scheme| {
                let lane = OBSERVED_LANES
                    .iter()
                    .position(|&s| s == scheme)
                    .expect("every scheme is a lane");
                let checks: Vec<EstimateCheck> = observations
                    .iter()
                    .map(|o| o.checks[lane].clone())
                    .collect();
                estimator_entry(scheme, &checks)
            })
            .collect(),
    };

    // Harness digest: how the measurement machinery itself behaved.
    // The allocation figure is normalised per observation-run kilocycle
    // (a deterministic denominator); it is `Some` only when the
    // counting allocator is actually installed in this binary.
    let alloc_delta = fua_obs::alloc_snapshot().delta(&alloc_start);
    let arena_delta = fua_obs::arena_counters().delta(&arena_start);
    let allocs_per_kcycle = (fua_obs::counting_allocator_active() && stall_cycles > 0)
        .then(|| alloc_delta.allocs as f64 * 1000.0 / stall_cycles as f64);
    let harness = HarnessSummary {
        jobs: jobs.get() as u64,
        busy_fraction: exec.busy_fraction(),
        imbalance: exec.imbalance(),
        allocs_per_kcycle,
        arena_leases: arena_delta.leases,
        arena_fresh: arena_delta.fresh,
    };

    BenchReport {
        manifest,
        ialu: UnitFigure::from_figure(&fig_a),
        fpau: UnitFigure::from_figure(&fig_b),
        headline_ialu_pct: headline.ialu_pct,
        headline_fpau_pct: headline.fpau_pct,
        headline_ialu_compiler_pct: headline.ialu_compiler_pct,
        operands: OperandAggregates {
            ialu_ones_frac_info0: ialu_info.ones_frac_info0,
            ialu_ones_frac_info1: ialu_info.ones_frac_info1,
            fpau_info0_fraction: fpau_info.info0_fraction(),
            fpau_ones_frac_info0: fpau_info.ones_frac_info0,
        },
        ialu_occupancy: profile.ialu_occupancy.distribution(),
        fpau_occupancy: profile.fpau_occupancy.distribution(),
        telemetry,
        throughput: Some(throughput),
        attribution: Some(attribution),
        stalls: Some(stalls),
        estimator: Some(estimator),
        parallel: Some(ParallelSummary::from_report(
            jobs,
            started.elapsed().as_nanos() as u64,
            &exec,
        )),
        harness: Some(harness),
    }
}

/// One rate cell: `w` run on the default engine — one lane under
/// [`observed_scheme`] measuring every class, untraced and unprofiled —
/// with one clock read on each side. Returns the wall nanoseconds,
/// the simulated cycles and the retired instructions.
///
/// # Panics
///
/// Panics if the workload program faults (workload kernels never do).
pub(crate) fn rate_cell(machine: &MachineConfig, w: &Workload, limit: u64) -> (u64, u64, u64) {
    let start = std::time::Instant::now();
    let result = Simulator::new(machine.clone(), observed_scheme())
        .run_program(&w.program, limit)
        .unwrap_or_else(|e| panic!("workload {} faulted: {e}", w.name));
    (
        start.elapsed().as_nanos() as u64,
        result.cycles,
        result.retired,
    )
}

/// The observation run's lanes: every [`Scheme::ALL`] scheme, the
/// 4-bit LUT first because the engine sink sees lane 0's steering.
const OBSERVED_LANES: [Scheme; 6] = [
    Scheme::Lut4,
    Scheme::FullHam,
    Scheme::OneBitHam,
    Scheme::Lut2,
    Scheme::Lut8,
    Scheme::Naive,
];

/// One workload's observation run, reduced to what the artifact reads.
struct Observation {
    /// Lane 0: the 4-bit LUT run and its energy attribution.
    observed: AttributedRun,
    /// Every lane's estimator check, in [`OBSERVED_LANES`] order.
    checks: Vec<EstimateCheck>,
    windowed: WindowedSink,
}

/// Runs every workload once with an attributed lane per
/// [`OBSERVED_LANES`] scheme and a windowed sink on the engine, fanning
/// the workloads out across `jobs` workers.
fn observe(
    config: &ExperimentConfig,
    arena: &WorkloadArena,
    window_cycles: u64,
    jobs: Jobs,
) -> (Vec<Observation>, ExecReport) {
    map_indexed_timed(jobs, arena.all(), |_, w| {
        let (mut runs, windowed) = attribute_schemes(
            w,
            config.machine.clone(),
            &OBSERVED_LANES,
            config.inst_limit,
            WindowedSink::new(window_cycles),
        );
        let checks = check_runs(w, &OBSERVED_LANES, &runs);
        Observation {
            observed: runs.swap_remove(0),
            checks,
            windowed,
        }
    })
}

fn unit_to_json(unit: &UnitFigure) -> Json {
    Json::obj([
        (
            "baseline_switched_bits",
            Json::UInt(unit.baseline_switched_bits),
        ),
        ("rows", Json::arr(&unit.rows)),
    ])
}

/// Rejects the array `field` if two of its `items` are the `same`: the
/// gates look entries up by key and take the first match, so a repeat
/// would hide every later entry from them.
fn distinct<T>(items: &[T], field: &str, same: impl Fn(&T, &T) -> bool) -> Result<(), ReportError> {
    if items
        .iter()
        .enumerate()
        .any(|(i, item)| items[..i].iter().any(|prior| same(prior, item)))
    {
        return Err(ReportError::mistyped(field));
    }
    Ok(())
}

fn unit_from_json(unit: &Json) -> Result<UnitFigure, ReportError> {
    let rows = array(unit, "rows", |r| {
        Ok(Figure4Row {
            scheme: expect_str(r, "scheme")?.to_string(),
            base_pct: expect_f64(r, "base_pct")?,
            hardware_pct: expect_f64(r, "hardware_pct")?,
            hardware_compiler_pct: expect_f64(r, "hardware_compiler_pct")?,
            compiler_only_pct: expect_f64(r, "compiler_only_pct")?,
        })
    })?;
    distinct(&rows, "rows", |a, b| a.scheme == b.scheme)?;
    Ok(UnitFigure {
        baseline_switched_bits: expect_u64(unit, "baseline_switched_bits")?,
        rows,
    })
}

fn throughput_to_json(t: &ThroughputSummary) -> Json {
    // The derived rates are written for human readers; parsing ignores
    // them and recomputes from the integer fields, so the round trip
    // stays bit-exact.
    Json::obj([
        ("cycles", Json::UInt(t.cycles)),
        ("instructions", Json::UInt(t.instructions)),
        ("hot_nanos", Json::UInt(t.hot_nanos)),
        ("sim_mhz", Json::Float(t.sim_mhz())),
        ("sim_khz", Json::Float(t.sim_khz())),
        ("kips", Json::Float(t.kips())),
        ("ipc", Json::Float(t.ipc())),
    ])
}

fn throughput_from_json(t: &Json) -> Result<ThroughputSummary, ReportError> {
    Ok(ThroughputSummary {
        cycles: expect_u64(t, "cycles")?,
        instructions: expect_u64(t, "instructions")?,
        hot_nanos: expect_u64(t, "hot_nanos")?,
    })
}

fn attribution_to_json(a: &AttributionSummary) -> Json {
    Json::obj([
        ("scheme", Json::Str(a.scheme.clone())),
        ("sites", Json::UInt(a.sites)),
        (
            "switched_bits",
            Json::Arr(a.switched_bits.iter().map(|&b| Json::UInt(b)).collect()),
        ),
        ("exact", Json::Bool(a.exact)),
        (
            "top_hotspots",
            Json::Arr(
                a.top_hotspots
                    .iter()
                    .map(|h| {
                        Json::obj([
                            ("workload", Json::Str(h.workload.clone())),
                            ("pc", Json::UInt(h.pc)),
                            ("block", Json::Str(h.block.clone())),
                            ("bits", Json::UInt(h.bits)),
                            ("share_pct", Json::Float(h.share_pct)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn attribution_from_json(a: &Json) -> Result<AttributionSummary, ReportError> {
    let top_hotspots = array(a, "top_hotspots", |h| {
        Ok(HotspotEntry {
            workload: expect_str(h, "workload")?.to_string(),
            pc: expect_u64(h, "pc")?,
            block: expect_str(h, "block")?.to_string(),
            bits: expect_u64(h, "bits")?,
            share_pct: expect_f64(h, "share_pct")?,
        })
    })?;
    distinct(&top_hotspots, "top_hotspots", |a, b| {
        a.workload == b.workload && a.pc == b.pc
    })?;
    Ok(AttributionSummary {
        scheme: expect_str(a, "scheme")?.to_string(),
        sites: expect_u64(a, "sites")?,
        switched_bits: fixed(a, "switched_bits", Json::as_u64)?,
        exact: expect_bool(a, "exact")?,
        top_hotspots,
    })
}

fn stalls_to_json(s: &StallSummary) -> Json {
    Json::obj([
        ("scheme", Json::Str(s.scheme.clone())),
        ("issue_width", Json::UInt(s.issue_width)),
        ("cycles", Json::UInt(s.cycles)),
        ("slots", Json::UInt(s.slots)),
        ("exact", Json::Bool(s.exact)),
        (
            "mix",
            Json::Obj(
                StallReason::ALL
                    .into_iter()
                    .map(|r| (r.name().to_string(), Json::UInt(s.mix[r.index()])))
                    .collect(),
            ),
        ),
    ])
}

fn stalls_from_json(s: &Json) -> Result<StallSummary, ReportError> {
    Ok(StallSummary {
        scheme: expect_str(s, "scheme")?.to_string(),
        issue_width: expect_u64(s, "issue_width")?,
        cycles: expect_u64(s, "cycles")?,
        slots: expect_u64(s, "slots")?,
        exact: expect_bool(s, "exact")?,
        mix: section(s, "mix", |m| {
            let mut mix = [0u64; 7];
            for reason in StallReason::ALL {
                mix[reason.index()] = expect_u64(m, reason.name())?;
            }
            Ok(mix)
        })?,
    })
}

fn estimator_to_json(e: &EstimatorSummary) -> Json {
    Json::obj([(
        "entries",
        Json::Arr(
            e.entries
                .iter()
                .map(|entry| {
                    Json::obj([
                        ("scheme", Json::Str(entry.scheme.clone())),
                        ("sound", Json::Bool(entry.sound)),
                        ("pcs", Json::UInt(entry.pcs)),
                        ("bound_bits", Json::UInt(entry.bound_bits)),
                        ("actual_bits", Json::UInt(entry.actual_bits)),
                        ("mean_ratio", Json::Float(entry.mean_ratio)),
                        ("worst_ratio", Json::Float(entry.worst_ratio)),
                        ("worst_block", Json::Str(entry.worst_block.clone())),
                    ])
                })
                .collect(),
        ),
    )])
}

fn estimator_from_json(e: &Json) -> Result<EstimatorSummary, ReportError> {
    let entries = array(e, "entries", |entry| {
        Ok(EstimatorEntry {
            scheme: expect_str(entry, "scheme")?.to_string(),
            sound: expect_bool(entry, "sound")?,
            pcs: expect_u64(entry, "pcs")?,
            bound_bits: expect_u64(entry, "bound_bits")?,
            actual_bits: expect_u64(entry, "actual_bits")?,
            mean_ratio: expect_f64(entry, "mean_ratio")?,
            worst_ratio: expect_f64(entry, "worst_ratio")?,
            worst_block: expect_str(entry, "worst_block")?.to_string(),
        })
    })?;
    distinct(&entries, "entries", |a, b| a.scheme == b.scheme)?;
    Ok(EstimatorSummary { entries })
}

fn parallel_to_json(p: &ParallelSummary) -> Json {
    Json::obj([
        ("jobs", Json::UInt(p.jobs)),
        ("wall_nanos", Json::UInt(p.wall_nanos)),
        (
            "workers",
            Json::Arr(
                p.workers
                    .iter()
                    .map(|w| {
                        Json::obj([
                            ("cells", Json::UInt(w.cells)),
                            ("nanos", Json::UInt(w.nanos)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn parallel_from_json(p: &Json) -> Result<ParallelSummary, ReportError> {
    Ok(ParallelSummary {
        jobs: expect_u64(p, "jobs")?,
        wall_nanos: expect_u64(p, "wall_nanos")?,
        workers: array(p, "workers", |w| {
            Ok(WorkerNanos {
                cells: expect_u64(w, "cells")?,
                nanos: expect_u64(w, "nanos")?,
            })
        })?,
    })
}

fn harness_to_json(h: &HarnessSummary) -> Json {
    let mut fields = vec![
        ("jobs".to_string(), Json::UInt(h.jobs)),
        ("busy_fraction".to_string(), Json::Float(h.busy_fraction)),
        ("imbalance".to_string(), Json::Float(h.imbalance)),
        ("arena_leases".to_string(), Json::UInt(h.arena_leases)),
        ("arena_fresh".to_string(), Json::UInt(h.arena_fresh)),
    ];
    if let Some(a) = h.allocs_per_kcycle {
        fields.push(("allocs_per_kcycle".to_string(), Json::Float(a)));
    }
    Json::Obj(fields)
}

fn harness_from_json(h: &Json) -> Result<HarnessSummary, ReportError> {
    Ok(HarnessSummary {
        jobs: expect_u64(h, "jobs")?,
        busy_fraction: expect_f64(h, "busy_fraction")?,
        imbalance: expect_f64(h, "imbalance")?,
        // Optional within the section: it exists only when the
        // counting allocator is installed.
        allocs_per_kcycle: h
            .get("allocs_per_kcycle")
            .map(|_| expect_f64(h, "allocs_per_kcycle"))
            .transpose()?,
        arena_leases: expect_u64(h, "arena_leases")?,
        arena_fresh: expect_u64(h, "arena_fresh")?,
    })
}

impl BenchReport {
    /// Serialises the artifact (stable schema [`BENCH_SCHEMA`]).
    pub fn to_json(&self) -> Json {
        let mut json = Json::obj([
            ("schema", Json::Str(BENCH_SCHEMA.into())),
            ("manifest", self.manifest.to_json()),
            ("figure4_ialu", unit_to_json(&self.ialu)),
            ("figure4_fpau", unit_to_json(&self.fpau)),
            (
                "headline",
                Json::obj([
                    ("ialu_pct", Json::Float(self.headline_ialu_pct)),
                    ("fpau_pct", Json::Float(self.headline_fpau_pct)),
                    (
                        "ialu_compiler_pct",
                        Json::Float(self.headline_ialu_compiler_pct),
                    ),
                ]),
            ),
            (
                "table1",
                Json::obj([
                    (
                        "ialu_ones_frac_info0",
                        Json::Float(self.operands.ialu_ones_frac_info0),
                    ),
                    (
                        "ialu_ones_frac_info1",
                        Json::Float(self.operands.ialu_ones_frac_info1),
                    ),
                    (
                        "fpau_info0_fraction",
                        Json::Float(self.operands.fpau_info0_fraction),
                    ),
                    (
                        "fpau_ones_frac_info0",
                        Json::Float(self.operands.fpau_ones_frac_info0),
                    ),
                ]),
            ),
            (
                "table2",
                Json::obj([
                    (
                        "ialu_occupancy",
                        Json::Arr(
                            self.ialu_occupancy
                                .iter()
                                .map(|&p| Json::Float(p))
                                .collect(),
                        ),
                    ),
                    (
                        "fpau_occupancy",
                        Json::Arr(
                            self.fpau_occupancy
                                .iter()
                                .map(|&p| Json::Float(p))
                                .collect(),
                        ),
                    ),
                ]),
            ),
            (
                "telemetry",
                Json::obj([
                    ("window_cycles", Json::UInt(self.telemetry.window_cycles)),
                    ("windows", Json::UInt(self.telemetry.windows)),
                    (
                        "switched_bits",
                        Json::Arr(
                            self.telemetry
                                .switched_bits
                                .iter()
                                .map(|&b| Json::UInt(b))
                                .collect(),
                        ),
                    ),
                    ("exact", Json::Bool(self.telemetry.exact)),
                ]),
            ),
        ]);
        if let Json::Obj(fields) = &mut json {
            if let Some(t) = &self.throughput {
                fields.push(("throughput".to_string(), throughput_to_json(t)));
            }
            if let Some(a) = &self.attribution {
                fields.push(("attribution".to_string(), attribution_to_json(a)));
            }
            if let Some(s) = &self.stalls {
                fields.push(("stalls".to_string(), stalls_to_json(s)));
            }
            if let Some(e) = &self.estimator {
                fields.push(("estimator".to_string(), estimator_to_json(e)));
            }
            if let Some(p) = &self.parallel {
                fields.push(("parallel".to_string(), parallel_to_json(p)));
            }
            if let Some(h) = &self.harness {
                fields.push(("harness".to_string(), harness_to_json(h)));
            }
        }
        json
    }

    /// Reconstructs an artifact from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns a [`ReportError`] if the schema is not [`BENCH_SCHEMA`],
    /// or naming the path of the first missing or mistyped field.
    pub fn from_json(json: &Json) -> Result<Self, ReportError> {
        let schema = expect_str(json, "schema")?;
        if schema != BENCH_SCHEMA {
            return Err(ReportError::Schema {
                found: schema.to_string(),
                expected: BENCH_SCHEMA,
            });
        }
        let float = |object: &str, field: &str| section(json, object, |o| expect_f64(o, field));
        Ok(BenchReport {
            manifest: section(json, "manifest", RunManifest::from_json)?,
            ialu: section(json, "figure4_ialu", unit_from_json)?,
            fpau: section(json, "figure4_fpau", unit_from_json)?,
            headline_ialu_pct: float("headline", "ialu_pct")?,
            headline_fpau_pct: float("headline", "fpau_pct")?,
            headline_ialu_compiler_pct: float("headline", "ialu_compiler_pct")?,
            operands: OperandAggregates {
                ialu_ones_frac_info0: float("table1", "ialu_ones_frac_info0")?,
                ialu_ones_frac_info1: float("table1", "ialu_ones_frac_info1")?,
                fpau_info0_fraction: float("table1", "fpau_info0_fraction")?,
                fpau_ones_frac_info0: float("table1", "fpau_ones_frac_info0")?,
            },
            ialu_occupancy: section(json, "table2", |t| {
                numbers(t, "ialu_occupancy", Json::as_f64)
            })?,
            fpau_occupancy: section(json, "table2", |t| {
                numbers(t, "fpau_occupancy", Json::as_f64)
            })?,
            telemetry: section(json, "telemetry", |t| {
                Ok(TelemetrySummary {
                    window_cycles: expect_u64(t, "window_cycles")?,
                    windows: expect_u64(t, "windows")?,
                    switched_bits: fixed(t, "switched_bits", Json::as_u64)?,
                    exact: expect_bool(t, "exact")?,
                })
            })?,
            throughput: Some(section(json, "throughput", throughput_from_json)?),
            attribution: Some(section(json, "attribution", attribution_from_json)?),
            stalls: Some(section(json, "stalls", stalls_from_json)?),
            estimator: Some(section(json, "estimator", estimator_from_json)?),
            parallel: Some(section(json, "parallel", parallel_from_json)?),
            harness: Some(section(json, "harness", harness_from_json)?),
        })
    }
}

impl std::str::FromStr for BenchReport {
    type Err = ReportError;

    /// Parses an artifact from raw file contents.
    fn from_str(contents: &str) -> Result<Self, ReportError> {
        Self::from_json(&Json::parse(contents).map_err(ReportError::Parse)?)
    }
}

impl ToJson for BenchReport {
    fn to_json(&self) -> Json {
        BenchReport::to_json(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ExperimentConfig {
        // Small enough for unit tests; bench-suite proper uses quick().
        ExperimentConfig {
            inst_limit: 1_500,
            ..ExperimentConfig::quick()
        }
    }

    #[test]
    fn the_observation_run_profiles_the_suite_like_the_profiling_pass() {
        let config = tiny_config();
        let arena = WorkloadArena::build(config.scale);
        let (observations, _) = observe(&config, &arena, 512, Jobs::serial());
        let observed = SuiteProfile::fold(
            &config.machine,
            arena.all(),
            observations.iter().map(|o| &o.observed.result),
        );
        let (profiled, _) = fua_core::profile_suite_jobs(&config, &arena, Jobs::serial());
        assert_eq!(observed, profiled, "Tables 1-3 inputs and occupancy");
    }

    #[test]
    fn bench_suite_produces_a_round_trippable_artifact() {
        let report = bench_suite_jobs("test", &tiny_config(), 512, Jobs::serial());
        assert_eq!(report.manifest.tag, "test");
        assert_eq!(report.ialu.rows.len(), 6);
        assert_eq!(report.fpau.rows.len(), 6);
        assert!(report.telemetry.exact, "windowed sums must equal ledger");
        assert!(report.telemetry.windows > 0);
        let a = report
            .attribution
            .as_ref()
            .expect("attribution section present");
        assert!(a.exact, "attributed sums must equal the ledgers");
        assert!(a.sites > 0);
        assert!(!a.top_hotspots.is_empty());
        assert_eq!(
            a.switched_bits, report.telemetry.switched_bits,
            "two exact partitions of the same ledger agree"
        );
        let s = report.stalls.as_ref().expect("stalls section present");
        assert!(s.exact, "stall partition must cover every issue slot");
        assert_eq!(s.slots, s.cycles * s.issue_width);
        assert_eq!(s.issue_width, 10, "paper machine: 4+1+4+1 issue slots");
        assert_eq!(
            s.mix.iter().sum::<u64>(),
            s.slots,
            "the stall mix is itself a partition of the slots"
        );
        assert!(s.mix[0] > 0, "some slots issued");
        let e = report
            .estimator
            .as_ref()
            .expect("estimator section present");
        assert_eq!(e.entries.len(), Scheme::ALL.len());
        for entry in &e.entries {
            assert!(entry.sound, "{}: static bound violated", entry.scheme);
            assert!(entry.pcs > 0);
            assert!(
                entry.mean_ratio >= 1.0 && entry.worst_ratio >= 1.0,
                "{}: sound bounds imply ratios >= 1",
                entry.scheme
            );
            assert_ne!(entry.worst_block, "-");
        }
        let p = report.parallel.as_ref().expect("parallel section present");
        assert_eq!(p.jobs, 1, "bench_suite is the serial reference path");
        assert!(p.wall_nanos > 0);
        assert!(p.workers.iter().map(|w| w.cells).sum::<u64>() > 0);
        let t = report
            .throughput
            .as_ref()
            .expect("throughput section present");
        assert_eq!(
            t.cycles, s.cycles,
            "throughput and stall sections count the same observation run"
        );
        assert!(t.instructions > 0);
        assert!(t.hot_nanos > 0);
        assert!(t.sim_khz() > 0.0 && t.kips() > 0.0 && t.ipc() > 0.0);
        let h = report.harness.as_ref().expect("harness section present");
        assert_eq!(h.jobs, 1, "bench_suite is the serial reference path");
        assert!(h.busy_fraction > 0.0, "a serial suite still does work");
        assert!(h.imbalance >= 1.0);
        assert!(h.arena_leases > 0, "every simulator run leases an arena");
        assert!(h.arena_fresh <= h.arena_leases);
        assert_eq!(
            h.allocs_per_kcycle, None,
            "no counting allocator installed in this test binary"
        );
        let rendered = report.to_json().pretty();
        assert!(rendered.contains("\"schema\": \"fua-bench/1.8\""));
        assert!(rendered.contains("\"sim_khz\""));
        let parsed: BenchReport = rendered.parse().unwrap();
        // Everything round-trips exactly (floats use shortest-exact
        // rendering, so equality is bit-for-bit).
        assert_eq!(parsed, report);
    }

    #[test]
    fn model_metrics_are_deterministic_across_runs_and_job_counts() {
        let a = bench_suite_jobs("a", &tiny_config(), 512, Jobs::serial());
        let b = bench_suite_jobs("b", &tiny_config(), 512, Jobs::new(3).unwrap());
        assert_eq!(a.ialu, b.ialu);
        assert_eq!(a.fpau, b.fpau);
        assert_eq!(a.operands, b.operands);
        assert_eq!(a.ialu_occupancy, b.ialu_occupancy);
        assert_eq!(a.telemetry, b.telemetry);
        assert_eq!(
            a.attribution, b.attribution,
            "the attribution digest is byte-identical across job counts"
        );
        assert_eq!(
            a.stalls, b.stalls,
            "the stall digest is byte-identical across job counts"
        );
        assert_eq!(
            a.estimator, b.estimator,
            "the estimator digest is byte-identical across job counts"
        );
        assert_eq!(a.headline_ialu_pct.to_bits(), b.headline_ialu_pct.to_bits());
        // Throughput's model totals are deterministic; only its
        // hot_nanos denominator is wall-clock.
        let (ta, tb) = (a.throughput.unwrap(), b.throughput.unwrap());
        assert_eq!(ta.cycles, tb.cycles);
        assert_eq!(ta.instructions, tb.instructions);
        assert_eq!(ta.ipc().to_bits(), tb.ipc().to_bits());
        // Only the wall-clock sections differ (and the tag).
        assert_eq!(b.parallel.as_ref().unwrap().jobs, 3);
    }

    #[test]
    fn an_allocs_figure_survives_the_round_trip_when_present() {
        let mut report = bench_suite_jobs("withallocs", &tiny_config(), 512, Jobs::serial());
        report.harness.as_mut().unwrap().allocs_per_kcycle = Some(12.5);
        let rendered = report.to_json().pretty();
        assert!(rendered.contains("\"allocs_per_kcycle\": 12.5"));
        let parsed: BenchReport = rendered.parse().unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let report = bench_suite_jobs("x", &tiny_config(), 512, Jobs::serial());
        let mut json = report.to_json();
        if let Json::Obj(fields) = &mut json {
            fields[0].1 = Json::Str("fua-bench/999".into());
        }
        let err = BenchReport::from_json(&json).unwrap_err();
        assert!(err.to_string().contains("fua-bench/999"), "{err}");
    }

    /// The value at dot-separated `path` inside `json`.
    fn at<'a>(json: &'a mut Json, path: &str) -> &'a mut Json {
        path.split('.').fold(json, |json, key| match json {
            Json::Obj(fields) => &mut fields.iter_mut().find(|(k, _)| k == key).unwrap().1,
            _ => panic!("`{key}` is not inside an object"),
        })
    }

    #[test]
    fn malformed_artifacts_are_rejected_naming_the_field_path() {
        let base = bench_suite_jobs("bad", &tiny_config(), 512, Jobs::serial()).to_json();
        assert!(BenchReport::from_json(&base).is_ok());
        // The array at `path` with its first element appended again.
        let doubled = |path: &str| {
            let mut array = at(&mut base.clone(), path).clone();
            if let Json::Arr(items) = &mut array {
                items.push(items[0].clone());
            }
            array
        };
        let missing = |f: &str| ReportError::MissingField(f.to_string());
        let mistyped = |f: &str| ReportError::MistypedField(f.to_string());
        // (path, replacement or `None` to remove the field, error).
        let mut cases: Vec<(&str, Option<Json>, ReportError)> = [
            "throughput",
            "attribution",
            "stalls",
            "estimator",
            "parallel",
            "harness",
        ]
        .into_iter()
        .map(|section| (section, None, missing(section)))
        .collect();
        cases.extend([
            (
                "schema",
                Some(Json::Str("fua-bench/1.5".into())),
                ReportError::Schema {
                    found: "fua-bench/1.5".into(),
                    expected: BENCH_SCHEMA,
                },
            ),
            (
                "figure4_ialu.rows",
                Some(doubled("figure4_ialu.rows")),
                mistyped("figure4_ialu.rows"),
            ),
            (
                "estimator.entries",
                Some(doubled("estimator.entries")),
                mistyped("estimator.entries"),
            ),
            (
                "attribution.top_hotspots",
                Some(doubled("attribution.top_hotspots")),
                mistyped("attribution.top_hotspots"),
            ),
            (
                "manifest.scale",
                Some(Json::UInt((1 << 32) + 1)),
                mistyped("manifest.scale"),
            ),
            (
                "manifest.machine.cache.size_bytes",
                Some(Json::UInt((1 << 32) + 16384)),
                mistyped("manifest.machine.cache.size_bytes"),
            ),
            ("stalls.mix.issued", None, missing("stalls.mix.issued")),
            (
                "attribution.switched_bits",
                Some(Json::Arr(Vec::new())),
                mistyped("attribution.switched_bits"),
            ),
        ]);
        for (path, value, expected) in cases {
            let mut json = base.clone();
            match value {
                Some(value) => *at(&mut json, path) = value,
                None => {
                    let (parent, leaf) = match path.rsplit_once('.') {
                        Some((parent, leaf)) => (at(&mut json, parent), leaf),
                        None => (&mut json, path),
                    };
                    if let Json::Obj(fields) = parent {
                        fields.retain(|(k, _)| k != leaf);
                    }
                }
            }
            assert_eq!(BenchReport::from_json(&json), Err(expected), "{path}");
        }
    }
}
