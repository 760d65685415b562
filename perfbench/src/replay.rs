//! Serial replays for the traced runs: each simulation split into its
//! public calls (`Vm::run`, then `Simulator::run_trace`) and charged to
//! the layer table, plus the Figure-4 sweep rebuilt cell by cell.

use fua_core::{ExperimentConfig, Figure4, Figure4Row, SuiteProfile, Unit};
use fua_isa::{FuClass, Program};
use fua_power::EnergyLedger;
use fua_sim::{MachineConfig, SimResult, Simulator, SteeringConfig};
use fua_stats::{BitPatternProfiler, OccupancyProfiler};
use fua_steer::SteeringKind;
use fua_swap::CompilerSwapPass;
use fua_vm::{DynOp, Vm};
use fua_workloads::{Category, Workload, WorkloadArena};

use crate::metrics::{timed, Layer, LayerTable, Sheet};

/// The steering schemes with a per-scheme cost metric, in metric order.
const STEER_METRICS: [(SteeringKind, &str); 5] = [
    (SteeringKind::FullHam, "steer.fullham_ns_per_op"),
    (SteeringKind::OneBitHam, "steer.1bitham_ns_per_op"),
    (SteeringKind::Lut { slots: 1 }, "steer.lut2_ns_per_op"),
    (SteeringKind::Lut { slots: 2 }, "steer.lut4_ns_per_op"),
    (SteeringKind::Lut { slots: 4 }, "steer.lut8_ns_per_op"),
];

/// The sink-attached runs whose extra cost has its own metric.
#[derive(Debug, Clone, Copy)]
pub enum Probe {
    Windowed,
    Stall,
    Attribution,
    PhaseTimers,
}

impl Probe {
    pub const ALL: [Probe; 4] = [
        Probe::Windowed,
        Probe::Stall,
        Probe::Attribution,
        Probe::PhaseTimers,
    ];

    fn layer(self) -> Layer {
        match self {
            Probe::Windowed | Probe::Stall => Layer::Trace,
            Probe::Attribution => Layer::Attr,
            Probe::PhaseTimers => Layer::Sim,
        }
    }

    fn metric(self) -> &'static str {
        match self {
            Probe::Windowed => "trace.windowed_ns_per_op",
            Probe::Stall => "trace.stall_ns_per_op",
            Probe::Attribution => "attr.sink_ns_per_op",
            Probe::PhaseTimers => "sim.phase_timers_ns_per_op",
        }
    }
}

/// What a traced run counted besides the layer seconds.
#[derive(Debug, Default)]
pub struct Tally {
    /// Instructions `Vm::run` retired.
    vm_ops: u64,
    /// Seconds of FCFS (Original-steering) pipeline time.
    pipeline_secs: f64,
    /// Instructions fed through the pipeline.
    pipeline_ops: u64,
    /// Per-scheme steering cost over the FCFS run: seconds and ops.
    steer: [(f64, u64); 5],
    /// Per-probe sink cost over the untraced run: seconds and ops.
    probes: [(f64, u64); 4],
    /// Simulated cycles and retired instructions over every cell.
    pub cycles: u64,
    pub retired: u64,
    /// Runs whose (cycles, retired) differ from another scheme's run of
    /// the same instruction stream.
    pub mismatches: u64,
}

impl Tally {
    /// Runs `Vm::run` on `program`, charged to the `vm` row.
    pub fn vm_run(&mut self, table: &mut LayerTable, program: &Program, limit: u64) -> Vec<DynOp> {
        let trace = table
            .time(Layer::Vm, || Vm::new(program).run(limit))
            .unwrap_or_else(|e| panic!("program faulted: {e}"));
        self.vm_ops += trace.ops.len() as u64;
        trace.ops
    }

    /// Runs the FCFS pipeline on `ops`; its seconds are the baseline
    /// the other schemes on the same stream are measured against.
    pub fn fcfs_run(
        &mut self,
        table: &mut LayerTable,
        machine: &MachineConfig,
        ops: &[DynOp],
    ) -> (SimResult, f64) {
        let (result, secs) =
            timed(|| Simulator::new(machine.clone(), SteeringConfig::original()).run_trace(ops));
        table.add(Layer::Sim, secs);
        self.pipeline_secs += secs;
        self.pipeline_ops += ops.len() as u64;
        (result, secs)
    }

    /// Charges one scheme's run of `ops` ops that took `secs`, against
    /// the FCFS baseline `base_secs` on the same stream: the baseline to
    /// `sim`, the difference to `steer`.
    pub fn charge_scheme(
        &mut self,
        table: &mut LayerTable,
        kind: SteeringKind,
        secs: f64,
        base_secs: f64,
        ops: u64,
    ) {
        table.add(Layer::Sim, base_secs);
        table.add(Layer::Steer, secs - base_secs);
        self.pipeline_secs += base_secs;
        self.pipeline_ops += ops;
        if let Some(slot) = STEER_METRICS.iter().position(|(k, _)| *k == kind) {
            self.steer[slot].0 += secs - base_secs;
            self.steer[slot].1 += ops;
        }
    }

    /// Calls `run`, a sink-attached run of an `ops`-long stream, and
    /// charges its time over the untraced run of the same stream
    /// (`untraced_secs`, itself split by `charge_scheme`) to the
    /// probe's row.
    pub fn probe<T>(
        &mut self,
        table: &mut LayerTable,
        probe: Probe,
        run: impl FnOnce() -> T,
        untraced_secs: f64,
        ops: u64,
    ) -> T {
        let (sink, secs) = timed(run);
        table.add(probe.layer(), secs - untraced_secs);
        self.probes[probe as usize].0 += secs - untraced_secs;
        self.probes[probe as usize].1 += ops;
        sink
    }

    /// Checks a run of a stream against the first run of the same
    /// stream: cycles and retired must not depend on the scheme.
    pub fn check_invariant(&mut self, reference: &mut Option<(u64, u64)>, result: &SimResult) {
        let key = (result.cycles, result.retired);
        match reference {
            None => *reference = Some(key),
            Some(r) if *r != key => self.mismatches += 1,
            Some(_) => {}
        }
    }

    /// Adds a cell's simulated totals.
    pub fn count(&mut self, result: &SimResult) {
        self.cycles += result.cycles;
        self.retired += result.retired;
    }

    /// Records the tallied per-op costs and counters.
    pub fn record(&self, table: &LayerTable, sheet: &mut Sheet) {
        let ns_per_op = |secs: f64, ops: u64| {
            if ops == 0 {
                0.0
            } else {
                secs * 1e9 / ops as f64
            }
        };
        sheet.set("vm.run_s", table.get(Layer::Vm));
        sheet.set("vm.ops", self.vm_ops as f64);
        sheet.set("vm.ns_per_op", ns_per_op(table.get(Layer::Vm), self.vm_ops));
        sheet.set("sim.pipeline_s", self.pipeline_secs);
        sheet.set(
            "sim.pipeline_ns_per_op",
            ns_per_op(self.pipeline_secs, self.pipeline_ops),
        );
        sheet.set("steer.s", table.get(Layer::Steer));
        for ((_, name), (secs, ops)) in STEER_METRICS.iter().zip(self.steer) {
            sheet.set(name, ns_per_op(secs, ops));
        }
        for (probe, (secs, ops)) in Probe::ALL.iter().zip(self.probes) {
            sheet.set(probe.metric(), ns_per_op(secs, ops));
        }
        sheet.set("sim.scheme_mismatches", self.mismatches as f64);
    }
}

/// One suite of the Figure-4 sweep: a scheme, a swap variant, and which
/// program set it runs over. Mirrors the sweep order of
/// `fua_core::figure4_with_profile_jobs`.
#[derive(Debug, Clone, Copy)]
pub struct SuiteSpec {
    pub kind: SteeringKind,
    pub hw_swap: bool,
    pub compiler_swapped: bool,
}

/// The sweep's suites: the Original/no-swap baseline, then per scheme
/// its base (except Original's, which is the baseline), hardware,
/// hardware + compiler and compiler-only variants.
pub fn suites() -> Vec<SuiteSpec> {
    let spec = |kind, hw_swap, compiler_swapped| SuiteSpec {
        kind,
        hw_swap,
        compiler_swapped,
    };
    let mut suites = vec![spec(SteeringKind::Original, false, false)];
    for kind in SteeringKind::FIGURE4 {
        if kind != SteeringKind::Original {
            suites.push(spec(kind, false, false));
        }
        suites.push(spec(kind, true, false));
        suites.push(spec(kind, true, true));
        suites.push(spec(kind, false, true));
    }
    suites
}

/// Replays the profiling pass and both figures of the sweep serially,
/// one public call at a time, and folds them exactly as the library
/// does. Returns Figure 4(a) and 4(b).
pub fn replay_figures(
    config: &ExperimentConfig,
    arena: &WorkloadArena,
    table: &mut LayerTable,
    tally: &mut Tally,
) -> (Figure4, Figure4) {
    let machine = &config.machine;
    let mut results = Vec::new();
    let mut baselines = Vec::new();
    for w in arena.all() {
        let ops = tally.vm_run(table, &w.program, config.inst_limit);
        let (result, secs) = tally.fcfs_run(table, machine, &ops);
        tally.count(&result);
        baselines.push(Baseline {
            secs,
            stream: Some((result.cycles, result.retired)),
        });
        results.push(result);
    }
    let profile = table.time(Layer::Core, || fold_profile(machine, arena, &results));
    let (int, fp) = baselines.split_at_mut(arena.integer().len());
    let fig_a = replay_unit(Unit::Ialu, config, arena, &profile, int, table, tally);
    let fig_b = replay_unit(Unit::Fpau, config, arena, &profile, fp, table, tally);
    (fig_a, fig_b)
}

/// An original program's FCFS run in the profiling pass: its seconds,
/// and the (cycles, retired) every later run of it must reproduce.
struct Baseline {
    secs: f64,
    stream: Option<(u64, u64)>,
}

/// The profiling pass's fold, in suite order (as `profile_suite_jobs`).
fn fold_profile(
    machine: &MachineConfig,
    arena: &WorkloadArena,
    results: &[SimResult],
) -> SuiteProfile {
    let mut profile = SuiteProfile {
        ialu: BitPatternProfiler::new(),
        fpau: BitPatternProfiler::new(),
        imul: BitPatternProfiler::new(),
        fpmul: BitPatternProfiler::new(),
        ialu_occupancy: OccupancyProfiler::new(machine.modules(FuClass::IntAlu)),
        fpau_occupancy: OccupancyProfiler::new(machine.modules(FuClass::FpAlu)),
    };
    for (w, result) in arena.all().iter().zip(results) {
        match w.category {
            Category::Integer => {
                profile.ialu.merge(result.bit_patterns_of(FuClass::IntAlu));
                profile.imul.merge(result.bit_patterns_of(FuClass::IntMul));
                profile
                    .ialu_occupancy
                    .merge(result.occupancy_of(FuClass::IntAlu));
            }
            Category::FloatingPoint => {
                profile.fpau.merge(result.bit_patterns_of(FuClass::FpAlu));
                profile.fpmul.merge(result.bit_patterns_of(FuClass::FpMul));
                profile
                    .fpau_occupancy
                    .merge(result.occupancy_of(FuClass::FpAlu));
            }
        }
    }
    profile
}

/// One figure: the compiler swap pass, then every suite × workload cell
/// as `Vm::run` + `run_trace`, then the library's in-order fold.
fn replay_unit(
    unit: Unit,
    config: &ExperimentConfig,
    arena: &WorkloadArena,
    profile: &SuiteProfile,
    baselines: &mut [Baseline],
    table: &mut LayerTable,
    tally: &mut Tally,
) -> Figure4 {
    let machine = &config.machine;
    let workloads: &[Workload] = match unit {
        Unit::Ialu => arena.integer(),
        Unit::Fpau => arena.floating_point(),
    };
    let n = workloads.len();
    let swapped: Vec<Program> = workloads
        .iter()
        .map(|w| {
            table
                .time(Layer::Swap, || {
                    CompilerSwapPass::with_limit(config.inst_limit).run(&w.program)
                })
                .unwrap_or_else(|e| panic!("swap pass on {} faulted: {e}", w.name))
                .program
        })
        .collect();
    let ialu_profile = profile.case_profile(FuClass::IntAlu);
    let fpau_profile = profile.case_profile(FuClass::FpAlu);
    let ialu_occ = profile.ialu_occupancy.distribution();
    let fpau_occ = profile.fpau_occupancy.distribution();

    let suites = suites();
    let mut swapped_reference = vec![None; n];
    let mut ledgers = Vec::with_capacity(suites.len() * n);
    let mut cell_secs = Vec::with_capacity(suites.len() * n);
    for spec in &suites {
        for (i, w) in workloads.iter().enumerate() {
            let program = if spec.compiler_swapped {
                &swapped[i]
            } else {
                &w.program
            };
            let ops = tally.vm_run(table, program, config.inst_limit);
            let steering = table.time(Layer::Steer, || {
                SteeringConfig::from_profiles_with_occupancy(
                    spec.kind,
                    spec.hw_swap,
                    &ialu_profile,
                    &fpau_profile,
                    &ialu_occ,
                    &fpau_occ,
                    machine.modules(FuClass::IntAlu),
                    machine.modules(FuClass::FpAlu),
                )
            });
            let (result, secs) =
                timed(|| Simulator::new(machine.clone(), steering).run_trace(&ops));
            let stream = if spec.compiler_swapped {
                &mut swapped_reference[i]
            } else {
                &mut baselines[i].stream
            };
            tally.check_invariant(stream, &result);
            tally.count(&result);
            ledgers.push(result.ledger);
            cell_secs.push((secs, ops.len() as u64));
        }
    }

    // The FCFS baseline of a compiler-swapped program is its
    // Original/no-hardware-swap cell.
    let swapped_base = suites
        .iter()
        .position(|s| s.kind == SteeringKind::Original && !s.hw_swap && s.compiler_swapped)
        .expect("the sweep has an Original compiler-only suite");
    for (cell, &(secs, ops)) in cell_secs.iter().enumerate() {
        let (s, i) = (cell / n, cell % n);
        let base = if suites[s].compiler_swapped {
            cell_secs[swapped_base * n + i].0
        } else {
            baselines[i].secs
        };
        tally.charge_scheme(table, suites[s].kind, secs, base, ops);
    }

    table.time(Layer::Core, || fold_figure(unit, &suites, &ledgers, n))
}

/// The figure's fold: per suite, ledgers merged in workload order, then
/// each suite's reduction against the baseline suite (as the library).
fn fold_figure(unit: Unit, suites: &[SuiteSpec], ledgers: &[EnergyLedger], n: usize) -> Figure4 {
    let class = unit.fu_class();
    let suite_ledger = |s: usize| {
        let mut total = EnergyLedger::new();
        for l in &ledgers[s * n..(s + 1) * n] {
            total.merge(l);
        }
        total
    };
    let baseline = suite_ledger(0);
    let base_bits = baseline.switched_bits(class);
    let pct = |ledger: &EnergyLedger| {
        if base_bits == 0 {
            0.0
        } else {
            100.0 * (1.0 - ledger.switched_bits(class) as f64 / base_bits as f64)
        }
    };
    let mut rows = Vec::new();
    let mut next = 1;
    for kind in SteeringKind::FIGURE4 {
        let base = if kind == SteeringKind::Original {
            pct(&baseline)
        } else {
            next += 1;
            pct(&suite_ledger(next - 1))
        };
        rows.push(Figure4Row {
            scheme: kind.to_string(),
            base_pct: base,
            hardware_pct: pct(&suite_ledger(next)),
            hardware_compiler_pct: pct(&suite_ledger(next + 1)),
            compiler_only_pct: pct(&suite_ledger(next + 2)),
        });
        next += 3;
    }
    debug_assert_eq!(next, suites.len());
    Figure4 {
        unit,
        rows,
        baseline_switched_bits: base_bits,
    }
}
