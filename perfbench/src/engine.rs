//! `engine`: every workload of input set `seed`, each run once through
//! `Simulator::run_program` under `Scheme::Lut4`, untraced and serial.
//! One cell per program, so nothing is shared across schemes and the
//! executor pool is bypassed: this measures VM + pipeline per
//! instruction.

use fua_attr::Scheme;
use fua_core::{headline_jobs, ExperimentConfig};
use fua_exec::Jobs;
use fua_power::EnergyLedger;
use fua_sim::{MachineConfig, Simulator};
use fua_steer::SteeringKind;
use fua_workloads::{all_with_input, Workload};

use crate::digest::Digest;
use crate::metrics::{timed, Layer, LayerTable};
use crate::replay::Tally;
use crate::{guarded, measure, paper, setup_median, Opts, Outcome};

/// Program size and instruction cap of an engine cell.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    pub scale: u32,
    pub limit: u64,
}

/// The benchmark's cells: about 0.4 M instructions each.
pub const CONFIG: EngineConfig = EngineConfig {
    scale: 4,
    limit: 400_000,
};

/// Timed iterations a run makes at least.
const MIN_ITERS: usize = 5;

/// The model state one cell produces.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    pub cycles: u64,
    pub retired: u64,
    pub ledger: EnergyLedger,
}

/// The data-set number a seed selects.
pub fn input_set(seed: u64) -> u32 {
    u32::try_from(seed % (1 << 32)).expect("reduced below 2^32")
}

/// One cell: `run_program` under the 4-bit LUT + hardware swap scheme.
pub fn cell(machine: &MachineConfig, w: &Workload, limit: u64) -> Option<Cell> {
    guarded(|| {
        let r = Simulator::new(machine.clone(), Scheme::Lut4.config())
            .run_program(&w.program, limit)
            .unwrap_or_else(|e| panic!("workload {} faulted: {e}", w.name));
        Cell {
            cycles: r.cycles,
            retired: r.retired,
            ledger: r.ledger,
        }
    })
}

/// The digest of every cell's cycles, retired count and ledger.
pub fn digest(cells: &[Option<Cell>]) -> String {
    let mut d = Digest::default();
    for c in cells {
        match c {
            Some(c) => d.u64(c.cycles).u64(c.retired).ledger(&c.ledger),
            None => d.str("failed"),
        };
    }
    d.hex()
}

/// The steering kind behind a named scheme.
fn kind_of(scheme: Scheme) -> SteeringKind {
    match scheme {
        Scheme::Naive => SteeringKind::Original,
        Scheme::FullHam => SteeringKind::FullHam,
        Scheme::OneBitHam => SteeringKind::OneBitHam,
        Scheme::Lut2 => SteeringKind::Lut { slots: 1 },
        Scheme::Lut4 => SteeringKind::Lut { slots: 2 },
        Scheme::Lut8 => SteeringKind::Lut { slots: 4 },
    }
}

pub fn run(opts: &Opts) -> Outcome {
    run_with(opts, CONFIG)
}

pub fn run_with(opts: &Opts, config: EngineConfig) -> Outcome {
    let machine = MachineConfig::paper_default();
    let input = input_set(opts.seed);
    let mut out = Outcome {
        notes: vec![format!(
            "engine: input set {input}, scale {}, limit {}, 4-bit LUT + hw swap, serial",
            config.scale, config.limit
        )],
        ..Outcome::default()
    };
    let (workloads, setup_s) = setup_median(|| all_with_input(config.scale, input));
    // Every cell with its own seconds: the timed loop keeps each cell's
    // fastest.
    let timed_iteration = || -> Vec<(Option<Cell>, f64)> {
        workloads
            .iter()
            .map(|w| timed(|| cell(&machine, w, config.limit)))
            .collect()
    };
    let iteration = || -> Vec<Option<Cell>> {
        timed_iteration()
            .into_iter()
            .map(|(cell, _)| cell)
            .collect()
    };
    let warm = iteration();
    out.correct = warm.iter().all(Option::is_some);
    out.digest = digest(&warm);
    let cycles: u64 = warm.iter().flatten().map(|c| c.cycles).sum();
    let retired: u64 = warm.iter().flatten().map(|c| c.retired).sum();
    out.sheet.set("workloads.build_s", setup_s);
    let check = |cells: &[Option<Cell>], out: &mut Outcome| {
        for (c, w) in cells.iter().zip(&warm) {
            out.tally(1, c.is_some() && c == w);
        }
    };

    if !opts.trace {
        let measured = measure(
            opts.seconds,
            MIN_ITERS,
            || all_with_input(config.scale, input),
            || {
                let (cells, secs): (Vec<_>, Vec<_>) = timed_iteration().into_iter().unzip();
                check(&cells, &mut out);
                secs
            },
        );
        measured.record(&mut out, workloads.len() as u64, cycles);
        // The engine has no figure of its own: the gap is the model's at
        // the quick configuration, computed after the timed loop.
        let quick = headline_jobs(&ExperimentConfig::quick(), Jobs::new(2).expect("2 > 0"));
        out.sheet.set("paper_gap_pts", paper::gap_pts(&quick));
        return out;
    }

    let before = fua_obs::arena_counters();
    let (cells, untraced_wall) = timed(iteration);
    let arena = fua_obs::arena_counters().delta(&before);
    check(&cells, &mut out);
    let traced = guarded(|| {
        let mut table = LayerTable::start();
        let mut tally = Tally::default();
        let workloads = table.time(Layer::Workloads, || all_with_input(config.scale, input));
        let mut split_ok = true;
        for (w, fused) in workloads.iter().zip(&warm) {
            let ops = tally.vm_run(&mut table, &w.program, config.limit);
            let (base, base_secs) = tally.fcfs_run(&mut table, &machine, &ops);
            tally.count(&base);
            let mut reference = Some((base.cycles, base.retired));
            for scheme in Scheme::ALL.into_iter().filter(|s| *s != Scheme::Naive) {
                let steering = table.time(Layer::Steer, || scheme.config());
                let (r, secs) = timed(|| Simulator::new(machine.clone(), steering).run_trace(&ops));
                tally.charge_scheme(
                    &mut table,
                    kind_of(scheme),
                    secs,
                    base_secs,
                    ops.len() as u64,
                );
                tally.check_invariant(&mut reference, &r);
                if scheme == Scheme::Lut4 {
                    let split = Cell {
                        cycles: r.cycles,
                        retired: r.retired,
                        ledger: r.ledger,
                    };
                    split_ok &= fused.as_ref() == Some(&split);
                }
            }
        }
        tally.record(&table, &mut out.sheet);
        (table.finish(), tally, split_ok)
    });
    let Some((layers, tally, split_ok)) = traced else {
        out.tally(workloads.len() as u64, false);
        return out;
    };
    out.tally(workloads.len() as u64, split_ok && tally.mismatches == 0);
    out.notes.push(format!(
        "split Vm::run -> run_trace equals the fused run_program: {split_ok}; \
         scheme mismatches: {}",
        tally.mismatches
    ));
    let s = &mut out.sheet;
    s.set(
        "sim.arena_fresh_ratio",
        arena.fresh as f64 / arena.leases.max(1) as f64,
    );
    s.set("sim.cycles", cycles as f64);
    s.set("sim.ipc", retired as f64 / cycles.max(1) as f64);
    s.set("trace_overhead_s", layers.wall - untraced_wall);
    layers.record(s);
    out.layers = Some(layers);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: EngineConfig = EngineConfig {
        scale: 1,
        limit: 4_000,
    };

    fn model_digest(seed: u64) -> String {
        let machine = MachineConfig::paper_default();
        let cells: Vec<_> = all_with_input(SMALL.scale, input_set(seed))
            .iter()
            .map(|w| cell(&machine, w, SMALL.limit))
            .collect();
        assert!(cells.iter().all(Option::is_some));
        digest(&cells)
    }

    #[test]
    fn each_seed_repeats_its_digest_and_seeds_differ() {
        let zero = model_digest(0);
        let one = model_digest(1);
        assert_eq!(zero, model_digest(0));
        assert_eq!(one, model_digest(1));
        assert_ne!(zero, one);
    }

    #[test]
    fn the_traced_run_splits_into_rows_that_sum_to_its_wall() {
        let opts = Opts {
            seed: 3,
            seconds: 0.01,
            trace: true,
        };
        let out = run_with(&opts, SMALL);
        assert!(out.correct && out.failed == 0, "{out:?}");
        let layers = out.layers.expect("a traced run has a layer table");
        let rows: f64 = Layer::ALL.iter().map(|&l| layers.row(l)).sum();
        assert!((rows + layers.residual() - layers.wall).abs() < 1e-9);
        assert!(layers.row(Layer::Vm) > 0.0 && layers.row(Layer::Sim) > 0.0);
        assert_eq!(out.sheet.get("sim.scheme_mismatches"), Some(0.0));
    }
}
