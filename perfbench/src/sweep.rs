//! The paper's Figure-4 sweep as the library runs it —
//! `profile_suite_jobs`, then `figure4_with_profile_jobs` for the IALU
//! and the FPAU — and the cell and cycle counts behind the metrics of a
//! workload that contains it.

use fua_core::{figure4_with_profile_jobs, profile_suite_jobs, ExperimentConfig, Figure4, Unit};
use fua_exec::{ExecReport, Jobs};
use fua_isa::Program;
use fua_sim::{Simulator, SteeringConfig};
use fua_swap::CompilerSwapPass;
use fua_workloads::WorkloadArena;

use crate::metrics::timed;
use crate::replay::suites;

/// One sweep through the three public stage calls: their results, the
/// executor's reports merged, and each stage's seconds.
pub struct Pass {
    pub stage_secs: [f64; 3],
    pub fig_a: Figure4,
    pub fig_b: Figure4,
    pub exec: ExecReport,
}

pub fn pass(config: &ExperimentConfig, arena: &WorkloadArena, jobs: Jobs) -> Pass {
    let ((profile, mut exec), profile_s) = timed(|| profile_suite_jobs(config, arena, jobs));
    let ((fig_a, exec_a), ialu_s) =
        timed(|| figure4_with_profile_jobs(Unit::Ialu, config, arena, &profile, jobs));
    let ((fig_b, exec_b), fpau_s) =
        timed(|| figure4_with_profile_jobs(Unit::Fpau, config, arena, &profile, jobs));
    exec.merge(&exec_a);
    exec.merge(&exec_b);
    Pass {
        stage_secs: [profile_s, ialu_s, fpau_s],
        fig_a,
        fig_b,
        exec,
    }
}

/// Simulation cells one sweep runs: the profiling pass plus every
/// suite × workload of both figures.
pub fn cell_count(arena: &WorkloadArena) -> u64 {
    (arena.all().len() * (1 + suites().len())) as u64
}

/// Simulated cycles and retired instructions over every cell of one
/// sweep at `config`. Cycles do not depend on the steering scheme (the
/// traced run checks this as `sim.scheme_mismatches`), so each cell
/// counts the FCFS run of its program: the original one, or its
/// compiler-swapped twin.
pub fn sweep_totals(config: &ExperimentConfig, arena: &WorkloadArena) -> (u64, u64) {
    let add = |a: (u64, u64), b: (u64, u64), times: u64| (a.0 + times * b.0, a.1 + times * b.1);
    let swapped_suites = suites().iter().filter(|s| s.compiler_swapped).count() as u64;
    let plain_suites = suites().len() as u64 - swapped_suites;
    let mut total = (0, 0);
    for w in arena.all() {
        let twin = CompilerSwapPass::with_limit(config.inst_limit)
            .run(&w.program)
            .unwrap_or_else(|e| panic!("swap pass on {} faulted: {e}", w.name))
            .program;
        total = add(total, fcfs_totals(config, &w.program), 1 + plain_suites);
        total = add(total, fcfs_totals(config, &twin), swapped_suites);
    }
    total
}

/// Cycles and retired instructions of `program` under FCFS steering.
pub fn fcfs_totals(config: &ExperimentConfig, program: &Program) -> (u64, u64) {
    let r = Simulator::new(config.machine.clone(), SteeringConfig::original())
        .run_program(program, config.inst_limit)
        .unwrap_or_else(|e| panic!("program faulted: {e}"));
    (r.cycles, r.retired)
}
