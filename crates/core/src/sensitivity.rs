//! Cross-input sensitivity of the compiler swap pass.
//!
//! The paper lists this as the pass's second disadvantage: "since the
//! program must be profiled, performance will vary somewhat for different
//! input patterns" — but never measures it. This experiment does: profile
//! and rewrite each integer workload on its *train* input, then evaluate
//! the rewritten binary on an unseen *ref* input, against both the
//! baseline and a self-profiled (oracle) rewrite.
//!
//! The static pass (`fua-swap::StaticSwapPass`) rides along as a
//! control: its decisions are a pure function of the program text, so
//! its swap set must be *identical* on both builds — input invariance
//! by construction, checked here rather than assumed.

use fua_isa::FuClass;
use fua_swap::{CompilerSwapPass, StaticSwapPass};
use fua_trace::TextTable;
use fua_workloads::integer_with_input;

use crate::observe::observed_bits;
use crate::ExperimentConfig;

/// One workload's cross-input result.
#[derive(Debug, Clone)]
pub struct SensitivityRow {
    /// Workload name.
    pub workload: String,
    /// Reduction on the training input, train-profiled swaps (percent).
    pub train_pct: f64,
    /// Reduction on the unseen input, train-profiled swaps (percent).
    pub cross_pct: f64,
    /// Reduction on the unseen input, self-profiled swaps (oracle).
    pub oracle_pct: f64,
    /// Reduction on the unseen input, profile-free static swaps.
    pub static_pct: f64,
    /// Static instructions swapped from the training profile.
    pub swapped: usize,
    /// Whether the static pass chose the same swap set on both builds
    /// (it must — its decisions cannot see the input data).
    pub static_invariant: bool,
}

/// The full cross-input study.
#[derive(Debug, Clone)]
pub struct SwapSensitivity {
    /// Per-workload rows.
    pub rows: Vec<SensitivityRow>,
}

impl SwapSensitivity {
    /// Renders the study.
    pub fn render(&self) -> String {
        let mut t = TextTable::new([
            "workload",
            "train input",
            "unseen input",
            "oracle (self-profiled)",
            "static (profile-free)",
            "swaps",
        ]);
        for r in &self.rows {
            t.push_row([
                r.workload.clone(),
                format!("{:.2}%", r.train_pct),
                format!("{:.2}%", r.cross_pct),
                format!("{:.2}%", r.oracle_pct),
                format!("{:.2}%", r.static_pct),
                r.swapped.to_string(),
            ]);
        }
        let invariant = self.rows.iter().all(|r| r.static_invariant);
        format!(
            "Compiler-swap cross-input sensitivity (IALU, 4-bit LUT + hw swap; \
             paper §4.4 lists this sensitivity but does not measure it)\n{t}\
             static swap sets identical across inputs: {}\n",
            if invariant {
                "yes (input-invariant by construction)"
            } else {
                "NO — analysis bug"
            }
        )
    }
}

/// Applies the swap decisions recorded on one build of a program to
/// another build with the same static structure (different input data).
fn apply_swaps(target: &fua_isa::Program, swapped: &[usize]) -> fua_isa::Program {
    let mut out = target.clone();
    for &idx in swapped {
        let inst = *out.inst(idx);
        if let Some(flipped) = inst.swapped() {
            out.replace_inst(idx, flipped);
        }
    }
    out
}

/// Runs the study: train on input 0, evaluate on input 1.
pub fn swap_sensitivity(config: &ExperimentConfig) -> SwapSensitivity {
    let train = integer_with_input(config.scale, 0);
    let unseen = integer_with_input(config.scale, 1);
    let rows = train
        .iter()
        .zip(&unseen)
        .map(|(wt, wu)| {
            let outcome = CompilerSwapPass::with_limit(config.inst_limit)
                .run(&wt.program)
                .unwrap_or_else(|e| panic!("{}: swap pass faulted: {e}", wt.name));
            let oracle_outcome = CompilerSwapPass::with_limit(config.inst_limit)
                .run(&wu.program)
                .unwrap_or_else(|e| panic!("{}: oracle pass faulted: {e}", wu.name));
            let static_train = StaticSwapPass::new().run(&wt.program);
            let static_unseen = StaticSwapPass::new().run(&wu.program);

            let pct = |base: u64, opt: u64| {
                if base == 0 {
                    0.0
                } else {
                    100.0 * (1.0 - opt as f64 / base as f64)
                }
            };

            let bits = |program| observed_bits(config, wt.name, program, FuClass::IntAlu);
            // Training input: baseline vs train-profiled rewrite.
            let train_base = bits(&wt.program);
            let train_opt = bits(&outcome.program);
            // Unseen input: the same static swaps, new data.
            let cross_program = apply_swaps(&wu.program, &outcome.swapped);
            let unseen_base = bits(&wu.program);
            let cross_opt = bits(&cross_program);
            // Oracle: profiled on the unseen input itself.
            let oracle_opt = bits(&oracle_outcome.program);
            // Static: no training run to transfer — the pass sees only
            // the text, so "train" vs "unseen" is the same rewrite.
            let static_opt = bits(&static_unseen.program);

            SensitivityRow {
                workload: wt.name.to_string(),
                train_pct: pct(train_base, train_opt),
                cross_pct: pct(unseen_base, cross_opt),
                oracle_pct: pct(unseen_base, oracle_opt),
                static_pct: pct(unseen_base, static_opt),
                swapped: outcome.swapped.len(),
                static_invariant: static_train.swapped == static_unseen.swapped,
            }
        })
        .collect();
    SwapSensitivity { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_input_study_is_well_formed() {
        let s = swap_sensitivity(&ExperimentConfig::quick());
        assert_eq!(s.rows.len(), 7);
        for r in &s.rows {
            // Swap effects are second-order: a few percent either way.
            // (Note the oracle is *not* guaranteed to beat the transferred
            // profile: the pass optimises average bit counts, a heuristic
            // that does not map monotonically to switched energy.)
            for v in [r.train_pct, r.cross_pct, r.oracle_pct, r.static_pct] {
                assert!(v.is_finite() && v.abs() < 25.0, "{}: {v}", r.workload);
            }
            // The static pass consults nothing but the text, so its
            // swap set cannot differ between the two builds.
            assert!(r.static_invariant, "{}: static swaps drifted", r.workload);
        }
        // At least one workload must have transferable swaps at all.
        assert!(s.rows.iter().any(|r| r.swapped > 0));
        let rendered = s.render();
        assert!(rendered.contains("cross-input"));
        assert!(rendered.contains("input-invariant by construction"));
    }
}
