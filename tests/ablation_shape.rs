//! Integration: the ablations' verdicts must hold end-to-end at the quick
//! experiment scale (the magnitudes `fua ablation` prints at its default
//! cap are recorded in EXPERIMENTS.md; these orderings are the claims).

use fua::core::ablation::{fp_info_bits, home_cases, module_count, multiplier_swap};
use fua::core::ExperimentConfig;

#[test]
fn four_modules_save_more_than_two() {
    let study = module_count(&ExperimentConfig::quick());
    let saving = |m| study.row(m).expect("swept").reduction_pct();
    assert!(saving("4") > saving("2"), "{}", study.render());
}

#[test]
fn the_paper_home_recipe_beats_one_case_per_module() {
    let study = home_cases(&ExperimentConfig::quick());
    let saving = |s| study.row(s).expect("strategy").reduction_pct();
    assert!(
        saving("Auto (paper recipe)") > saving("Unique"),
        "{}",
        study.render()
    );
}

#[test]
fn wider_fp_information_bits_flag_fewer_but_purer_operands() {
    let study = fp_info_bits(&ExperimentConfig::quick());
    for pair in study.rows.windows(2) {
        assert!(
            pair[1].flagged_pct < pair[0].flagged_pct,
            "{}",
            study.render()
        );
    }
    let (k1, k4) = (&study.rows[0], &study.rows[2]);
    assert_eq!((k1.k, k4.k), (1, 4));
    assert!(
        k4.zero_density_pct > k1.zero_density_pct,
        "{}",
        study.render()
    );
}

#[test]
fn the_multiplier_swap_lowers_booth_energy() {
    let study = multiplier_swap(&ExperimentConfig::quick());
    assert!(study.swapped > 0, "{}", study.render());
    assert!(
        study.energy_after < study.energy_before,
        "{}",
        study.render()
    );
}
