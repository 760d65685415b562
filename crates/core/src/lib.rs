//! Experiment layer: regenerates every table and figure of the paper's
//! evaluation from the workspace's substrates.
//!
//! | Paper artefact | Entry point |
//! |---|---|
//! | Table 1 (bit patterns, IALU/FPAU) | [`SuiteProfile::table1`] |
//! | Table 2 (module occupancy) | [`SuiteProfile::table2`] |
//! | Table 3 (multiplication bit patterns) | [`SuiteProfile::table3`] |
//! | Figure 1 (routing example) | [`routing_example`] |
//! | Figure 4(a)/(b) (energy reduction per scheme) | [`figure4_jobs`] |
//! | §5 hardware cost (58 gates / 6 levels, …) | [`synthesis_report`] |
//! | §1 chip-level extrapolation ("roughly 4%") | [`chip_estimate`] |
//! | Headline numbers (17% / 18% / 26%) | [`headline_jobs`] |
//! | Ablations of the paper's fixed choices | [`ablation`] |
//!
//! # Examples
//!
//! ```no_run
//! use fua_core::{figure4_jobs, ExperimentConfig, Unit};
//! use fua_exec::Jobs;
//!
//! let config = ExperimentConfig::default();
//! let fig = figure4_jobs(Unit::Ialu, &config, Jobs::serial());
//! println!("{}", fig.render());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod ablation;
mod breakdown;
mod chip;
mod config;
mod fig1;
mod figure4;
mod json;
mod listing;
mod observe;
mod sensitivity;
mod static_swap;
mod suite;
mod synthesis;

pub use breakdown::{workload_breakdown, BreakdownRow, WorkloadBreakdown};
pub use chip::{chip_estimate, ChipEstimate, EXECUTION_UNIT_POWER_SHARE};
pub use config::{ExperimentConfig, Unit};
pub use fig1::{routing_example, RoutingExample};
pub use figure4::{
    figure4_jobs, figure4_with_profile_jobs, headline_from, headline_jobs, Figure4, Figure4Row,
    Headline,
};
pub use json::{Json, ToJson};
pub use listing::{info_bit_report, workload_table};
pub use observe::observed_scheme;
pub use sensitivity::{swap_sensitivity, SensitivityRow, SwapSensitivity};
pub use static_swap::{static_swap_comparison, StaticSwapComparison, StaticSwapRow};
pub use suite::{profile_suite_jobs, profile_suite_metrics_jobs, SuiteProfile};
pub use synthesis::{synthesis_report, SynthesisReport, SynthesisRow};
