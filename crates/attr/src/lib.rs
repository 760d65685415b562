//! Energy attribution: who pays for the switched bits?
//!
//! The simulator's [`EnergyLedger`](fua_power::EnergyLedger) answers
//! *how many* input bits toggled per FU class; this crate answers
//! *where* — it partitions every ledger delta by the issuing static PC,
//! its enclosing basic block (via the [`fua_analysis`] CFG), the
//! steering case presented to the policy, and the FU module charged.
//!
//! The partition is **exact**: an [`AttributionSink`] counts every
//! [`Energy`](fua_trace::TraceEvent::Energy) event in exactly one site
//! bucket, so the reassembled [`ledger`](AttributionSink::ledger) equals
//! the simulator's own bit-for-bit, for every scheme and swap setting —
//! the same invariant the windowed-telemetry sink proves over time
//! intervals, proved here over static sites. [`fua_exec::map_indexed`]
//! returns each workload's result at the workload's index whatever the
//! worker count, and suites read them in that order, which is what
//! makes `fua profile-energy --jobs N` byte-identical to `--jobs 1`.
//!
//! On top of the raw partition:
//!
//! * [`EnergyAttribution`] resolves sites against the program's CFG and
//!   ranks [`hotspots`](EnergyAttribution::hotspots), and exports
//!   [`collapsed_stacks`](EnergyAttribution::collapsed_stacks) —
//!   `workload;block;pc` frames weighted by switched bits, ready for
//!   any flamegraph renderer;
//! * [`AttributionDiff`] aligns two attributions of the same workload
//!   by PC and reports where one steering [`Scheme`] saves or loses
//!   energy, per module and per steering case;
//! * [`attribute_suite`] fans the whole workload suite out across a
//!   deterministic [`fua_exec`] worker pool, running each workload once
//!   with a steering lane per scheme;
//! * [`CycleAttribution`] answers the sibling question — *where do the
//!   cycles go?* — by resolving the stall-slot partition (every issue
//!   slot of every cycle in exactly one taxonomy bucket) against the
//!   same CFG, with [`CriticalPath`] extraction and a
//!   [`joint_table`] pairing switched bits with slot spend per PC;
//!   `fua profile-cycles` drives [`profile_cycles_suite`].
//!
//! # Examples
//!
//! ```
//! use fua_attr::{attribute_workload, Scheme};
//!
//! let w = fua_workloads::by_name("compress", 1).unwrap();
//! let run = attribute_workload(&w, Scheme::Lut4, 2_000);
//! assert!(run.exact(), "attribution reproduces the ledger bit-for-bit");
//! let top = run.attribution.hotspots(3);
//! assert!(!top.is_empty());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod cycles;
mod diff;
mod estimate;
mod profile;
mod rank;
mod run;
mod sink;

pub use cycles::{
    joint_table, profile_cycles_suite, profile_cycles_workload, CriticalNode, CriticalPath,
    CycleAttribution, CycleProfile, CycleProfiledRun, JointRow, StallHotspot, StallRow,
};
pub use diff::{AttributionDiff, ClassDelta, EnergyComparison, PcDelta};
pub use estimate::{
    check_attribution, check_runs, check_suite, check_workload, BoundViolation, EstimateCheck,
    EstimateComparison, EstimateReport, EstimateVerification,
};
pub use fua_steer::MAX_MODULES;
pub use profile::{EnergyAttribution, Hotspot, SiteRow};
pub use rank::{rank_suite, suite_hotspots};
pub use run::{
    attribute_schemes, attribute_suite, attribute_workload, AttributedRun, EnergyProfile,
    ExactPartition, Scheme, SchemeRun,
};
pub use sink::{AttributionSink, SiteKey, SiteStat};
