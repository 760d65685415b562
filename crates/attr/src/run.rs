//! Named steering schemes and attribution runners — the glue the
//! `fua profile-energy` front end drives.

use fua_analysis::SwapModel;
use fua_exec::{map_indexed, Jobs};
use fua_sim::{
    Lane, MachineConfig, NullProfiler, PhaseProfiler, SimResult, Simulator, SteeringConfig,
};
use fua_steer::SteeringKind;
use fua_trace::{NullSink, TraceSink};
use fua_workloads::Workload;

use crate::{AttributionSink, EnergyAttribution};

/// A steering scheme addressable by name on the command line.
///
/// Every scheme except [`Naive`](Scheme::Naive) includes the paper's
/// hardware swap rules, mirroring the Figure-4 "hardware" bars.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// The unmodified baseline machine: FCFS steering, no swapping.
    Naive,
    /// Full Hamming-distance steering + hardware swap.
    FullHam,
    /// 1-bit Hamming steering + hardware swap.
    OneBitHam,
    /// 2-bit LUT steering + hardware swap.
    Lut2,
    /// 4-bit LUT steering + hardware swap (the paper's recommendation).
    Lut4,
    /// 8-bit LUT steering + hardware swap.
    Lut8,
}

impl Scheme {
    /// Every named scheme, in the order BENCH artifacts record their
    /// `estimator.entries`. This is not Figure-4 bar order (that runs
    /// 8-, 4-, then 2-bit LUT, and puts Original last); it stays as is
    /// because reordering it would change every artifact's bytes.
    pub const ALL: [Scheme; 6] = [
        Scheme::FullHam,
        Scheme::OneBitHam,
        Scheme::Lut4,
        Scheme::Lut2,
        Scheme::Lut8,
        Scheme::Naive,
    ];

    /// The command-line spelling.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Naive => "naive",
            Scheme::FullHam => "fullham",
            Scheme::OneBitHam => "1bitham",
            Scheme::Lut2 => "lut2",
            Scheme::Lut4 => "lut4",
            Scheme::Lut8 => "lut8",
        }
    }

    /// The human-readable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Scheme::Naive => "Original",
            Scheme::FullHam => "Full Ham + hw swap",
            Scheme::OneBitHam => "1-bit Ham + hw swap",
            Scheme::Lut2 => "2-bit LUT + hw swap",
            Scheme::Lut4 => "4-bit LUT + hw swap",
            Scheme::Lut8 => "8-bit LUT + hw swap",
        }
    }

    /// The operand-order model the static switched-bit estimator must
    /// assume for this scheme: the naive machine never swaps operands,
    /// every hardware-swap scheme may latch a commutative operation in
    /// either order.
    pub fn swap_model(self) -> SwapModel {
        match self {
            Scheme::Naive => SwapModel::Direct,
            _ => SwapModel::Either,
        }
    }

    /// Builds the steering configuration for a simulation run.
    pub fn config(self) -> SteeringConfig {
        match self {
            Scheme::Naive => SteeringConfig::original(),
            Scheme::FullHam => SteeringConfig::paper_scheme(SteeringKind::FullHam, true),
            Scheme::OneBitHam => SteeringConfig::paper_scheme(SteeringKind::OneBitHam, true),
            Scheme::Lut2 => SteeringConfig::paper_scheme(SteeringKind::Lut { slots: 1 }, true),
            Scheme::Lut4 => SteeringConfig::paper_scheme(SteeringKind::Lut { slots: 2 }, true),
            Scheme::Lut8 => SteeringConfig::paper_scheme(SteeringKind::Lut { slots: 4 }, true),
        }
    }
}

impl std::str::FromStr for Scheme {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "naive" | "original" => Ok(Scheme::Naive),
            "fullham" | "full-ham" => Ok(Scheme::FullHam),
            "1bitham" | "1-bit-ham" | "onebitham" => Ok(Scheme::OneBitHam),
            "lut2" => Ok(Scheme::Lut2),
            "lut4" => Ok(Scheme::Lut4),
            "lut8" => Ok(Scheme::Lut8),
            other => Err(format!(
                "unknown scheme '{other}' (expected one of: naive, fullham, 1bitham, \
                 lut2, lut4, lut8)"
            )),
        }
    }
}

/// One workload's attributed run: the simulator result plus the built
/// attribution of its energy ledger.
#[derive(Debug)]
pub struct AttributedRun {
    /// The simulator's own result (ledger, cycles, IPC inputs).
    pub result: SimResult,
    /// The per-site attribution of `result.ledger`.
    pub attribution: EnergyAttribution,
}

impl AttributedRun {
    /// Whether the attribution reassembles the simulator's ledger
    /// bit-for-bit — the exact-partition invariant.
    pub fn exact(&self) -> bool {
        self.attribution.ledger() == self.result.ledger
    }
}

/// Runs one workload under `scheme` with an [`AttributionSink`] attached
/// and resolves the sites against the workload's CFG: the one-scheme
/// case of [`attribute_schemes`], on the paper's machine.
///
/// # Panics
///
/// Panics if the workload program faults (workload kernels never do).
pub fn attribute_workload(w: &Workload, scheme: Scheme, limit: u64) -> AttributedRun {
    let machine = MachineConfig::paper_default();
    attribute_schemes(w, machine, &[scheme], limit, NullSink, NullProfiler)
        .0
        .pop()
        .expect("one run per scheme")
}

/// Runs one workload once on `machine` with a steering lane per scheme
/// in `schemes`, each with its own [`AttributionSink`], and returns one
/// attributed run per scheme, in `schemes` order, with `sink` and
/// `profiler`, which ride the run as in [`Simulator::run_lanes`].
/// Steering never moves timing, so each run equals a standalone
/// attributed run under its scheme.
///
/// # Panics
///
/// Panics if the workload program faults (workload kernels never do).
pub fn attribute_schemes<S: TraceSink, P: PhaseProfiler>(
    w: &Workload,
    machine: MachineConfig,
    schemes: &[Scheme],
    limit: u64,
    sink: S,
    profiler: P,
) -> (Vec<AttributedRun>, S, P) {
    let mut lanes: Vec<Lane<AttributionSink>> = schemes
        .iter()
        .map(|s| Lane::with_sink(&machine, s.config(), AttributionSink::new()))
        .collect();
    let (results, sink, profiler) =
        Simulator::run_lanes(machine, sink, profiler, &mut lanes, &w.program, limit)
            .unwrap_or_else(|e| panic!("workload {} faulted: {e}", w.name));
    let runs = lanes
        .iter()
        .zip(results)
        .zip(schemes)
        .map(|((lane, result), scheme)| AttributedRun {
            result,
            attribution: EnergyAttribution::build(w.name, scheme.label(), &w.program, lane.sink()),
        })
        .collect();
    (runs, sink, profiler)
}

/// Attributes every workload in `workloads` under every scheme in
/// `schemes`, fanning the workloads out across `jobs` workers. Each
/// workload runs once on the paper's machine, with a steering lane per
/// scheme ([`attribute_schemes`]). Returns one `Vec` per scheme, in
/// `schemes` order, each in workload-index order, so the output is
/// byte-identical to the serial pass for any worker count.
pub fn attribute_suite(
    workloads: &[Workload],
    schemes: &[Scheme],
    limit: u64,
    jobs: Jobs,
) -> Vec<Vec<AttributedRun>> {
    let mut per_workload = map_indexed(jobs, workloads, |_, w| {
        let machine = MachineConfig::paper_default();
        attribute_schemes(w, machine, schemes, limit, NullSink, NullProfiler)
            .0
            .into_iter()
    });
    (0..schemes.len())
        .map(|_| {
            per_workload
                .iter_mut()
                .map(|runs| runs.next().expect("one run per scheme"))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_names_round_trip_through_parsing() {
        for scheme in Scheme::ALL {
            assert_eq!(scheme.name().parse::<Scheme>().unwrap(), scheme);
        }
        assert_eq!("LUT4".parse::<Scheme>().unwrap(), Scheme::Lut4);
        assert_eq!("original".parse::<Scheme>().unwrap(), Scheme::Naive);
        let err = "lut16".parse::<Scheme>().unwrap_err();
        assert!(err.contains("lut16") && err.contains("lut4"), "{err}");
    }

    #[test]
    fn attributed_runs_are_exact_partitions() {
        let w = fua_workloads::by_name("compress", 1).unwrap();
        let run = attribute_workload(&w, Scheme::Lut4, 2_000);
        assert!(run.exact());
        assert!(run.attribution.total_bits() > 0);
        assert_eq!(run.attribution.workload, "compress");
    }

    #[test]
    fn parallel_attribution_matches_serial() {
        let workloads: Vec<Workload> = ["compress", "turb3d"]
            .iter()
            .map(|n| fua_workloads::by_name(n, 1).unwrap())
            .collect();
        let serial = attribute_suite(&workloads, &[Scheme::Lut4], 1_500, Jobs::serial());
        let parallel = attribute_suite(&workloads, &[Scheme::Lut4], 1_500, Jobs::new(4).unwrap());
        for (s, p) in serial[0].iter().zip(&parallel[0]) {
            assert_eq!(s.attribution, p.attribution);
            assert_eq!(
                s.attribution.collapsed_stacks(),
                p.attribution.collapsed_stacks()
            );
        }
    }
}
