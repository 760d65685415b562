//! Named steering schemes and attribution runners — the glue the
//! `fua profile-energy` and `fua run` front ends drive — and the reports
//! they print.

use fua_analysis::SwapModel;
use fua_exec::{map_indexed, Jobs};
use fua_isa::FuClass;
use fua_sim::{Lane, MachineConfig, NullProfiler, SimResult, Simulator, SteeringConfig};
use fua_steer::SteeringKind;
use fua_trace::{Json, MetricsRecorder, NullSink, TextTable, ToJson, TraceSink};
use fua_workloads::{Category, Workload};

use crate::{suite_hotspots, AttributionSink, EnergyAttribution};

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

/// The schemes `fua run` compares, in its row order: Original, then the
/// hardware-swap schemes in Figure-4 bar order.
const RUN_SCHEMES: [Scheme; 6] = [
    Scheme::Naive,
    Scheme::FullHam,
    Scheme::OneBitHam,
    Scheme::Lut8,
    Scheme::Lut4,
    Scheme::Lut2,
];

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

/// A profiled run whose attribution must partition its measurement
/// exactly. The profiling front ends log [`summary`](Self::summary) for
/// every run and stop at the first run with an [`inexact`](Self::inexact)
/// error.
pub trait ExactPartition {
    /// One log line: workload, scheme, what was partitioned, and the
    /// exactness verdict.
    fn summary(&self) -> String;

    /// Why the partition is not exact, or `None` when it is.
    fn inexact(&self) -> Option<String>;
}

impl ExactPartition for AttributedRun {
    fn summary(&self) -> String {
        let a = &self.attribution;
        format!(
            "{} under {}: {} cycles, {} switched bits over {} sites, exact: {}",
            a.workload,
            a.scheme,
            self.result.cycles,
            a.total_bits(),
            a.rows().len(),
            self.exact()
        )
    }

    fn inexact(&self) -> Option<String> {
        (!self.exact()).then(|| {
            format!(
                "attribution for {} did not reproduce the energy ledger",
                self.attribution.workload
            )
        })
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
    attribute_schemes(w, machine, &[scheme], limit, NullSink)
        .0
        .pop()
        .expect("one run per scheme")
}

/// Runs one workload once on `machine` with a steering lane per scheme
/// in `schemes`, each with its own [`AttributionSink`], and returns one
/// attributed run per scheme, in `schemes` order, with `sink`, which
/// rides the engine as in [`Simulator::run_lanes`].
/// Steering never moves timing, so each run equals a standalone
/// attributed run under its scheme.
///
/// # Panics
///
/// Panics if the workload program faults (workload kernels never do).
pub fn attribute_schemes<S: TraceSink>(
    w: &Workload,
    machine: MachineConfig,
    schemes: &[Scheme],
    limit: u64,
    sink: S,
) -> (Vec<AttributedRun>, S) {
    let mut lanes: Vec<Lane<AttributionSink>> = schemes
        .iter()
        .map(|s| Lane::with_sink(&machine, s.config(), AttributionSink::new()))
        .collect();
    let (results, sink, _) =
        Simulator::run_lanes(machine, sink, NullProfiler, &mut lanes, &w.program, limit)
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
    (runs, sink)
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
        attribute_schemes(w, machine, schemes, limit, NullSink)
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

/// `fua profile-energy`'s report on one scheme's suite: the suite-wide
/// top-`top` hotspot table and the per-module / per-case breakdown as
/// text, every run's attribution as JSON.
#[derive(Debug)]
pub struct EnergyProfile {
    /// The scheme every run used.
    pub scheme: Scheme,
    /// Hotspot rows to print.
    pub top: usize,
    /// One attributed run per workload, in workload order.
    pub runs: Vec<AttributedRun>,
}

impl EnergyProfile {
    /// The text report.
    pub fn render(&self) -> String {
        let mut table =
            TextTable::new(["workload", "pc", "block", "opcode", "bits", "ops", "share"]);
        for (workload, h) in suite_hotspots(self.runs.iter().map(|r| &r.attribution), self.top) {
            table.push_row([
                workload.to_string(),
                format!("pc{}", h.pc),
                h.block,
                h.opcode,
                h.bits.to_string(),
                h.ops.to_string(),
                format!("{:.2}%", h.share_pct),
            ]);
        }
        format!(
            "top {} energy hotspot(s) under {}:\n{table}\n\
             per-module / per-case switched bits:\n{}",
            self.top,
            self.scheme.label(),
            self.breakdown_table()
        )
    }

    /// Every run's collapsed stacks, for a flamegraph.
    pub fn collapsed_stacks(&self) -> String {
        self.runs
            .iter()
            .map(|r| r.attribution.collapsed_stacks())
            .collect()
    }

    /// The per-module and per-case switched-bit breakdown of the
    /// duplicated FU classes, summed across the runs.
    pub(crate) fn breakdown_table(&self) -> TextTable {
        let mut table =
            TextTable::new(["class", "m0", "m1", "m2", "m3", "c00", "c01", "c10", "c11"]);
        for class in [FuClass::IntAlu, FuClass::FpAlu] {
            let mut modules = [0u64; crate::MAX_MODULES];
            let mut cases = [0u64; 4];
            for run in &self.runs {
                let m = run.attribution.module_bits(class);
                let c = run.attribution.case_bits(class);
                for (acc, v) in modules.iter_mut().zip(m) {
                    *acc += v;
                }
                for (acc, v) in cases.iter_mut().zip(c) {
                    *acc += v;
                }
            }
            table.push_row(
                std::iter::once(class.to_string())
                    .chain(modules.iter().take(4).map(u64::to_string))
                    .chain(cases.iter().map(u64::to_string)),
            );
        }
        table
    }
}

impl ToJson for EnergyProfile {
    fn to_json(&self) -> Json {
        Json::Arr(self.runs.iter().map(|r| r.attribution.to_json()).collect())
    }
}

/// `fua run`'s report: one workload run once, with a steering lane per
/// scheme, Original first; each scheme's switched bits on the
/// workload's duplicated FU class and its reduction against Original.
#[derive(Debug)]
pub struct SchemeRun {
    workload: String,
    /// The duplicated FU class the workload's category drives.
    class: FuClass,
    /// The Original lane's result.
    baseline: SimResult,
    /// `(scheme, switched bits, reduction vs Original in percent)`,
    /// Original (with no reduction) first.
    rows: Vec<(Scheme, u64, Option<f64>)>,
    /// What a recorder riding the engine (it sees the Original lane)
    /// gathered, under `--metrics`.
    metrics: Option<MetricsRecorder>,
}

impl SchemeRun {
    /// Runs `w` for at most `limit` instructions on the paper's machine
    /// with a lane per scheme, a [`MetricsRecorder`] riding the engine
    /// when `metrics` is set.
    pub fn run(w: &Workload, limit: u64, metrics: bool) -> Result<Self, String> {
        /// Runs `w` with a lane per scheme and `sink` riding the engine.
        fn run_with<S: TraceSink>(
            w: &Workload,
            limit: u64,
            sink: S,
        ) -> Result<(Vec<SimResult>, S), String> {
            let machine = MachineConfig::paper_default();
            let mut lanes: Vec<Lane> = RUN_SCHEMES
                .iter()
                .map(|s| Lane::new(&machine, s.config()))
                .collect();
            let (results, sink, _) =
                Simulator::run_lanes(machine, sink, NullProfiler, &mut lanes, &w.program, limit)
                    .map_err(|e| e.to_string())?;
            Ok((results, sink))
        }

        let class = match w.category {
            Category::Integer => FuClass::IntAlu,
            Category::FloatingPoint => FuClass::FpAlu,
        };
        let (results, recorder) = if metrics {
            let (results, recorder) = run_with(w, limit, MetricsRecorder::new())?;
            (results, Some(recorder))
        } else {
            (run_with(w, limit, NullSink)?.0, None)
        };
        let baseline = &results[0];
        let rows = RUN_SCHEMES
            .iter()
            .zip(&results)
            .map(|(&scheme, r)| {
                let reduction =
                    (scheme != Scheme::Naive).then(|| 100.0 * r.reduction_vs(baseline, class));
                (scheme, r.ledger.switched_bits(class), reduction)
            })
            .collect();
        Ok(SchemeRun {
            workload: w.name.to_string(),
            class,
            baseline: results.into_iter().next().expect("one result per lane"),
            rows,
            metrics: recorder,
        })
    }

    /// The text report: the baseline run's summary line, the scheme
    /// table, then the metrics when present.
    pub fn render(&self) -> String {
        let b = &self.baseline;
        let mut out = vec![format!(
            "{}: retired {} in {} cycles (IPC {:.2}), branch mispredict {:.1}%, \
             D-cache hit {:.1}%",
            self.workload,
            b.retired,
            b.cycles,
            b.ipc(),
            100.0 * b.branches.mispredict_rate(),
            100.0 * b.cache.hit_rate(),
        )];
        let bits = format!("{} bits", self.class);
        let mut t = TextTable::new(["scheme", bits.as_str(), "reduction"]);
        for (scheme, bits, red) in &self.rows {
            t.push_row([
                scheme.label().to_string(),
                bits.to_string(),
                red.map_or_else(|| "-".to_string(), |r| format!("{r:.1}%")),
            ]);
        }
        out.push(t.to_string());
        if let Some(recorder) = &self.metrics {
            out.push(format!("metrics — baseline (Original) run:\n{recorder}"));
        }
        out.join("\n")
    }
}

impl ToJson for SchemeRun {
    fn to_json(&self) -> Json {
        let b = &self.baseline;
        let schemes = self
            .rows
            .iter()
            .map(|(scheme, bits, red)| {
                Json::obj([
                    ("scheme", Json::Str(scheme.label().to_string())),
                    ("switched_bits", Json::UInt(*bits)),
                    ("reduction_pct", red.map_or(Json::Null, Json::Float)),
                ])
            })
            .collect();
        let mut fields = vec![
            ("workload".to_string(), Json::Str(self.workload.clone())),
            ("class".to_string(), Json::Str(self.class.to_string())),
            ("retired".to_string(), Json::UInt(b.retired)),
            ("cycles".to_string(), Json::UInt(b.cycles)),
            ("ipc".to_string(), Json::Float(b.ipc())),
            ("halted".to_string(), Json::Bool(b.halted)),
            ("branches".to_string(), b.branches.to_json()),
            ("cache".to_string(), b.cache.to_json()),
            ("swaps".to_string(), b.swaps.to_json()),
            ("ledger".to_string(), b.ledger.to_json()),
            ("schemes".to_string(), Json::Arr(schemes)),
        ];
        if let Some(recorder) = &self.metrics {
            fields.push(("metrics".to_string(), recorder.to_json()));
        }
        Json::Obj(fields)
    }
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
