//! A sink that folds the event stream into a [`MetricsRegistry`].

use fua_isa::FuClass;

use crate::{MetricId, MetricsRegistry, Stage, StallReason, SwapKind, TraceEvent, TraceSink};

/// Upper bounds for per-module switched-bit (inter-arrival Hamming
/// distance) histograms: a 32-bit pair can toggle at most 64 bits, an FP
/// mantissa pair fewer.
const HAM_BOUNDS: [u64; 9] = [0, 1, 2, 4, 8, 16, 24, 32, 64];

/// Upper bounds for the per-cycle instruction-window occupancy histogram.
const WINDOW_BOUNDS: [u64; 8] = [0, 1, 2, 4, 8, 16, 32, 64];

/// Upper bounds for the per-cycle issue-width histogram.
const ISSUE_BOUNDS: [u64; 6] = [0, 1, 2, 3, 4, 8];

/// Maximum modules per FU class the recorder tracks individually.
const MAX_MODULES: usize = 8;

#[derive(Debug, Clone, Copy)]
struct PerModule {
    switched: MetricId,
    ops: MetricId,
    ham: MetricId,
}

/// Builds the standard simulator metrics from the trace-event stream:
/// pipeline-stage throughput counters, per-cycle occupancy histograms,
/// per-FU-module switching counters and Hamming-distance histograms,
/// steering case counts, swap/branch/cache counters.
///
/// Because the registry is populated from the same [`TraceEvent`]s the
/// energy ledger is built from, the per-module `switched_bits.*` counters
/// sum exactly to the ledger's per-class totals — the invariant the
/// `--metrics` CLI flag and the observability tests rely on.
#[derive(Debug, Clone)]
pub struct MetricsRecorder {
    registry: MetricsRegistry,
    stage: [MetricId; 6],
    cycles: MetricId,
    window_h: MetricId,
    issue_h: MetricId,
    branches: MetricId,
    mispredicts: MetricId,
    cache_hits: MetricId,
    cache_misses: MetricId,
    swaps: [MetricId; 2],
    stalls: [MetricId; 7],
    per_module: [[Option<PerModule>; MAX_MODULES]; 4],
    cases: [Option<[MetricId; 4]>; 4],
}

impl MetricsRecorder {
    /// A recorder with the fixed metrics pre-registered (per-module and
    /// per-case metrics appear on first use, in event order).
    pub fn new() -> Self {
        let mut registry = MetricsRegistry::new();
        let stage = Stage::ALL.map(|s| registry.counter(&format!("stage.{}", s.name())));
        let cycles = registry.gauge("cycles");
        let window_h = registry.histogram("window.occupancy", &WINDOW_BOUNDS);
        let issue_h = registry.histogram("issue.width", &ISSUE_BOUNDS);
        let branches = registry.counter("branch.executed");
        let mispredicts = registry.counter("branch.mispredicted");
        let cache_hits = registry.counter("cache.hits");
        let cache_misses = registry.counter("cache.misses");
        let swaps = [SwapKind::Rule, SwapKind::Policy]
            .map(|k| registry.counter(&format!("swaps.{}", k.name())));
        let stalls = StallReason::ALL.map(|r| registry.counter(&format!("stall.{}", r.name())));
        MetricsRecorder {
            registry,
            stage,
            cycles,
            window_h,
            issue_h,
            branches,
            mispredicts,
            cache_hits,
            cache_misses,
            swaps,
            stalls,
            per_module: [[None; MAX_MODULES]; 4],
            cases: [None; 4],
        }
    }

    /// The populated registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Consumes the recorder, returning the registry.
    pub fn into_registry(self) -> MetricsRegistry {
        self.registry
    }

    fn module_ids(&mut self, class: FuClass, module: u8) -> PerModule {
        let m = (module as usize).min(MAX_MODULES - 1);
        let slot = &mut self.per_module[class.index()][m];
        if let Some(ids) = *slot {
            return ids;
        }
        let ids = PerModule {
            switched: self
                .registry
                .counter(&format!("switched_bits.{class}.m{m}")),
            ops: self.registry.counter(&format!("ops.{class}.m{m}")),
            ham: self
                .registry
                .histogram(&format!("ham.{class}.m{m}"), &HAM_BOUNDS),
        };
        *slot = Some(ids);
        ids
    }

    fn case_ids(&mut self, class: FuClass) -> [MetricId; 4] {
        if let Some(ids) = self.cases[class.index()] {
            return ids;
        }
        let ids =
            fua_isa::Case::ALL.map(|c| self.registry.counter(&format!("steer.{class}.case{c}")));
        self.cases[class.index()] = Some(ids);
        ids
    }
}

impl Default for MetricsRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceSink for MetricsRecorder {
    fn record(&mut self, event: &TraceEvent) {
        match *event {
            TraceEvent::Stage { stage, .. } => {
                self.registry.add(self.stage[stage as usize], 1);
            }
            TraceEvent::Steer { class, case, .. } => {
                let ids = self.case_ids(class);
                self.registry.add(ids[case.index()], 1);
            }
            TraceEvent::OperandSwap { kind, .. } => {
                self.registry.add(self.swaps[kind as usize], 1);
            }
            TraceEvent::Energy {
                class,
                module,
                bits,
                ..
            } => {
                let ids = self.module_ids(class, module);
                self.registry.add(ids.switched, bits as u64);
                self.registry.add(ids.ops, 1);
                self.registry.observe(ids.ham, bits as u64);
            }
            TraceEvent::Execute { .. } => {
                self.registry.add(self.stage[Stage::Execute as usize], 1);
            }
            TraceEvent::Cache { hit, .. } => {
                let id = if hit {
                    self.cache_hits
                } else {
                    self.cache_misses
                };
                self.registry.add(id, 1);
            }
            TraceEvent::Branch {
                taken, predicted, ..
            } => {
                self.registry.add(self.branches, 1);
                if taken != predicted {
                    self.registry.add(self.mispredicts, 1);
                }
            }
            TraceEvent::Stall { reason, slots, .. } => {
                self.registry.add(self.stalls[reason.index()], slots as u64);
            }
            // Dependence records are per-instruction critical-path
            // inputs; the registry keeps aggregate counters only.
            TraceEvent::Dependence { .. } => {}
            TraceEvent::CycleSummary {
                cycle,
                window,
                issued,
            } => {
                self.registry.set(self.cycles, (cycle + 1) as f64);
                self.registry.observe(self.window_h, window as u64);
                self.registry.observe(self.issue_h, issued as u64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ToJson;
    use fua_isa::{Case, Opcode};

    #[test]
    fn energy_events_build_per_module_counters() {
        let mut rec = MetricsRecorder::new();
        for (module, bits) in [(0u8, 5u32), (1, 7), (0, 3)] {
            rec.record(&TraceEvent::Energy {
                cycle: 1,
                serial: 0,
                pc: 0,
                class: FuClass::IntAlu,
                module,
                case: Case::C00,
                bits,
            });
        }
        let reg = rec.registry();
        assert_eq!(reg.counter_value("switched_bits.IALU.m0"), Some(8));
        assert_eq!(reg.counter_value("switched_bits.IALU.m1"), Some(7));
        assert_eq!(reg.counter_value("ops.IALU.m0"), Some(2));
        assert_eq!(reg.sum_counters("switched_bits.IALU"), 15);
    }

    #[test]
    fn steer_and_swap_events_count_cases() {
        let mut rec = MetricsRecorder::new();
        rec.record(&TraceEvent::Steer {
            cycle: 0,
            serial: 0,
            class: FuClass::FpAlu,
            case: Case::C01,
            module: 2,
            swap: true,
            cost_bits: 4,
        });
        rec.record(&TraceEvent::OperandSwap {
            cycle: 0,
            serial: 0,
            class: FuClass::FpAlu,
            kind: SwapKind::Policy,
        });
        let reg = rec.registry();
        assert_eq!(reg.counter_value("steer.FPAU.case01"), Some(1));
        assert_eq!(reg.counter_value("steer.FPAU.case00"), Some(0));
        assert_eq!(reg.counter_value("swaps.policy"), Some(1));
    }

    #[test]
    fn stall_events_fill_per_reason_counters() {
        let mut rec = MetricsRecorder::new();
        rec.record(&TraceEvent::Stall {
            cycle: 0,
            class: FuClass::IntAlu,
            reason: StallReason::OperandWait,
            slots: 1,
            pc: Some(4),
            case: None,
        });
        rec.record(&TraceEvent::Stall {
            cycle: 0,
            class: FuClass::FpAlu,
            reason: StallReason::FetchStarved,
            slots: 4,
            pc: None,
            case: None,
        });
        let reg = rec.registry();
        assert_eq!(reg.counter_value("stall.operand-wait"), Some(1));
        assert_eq!(reg.counter_value("stall.fetch-starved"), Some(4));
        assert_eq!(reg.counter_value("stall.issued"), Some(0));
    }

    #[test]
    fn stage_and_cycle_events_fill_throughput_metrics() {
        let mut rec = MetricsRecorder::new();
        rec.record(&TraceEvent::Stage {
            stage: Stage::Fetch,
            cycle: 0,
            serial: 0,
            opcode: Opcode::Add,
        });
        rec.record(&TraceEvent::CycleSummary {
            cycle: 9,
            window: 3,
            issued: 2,
        });
        let reg = rec.registry();
        assert_eq!(reg.counter_value("stage.fetch"), Some(1));
        let json = reg.to_json().pretty();
        assert!(json.contains("\"cycles\": 10"));
    }
}
