//! Per-workload breakdown of the recommended design point.
//!
//! The paper reports suite aggregates; this breakdown shows which
//! programs drive them — the per-benchmark view any reviewer of the
//! original would have asked for.

use fua_trace::TextTable;

use crate::observe::original_and_observed;
use crate::{ExperimentConfig, Unit};

/// One workload's results under Original vs the 4-bit LUT + hardware
/// swapping.
#[derive(Debug, Clone)]
pub struct BreakdownRow {
    /// Workload name.
    pub workload: String,
    /// Baseline switched bits on the measured unit.
    pub baseline_bits: u64,
    /// Steered switched bits.
    pub steered_bits: u64,
    /// Reduction (percent).
    pub reduction_pct: f64,
    /// Baseline instructions per cycle.
    pub ipc: f64,
    /// Branch misprediction rate (percent).
    pub mispredict_pct: f64,
    /// D-cache hit rate (percent).
    pub cache_hit_pct: f64,
}

/// Per-workload results for one unit.
#[derive(Debug, Clone)]
pub struct WorkloadBreakdown {
    /// The unit measured.
    pub unit: Unit,
    /// One row per workload, plus microarchitectural context.
    pub rows: Vec<BreakdownRow>,
}

impl WorkloadBreakdown {
    /// Renders the breakdown.
    pub fn render(&self) -> String {
        let mut t = TextTable::new([
            "workload",
            "baseline",
            "steered",
            "reduction",
            "IPC",
            "mispredict",
            "D$ hit",
        ]);
        for r in &self.rows {
            t.push_row([
                r.workload.clone(),
                r.baseline_bits.to_string(),
                r.steered_bits.to_string(),
                format!("{:.1}%", r.reduction_pct),
                format!("{:.2}", r.ipc),
                format!("{:.1}%", r.mispredict_pct),
                format!("{:.1}%", r.cache_hit_pct),
            ]);
        }
        format!(
            "Per-workload breakdown, {} (4-bit LUT + hardware swapping)\n{t}",
            self.unit
        )
    }
}

/// Runs every workload of the unit's suite once, with a steering lane
/// for Original and one for the recommended design point, each
/// measuring only the unit's class.
pub fn workload_breakdown(unit: Unit, config: &ExperimentConfig) -> WorkloadBreakdown {
    let class = unit.fu_class();
    let rows = unit
        .suite(config.scale)
        .iter()
        .map(|w| {
            let [base, opt] = original_and_observed(config, w, Some(class));
            let baseline_bits = base.ledger.switched_bits(class);
            let steered_bits = opt.ledger.switched_bits(class);
            BreakdownRow {
                workload: w.name.to_string(),
                baseline_bits,
                steered_bits,
                reduction_pct: if baseline_bits == 0 {
                    0.0
                } else {
                    100.0 * (1.0 - steered_bits as f64 / baseline_bits as f64)
                },
                ipc: base.ipc(),
                mispredict_pct: 100.0 * base.branches.mispredict_rate(),
                cache_hit_pct: 100.0 * base.cache.hit_rate(),
            }
        })
        .collect();
    WorkloadBreakdown { unit, rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_covers_the_whole_suite() {
        let b = workload_breakdown(Unit::Ialu, &ExperimentConfig::quick());
        assert_eq!(b.rows.len(), 7);
        assert!(b.rows.iter().all(|r| r.baseline_bits > 0));
        // Most integer workloads must benefit at this design point.
        let winners = b.rows.iter().filter(|r| r.reduction_pct > 0.0).count();
        assert!(winners >= 4, "only {winners}/7 workloads improved");
        assert!(b.render().contains("Per-workload"));
    }
}
