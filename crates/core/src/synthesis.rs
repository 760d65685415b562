//! Section 5: routing-logic hardware cost.
//!
//! Every table is passed through the static LUT verifier
//! ([`fua_analysis::verify_lut`]) before it is costed — a cost estimate
//! for a malformed table would be meaningless, and the verifier's
//! cover-equivalence check is precisely the claim the gate count rests
//! on (the synthesised network computes what the table says).

use fua_analysis::verify_lut;
use fua_isa::{FP_MANTISSA_BITS, INT_BITS};
use fua_stats::CaseProfile;
use fua_steer::{LutBuilder, PAPER_FPAU_OCCUPANCY, PAPER_IALU_OCCUPANCY};
use fua_synth::routing_cost;
use fua_trace::TextTable;

/// One row of the hardware-cost report.
#[derive(Debug, Clone)]
pub struct SynthesisRow {
    /// The unit ("IALU" / "FPAU").
    pub unit: String,
    /// LUT vector width in bits.
    pub vector_bits: usize,
    /// Reservation-station entries.
    pub rs_entries: u32,
    /// Estimated simple gates.
    pub gates: u32,
    /// Estimated logic levels.
    pub levels: u32,
    /// Static verifier findings for the synthesised table (0 = clean).
    pub violations: usize,
}

/// The regenerated §5 cost study.
#[derive(Debug, Clone)]
pub struct SynthesisReport {
    /// All (unit, vector width, RS entries) combinations.
    pub rows: Vec<SynthesisRow>,
}

impl SynthesisReport {
    /// Renders the report, flagging the paper's two quoted design points.
    pub fn render(&self) -> String {
        let mut t = TextTable::new([
            "unit",
            "LUT",
            "RS entries",
            "gates",
            "levels",
            "verified",
            "paper",
        ]);
        for r in &self.rows {
            let paper = match (r.unit.as_str(), r.vector_bits, r.rs_entries) {
                ("IALU", 4, 8) => "58 gates / 6 levels",
                ("IALU", 4, 32) => "130 gates / 8 levels",
                _ => "-",
            };
            t.push_row([
                r.unit.clone(),
                format!("{}-bit", r.vector_bits),
                r.rs_entries.to_string(),
                r.gates.to_string(),
                r.levels.to_string(),
                if r.violations == 0 {
                    "ok".to_string()
                } else {
                    format!("{} violations", r.violations)
                },
                paper.to_string(),
            ]);
        }
        format!("Section 5: routing-logic cost estimate (fan-in-4 gates)\n{t}")
    }

    /// The row for a given design point, if present.
    pub fn row(&self, unit: &str, vector_bits: usize, rs_entries: u32) -> Option<&SynthesisRow> {
        self.rows
            .iter()
            .find(|r| r.unit == unit && r.vector_bits == vector_bits && r.rs_entries == rs_entries)
    }
}

/// Synthesises the steering LUTs of both units at every vector width and
/// the paper's two reservation-station sizes.
pub fn synthesis_report() -> SynthesisReport {
    let mut rows = Vec::new();
    let units: [(&str, CaseProfile, u32, &[f64]); 2] = [
        (
            "IALU",
            CaseProfile::paper_ialu(),
            INT_BITS,
            &PAPER_IALU_OCCUPANCY,
        ),
        (
            "FPAU",
            CaseProfile::paper_fpau(),
            FP_MANTISSA_BITS,
            &PAPER_FPAU_OCCUPANCY,
        ),
    ];
    for (unit, profile, width, occupancy) in units {
        for slots in [1usize, 2, 4] {
            let lut = LutBuilder::new(profile, width)
                .occupancy(occupancy)
                .modules(4)
                .build(slots);
            let violations = verify_lut(&lut).len();
            for rs_entries in [8u32, 32] {
                let est = routing_cost(&lut, rs_entries, 4);
                rows.push(SynthesisRow {
                    unit: unit.to_string(),
                    vector_bits: lut.vector_bits(),
                    rs_entries,
                    gates: est.gates,
                    levels: est.levels,
                    violations,
                });
            }
        }
    }
    SynthesisReport { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_covers_both_units_and_all_widths() {
        let r = synthesis_report();
        assert_eq!(r.rows.len(), 2 * 3 * 2);
        assert!(r.row("IALU", 4, 8).is_some());
        assert!(r.row("FPAU", 8, 32).is_some());
    }

    #[test]
    fn costs_scale_with_rs_entries() {
        let r = synthesis_report();
        let small = r.row("IALU", 4, 8).expect("present");
        let large = r.row("IALU", 4, 32).expect("present");
        assert!(large.gates > small.gates);
        assert!(large.levels > small.levels);
        // Same regime as the paper's 58-gate / 6-level claim.
        assert!((20..=120).contains(&small.gates), "{small:?}");
    }

    #[test]
    fn render_flags_the_paper_design_points() {
        let s = synthesis_report().render();
        assert!(s.contains("58 gates / 6 levels"));
        assert!(s.contains("130 gates / 8 levels"));
    }

    #[test]
    fn every_synthesised_table_passes_the_verifier() {
        let r = synthesis_report();
        for row in &r.rows {
            assert_eq!(
                row.violations, 0,
                "{} {}-bit LUT fails static verification",
                row.unit, row.vector_bits
            );
        }
        assert!(r.render().contains("ok"));
    }
}
