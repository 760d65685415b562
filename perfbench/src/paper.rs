//! The paper's published headline numbers, read from
//! `paper_reference.json`, and the model's distance from them.

use fua_core::Headline;
use fua_trace::Json;

/// The reference data, compiled into the binary.
const REFERENCE: &str = include_str!("../paper_reference.json");

/// The paper's three headline reductions, in percent: IALU and FPAU
/// with 4-bit LUT + hardware swap, and IALU with compiler swap added.
pub fn headlines() -> [f64; 3] {
    let json = Json::parse(REFERENCE).expect("paper_reference.json is valid JSON");
    let entries = json
        .get("headlines")
        .and_then(Json::as_arr)
        .expect("paper_reference.json lists `headlines`");
    let pct = |name: &str| {
        entries
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
            .and_then(|e| e.get("paper_pct"))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("paper_reference.json lacks `{name}`"))
    };
    [
        pct("ialu_lut4_hw_pct"),
        pct("fpau_lut4_hw_pct"),
        pct("ialu_lut4_hw_compiler_pct"),
    ]
}

/// `Σ |measured − paper|` over the three headlines, in percentage points.
pub fn gap_pts(measured: &Headline) -> f64 {
    let paper = headlines();
    let ours = [
        measured.ialu_pct,
        measured.fpau_pct,
        measured.ialu_compiler_pct,
    ];
    ours.iter().zip(paper).map(|(m, p)| (m - p).abs()).sum()
}

/// The line every run prints beside the gap.
pub fn validation_note() -> String {
    let [a, b, c] = headlines();
    format!(
        "model validated only against the paper's published aggregates \
         ({a} / {b} / {c} % reduction; paper_reference.json)"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_holds_the_published_headlines() {
        assert_eq!(headlines(), [17.0, 18.0, 26.0]);
        let exact = Headline {
            ialu_pct: 17.0,
            fpau_pct: 18.0,
            ialu_compiler_pct: 26.0,
        };
        assert_eq!(gap_pts(&exact), 0.0);
        let off = Headline {
            ialu_pct: 10.0,
            fpau_pct: 20.0,
            ialu_compiler_pct: 26.5,
        };
        assert!((gap_pts(&off) - 9.5).abs() < 1e-12);
    }
}
