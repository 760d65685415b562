//! Listings of the bundled workloads: the `fua workloads` table and the
//! `fua analyze` per-instruction information-bit predictions.

use fua_analysis::{AbsBit, InfoBitAnalysis};
use fua_trace::TextTable;
use fua_workloads::Workload;

/// The `fua workloads` table: every bundled workload at `scale` with its
/// category, static size and description.
pub fn workload_table(scale: u32) -> TextTable {
    let mut t = TextTable::new(["name", "category", "static insts", "description"]);
    for w in fua_workloads::all(scale) {
        t.push_row([
            w.name.to_string(),
            w.category.to_string(),
            w.program.len().to_string(),
            w.description.to_string(),
        ]);
    }
    t
}

/// Renders an abstract bit as `0`, `1`, or `?`.
fn bit_glyph(bit: AbsBit) -> &'static str {
    match bit.definite() {
        Some(false) => "0",
        Some(true) => "1",
        None => "?",
    }
}

/// The `fua analyze` report: `w`'s static information-bit prediction for
/// every FU instruction (unreachable instructions marked), then how many
/// have a definite steering case.
pub fn info_bit_report(w: &Workload) -> String {
    let analysis = InfoBitAnalysis::run(&w.program);
    let mut t = TextTable::new(["#", "op", "class", "op1", "op2", "case"]);
    for idx in 0..w.program.len() {
        let op = w.program.inst(idx).op.to_string();
        if !analysis.is_reachable(idx) {
            t.push_row([
                idx.to_string(),
                op,
                "-".into(),
                "-".into(),
                "-".into(),
                "unreachable".into(),
            ]);
            continue;
        }
        let Some(p) = analysis.prediction(idx) else {
            continue; // j/halt/fli occupy no FU
        };
        t.push_row([
            idx.to_string(),
            op,
            p.class.to_string(),
            bit_glyph(p.op1).to_string(),
            bit_glyph(p.op2).to_string(),
            p.case().map_or_else(|| "?".to_string(), |c| c.to_string()),
        ]);
    }
    let (with_fu, definite) = analysis.coverage();
    format!(
        "{}: static information-bit predictions (sign / low-4-mantissa domains)\n{t}\
         {definite}/{with_fu} FU instructions with a definite case",
        w.name
    )
}
