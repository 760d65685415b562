//! Suite-wide rankings: one top-N over the rows of every workload.

use crate::{EnergyAttribution, Hotspot};

/// Ranks rows drawn from several workloads as one suite-wide table:
/// heaviest `weight` first, then by workload name, then by `tiebreak`
/// (the row's PC), keeping the first `n`.
///
/// Every suite table ranks through here — the energy and stall hotspot
/// tables, the joint energy × cycles table, the scheme-diff movers and
/// the BENCH artifact's `attribution.top_hotspots` — so no two of them
/// can order equal rows differently.
pub fn rank_suite<'a, T, W: Ord, K: Ord>(
    rows: impl IntoIterator<Item = (&'a str, T)>,
    n: usize,
    weight: impl Fn(&T) -> W,
    tiebreak: impl Fn(&T) -> K,
) -> Vec<(&'a str, T)> {
    let mut rows: Vec<(&str, T)> = rows.into_iter().collect();
    rows.sort_by(|(wa, a), (wb, b)| {
        weight(b)
            .cmp(&weight(a))
            .then_with(|| wa.cmp(wb))
            .then_with(|| tiebreak(a).cmp(&tiebreak(b)))
    });
    rows.truncate(n);
    rows
}

/// The suite-wide top-`n` energy hotspots of `attributions` (one per
/// workload), ranked by switched bits through [`rank_suite`]. Each
/// hotspot's `share_pct` is rewritten to its share of the whole suite's
/// switched bits.
pub fn suite_hotspots<'a>(
    attributions: impl IntoIterator<Item = &'a EnergyAttribution>,
    n: usize,
) -> Vec<(&'a str, Hotspot)> {
    let attributions: Vec<&EnergyAttribution> = attributions.into_iter().collect();
    let suite_bits: u64 = attributions.iter().map(|a| a.total_bits()).sum();
    let spots = attributions.iter().flat_map(|a| {
        a.hotspots(n)
            .into_iter()
            .map(move |h| (a.workload.as_str(), h))
    });
    let mut ranked = rank_suite(spots, n, |h| h.bits, |h| h.pc);
    for (_, h) in &mut ranked {
        h.share_pct = if suite_bits == 0 {
            0.0
        } else {
            100.0 * h.bits as f64 / suite_bits as f64
        };
    }
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranking_breaks_ties_by_workload_then_tiebreak() {
        let rows = [
            ("b", (5u64, 1u32)),
            ("a", (5, 2)),
            ("a", (5, 1)),
            ("c", (9, 0)),
        ];
        let ranked = rank_suite(rows, 3, |r| r.0, |r| r.1);
        assert_eq!(ranked, [("c", (9, 0)), ("a", (5, 1)), ("a", (5, 2))]);
    }
}
