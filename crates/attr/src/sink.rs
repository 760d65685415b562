//! The attribution sink: folds [`TraceEvent::Energy`] provenance into
//! per-site switched-bit counters.

use fua_isa::{Case, FuClass};
use fua_power::EnergyLedger;
use fua_trace::{SiteTable, TraceEvent, TraceSink};

use crate::MAX_MODULES;

/// One static charge site: the issuing PC plus where the charge landed
/// (FU class and module) and the information-bit case that steered it.
///
/// The ordering is derived, and every listing of sites runs in that
/// (pc, class, module, case) order regardless of the order charges
/// arrived in — the property every rendered report relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteKey {
    /// Static program counter (instruction index) of the issuing
    /// instruction.
    pub pc: u32,
    /// The FU class charged.
    pub class: FuClass,
    /// The module whose input latches toggled.
    pub module: u8,
    /// The instruction's information-bit case at steering time.
    pub case: Case,
}

/// Accumulated charges for one [`SiteKey`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteStat {
    /// Switched input bits charged at this site.
    pub bits: u64,
    /// Operations issued from this site.
    pub ops: u64,
}

/// A [`TraceSink`] that partitions the energy ledger by static site.
///
/// Every [`TraceEvent::Energy`] is counted in exactly one [`SiteKey`]
/// bucket, so the column sums reproduce the simulator's own
/// [`EnergyLedger`] bit-for-bit — see [`ledger`](AttributionSink::ledger).
/// All other events are ignored.
///
/// The table is a dense [`SiteTable`]: a block of module × case
/// counters per charged (PC, class).
///
/// # Panics
///
/// Recording a charge on a module index of [`MAX_MODULES`] or more
/// panics: the simulator never duplicates a class that often.
#[derive(Debug, Clone, Default)]
pub struct AttributionSink {
    /// Per PC and class: module-major, then case.
    table: SiteTable<SiteStat, BLOCK>,
    /// Counters with at least one operation.
    sites: usize,
}

/// Counters per (PC, class) block: every module × case.
const BLOCK: usize = MAX_MODULES * 4;

impl AttributionSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The per-site stats, in (pc, class, module, case) order.
    pub fn sites(&self) -> impl Iterator<Item = (SiteKey, SiteStat)> + '_ {
        self.table.blocks().flat_map(|(pc, class, stats)| {
            let stats = stats.iter().enumerate();
            stats
                .filter(|(_, stat)| stat.ops > 0)
                .map(move |(i, stat)| {
                    let key = SiteKey {
                        pc: pc as u32,
                        class,
                        module: (i / 4) as u8,
                        case: Case::ALL[i % 4],
                    };
                    (key, *stat)
                })
        })
    }

    /// Distinct charge sites recorded.
    pub fn site_count(&self) -> usize {
        self.sites
    }

    /// Whether no charges have been recorded.
    pub fn is_empty(&self) -> bool {
        self.sites == 0
    }

    /// Per-class switched-bit totals across all sites.
    pub fn switched_totals(&self) -> [u64; 4] {
        let mut totals = [0u64; 4];
        for (key, stat) in self.sites() {
            totals[key.class.index()] += stat.bits;
        }
        totals
    }

    /// Per-class operation totals across all sites.
    pub fn ops_totals(&self) -> [u64; 4] {
        let mut totals = [0u64; 4];
        for (key, stat) in self.sites() {
            totals[key.class.index()] += stat.ops;
        }
        totals
    }

    /// Reassembles the site partition into an [`EnergyLedger`]. For a
    /// sink that observed a whole run, this equals the simulator's own
    /// ledger bit-for-bit — the exact-partition invariant.
    pub fn ledger(&self) -> EnergyLedger {
        let mut ledger = EnergyLedger::new();
        ledger.accumulate(self.switched_totals(), self.ops_totals());
        ledger
    }

    /// Adds `stat` to `key`'s counter.
    #[inline]
    fn add(&mut self, key: SiteKey, stat: SiteStat) {
        let module = key.module as usize;
        assert!(
            module < MAX_MODULES,
            "attribution covers {MAX_MODULES} modules per class, got module {module}"
        );
        let block = self.table.block_mut(key.pc as usize, key.class);
        let slot = &mut block[module * 4 + key.case.index()];
        if slot.ops == 0 {
            self.sites += 1;
        }
        slot.bits += stat.bits;
        slot.ops += stat.ops;
    }
}

impl PartialEq for AttributionSink {
    /// Two sinks are equal when they hold the same sites with the same
    /// stats, whatever order the charges arrived in.
    fn eq(&self, other: &Self) -> bool {
        self.sites == other.sites && self.sites().eq(other.sites())
    }
}

impl Eq for AttributionSink {}

impl TraceSink for AttributionSink {
    #[inline]
    fn record(&mut self, event: &TraceEvent) {
        if let TraceEvent::Energy {
            pc,
            class,
            module,
            case,
            bits,
            ..
        } = *event
        {
            self.add(
                SiteKey {
                    pc,
                    class,
                    module,
                    case,
                },
                SiteStat {
                    bits: bits as u64,
                    ops: 1,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn energy(pc: u32, class: FuClass, module: u8, case: Case, bits: u32) -> TraceEvent {
        TraceEvent::Energy {
            cycle: 0,
            serial: 0,
            pc,
            class,
            module,
            case,
            bits,
        }
    }

    #[test]
    fn charges_partition_by_site_and_reassemble_exactly() {
        let mut sink = AttributionSink::new();
        let mut ledger = EnergyLedger::new();
        for (pc, class, module, case, bits) in [
            (3u32, FuClass::IntAlu, 0u8, Case::C00, 5u32),
            (3, FuClass::IntAlu, 0, Case::C00, 2),
            (3, FuClass::IntAlu, 1, Case::C11, 7),
            (9, FuClass::FpAlu, 2, Case::C01, 11),
        ] {
            sink.record(&energy(pc, class, module, case, bits));
            ledger.charge(class, bits);
        }
        assert_eq!(sink.site_count(), 3);
        assert_eq!(sink.ledger(), ledger);
        let first = sink.sites().next().unwrap();
        assert_eq!(first.1.bits, 7, "same-key charges accumulate");
        assert_eq!(first.1.ops, 2);
    }

    #[test]
    fn non_energy_events_are_ignored() {
        let mut sink = AttributionSink::new();
        sink.record(&TraceEvent::CycleSummary {
            cycle: 0,
            window: 3,
            issued: 1,
        });
        assert!(sink.is_empty());
    }
}
