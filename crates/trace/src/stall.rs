//! Cycle attribution sinks: the exact stall-slot partition and the
//! dependence records critical-path extraction consumes.
//!
//! [`StallSink`] mirrors the energy `AttributionSink` design: every
//! [`Stall`](crate::TraceEvent::Stall) event lands in exactly one
//! [`StallKey`] counter of a dense [`SiteTable`], so totals reassemble the
//! machine's issue bandwidth bit-for-bit (`cycles × issue_width`
//! slots), and [`StallSink::sites`] lists sites in key order whatever
//! order the stalls arrived in.

use fua_isa::{Case, FuClass};

use crate::{SiteTable, StallReason, TraceEvent, TraceSink};

/// One stall-slot charge site: the culprit PC (if any), the FU class
/// owning the slot, the taxonomy reason, and the culprit's
/// information-bit case where one exists.
///
/// The ordering is derived, and [`StallSink::sites`] lists sites in it,
/// so every rendered table and export is deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StallKey {
    /// Static PC of the culprit instruction (`None` = fetch-starved
    /// with no culprit).
    pub pc: Option<u32>,
    /// The FU class the slots belong to.
    pub class: FuClass,
    /// What the slots were spent on.
    pub reason: StallReason,
    /// The culprit's information-bit case, where one exists.
    pub case: Option<Case>,
}

/// Accumulates the stall-slot partition of a run: every issue slot of
/// every cycle counted in exactly one [`StallKey`] counter of a dense
/// [`SiteTable`], one row per culprit (row 0: none; row `pc + 1`:
/// static PC `pc`).
#[derive(Debug, Clone, Default)]
pub struct StallSink {
    /// Per culprit and class: reason-major, then case (`None` first,
    /// then [`Case::ALL`]).
    table: SiteTable<u64, BLOCK>,
}

/// Case slots per reason: no case, then every [`Case`].
const CASES: usize = 1 + Case::ALL.len();

/// Counters per (culprit, class) block.
const BLOCK: usize = StallReason::ALL.len() * CASES;

impl StallSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The per-site slot counts, in (pc, class, reason, case) order —
    /// the derived [`StallKey`] order, whatever order the stalls
    /// arrived in.
    pub fn sites(&self) -> impl Iterator<Item = (StallKey, u64)> + '_ {
        self.table.blocks().flat_map(|(row, class, counts)| {
            let counts = counts.iter().enumerate();
            counts
                .filter(|(_, &slots)| slots > 0)
                .map(move |(i, &slots)| {
                    let key = StallKey {
                        pc: row.checked_sub(1).map(|pc| pc as u32),
                        class,
                        reason: StallReason::ALL[i / CASES],
                        case: (i % CASES).checked_sub(1).map(|c| Case::ALL[c]),
                    };
                    (key, slots)
                })
        })
    }

    /// Total slots accounted across every site — must equal
    /// `cycles × issue_width` for an instrumented run (the
    /// exact-partition invariant).
    pub fn total_slots(&self) -> u64 {
        self.sites().map(|(_, slots)| slots).sum()
    }

    /// Slot totals per [`StallReason`], in [`StallReason::ALL`] order.
    pub fn reason_totals(&self) -> [u64; 7] {
        let mut totals = [0u64; 7];
        for (key, slots) in self.sites() {
            totals[key.reason.index()] += slots;
        }
        totals
    }

    /// Adds `slots` to `key`'s counter.
    #[inline]
    fn add(&mut self, key: StallKey, slots: u64) {
        let row = key.pc.map_or(0, |pc| pc as usize + 1);
        let case = key.case.map_or(0, |c| c.index() + 1);
        self.table.block_mut(row, key.class)[key.reason.index() * CASES + case] += slots;
    }
}

impl PartialEq for StallSink {
    /// Two sinks are equal when they hold the same sites with the same
    /// slot counts, whatever order the stalls arrived in.
    fn eq(&self, other: &Self) -> bool {
        self.sites().eq(other.sites())
    }
}

impl Eq for StallSink {}

impl TraceSink for StallSink {
    #[inline]
    fn record(&mut self, event: &TraceEvent) {
        if let TraceEvent::Stall {
            class,
            reason,
            slots,
            pc,
            case,
            ..
        } = *event
        {
            let key = StallKey {
                pc,
                class,
                reason,
                case,
            };
            self.add(key, u64::from(slots));
        }
    }
}

/// One instruction's lifecycle record assembled by [`DepSink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepRecord {
    /// Dynamic program-order serial.
    pub serial: u64,
    /// Static program counter.
    pub pc: u32,
    /// Dispatch (rename) cycle.
    pub dispatch_cycle: u64,
    /// Issue cycle (`None` for instructions with no FU — they complete
    /// the cycle after dispatch without issuing).
    pub issue_cycle: Option<u64>,
    /// Completion cycle.
    pub done_cycle: u64,
    /// Producer serials feeding the source operands.
    pub deps: [Option<u64>; 2],
}

/// Collects per-instruction dependence and timing records, one per
/// dynamic instruction, for retirement critical-path extraction.
///
/// Records are stored in serial order (dispatch is in program order),
/// so [`records`](DepSink::records) indexes by serial directly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DepSink {
    records: Vec<DepRecord>,
}

impl DepSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Every record, in dynamic-serial order.
    pub fn records(&self) -> &[DepRecord] {
        &self.records
    }

    /// The record for a dynamic serial, if it was dispatched.
    pub fn record_of(&self, serial: u64) -> Option<&DepRecord> {
        self.records.get(serial as usize)
    }
}

impl TraceSink for DepSink {
    fn record(&mut self, event: &TraceEvent) {
        match *event {
            TraceEvent::Dependence {
                cycle,
                serial,
                pc,
                dep1,
                dep2,
            } => {
                debug_assert_eq!(serial as usize, self.records.len());
                self.records.push(DepRecord {
                    serial,
                    pc,
                    dispatch_cycle: cycle,
                    issue_cycle: None,
                    done_cycle: cycle + 1,
                    deps: [dep1, dep2],
                });
            }
            TraceEvent::Execute { cycle, serial, .. } => {
                if let Some(rec) = self.records.get_mut(serial as usize) {
                    rec.issue_cycle = Some(cycle);
                }
            }
            TraceEvent::Stage {
                stage: crate::Stage::Writeback,
                cycle,
                serial,
                ..
            } => {
                if let Some(rec) = self.records.get_mut(serial as usize) {
                    rec.done_cycle = cycle;
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stall(cycle: u64, reason: StallReason, slots: u32, pc: Option<u32>) -> TraceEvent {
        TraceEvent::Stall {
            cycle,
            class: FuClass::IntAlu,
            reason,
            slots,
            pc,
            case: None,
        }
    }

    #[test]
    fn stall_sink_partitions_slots_by_site() {
        let mut sink = StallSink::new();
        sink.record(&stall(0, StallReason::Issued, 1, Some(3)));
        sink.record(&stall(0, StallReason::FetchStarved, 3, None));
        sink.record(&stall(1, StallReason::Issued, 1, Some(3)));
        assert_eq!(sink.total_slots(), 5);
        assert_eq!(sink.sites().count(), 2);
        let totals = sink.reason_totals();
        assert_eq!(totals[StallReason::Issued.index()], 2);
        assert_eq!(totals[StallReason::FetchStarved.index()], 3);
    }

    #[test]
    fn dep_sink_assembles_lifecycle_records() {
        let mut sink = DepSink::new();
        sink.record(&TraceEvent::Dependence {
            cycle: 0,
            serial: 0,
            pc: 0,
            dep1: None,
            dep2: None,
        });
        sink.record(&TraceEvent::Dependence {
            cycle: 0,
            serial: 1,
            pc: 1,
            dep1: Some(0),
            dep2: None,
        });
        sink.record(&TraceEvent::Execute {
            cycle: 2,
            serial: 1,
            class: FuClass::IntAlu,
            module: 0,
            latency: 1,
            opcode: fua_isa::Opcode::Add,
        });
        sink.record(&TraceEvent::Stage {
            stage: crate::Stage::Writeback,
            cycle: 3,
            serial: 1,
            opcode: fua_isa::Opcode::Add,
        });
        let rec = sink.record_of(1).unwrap();
        assert_eq!(rec.deps, [Some(0), None]);
        assert_eq!(rec.issue_cycle, Some(2));
        assert_eq!(rec.done_cycle, 3);
        assert_eq!(sink.record_of(0).unwrap().issue_cycle, None);
    }
}
