//! Machine configuration.

use fua_isa::{FuClass, Opcode};

use crate::CacheConfig;

/// The modelled machine, defaulting to the paper's SimpleScalar
/// configuration: 4-wide, 4 IALUs, 1 integer multiplier/divider, 4 FPAUs,
/// 1 FP multiplier/divider.
///
/// # Examples
///
/// ```
/// use fua_isa::FuClass;
/// use fua_sim::MachineConfig;
///
/// let m = MachineConfig::default();
/// assert_eq!(m.modules(FuClass::IntAlu), 4);
/// assert_eq!(m.fetch_width, 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Instructions fetched/dispatched per cycle.
    pub fetch_width: usize,
    /// Instructions committed per cycle.
    pub commit_width: usize,
    /// Reorder-buffer entries (the in-flight window).
    pub rob_size: usize,
    /// Reservation-station entries per FU type.
    pub rs_entries: usize,
    /// Module count per FU class, indexed by [`FuClass::index`].
    pub fu_counts: [usize; 4],
    /// Memory ports: at most this many loads/stores issue per cycle
    /// (SimpleScalar's default machine has 2).
    pub mem_ports: usize,
    /// Data-cache geometry and latencies.
    pub cache: CacheConfig,
    /// Extra penalty cycles after a branch misprediction (on top of
    /// waiting for the branch to execute).
    pub mispredict_penalty: u64,
}

impl MachineConfig {
    /// The paper's default machine.
    pub fn paper_default() -> Self {
        MachineConfig {
            fetch_width: 4,
            commit_width: 4,
            rob_size: 64,
            rs_entries: 8,
            fu_counts: [4, 1, 4, 1],
            mem_ports: 2,
            cache: CacheConfig::default(),
            mispredict_penalty: 2,
        }
    }

    /// Returns the config with a different IALU/FPAU duplication (used by
    /// `fua ablation modules`).
    pub fn with_duplicated_modules(mut self, modules: usize) -> Self {
        self.fu_counts[FuClass::IntAlu.index()] = modules;
        self.fu_counts[FuClass::FpAlu.index()] = modules;
        self
    }

    /// Module count for an FU class.
    pub fn modules(&self, class: FuClass) -> usize {
        self.fu_counts[class.index()]
    }

    /// Total issue slots per cycle across every FU class — the sum of
    /// [`fu_counts`](MachineConfig::fu_counts) (10 on the paper machine).
    /// The cycle-attribution partition denominator: every cycle offers
    /// exactly `issue_width` slots, and the stall taxonomy accounts for
    /// each of them exactly once.
    pub fn issue_width(&self) -> usize {
        self.fu_counts.iter().sum()
    }

    /// Execution latency of an opcode in cycles, excluding cache misses.
    /// Latencies follow SimpleScalar's defaults: single-cycle integer
    /// ALU, 3-cycle multiply, 20-cycle divide, 2-cycle FP add, 4-cycle FP
    /// multiply, 12-cycle FP divide.
    pub fn latency(&self, op: Opcode) -> u64 {
        use Opcode::*;
        match op {
            Mul => 3,
            Div | Rem => 20,
            FMul => 4,
            FDiv => 12,
            FAdd | FSub | FCmpLt | FCmpLe | FCmpGt | FCmpGe | FCmpEq | FCmpNe | CvtIf | CvtFi
            | FNeg | FAbs | FMov => 2,
            _ => 1,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if any width or count is zero, or if a class has more than
    /// [`fua_steer::MAX_MODULES`] modules.
    pub fn validate(&self) {
        assert!(self.fetch_width >= 1);
        assert!(self.commit_width >= 1);
        assert!(self.rob_size >= self.fetch_width);
        assert!(self.rs_entries >= 1);
        assert!(self.fu_counts.iter().all(|&c| c >= 1));
        assert!(
            self.fu_counts.iter().all(|&c| c <= fua_steer::MAX_MODULES),
            "steering covers at most {} modules per class",
            fua_steer::MAX_MODULES
        );
        assert!(self.mem_ports >= 1);
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_the_evaluation_machine() {
        let m = MachineConfig::paper_default();
        m.validate();
        assert_eq!(m.modules(FuClass::IntAlu), 4);
        assert_eq!(m.modules(FuClass::IntMul), 1);
        assert_eq!(m.modules(FuClass::FpAlu), 4);
        assert_eq!(m.modules(FuClass::FpMul), 1);
        assert_eq!(m.issue_width(), 10, "4+1+4+1 issue slots per cycle");
    }

    #[test]
    fn issue_width_tracks_duplication() {
        let m = MachineConfig::default().with_duplicated_modules(2);
        assert_eq!(m.issue_width(), 6);
    }

    #[test]
    fn latencies_order_sensibly() {
        let m = MachineConfig::default();
        assert!(m.latency(Opcode::Add) < m.latency(Opcode::Mul));
        assert!(m.latency(Opcode::Mul) < m.latency(Opcode::Div));
        assert!(m.latency(Opcode::FAdd) < m.latency(Opcode::FDiv));
    }

    #[test]
    #[should_panic(expected = "steering covers at most 8 modules per class")]
    fn more_modules_than_steering_covers_are_rejected() {
        MachineConfig::default()
            .with_duplicated_modules(fua_steer::MAX_MODULES + 1)
            .validate();
    }

    #[test]
    fn module_count_ablation_helper() {
        let m = MachineConfig::default().with_duplicated_modules(2);
        assert_eq!(m.modules(FuClass::IntAlu), 2);
        assert_eq!(m.modules(FuClass::FpAlu), 2);
        assert_eq!(m.modules(FuClass::IntMul), 1);
    }
}
