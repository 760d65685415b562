//! Scheme enumeration, the policy enum and the policy factory.

use std::fmt;

use fua_power::ModulePorts;
use fua_stats::CaseProfile;
use fua_vm::FuOp;

use crate::{
    FcfsPolicy, FullHamPolicy, LutBuilder, LutPolicy, ModuleChoice, OneBitHamPolicy, SteeringPolicy,
};

/// The steering schemes evaluated in the paper's Figure 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SteeringKind {
    /// First-come-first-serve baseline ("Original").
    Original,
    /// Optimal assignment over full Hamming distances ("Full Ham").
    FullHam,
    /// Optimal assignment over information bits ("1-bit Ham").
    OneBitHam,
    /// Static LUT over the cases of the first `slots` instructions
    /// (1 → 2-bit, 2 → 4-bit, 4 → 8-bit vector).
    Lut {
        /// Number of instructions encoded in the LUT's input vector.
        slots: usize,
    },
}

impl SteeringKind {
    /// Every scheme of Figure 4, in the paper's bar order.
    pub const FIGURE4: [SteeringKind; 6] = [
        SteeringKind::FullHam,
        SteeringKind::OneBitHam,
        SteeringKind::Lut { slots: 4 },
        SteeringKind::Lut { slots: 2 },
        SteeringKind::Lut { slots: 1 },
        SteeringKind::Original,
    ];
}

impl fmt::Display for SteeringKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SteeringKind::Original => f.write_str("Original"),
            SteeringKind::FullHam => f.write_str("Full Ham"),
            SteeringKind::OneBitHam => f.write_str("1-bit Ham"),
            SteeringKind::Lut { slots } => write!(f, "{}-bit LUT", 2 * slots),
        }
    }
}

/// A steering policy of any scheme. The engine holds one per duplicated
/// FU class and dispatches by `match`, so the per-cycle call is a direct
/// (inlinable) call rather than a virtual one.
#[derive(Debug, Clone)]
pub enum Policy {
    /// The FCFS baseline.
    Fcfs(FcfsPolicy),
    /// Full Hamming-distance assignment.
    FullHam(FullHamPolicy),
    /// Information-bit assignment.
    OneBitHam(OneBitHamPolicy),
    /// A static lookup table.
    Lut(LutPolicy),
}

impl SteeringPolicy for Policy {
    fn name(&self) -> &str {
        match self {
            Policy::Fcfs(p) => p.name(),
            Policy::FullHam(p) => p.name(),
            Policy::OneBitHam(p) => p.name(),
            Policy::Lut(p) => p.name(),
        }
    }

    #[inline]
    fn assign_into(
        &mut self,
        ops: &[FuOp],
        cases: &[u8],
        modules: &[ModulePorts],
        out: &mut Vec<ModuleChoice>,
    ) {
        match self {
            Policy::Fcfs(p) => p.assign_into(ops, cases, modules, out),
            Policy::FullHam(p) => p.assign_into(ops, cases, modules, out),
            Policy::OneBitHam(p) => p.assign_into(ops, cases, modules, out),
            Policy::Lut(p) => p.assign_into(ops, cases, modules, out),
        }
    }
}

/// Instantiates a steering policy.
///
/// * `profile`/`occupancy` parameterise LUT construction (ignored by the
///   other schemes);
/// * `modules` is the FU pool size, `width` the operand bit width;
/// * `allow_swap` enables cost-based swapping inside Full Ham / 1-bit Ham
///   (the LUT and Original schemes swap via
///   [`crate::HardwareSwapRule`] *before* steering instead).
///
/// # Examples
///
/// ```
/// use fua_stats::CaseProfile;
/// use fua_steer::{make_policy, SteeringKind, SteeringPolicy, PAPER_IALU_OCCUPANCY};
///
/// let policy = make_policy(
///     SteeringKind::Lut { slots: 2 },
///     &CaseProfile::paper_ialu(),
///     &PAPER_IALU_OCCUPANCY,
///     4,
///     32,
///     false,
/// );
/// assert_eq!(policy.name(), "4-bit LUT");
/// ```
pub fn make_policy(
    kind: SteeringKind,
    profile: &CaseProfile,
    occupancy: &[f64],
    modules: usize,
    width: u32,
    allow_swap: bool,
) -> Policy {
    match kind {
        SteeringKind::Original => Policy::Fcfs(FcfsPolicy::new()),
        SteeringKind::FullHam => Policy::FullHam(FullHamPolicy::new(allow_swap)),
        SteeringKind::OneBitHam => Policy::OneBitHam(OneBitHamPolicy::new(allow_swap)),
        SteeringKind::Lut { slots } => {
            let table = LutBuilder::new(*profile, width)
                .occupancy(occupancy)
                .modules(modules)
                .build(slots);
            Policy::Lut(LutPolicy::new(table))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PAPER_IALU_OCCUPANCY;

    #[test]
    fn display_matches_figure4_labels() {
        let labels: Vec<String> = SteeringKind::FIGURE4
            .iter()
            .map(|k| k.to_string())
            .collect();
        assert_eq!(
            labels,
            vec![
                "Full Ham",
                "1-bit Ham",
                "8-bit LUT",
                "4-bit LUT",
                "2-bit LUT",
                "Original"
            ]
        );
    }

    #[test]
    fn factory_builds_every_kind() {
        let profile = CaseProfile::paper_ialu();
        for kind in SteeringKind::FIGURE4 {
            let p = make_policy(kind, &profile, &PAPER_IALU_OCCUPANCY, 4, 32, true);
            assert!(!p.name().is_empty());
        }
    }
}
