//! Per-run steering configuration.

use fua_isa::FuClass;
use fua_steer::{
    make_policy, FcfsPolicy, HardwareSwapRule, Policy, SteeringKind, SteeringPolicy,
    PAPER_FPAU_OCCUPANCY, PAPER_IALU_OCCUPANCY,
};

/// The steering side of a simulation: one policy per duplicated FU class
/// and the optional static hardware swap rules.
///
/// # Examples
///
/// ```
/// use fua_sim::SteeringConfig;
/// use fua_steer::SteeringKind;
///
/// // The paper's recommended design point: 4-bit LUTs + hardware swap.
/// let cfg = SteeringConfig::paper_scheme(SteeringKind::Lut { slots: 2 }, true);
/// assert!(cfg.hw_swap_enabled());
/// ```
#[derive(Clone)]
pub struct SteeringConfig {
    /// IALU steering policy.
    pub ialu: Policy,
    /// FPAU steering policy.
    pub fpau: Policy,
    /// Static hardware swap rule for the IALU (case 01 in the paper).
    pub ialu_swap: Option<HardwareSwapRule>,
    /// Static hardware swap rule for the FPAU (case 10 in the paper).
    pub fpau_swap: Option<HardwareSwapRule>,
}

impl SteeringConfig {
    /// The unmodified baseline machine: FCFS everywhere, no swapping.
    pub fn original() -> Self {
        SteeringConfig {
            ialu: Policy::Fcfs(FcfsPolicy::new()),
            fpau: Policy::Fcfs(FcfsPolicy::new()),
            ialu_swap: None,
            fpau_swap: None,
        }
    }

    /// Builds a scheme the way the paper's evaluation does: the same
    /// steering kind on both duplicated FU types, LUTs parameterised by
    /// the paper's published Table-1/Table-2 statistics, and (optionally)
    /// the paper's hardware swap rules. Cost-based policies interpret
    /// `hardware_swap` as permission to swap per assignment.
    pub fn paper_scheme(kind: SteeringKind, hardware_swap: bool) -> Self {
        use fua_stats::CaseProfile;
        let ialu_profile = CaseProfile::paper_ialu();
        let fpau_profile = CaseProfile::paper_fpau();
        Self::from_profiles(kind, hardware_swap, &ialu_profile, &fpau_profile, 4, 4)
    }

    /// Builds a scheme from measured profiles (what the experiment layer
    /// does after its profiling pass), using the paper's Table-2 occupancy
    /// for LUT construction.
    pub fn from_profiles(
        kind: SteeringKind,
        hardware_swap: bool,
        ialu_profile: &fua_stats::CaseProfile,
        fpau_profile: &fua_stats::CaseProfile,
        ialu_modules: usize,
        fpau_modules: usize,
    ) -> Self {
        Self::from_profiles_with_occupancy(
            kind,
            hardware_swap,
            ialu_profile,
            fpau_profile,
            &PAPER_IALU_OCCUPANCY,
            &PAPER_FPAU_OCCUPANCY,
            ialu_modules,
            fpau_modules,
        )
    }

    /// Builds a scheme from measured profiles *and* measured occupancy
    /// distributions.
    #[allow(clippy::too_many_arguments)]
    pub fn from_profiles_with_occupancy(
        kind: SteeringKind,
        hardware_swap: bool,
        ialu_profile: &fua_stats::CaseProfile,
        fpau_profile: &fua_stats::CaseProfile,
        ialu_occupancy: &[f64],
        fpau_occupancy: &[f64],
        ialu_modules: usize,
        fpau_modules: usize,
    ) -> Self {
        let ialu = make_policy(
            kind,
            ialu_profile,
            ialu_occupancy,
            ialu_modules,
            32,
            hardware_swap,
        );
        let fpau = make_policy(
            kind,
            fpau_profile,
            fpau_occupancy,
            fpau_modules,
            fua_isa::FP_MANTISSA_BITS,
            hardware_swap,
        );
        let (ialu_swap, fpau_swap) = if hardware_swap {
            (
                Some(HardwareSwapRule::from_profile(ialu_profile)),
                Some(HardwareSwapRule::from_profile(fpau_profile)),
            )
        } else {
            (None, None)
        };
        SteeringConfig {
            ialu,
            fpau,
            ialu_swap,
            fpau_swap,
        }
    }

    /// Whether any static hardware swap rule is active.
    pub fn hw_swap_enabled(&self) -> bool {
        self.ialu_swap.is_some() || self.fpau_swap.is_some()
    }

    /// The swap rule for a duplicated class, if any.
    pub(crate) fn swap_rule(&self, class: FuClass) -> Option<&HardwareSwapRule> {
        match class {
            FuClass::IntAlu => self.ialu_swap.as_ref(),
            FuClass::FpAlu => self.fpau_swap.as_ref(),
            _ => None,
        }
    }

    /// The steering policy for a duplicated class.
    pub(crate) fn policy_mut(&mut self, class: FuClass) -> Option<&mut Policy> {
        match class {
            FuClass::IntAlu => Some(&mut self.ialu),
            FuClass::FpAlu => Some(&mut self.fpau),
            _ => None,
        }
    }
}

impl std::fmt::Debug for SteeringConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SteeringConfig")
            .field("ialu", &self.ialu.name())
            .field("fpau", &self.fpau.name())
            .field("ialu_swap", &self.ialu_swap)
            .field("fpau_swap", &self.fpau_swap)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn original_has_no_swapping() {
        let cfg = SteeringConfig::original();
        assert!(!cfg.hw_swap_enabled());
        assert_eq!(cfg.ialu.name(), "Original");
    }

    #[test]
    fn paper_scheme_derives_the_paper_swap_cases() {
        use fua_isa::Case;
        let cfg = SteeringConfig::paper_scheme(SteeringKind::Lut { slots: 2 }, true);
        assert_eq!(cfg.ialu_swap.expect("enabled").case(), Case::C01);
        assert_eq!(cfg.fpau_swap.expect("enabled").case(), Case::C10);
        assert_eq!(cfg.ialu.name(), "4-bit LUT");
    }
}
