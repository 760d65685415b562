//! The practical scheme of Section 4.3: a static lookup table indexed by
//! the concatenated cases of the first few ready instructions.

use fua_isa::Case;
use fua_power::ModulePorts;
use fua_stats::CaseProfile;
use fua_vm::FuOp;

use crate::{min_cost_assignment, ModuleChoice, SteeringPolicy};

/// The paper's Table-2 occupancy distribution for the IALU
/// (`P(Num(I)=k | Num(I)>=1)`, k = 1..4).
pub const PAPER_IALU_OCCUPANCY: [f64; 4] = [0.403, 0.362, 0.194, 0.042];

/// The paper's Table-2 occupancy distribution for the FPAU.
pub const PAPER_FPAU_OCCUPANCY: [f64; 4] = [0.902, 0.092, 0.005, 0.001];

/// How the builder picks each module's *home case*.
///
/// The paper uses two different strategies and justifies the choice by the
/// occupancy distribution (Table 2): for the heavily multi-issued IALU it
/// replicates the dominant case ("we assign three of the modules as being
/// likely to contain case 00"); for the rarely multi-issued FPAU it gives
/// every case its own module ("the best strategy is to first attempt to
/// assign a unique case to each module").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HomeStrategy {
    /// The paper's recipe: proportional when `P(Num(I) >= 2)` is high,
    /// unique-case-per-module when it is low.
    #[default]
    Auto,
    /// One module per case, in descending frequency order (extra modules
    /// beyond four are filled proportionally).
    Unique,
    /// D'Hondt proportional allocation over the expected per-cycle case
    /// counts `freq(case) · E[Num(I)]`.
    Proportional,
    /// Exhaustive search minimising expected cost under an
    /// independent-bits steady-state model (kept as an ablation; see
    /// DESIGN.md §5).
    Search,
}

/// A built steering LUT: for every possible *vector* (the concatenated
/// cases of the first `slots` instructions) the module each of those
/// instructions should issue to.
///
/// Vector encoding: slot `i`'s case occupies bits `[2i, 2i+1]` of the
/// index, i.e. `index = Σ case_i · 4^i`. Slots beyond the number of ready
/// instructions are padded with the profile's least-frequent case, exactly
/// as the paper specifies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LutTable {
    slots: usize,
    modules: usize,
    homes: Vec<Case>,
    least: Case,
    entries: Vec<Vec<u8>>,
}

impl LutTable {
    /// Assembles a table directly from its parts, without rerunning the
    /// builder. Intended for verifiers and tests that need to construct
    /// (possibly deliberately malformed) tables; the module indices in
    /// `entries` are **not** validated here — that is the verifier's
    /// job.
    ///
    /// # Panics
    ///
    /// Panics if the shape is inconsistent: `homes` must have one entry
    /// per module and `entries` must hold `4^slots` rows of `slots`
    /// assignments each.
    pub fn from_parts(
        slots: usize,
        modules: usize,
        homes: Vec<Case>,
        least: Case,
        entries: Vec<Vec<u8>>,
    ) -> Self {
        assert_eq!(homes.len(), modules, "one home case per module");
        assert_eq!(entries.len(), 1 << (2 * slots), "4^slots vectors");
        assert!(
            entries.iter().all(|e| e.len() == slots),
            "one module per slot in every entry"
        );
        LutTable {
            slots,
            modules,
            homes,
            least,
            entries,
        }
    }

    /// Number of instructions encoded in the vector.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Width of the vector in bits (2 bits per slot).
    pub fn vector_bits(&self) -> usize {
        2 * self.slots
    }

    /// Number of modules the table routes to.
    pub fn modules(&self) -> usize {
        self.modules
    }

    /// The *home case* chosen for each module during construction.
    pub fn homes(&self) -> &[Case] {
        &self.homes
    }

    /// The least-frequent case, used for padding short cycles.
    pub fn least_case(&self) -> Case {
        self.least
    }

    /// The module assignment stored for a vector index.
    ///
    /// # Panics
    ///
    /// Panics if `vector >= 4^slots`.
    pub fn entry(&self, vector: usize) -> &[u8] {
        &self.entries[vector]
    }

    /// Encodes the cases of this cycle's ready instructions into a vector
    /// index, padding missing slots with the least case.
    pub fn encode(&self, cases: &[Case]) -> usize {
        self.encode_bits(cases.iter().map(|c| c.index() as u8))
    }

    /// As [`encode`](LutTable::encode), over cases given as 2-bit
    /// indices ([`FuOp::case_bits`]).
    fn encode_bits(&self, cases: impl IntoIterator<Item = u8>) -> usize {
        let mut cases = cases.into_iter();
        (0..self.slots)
            .map(|slot| {
                let case = cases.next().unwrap_or(self.least.index() as u8);
                (case as usize) << (2 * slot)
            })
            .sum()
    }
}

/// Builds a [`LutTable`] from profiled case statistics, per Section 4.3:
/// choose a *home case* for each module from the case and occupancy
/// distributions, then fill every LUT entry with the best matching of
/// vector cases to module homes (information-bit distance first, expected
/// switched bits as tie-break).
///
/// # Examples
///
/// ```
/// use fua_stats::CaseProfile;
/// use fua_steer::{LutBuilder, PAPER_IALU_OCCUPANCY};
///
/// let lut = LutBuilder::new(CaseProfile::paper_ialu(), 32)
///     .occupancy(&PAPER_IALU_OCCUPANCY)
///     .modules(4)
///     .build(2); // 4-bit vector
/// assert_eq!(lut.vector_bits(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct LutBuilder {
    profile: CaseProfile,
    width: u32,
    modules: usize,
    occupancy: Vec<f64>,
    strategy: HomeStrategy,
}

impl LutBuilder {
    /// Creates a builder for operands `width` bits wide (32 for the IALU,
    /// 52 for the FPAU's mantissa view), defaulting to 4 modules, the
    /// paper's IALU occupancy, and the [`HomeStrategy::Auto`] recipe.
    pub fn new(profile: CaseProfile, width: u32) -> Self {
        LutBuilder {
            profile,
            width,
            modules: 4,
            occupancy: PAPER_IALU_OCCUPANCY.to_vec(),
            strategy: HomeStrategy::Auto,
        }
    }

    /// Sets the number of modules.
    ///
    /// # Panics
    ///
    /// Panics if `modules` is 0.
    pub fn modules(mut self, modules: usize) -> Self {
        assert!(modules >= 1);
        self.modules = modules;
        self
    }

    /// Sets the occupancy distribution `P(Num(I)=k | Num(I)>=1)` for
    /// k = 1..=len.
    pub fn occupancy(mut self, occupancy: &[f64]) -> Self {
        self.occupancy = occupancy.to_vec();
        self
    }

    /// Sets the home-selection strategy.
    pub fn strategy(mut self, strategy: HomeStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Builds the table with `slots` instructions encoded in the vector
    /// (1 → 2-bit, 2 → 4-bit, 4 → 8-bit). Slots are capped at the module
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is 0.
    pub fn build(&self, slots: usize) -> LutTable {
        assert!(slots >= 1, "at least one slot");
        let slots = slots.min(self.modules);
        let homes = self.choose_homes();
        let least = self.profile.least_case();
        // Slot i's matching cost is weighted by P(Num(I) > i): a slot that
        // is almost always padding (FPAU slots 2-3, say) must not distort
        // the assignment of the slots that almost always hold real
        // instructions.
        let weights: Vec<f64> = (0..slots).map(|s| self.slot_real_prob(s)).collect();
        let entries = (0..(1usize << (2 * slots)))
            .map(|vector| {
                let cases: Vec<Case> = (0..slots)
                    .map(|s| Case::from_index(((vector >> (2 * s)) & 3) as u8))
                    .collect();
                self.match_cases_weighted(&cases, &homes, &weights)
                    .into_iter()
                    .map(|m| m as u8)
                    .collect()
            })
            .collect();
        LutTable {
            slots,
            modules: self.modules,
            homes,
            least,
            entries,
        }
    }

    /// Expected mean of `Num(I)` over busy cycles.
    fn mean_occupancy(&self) -> f64 {
        self.occupancy
            .iter()
            .take(self.modules)
            .enumerate()
            .map(|(i, p)| (i + 1) as f64 * p)
            .sum()
    }

    /// `P(Num(I) >= 2 | Num(I) >= 1)`.
    fn multi_issue_prob(&self) -> f64 {
        self.occupancy
            .iter()
            .take(self.modules)
            .skip(1)
            .sum::<f64>()
    }

    /// Matching cost of issuing a `case` instruction to a module homed at
    /// `home`: information-bit distance dominates (homogeneous streams are
    /// the whole point), expected switched bits break ties between home
    /// *cases*, and a small index-dependent term breaks ties between
    /// *replicated* homes so different cases spread over different copies.
    fn match_cost(&self, home: Case, case: Case, module: usize) -> u32 {
        let info_dist =
            (home.op1_bit() != case.op1_bit()) as u32 + (home.op2_bit() != case.op2_bit()) as u32;
        let expected =
            (self.profile.expected_pair_cost(home, case, self.width) * 10.0).round() as u32;
        let tie = if home == case {
            module as u32
        } else {
            (2 * self.modules - module) as u32
        };
        info_dist * 1_000_000 + expected * 100 + tie
    }

    /// `P(Num(I) > slot | Num(I) >= 1)`: the probability that a vector
    /// slot holds a real instruction rather than padding.
    fn slot_real_prob(&self, slot: usize) -> f64 {
        if slot == 0 {
            return 1.0;
        }
        self.occupancy
            .iter()
            .take(self.modules)
            .skip(slot)
            .sum::<f64>()
            .clamp(0.0, 1.0)
    }

    /// Minimum-cost injective matching of instruction cases to module
    /// homes. [`min_cost_assignment`] breaks ties in favour of earlier
    /// slots, so the least-case padding of short cycles cannot steal a
    /// real instruction's best module.
    fn match_cases(&self, cases: &[Case], homes: &[Case]) -> Vec<usize> {
        let weights = vec![1.0; cases.len()];
        self.match_cases_weighted(cases, homes, &weights)
    }

    /// As [`LutBuilder::match_cases`], but scaling each slot's cost by the
    /// probability that the slot is real.
    fn match_cases_weighted(&self, cases: &[Case], homes: &[Case], weights: &[f64]) -> Vec<usize> {
        let cost: Vec<Vec<u32>> = cases
            .iter()
            .zip(weights)
            .map(|(&c, &w)| {
                homes
                    .iter()
                    .enumerate()
                    .map(|(m, &h)| (w * 1024.0 * self.match_cost(h, c, m) as f64).round() as u32)
                    .collect()
            })
            .collect();
        min_cost_assignment(&cost)
    }

    fn choose_homes(&self) -> Vec<Case> {
        match self.strategy {
            HomeStrategy::Auto => {
                if self.multi_issue_prob() < 0.2 {
                    self.unique_homes()
                } else {
                    self.proportional_homes()
                }
            }
            HomeStrategy::Unique => self.unique_homes(),
            HomeStrategy::Proportional => self.proportional_homes(),
            HomeStrategy::Search => self.search_homes(),
        }
    }

    /// Cases in descending frequency order.
    fn cases_by_frequency(&self) -> Vec<Case> {
        let mut cases = Case::ALL.to_vec();
        cases.sort_by(|a, b| {
            self.profile.case_freq[b.index()].total_cmp(&self.profile.case_freq[a.index()])
        });
        cases
    }

    /// One module per case in frequency order; extra modules (beyond four)
    /// are filled proportionally.
    fn unique_homes(&self) -> Vec<Case> {
        let ranked = self.cases_by_frequency();
        let mut homes: Vec<Case> = ranked.iter().copied().take(self.modules).collect();
        while homes.len() < self.modules {
            // More modules than cases: replicate proportionally.
            let extra = self.proportional_homes();
            homes.push(extra[homes.len() % extra.len()]);
        }
        homes
    }

    /// D'Hondt proportional allocation over expected per-cycle case counts.
    fn proportional_homes(&self) -> Vec<Case> {
        let mean = self.mean_occupancy().max(1.0);
        let lambda: Vec<f64> = Case::ALL
            .iter()
            .map(|c| self.profile.case_freq[c.index()] * mean)
            .collect();
        let mut seats = [0usize; 4];
        let mut homes = Vec::with_capacity(self.modules);
        for _ in 0..self.modules {
            let (idx, _) = lambda
                .iter()
                .enumerate()
                .map(|(i, &l)| (i, l / (seats[i] + 1) as f64))
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .expect("four cases");
            seats[idx] += 1;
            homes.push(Case::from_index(idx as u8));
        }
        homes
    }

    /// Exhaustive search under an independent-bits steady-state model
    /// (each module's latches assumed to hold its home case). Kept as an
    /// ablation: the independence assumption undervalues same-case value
    /// correlation and can concentrate homes on the lowest-density case.
    fn search_homes(&self) -> Vec<Case> {
        if self.modules > 6 {
            return self.proportional_homes();
        }
        let mut best: Option<(f64, Vec<Case>)> = None;
        for encoded in 0..4usize.pow(self.modules as u32) {
            let homes: Vec<Case> = (0..self.modules)
                .map(|m| Case::from_index(((encoded >> (2 * m)) & 3) as u8))
                .collect();
            let cost = self.expected_cycle_cost(&homes);
            match &best {
                Some((c, _)) if *c <= cost => {}
                _ => best = Some((cost, homes)),
            }
        }
        best.expect("at least one combination").1
    }

    /// Expected switched bits of one busy cycle for [`HomeStrategy::Search`].
    fn expected_cycle_cost(&self, homes: &[Case]) -> f64 {
        let max_k = self.modules.min(self.occupancy.len()).min(4);
        let mut total = 0.0;
        for k in 1..=max_k {
            let p_k = self.occupancy[k - 1];
            if p_k <= 0.0 {
                continue;
            }
            for encoded in 0..4usize.pow(k as u32) {
                let cases: Vec<Case> = (0..k)
                    .map(|i| Case::from_index(((encoded >> (2 * i)) & 3) as u8))
                    .collect();
                let p_vec: f64 = cases
                    .iter()
                    .map(|c| self.profile.case_freq[c.index()])
                    .product();
                if p_vec <= 0.0 {
                    continue;
                }
                let assignment = self.match_cases(&cases, homes);
                let cost: f64 = assignment
                    .iter()
                    .zip(&cases)
                    .map(|(&m, &c)| self.profile.expected_pair_cost(homes[m], c, self.width))
                    .sum();
                total += p_k * p_vec * cost;
            }
        }
        total
    }
}

/// The runtime steering policy wrapping a built [`LutTable`]: encode this
/// cycle's cases, index the table, place any instructions beyond the
/// vector's slots on the remaining modules first-come-first-served.
/// It reads the cases the caller passes and keeps no per-cycle buffers:
/// steady-state assignment allocates nothing.
#[derive(Debug, Clone)]
pub struct LutPolicy {
    table: LutTable,
    name: String,
}

impl LutPolicy {
    /// Wraps a built table.
    pub fn new(table: LutTable) -> Self {
        let name = format!("{}-bit LUT", table.vector_bits());
        LutPolicy { table, name }
    }

    /// The underlying table (e.g. for gate-level synthesis).
    pub fn table(&self) -> &LutTable {
        &self.table
    }
}

impl SteeringPolicy for LutPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn assign_into(
        &mut self,
        ops: &[FuOp],
        cases: &[u8],
        modules: &[ModulePorts],
        out: &mut Vec<ModuleChoice>,
    ) {
        debug_assert!(ops.len() <= modules.len());
        let entry = self
            .table
            .entry(self.table.encode_bits(cases.iter().copied()));
        out.clear();
        let seen = ops.len().min(self.table.slots());
        let mut used = 0u64;
        for &m in entry.iter().take(seen) {
            used |= 1 << m;
            out.push(ModuleChoice {
                module: m as usize,
                swap: false,
            });
        }
        // Instructions the short vector could not see are routed blind:
        // the routing logic's only input is the vector, so no case
        // information exists for them — first free module, as a plain
        // Tomasulo router would.
        for _ in seen..ops.len() {
            let m = (!used).trailing_zeros() as usize;
            debug_assert!(m < modules.len(), "ops never outnumber modules");
            used |= 1 << m;
            out.push(ModuleChoice {
                module: m,
                swap: false,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::validate_choices;
    use fua_isa::{FuClass, Word, FP_MANTISSA_BITS, INT_BITS};

    fn ialu_lut(slots: usize) -> LutTable {
        LutBuilder::new(CaseProfile::paper_ialu(), INT_BITS)
            .occupancy(&PAPER_IALU_OCCUPANCY)
            .modules(4)
            .build(slots)
    }

    fn fpau_lut(slots: usize) -> LutTable {
        LutBuilder::new(CaseProfile::paper_fpau(), FP_MANTISSA_BITS)
            .occupancy(&PAPER_FPAU_OCCUPANCY)
            .modules(4)
            .build(slots)
    }

    #[test]
    fn ialu_homes_reproduce_the_paper() {
        // Paper: "case 00 is by far the most common, so we assign three of
        // the modules as being likely to contain case 00, and we use the
        // fourth module for all three other cases" — the fourth home lands
        // on the most frequent remaining case (10).
        let lut = ialu_lut(2);
        let mut homes = lut.homes().to_vec();
        homes.sort_unstable();
        assert_eq!(homes, vec![Case::C00, Case::C00, Case::C00, Case::C10]);
    }

    #[test]
    fn fpau_homes_cover_distinct_cases() {
        // Paper: "because it is unlikely that two modules will be needed at
        // once, the best strategy is to first attempt to assign a unique
        // case to each module".
        let lut = fpau_lut(2);
        let mut homes: Vec<Case> = lut.homes().to_vec();
        homes.sort_unstable();
        homes.dedup();
        assert_eq!(
            homes.len(),
            4,
            "expected one home per case, got {:?}",
            lut.homes()
        );
    }

    #[test]
    fn home_strategies_differ_where_expected() {
        let unique = LutBuilder::new(CaseProfile::paper_ialu(), INT_BITS)
            .strategy(HomeStrategy::Unique)
            .build(2);
        let mut homes = unique.homes().to_vec();
        homes.sort_unstable();
        homes.dedup();
        assert_eq!(homes.len(), 4, "unique strategy gives distinct homes");

        let search = LutBuilder::new(CaseProfile::paper_fpau(), FP_MANTISSA_BITS)
            .occupancy(&PAPER_FPAU_OCCUPANCY)
            .strategy(HomeStrategy::Search)
            .build(2);
        assert_eq!(search.homes().len(), 4);
    }

    #[test]
    fn ialu_least_case_is_11() {
        assert_eq!(ialu_lut(1).least_case(), Case::C11);
    }

    #[test]
    fn single_case_routes_to_its_home_when_unique() {
        let lut = fpau_lut(1);
        for case in Case::ALL {
            let vector = lut.encode(&[case]);
            let module = lut.entry(vector)[0] as usize;
            assert_eq!(
                lut.homes()[module],
                case,
                "case {case} should reach its home module"
            );
        }
    }

    #[test]
    fn replicated_homes_spread_distinct_cases() {
        // IALU homes are three 00s + one 10. A lone 00 op and a lone 01 op
        // must land on *different* modules so their streams stay separate.
        let lut = ialu_lut(1);
        let m00 = lut.entry(lut.encode(&[Case::C00]))[0];
        let m01 = lut.entry(lut.encode(&[Case::C01]))[0];
        let m10 = lut.entry(lut.encode(&[Case::C10]))[0];
        assert_ne!(m00, m01);
        assert_eq!(lut.homes()[m10 as usize], Case::C10);
    }

    #[test]
    fn encode_pads_with_least_case() {
        let lut = ialu_lut(2);
        let padded = lut.encode(&[Case::C10]);
        let explicit = lut.encode(&[Case::C10, lut.least_case()]);
        assert_eq!(padded, explicit);
    }

    #[test]
    fn entries_are_valid_assignments() {
        for lut in [ialu_lut(1), ialu_lut(2), ialu_lut(4), fpau_lut(4)] {
            for v in 0..(1usize << lut.vector_bits()) {
                let entry = lut.entry(v);
                assert_eq!(entry.len(), lut.slots());
                let mut sorted: Vec<u8> = entry.to_vec();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), entry.len(), "distinct modules per entry");
                assert!(entry.iter().all(|&m| (m as usize) < lut.modules()));
            }
        }
    }

    #[test]
    fn policy_handles_more_ops_than_slots() {
        let mut policy = LutPolicy::new(ialu_lut(2));
        let modules = vec![ModulePorts::new(); 4];
        let op = |a: i32, b: i32| FuOp {
            class: FuClass::IntAlu,
            op1: Word::int(a),
            op2: Word::int(b),
            commutative: false,
        };
        let ops = [op(1, 1), op(-1, -1), op(2, 2), op(-2, -2)];
        let choices = policy.assign(&ops, &modules);
        validate_choices(&ops, modules.len(), &choices);
    }

    #[test]
    fn policy_name_reflects_vector_width() {
        assert_eq!(LutPolicy::new(ialu_lut(2)).name(), "4-bit LUT");
        assert_eq!(LutPolicy::new(ialu_lut(4)).name(), "8-bit LUT");
        assert_eq!(LutPolicy::new(ialu_lut(1)).name(), "2-bit LUT");
    }

    #[test]
    fn single_module_machine_degenerates_gracefully() {
        let lut = LutBuilder::new(CaseProfile::paper_ialu(), INT_BITS)
            .modules(1)
            .occupancy(&[1.0])
            .build(4);
        assert_eq!(lut.slots(), 1);
        for v in 0..4 {
            assert_eq!(lut.entry(v), &[0]);
        }
    }
}

#[cfg(test)]
mod randomized_tests {
    use super::*;

    /// SplitMix64 step — deterministic generator for sweeping random
    /// profiles/occupancies without an external test-case library.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    fn unit(state: &mut u64) -> f64 {
        (next(state) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// An arbitrary, normalised case profile.
    fn random_profile(state: &mut u64) -> CaseProfile {
        let freq: [u32; 4] = std::array::from_fn(|_| 1 + (next(state) % 999) as u32);
        let total: u32 = freq.iter().sum();
        let case_freq: [f64; 4] = std::array::from_fn(|i| freq[i] as f64 / total as f64);
        let noncommutative_freq: [f64; 4] = std::array::from_fn(|i| case_freq[i] * unit(state));
        CaseProfile {
            case_freq,
            noncommutative_freq,
            op1_ones_prob: std::array::from_fn(|_| unit(state)),
            op2_ones_prob: std::array::from_fn(|_| unit(state)),
        }
    }

    fn random_occupancy(state: &mut u64, n: usize) -> Vec<f64> {
        let v: Vec<f64> = (0..n).map(|_| 0.01 + 0.99 * unit(state)).collect();
        let total: f64 = v.iter().sum();
        v.into_iter().map(|x| x / total).collect()
    }

    // The Search strategy enumerates 4^modules home assignments per
    // case; 48 random configurations give ample coverage without
    // dominating the suite's runtime.
    #[test]
    fn entries_are_valid_for_any_profile() {
        let mut state = 0x5EED_1001u64;
        for round in 0..48 {
            let profile = random_profile(&mut state);
            let occupancy = random_occupancy(&mut state, 4);
            let slots = 1 + (next(&mut state) as usize) % 4;
            let modules = 1 + (next(&mut state) as usize) % 6;
            let strategy = [
                HomeStrategy::Auto,
                HomeStrategy::Unique,
                HomeStrategy::Proportional,
                HomeStrategy::Search,
            ][(next(&mut state) as usize) % 4];
            let lut = LutBuilder::new(profile, 32)
                .occupancy(&occupancy)
                .modules(modules)
                .strategy(strategy)
                .build(slots);
            assert_eq!(lut.slots(), slots.min(modules));
            assert_eq!(lut.homes().len(), modules);
            for v in 0..(1usize << lut.vector_bits()) {
                let entry = lut.entry(v);
                assert_eq!(entry.len(), lut.slots());
                let mut sorted: Vec<u8> = entry.to_vec();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(
                    sorted.len(),
                    entry.len(),
                    "round {round}: entry {v} not injective"
                );
                assert!(entry.iter().all(|&m| (m as usize) < modules));
            }
        }
    }

    #[test]
    fn encode_is_total_and_in_range() {
        let mut state = 0x5EED_1002u64;
        for _ in 0..64 {
            let profile = random_profile(&mut state);
            let lut = LutBuilder::new(profile, 32).build(2);
            let len = (next(&mut state) as usize) % 6;
            let cases: Vec<Case> = (0..len)
                .map(|_| Case::from_index((next(&mut state) % 4) as u8))
                .collect();
            let v = lut.encode(&cases);
            assert!(v < (1 << lut.vector_bits()));
        }
    }

    #[test]
    fn policy_output_is_always_valid() {
        let mut state = 0x5EED_1003u64;
        for _ in 0..64 {
            let profile = random_profile(&mut state);
            let occupancy = random_occupancy(&mut state, 4);
            let lut = LutBuilder::new(profile, 32)
                .occupancy(&occupancy)
                .modules(4)
                .build(2);
            let mut policy = LutPolicy::new(lut);
            let nops = 1 + (next(&mut state) as usize) % 3;
            let ops: Vec<FuOp> = (0..nops)
                .map(|_| FuOp {
                    class: fua_isa::FuClass::IntAlu,
                    op1: fua_isa::Word::int(next(&mut state) as i32),
                    op2: fua_isa::Word::int(next(&mut state) as i32),
                    commutative: next(&mut state) & 1 == 1,
                })
                .collect();
            let modules = vec![ModulePorts::new(); 4];
            let choices = policy.assign(&ops, &modules);
            crate::policy::validate_choices(&ops, modules.len(), &choices);
        }
    }
}
