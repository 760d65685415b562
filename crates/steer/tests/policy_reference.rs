//! The two optimal policies against a brute-force reference.
//!
//! Full Ham and 1-bit Ham build their cost matrices from latched bits
//! and case bits, and hand them to the assignment kernel. The reference
//! here shares none of that: it scores every injective assignment and
//! every legal operand swap with the latch rule itself
//! (`fua_power::pair_cost`) or with the information bits of the operand
//! words, and keeps the least `(total, each row's (cost, module), each
//! row's swap)`. That key is the documented tie-break: the least total,
//! then the first row on its cheapest module (lowest index among equal
//! costs), then the next row, and a swap only when strictly cheaper.
//! One policy of each kind is reused across every case, so state left
//! by one solve cannot leak into the next.

use fua_isa::{Case, FuClass, Word};
use fua_power::{pair_cost, ModulePorts};
use fua_steer::{FullHamPolicy, ModuleChoice, OneBitHamPolicy, SteeringPolicy, MAX_MODULES};
use fua_vm::FuOp;

/// SplitMix64: deterministic cases without an external crate.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// An operand of the class's kind. Few distinct values, so equal costs
/// (and so the tie-break) are common; floats include the bit patterns
/// the power model must take as bits: `-0.0`, NaNs and denormals.
fn word(rng: &mut Rng, fp: bool) -> Word {
    if fp {
        const SPECIAL: [u64; 8] = [
            0x8000_0000_0000_0000, // -0.0
            0x0000_0000_0000_0000, // +0.0
            0x7FF8_0000_0000_0000, // quiet NaN
            0xFFF0_0000_0000_0001, // signalling NaN, sign set
            0x0000_0000_0000_0001, // least denormal
            0x000F_FFFF_FFFF_FFFF, // greatest denormal
            0x3FF8_0000_0000_0000, // 1.5
            0x3FB9_9999_9999_999A, // 0.1
        ];
        match rng.below(3) {
            0 => Word::Fp(SPECIAL[rng.below(8) as usize]),
            1 => Word::Fp(rng.next()),
            _ => Word::fp(rng.below(16) as f64 - 8.0),
        }
    } else {
        match rng.below(3) {
            0 => Word::int(rng.below(8) as i32 - 4),
            1 => Word::int(rng.next() as i32),
            _ => Word::int(i32::MIN + rng.below(4) as i32),
        }
    }
}

/// 1-bit Ham's cost, from the operand words.
fn info_bit_cost(op: &FuOp, module: &ModulePorts) -> u32 {
    module.prev().map_or(0, |(a, b)| {
        let (prev, next) = (Case::of_operands(a, b), op.case());
        (prev.op1_bit() != next.op1_bit()) as u32 + (prev.op2_bit() != next.op2_bit()) as u32
    })
}

/// Full Ham's cost: what latching the op would charge.
fn hamming_cost(op: &FuOp, module: &ModulePorts) -> u32 {
    pair_cost(module.prev(), op.op1, op.op2)
}

/// One row of a candidate: (cost, module, swap).
type Pick = (u32, usize, bool);

/// The least `(total, [(cost, module)], [swap])` over every injective
/// assignment of `ops` to `modules` and every legal swap.
fn brute_force(
    ops: &[FuOp],
    modules: &[ModulePorts],
    allow_swap: bool,
    cost: fn(&FuOp, &ModulePorts) -> u32,
) -> Vec<ModuleChoice> {
    fn less(path: &[Pick], best: &[Pick]) -> bool {
        let total = |p: &[Pick]| p.iter().map(|x| x.0 as u64).sum::<u64>();
        let ranked = |p: &[Pick]| p.iter().map(|x| (x.0, x.1)).collect::<Vec<_>>();
        let swaps = |p: &[Pick]| p.iter().map(|x| x.2).collect::<Vec<_>>();
        match total(path).cmp(&total(best)) {
            std::cmp::Ordering::Equal => (ranked(path), swaps(path)) < (ranked(best), swaps(best)),
            order => order.is_lt(),
        }
    }
    fn go(
        ops: &[FuOp],
        modules: &[ModulePorts],
        allow_swap: bool,
        cost: fn(&FuOp, &ModulePorts) -> u32,
        path: &mut Vec<Pick>,
        best: &mut Option<Vec<Pick>>,
    ) {
        let row = path.len();
        // A partial total past the best complete one cannot win (a tie
        // still can, on the tie-break), so the walk stays exhaustive.
        let so_far: u64 = path.iter().map(|p| p.0 as u64).sum();
        if best
            .as_ref()
            .is_some_and(|b| so_far > b.iter().map(|p| p.0 as u64).sum())
        {
            return;
        }
        if row == ops.len() {
            if best.as_ref().is_none_or(|b| less(path, b)) {
                *best = Some(path.clone());
            }
            return;
        }
        for (m, module) in modules.iter().enumerate() {
            if path.iter().any(|p| p.1 == m) {
                continue;
            }
            let op = ops[row];
            let orders: &[bool] = if allow_swap && op.commutative {
                &[false, true]
            } else {
                &[false]
            };
            for &swap in orders {
                let placed = if swap { op.swapped() } else { op };
                path.push((cost(&placed, module), m, swap));
                go(ops, modules, allow_swap, cost, path, best);
                path.pop();
            }
        }
    }
    let mut best = None;
    go(ops, modules, allow_swap, cost, &mut Vec::new(), &mut best);
    best.expect("rows <= modules has a solution")
        .into_iter()
        .map(|(_, module, swap)| ModuleChoice { module, swap })
        .collect()
}

#[test]
fn full_ham_and_one_bit_ham_match_the_brute_force_reference() {
    let mut rng = Rng(0x00F0_11A5_5EED);
    let mut full = [FullHamPolicy::new(false), FullHamPolicy::new(true)];
    let mut one_bit = [OneBitHamPolicy::new(false), OneBitHamPolicy::new(true)];
    let mut out = Vec::new();
    for modules in 1..=MAX_MODULES {
        for rows in 1..=modules {
            // The 7- and 8-row searches dominate the run time.
            let reps = if rows >= 7 { 1 } else { 3 };
            for _ in 0..reps {
                for fp in [false, true] {
                    let class = if fp { FuClass::FpAlu } else { FuClass::IntAlu };
                    let ports: Vec<ModulePorts> = (0..modules)
                        .map(|_| {
                            let mut port = ModulePorts::new();
                            // A quarter of the modules were never driven.
                            if rng.below(4) != 0 {
                                port.latch(word(&mut rng, fp), word(&mut rng, fp));
                            }
                            port
                        })
                        .collect();
                    let ops: Vec<FuOp> = (0..rows)
                        .map(|_| FuOp {
                            class,
                            op1: word(&mut rng, fp),
                            op2: word(&mut rng, fp),
                            commutative: rng.below(2) == 0,
                        })
                        .collect();
                    let cases: Vec<u8> = ops.iter().map(FuOp::case_bits).collect();
                    for allow_swap in [false, true] {
                        let i = allow_swap as usize;
                        full[i].assign_into(&ops, &cases, &ports, &mut out);
                        let expect = brute_force(&ops, &ports, allow_swap, hamming_cost);
                        assert_eq!(
                            out, expect,
                            "Full Ham, swap {allow_swap}: {ops:?} on {ports:?}"
                        );
                        one_bit[i].assign_into(&ops, &cases, &ports, &mut out);
                        let expect = brute_force(&ops, &ports, allow_swap, info_bit_cost);
                        assert_eq!(
                            out, expect,
                            "1-bit Ham, swap {allow_swap}: {ops:?} on {ports:?}"
                        );
                    }
                }
            }
        }
    }
}
