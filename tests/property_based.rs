//! Randomized integration tests over the core data structures and the
//! whole VM → pipeline stack. Each test sweeps a deterministic family
//! of seeded random inputs (SplitMix64), so the checks behave like the
//! property tests they replace but need no external test-case library.

use fua::isa::{hamming_u32, Case, FuClass, IntReg, ProgramBuilder, Word};
use fua::power::{pair_cost, ModulePorts};
use fua::sim::{MachineConfig, Simulator, SteeringConfig};
use fua::steer::{min_cost_assignment, FullHamPolicy, SteeringPolicy};
use fua::vm::{FuOp, Vm};
use fua::workloads::SplitMix64;

// --- Word / Hamming properties ---------------------------------------

#[test]
fn hamming_is_a_metric() {
    let mut rng = SplitMix64::new(0xA001);
    for _ in 0..256 {
        let (a, b, c) = (
            rng.next_u64() as u32,
            rng.next_u64() as u32,
            rng.next_u64() as u32,
        );
        assert_eq!(hamming_u32(a, a), 0);
        assert_eq!(hamming_u32(a, b), hamming_u32(b, a));
        assert!(hamming_u32(a, c) <= hamming_u32(a, b) + hamming_u32(b, c));
    }
}

#[test]
fn int_info_bit_is_the_sign() {
    let mut rng = SplitMix64::new(0xA002);
    for _ in 0..256 {
        let v = rng.next_u64() as i32;
        assert_eq!(Word::int(v).info_bit(), v < 0);
    }
    assert!(!Word::int(0).info_bit());
    assert!(Word::int(i32::MIN).info_bit());
}

#[test]
fn fp_info_bit_matches_low_mantissa_bits() {
    let mut rng = SplitMix64::new(0xA003);
    for _ in 0..256 {
        let bits = rng.next_u64();
        let w = Word::Fp(bits);
        assert_eq!(w.info_bit(), bits & 0xF != 0);
        // Monotone in k: widening the window can only set the bit.
        for k in 1..12u32 {
            assert!(w.info_bit_k(k) <= w.info_bit_k(k + 1));
        }
    }
}

#[test]
fn case_swap_swaps_bits() {
    for a in [false, true] {
        for b in [false, true] {
            let case = Case::from_info_bits(a, b);
            assert_eq!(case.swapped(), Case::from_info_bits(b, a));
            assert_eq!(case.swapped().swapped(), case);
        }
    }
}

// --- power-model properties ------------------------------------------

#[test]
fn pair_cost_is_bounded_by_width() {
    let mut rng = SplitMix64::new(0xA004);
    for _ in 0..256 {
        let prev = Some((
            Word::int(rng.next_u64() as i32),
            Word::int(rng.next_u64() as i32),
        ));
        let cost = pair_cost(
            prev,
            Word::int(rng.next_u64() as i32),
            Word::int(rng.next_u64() as i32),
        );
        assert!(cost <= 64);
    }
}

#[test]
fn steering_cost_swap_never_hurts() {
    // Full Ham's Figure-2 cost: a swap is taken only when it is cheaper,
    // so allowing it never raises the bits an op is charged.
    let mut rng = SplitMix64::new(0xA005);
    let charged = |modules: &[ModulePorts], op: FuOp, allow_swap: bool| {
        let choice = FullHamPolicy::new(allow_swap).assign(&[op], modules)[0];
        let op = if choice.swap { op.swapped() } else { op };
        modules[choice.module].peek_cost(op.op1, op.op2)
    };
    for _ in 0..256 {
        let mut module = ModulePorts::new();
        module.latch(
            Word::int(rng.next_u64() as i32),
            Word::int(rng.next_u64() as i32),
        );
        let op = FuOp {
            class: FuClass::IntAlu,
            op1: Word::int(rng.next_u64() as i32),
            op2: Word::int(rng.next_u64() as i32),
            commutative: true,
        };
        let with_swap = charged(&[module], op, true);
        let without = charged(&[module], op, false);
        assert!(with_swap <= without);
        assert_eq!(without, pair_cost(module.prev(), op.op1, op.op2));
    }
}

#[test]
fn module_ports_charge_what_they_peek() {
    let mut rng = SplitMix64::new(0xA006);
    for _ in 0..32 {
        let mut ports = ModulePorts::new();
        for _ in 0..rng.range_usize(1, 20) {
            let a = Word::int(rng.next_u64() as i32);
            let b = Word::int(rng.next_u64() as i32);
            let peeked = ports.peek_cost(a, b);
            assert_eq!(ports.latch(a, b), peeked);
            assert_eq!(ports.prev(), Some((a, b)));
        }
    }
}

// --- assignment-solver properties ------------------------------------

#[test]
fn assignment_is_injective_and_optimal() {
    // Optimal: compare against brute force over permutations.
    fn brute(cost: &[Vec<u32>], row: usize, used: &mut Vec<bool>) -> u64 {
        if row == cost.len() {
            return 0;
        }
        let mut best = u64::MAX;
        for c in 0..cost[0].len() {
            if !used[c] {
                used[c] = true;
                let sub = brute(cost, row + 1, used);
                if sub != u64::MAX {
                    best = best.min(cost[row][c] as u64 + sub);
                }
                used[c] = false;
            }
        }
        best
    }

    let mut rng = SplitMix64::new(0xA007);
    for _ in 0..128 {
        let rows = rng.range_usize(1, 4);
        let cols = rows + rng.range_usize(0, 3);
        let cost: Vec<Vec<u32>> = (0..rows)
            .map(|_| (0..cols).map(|_| rng.bounded(1000) as u32).collect())
            .collect();
        let assign = min_cost_assignment(&cost);

        // Injective.
        let mut seen = assign.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), rows);

        let got: u64 = assign
            .iter()
            .enumerate()
            .map(|(r, &c)| cost[r][c] as u64)
            .sum();
        assert_eq!(got, brute(&cost, 0, &mut vec![false; cols]));
    }
}

// --- whole-stack properties ------------------------------------------

#[test]
fn random_straightline_programs_run_identically_under_every_policy() {
    let mut rng = SplitMix64::new(0xA008);
    for _ in 0..24 {
        // Build a random straight-line ALU program over registers r1..r7.
        let mut b = ProgramBuilder::new();
        for i in 1..8 {
            b.li(IntReg::new(i), (i as i32 - 4) * 1234567);
        }
        for _ in 0..rng.range_usize(1, 40) {
            let rd = IntReg::new(rng.range_usize(1, 8) as u8);
            let rs = IntReg::new(rng.range_usize(1, 8) as u8);
            let rt = IntReg::new(rng.range_usize(1, 8) as u8);
            match rng.bounded(6) {
                0 => b.add(rd, rs, rt),
                1 => b.sub(rd, rs, rt),
                2 => b.and(rd, rs, rt),
                3 => b.or(rd, rs, rt),
                4 => b.xor(rd, rs, rt),
                _ => b.slt(rd, rs, rt),
            };
        }
        b.halt();
        let program = b.build().expect("valid by construction");

        // The architectural result is policy-independent.
        let mut reference = Vm::new(&program);
        reference.run(10_000).expect("runs");

        for kind in fua::steer::SteeringKind::FIGURE4 {
            let mut sim = Simulator::new(
                MachineConfig::paper_default(),
                SteeringConfig::paper_scheme(kind, true),
            );
            let result = sim.run_program(&program, 10_000).expect("runs");
            assert_eq!(result.retired, reference.retired());
            assert!(result.halted);
        }
    }
}

// --- static analysis soundness ----------------------------------------

/// Checks every retired FU operation of `program` against the static
/// predictions of `fua-analysis`: a definite abstract bit or case must
/// match the concrete trace, and a tracked integer abstraction must
/// admit the concrete operand value. Returns how many ops were checked.
fn assert_static_predictions_sound(name: &str, program: &fua::isa::Program, limit: u64) -> u64 {
    use fua::analysis::InfoBitAnalysis;

    let analysis = InfoBitAnalysis::run(program);
    let mut vm = Vm::new(program);
    let mut checked = 0u64;
    vm.run_with(limit, |op| {
        let Some(fu) = op.fu else { return };
        let idx = op.static_idx as usize;
        assert!(
            analysis.is_reachable(idx),
            "{name}: #{idx} retired but statically unreachable"
        );
        let p = analysis
            .prediction(idx)
            .unwrap_or_else(|| panic!("{name}: #{idx} retired an FU op with no prediction"));
        assert_eq!(p.class, fu.class, "{name}: #{idx} FU class");
        if let Some(bit) = p.op1.definite() {
            assert_eq!(bit, fu.op1.info_bit(), "{name}: #{idx} op1 info bit");
        }
        if let Some(bit) = p.op2.definite() {
            assert_eq!(bit, fu.op2.info_bit(), "{name}: #{idx} op2 info bit");
        }
        if let Some(case) = p.case() {
            assert_eq!(case, fu.case(), "{name}: #{idx} case");
        }
        for (port, word, abs) in [(1, fu.op1, p.op1_int), (2, fu.op2, p.op2_int)] {
            if let (true, Some(a)) = (word.is_int(), abs) {
                assert!(
                    a.admits(word.as_int()),
                    "{name}: #{idx} op{port} abstraction {a:?} excludes {}",
                    word.as_int()
                );
            }
        }
        checked += 1;
    })
    .unwrap_or_else(|e| panic!("{name}: {e}"));
    checked
}

#[test]
fn static_predictions_are_sound_on_every_workload_kernel() {
    let mut total = 0;
    for w in fua::workloads::all(1) {
        total += assert_static_predictions_sound(w.name, &w.program, 50_000);
    }
    assert!(total > 10_000, "suite retired only {total} FU ops");
}

#[test]
fn static_predictions_are_sound_on_random_programs() {
    let mut rng = SplitMix64::new(0xA009);
    for round in 0..48 {
        // Straight-line programs over r1..r7 with a wider op mix than the
        // policy test above: immediates, shifts, and multiplies exercise
        // the width-tracking transfer functions, and full-range random
        // constants exercise the constant domain.
        let mut b = ProgramBuilder::new();
        for i in 1..8 {
            b.li(IntReg::new(i), rng.next_u64() as i32);
        }
        for _ in 0..rng.range_usize(1, 40) {
            let rd = IntReg::new(rng.range_usize(1, 8) as u8);
            let rs = IntReg::new(rng.range_usize(1, 8) as u8);
            let rt = IntReg::new(rng.range_usize(1, 8) as u8);
            match rng.bounded(12) {
                0 => b.add(rd, rs, rt),
                1 => b.sub(rd, rs, rt),
                2 => b.and(rd, rs, rt),
                3 => b.or(rd, rs, rt),
                4 => b.xor(rd, rs, rt),
                5 => b.slt(rd, rs, rt),
                6 => b.mul(rd, rs, rt),
                7 => b.addi(rd, rs, rng.next_u64() as i32 % 1000),
                8 => b.andi(rd, rs, rng.next_u64() as i32),
                9 => b.slli(rd, rs, rng.bounded(32) as i32),
                10 => b.srli(rd, rs, rng.bounded(32) as i32),
                _ => b.srai(rd, rs, rng.bounded(32) as i32),
            };
        }
        b.halt();
        let program = b.build().expect("valid by construction");
        let name = format!("random #{round}");
        let checked = assert_static_predictions_sound(&name, &program, 10_000);
        assert!(checked > 0, "{name} retired no FU ops");
    }
}
