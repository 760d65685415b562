//! A static linter for [`fua_isa::Program`]s.
//!
//! The checks target the hazards that matter for this repository's
//! workload kernels: values read before any write (the VM silently
//! supplies zero), writes that no execution can observe, code the CFG
//! proves unreachable, control transfers that fault at runtime, and
//! loops that can only end at the execution limit.

use std::fmt;

use fua_isa::{Opcode, Program};

use crate::{Cfg, DataFlow, DefSite};

/// The category of a lint finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LintKind {
    /// A register is read on some path before any instruction writes it.
    UninitRead,
    /// A register write that no execution can observe.
    DeadWrite,
    /// A basic block unreachable from the program entry.
    UnreachableBlock,
    /// A control transfer targeting an index outside the text.
    TargetOutOfRange,
    /// Execution can run past the last instruction (PC range fault).
    FallsOffEnd,
    /// No `halt` is reachable from the entry: the program can only end
    /// at the execution limit.
    NoHaltReachable,
    /// A reachable region from which no `halt` is reachable: entering
    /// it guarantees an execution-limit exit.
    InfiniteLoop,
}

impl fmt::Display for LintKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LintKind::UninitRead => "uninitialised-read",
            LintKind::DeadWrite => "dead-write",
            LintKind::UnreachableBlock => "unreachable-block",
            LintKind::TargetOutOfRange => "target-out-of-range",
            LintKind::FallsOffEnd => "falls-off-end",
            LintKind::NoHaltReachable => "no-halt-reachable",
            LintKind::InfiniteLoop => "infinite-loop",
        };
        f.write_str(s)
    }
}

/// One linter finding.
#[derive(Debug, Clone)]
pub struct Lint {
    /// The category.
    pub kind: LintKind,
    /// The instruction the finding is anchored at, if any.
    pub inst: Option<usize>,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.inst {
            Some(i) => write!(f, "[{}] at #{i}: {}", self.kind, self.message),
            None => write!(f, "[{}]: {}", self.kind, self.message),
        }
    }
}

/// Lints `program`, returning every finding (empty = clean).
///
/// # Examples
///
/// ```
/// use fua_analysis::{lint_program, LintKind};
/// use fua_isa::{IntReg, ProgramBuilder};
///
/// let (r1, r2) = (IntReg::new(1), IntReg::new(2));
/// let mut b = ProgramBuilder::new();
/// b.add(r2, r1, r1); // r1 read before any write
/// b.halt();
/// let program = b.build().unwrap();
///
/// let lints = lint_program(&program);
/// assert!(lints.iter().any(|l| l.kind == LintKind::UninitRead));
/// ```
pub fn lint_program(program: &Program) -> Vec<Lint> {
    let cfg = Cfg::build(program);
    let flow = DataFlow::run(program, &cfg);
    let reachable = cfg.reachable();
    let reaches_halt = cfg.reaches_halt(program);
    let insts = program.insts();
    let n = insts.len();
    let mut lints = Vec::new();

    // Control-transfer validity and fall-through past the end.
    for (i, inst) in insts.iter().enumerate() {
        if inst.op.is_control() && inst.op != Opcode::Halt {
            let t = inst.imm;
            if !(0..n as i32).contains(&t) {
                lints.push(Lint {
                    kind: LintKind::TargetOutOfRange,
                    inst: Some(i),
                    message: format!("{} targets index {t}, text is 0..{n}", inst.op),
                });
            }
        }
    }
    if let Some(last) = insts.last() {
        // A trailing branch still falls through on its not-taken path.
        if !matches!(last.op, Opcode::Halt | Opcode::J) {
            lints.push(Lint {
                kind: LintKind::FallsOffEnd,
                inst: Some(n - 1),
                message: "execution can run past the last instruction".into(),
            });
        }
    }

    // Reachability.
    for (b, block) in cfg.blocks().iter().enumerate() {
        if !reachable[b] {
            lints.push(Lint {
                kind: LintKind::UnreachableBlock,
                inst: Some(block.start),
                message: format!(
                    "instructions {}..{} are unreachable from the entry",
                    block.start, block.end
                ),
            });
        }
    }

    // Halt reachability: entry first, then reachable traps.
    if !cfg.blocks().is_empty() && !reaches_halt[0] {
        lints.push(Lint {
            kind: LintKind::NoHaltReachable,
            inst: None,
            message: "no halt is reachable from the entry".into(),
        });
    } else {
        for (b, block) in cfg.blocks().iter().enumerate() {
            if reachable[b] && !reaches_halt[b] {
                lints.push(Lint {
                    kind: LintKind::InfiniteLoop,
                    inst: Some(block.start),
                    message: format!(
                        "block at {} is reachable but cannot reach a halt",
                        block.start
                    ),
                });
            }
        }
    }

    // Uninitialised reads and dead writes, reachable code only (dead
    // code already gets its own finding).
    for (i, inst) in insts.iter().enumerate() {
        if !reachable[cfg.block_of(i)] {
            continue;
        }
        let mut flagged: Vec<fua_isa::Reg> = Vec::new();
        for u in flow.uses_of(i) {
            let entry = u
                .defs
                .iter()
                .filter(|d| matches!(d, DefSite::Entry(_)))
                .count();
            // One finding per register even when both source slots read
            // it (e.g. `add r2, r1, r1`).
            if entry > 0 && !flagged.contains(&u.reg) {
                flagged.push(u.reg);
                let reg = match u.reg {
                    fua_isa::Reg::Int(r) => format!("r{}", r.index()),
                    fua_isa::Reg::Fp(r) => format!("f{}", r.index()),
                };
                // When the entry value is the *only* reaching definition
                // the read is uninitialised on every path; otherwise only
                // some paths miss the write.
                let message = if entry == u.defs.len() {
                    format!("{reg} is read before it is written (the VM supplies 0)")
                } else {
                    format!("{reg} may be read before it is written (the VM supplies 0)")
                };
                lints.push(Lint {
                    kind: LintKind::UninitRead,
                    inst: Some(i),
                    message,
                });
            }
        }
        if let Some(d) = inst.dst {
            if !flow.is_live_after(i, d) {
                lints.push(Lint {
                    kind: LintKind::DeadWrite,
                    inst: Some(i),
                    message: format!("{} writes a value no execution observes", inst.op),
                });
            }
        }
    }

    lints
}

#[cfg(test)]
mod tests {
    use super::*;
    use fua_isa::{IntReg, ProgramBuilder};

    fn r(i: u8) -> IntReg {
        IntReg::new(i)
    }

    fn kinds(lints: &[Lint]) -> Vec<LintKind> {
        lints.iter().map(|l| l.kind).collect()
    }

    #[test]
    fn clean_program_has_no_findings() {
        let mut b = ProgramBuilder::new();
        let top = b.new_label();
        b.li(r(1), 3);
        b.li(r(2), 0);
        b.bind(top);
        b.add(r(2), r(2), r(1));
        b.addi(r(1), r(1), -1);
        b.bgtz(r(1), top);
        b.halt();
        let p = b.build().unwrap();
        assert!(lint_program(&p).is_empty(), "{:?}", lint_program(&p));
    }

    #[test]
    fn uninit_read_is_flagged() {
        let mut b = ProgramBuilder::new();
        b.add(r(2), r(1), r(1));
        b.halt();
        let p = b.build().unwrap();
        assert!(kinds(&lint_program(&p)).contains(&LintKind::UninitRead));
    }

    #[test]
    fn a_read_with_no_reaching_write_is_definite() {
        let mut b = ProgramBuilder::new();
        b.add(r(2), r(1), r(1));
        b.halt();
        let p = b.build().unwrap();
        let lints = lint_program(&p);
        let uninit: Vec<_> = lints
            .iter()
            .filter(|l| l.kind == LintKind::UninitRead)
            .collect();
        assert_eq!(uninit.len(), 1);
        assert!(
            uninit[0].message.starts_with("r1 is read"),
            "{}",
            uninit[0].message
        );
    }

    #[test]
    fn a_read_written_on_only_one_path_is_a_maybe() {
        // The branch skips the write, so the entry value reaches the
        // read alongside the `li` — flagged, but only as a "may".
        let mut b = ProgramBuilder::new();
        let join = b.new_label();
        b.li(r(2), 1);
        b.bgtz(r(2), join);
        b.li(r(1), 7);
        b.bind(join);
        b.add(r(3), r(1), r(1));
        b.halt();
        let p = b.build().unwrap();
        let lints = lint_program(&p);
        let uninit: Vec<_> = lints
            .iter()
            .filter(|l| l.kind == LintKind::UninitRead)
            .collect();
        assert_eq!(uninit.len(), 1);
        assert!(
            uninit[0].message.starts_with("r1 may be read"),
            "{}",
            uninit[0].message
        );
    }

    #[test]
    fn a_read_written_on_every_path_is_clean() {
        let mut b = ProgramBuilder::new();
        let other = b.new_label();
        let join = b.new_label();
        b.li(r(2), 1);
        b.bgtz(r(2), other);
        b.li(r(1), 7);
        b.j(join);
        b.bind(other);
        b.li(r(1), 9);
        b.bind(join);
        b.add(r(3), r(1), r(1));
        b.halt();
        let p = b.build().unwrap();
        assert!(!kinds(&lint_program(&p)).contains(&LintKind::UninitRead));
    }

    #[test]
    fn dead_write_is_flagged() {
        let mut b = ProgramBuilder::new();
        b.li(r(1), 5);
        b.li(r(1), 6);
        b.halt();
        let p = b.build().unwrap();
        let lints = lint_program(&p);
        let dead: Vec<_> = lints
            .iter()
            .filter(|l| l.kind == LintKind::DeadWrite)
            .collect();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].inst, Some(0));
    }

    #[test]
    fn unreachable_block_is_flagged() {
        let mut b = ProgramBuilder::new();
        let end = b.new_label();
        b.j(end);
        b.li(r(1), 1);
        b.bind(end);
        b.halt();
        let p = b.build().unwrap();
        assert!(kinds(&lint_program(&p)).contains(&LintKind::UnreachableBlock));
    }

    #[test]
    fn inescapable_loop_is_flagged() {
        let mut b = ProgramBuilder::new();
        let top = b.new_label();
        b.bind(top);
        b.addi(r(1), r(1), 1);
        b.j(top);
        b.halt();
        let p = b.build().unwrap();
        let ks = kinds(&lint_program(&p));
        assert!(ks.contains(&LintKind::NoHaltReachable));
        assert!(ks.contains(&LintKind::UnreachableBlock), "the halt");
    }

    #[test]
    fn value_observed_through_store_is_not_dead() {
        let mut b = ProgramBuilder::new();
        let slot = b.alloc_data(4);
        b.li(r(1), 7);
        b.li(r(2), slot);
        b.sw(r(1), r(2), 0);
        b.halt();
        let p = b.build().unwrap();
        assert!(!kinds(&lint_program(&p)).contains(&LintKind::DeadWrite));
    }
}
