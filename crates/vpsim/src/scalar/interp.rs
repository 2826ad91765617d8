//! A timing-free functional interpreter for the scalar mini-ISA.
//!
//! This is an *independent oracle* for [`super::cpu::run_program`]: it
//! shares no code with the pipelined interpreter, so property tests can
//! check that the timing model never changes program semantics.

use super::isa::{Program, SInstr, NUM_REGS};
use crate::mem::Memory;

/// Executes `program` functionally (no cycle accounting). Returns the
/// final register file. Panics past `max_instructions`, unlike the
/// timed interpreter, which stops there and sets
/// [`ScalarRunStats::capped`](super::cpu::ScalarRunStats::capped): an
/// oracle is only run on programs that halt.
pub fn run_functional(
    mem: &mut Memory,
    program: &Program,
    max_instructions: u64,
) -> [i64; NUM_REGS] {
    let mut regs = [0i64; NUM_REGS];
    let mut pc = 0usize;
    let mut executed = 0u64;
    while pc < program.code.len() {
        if executed >= max_instructions {
            panic!("scalar program exceeded {max_instructions} instructions without halting");
        }
        executed += 1;
        let mut next = pc + 1;
        match program.code[pc] {
            SInstr::Li(rd, imm) => regs[rd as usize] = imm,
            SInstr::Add(rd, rs, rt) => {
                regs[rd as usize] = regs[rs as usize].wrapping_add(regs[rt as usize])
            }
            SInstr::Addi(rd, rs, imm) => regs[rd as usize] = regs[rs as usize].wrapping_add(imm),
            SInstr::Sub(rd, rs, rt) => {
                regs[rd as usize] = regs[rs as usize].wrapping_sub(regs[rt as usize])
            }
            SInstr::Ld(rd, rs, imm) => {
                regs[rd as usize] = mem.read((regs[rs as usize] + imm) as u32) as i64
            }
            SInstr::St(rs, rt, imm) => {
                mem.write((regs[rs as usize] + imm) as u32, regs[rt as usize] as u32)
            }
            SInstr::Blt(rs, rt, t) => {
                if regs[rs as usize] < regs[rt as usize] {
                    next = t;
                }
            }
            SInstr::Bge(rs, rt, t) => {
                if regs[rs as usize] >= regs[rt as usize] {
                    next = t;
                }
            }
            SInstr::Bne(rs, rt, t) => {
                if regs[rs as usize] != regs[rt as usize] {
                    next = t;
                }
            }
            SInstr::Beq(rs, rt, t) => {
                if regs[rs as usize] == regs[rt as usize] {
                    next = t;
                }
            }
            SInstr::Jmp(t) => next = t,
            SInstr::Halt => break,
        }
        pc = next;
    }
    regs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VpConfig;
    use crate::scalar::asm::Asm;
    use crate::scalar::cpu::run_program;

    /// The two interpreters must leave identical memory for a loop-heavy
    /// program.
    #[test]
    fn functional_and_timed_interpreters_agree() {
        let build = || {
            let mut a = Asm::new();
            a.li(1, 0).li(2, 25).li(3, 500);
            let top = a.label();
            a.bind(top);
            a.add(4, 3, 1);
            a.ld(5, 4, 100); // read from an unwritten region (zeros)
            a.addi(5, 5, 7);
            a.st(4, 0, 5);
            a.addi(1, 1, 1);
            a.blt(1, 2, top);
            a.halt();
            a.finish()
        };
        let mut m1 = Memory::new();
        let mut m2 = Memory::new();
        run_functional(&mut m1, &build(), 10_000);
        run_program(&VpConfig::paper(), &mut m2, &build(), 10_000, true);
        for addr in 495..530u32 {
            assert_eq!(m1.read(addr), m2.read(addr), "divergence at {addr}");
        }
    }

    #[test]
    fn registers_after_arithmetic() {
        let mut a = Asm::new();
        a.li(1, 10).li(2, 3).sub(3, 1, 2).add(4, 3, 3).halt();
        let mut mem = Memory::new();
        let regs = run_functional(&mut mem, &a.finish(), 100);
        assert_eq!(regs[3], 7);
        assert_eq!(regs[4], 14);
    }

    #[test]
    #[should_panic(expected = "exceeded")]
    fn infinite_loop_is_caught() {
        let mut a = Asm::new();
        let top = a.label();
        a.bind(top);
        a.jmp(top);
        let mut mem = Memory::new();
        run_functional(&mut mem, &a.finish(), 50);
    }
}
