//! The in-order 4-way scalar pipeline: functional interpretation of a
//! [`Program`] over simulated [`Memory`], with cycle timing.
//!
//! Timing rules (per DESIGN.md §2.6):
//! * up to `scalar_issue_width` instructions issue per cycle, in order;
//! * an instruction stalls until its source registers are ready (RAW);
//! * loads/stores additionally compete for `scalar_mem_ports` per cycle;
//! * load results are ready after the L1 access latency (hit or miss);
//! * ALU results are ready after `scalar_alu_latency`;
//! * a taken branch costs `scalar_branch_penalty` extra cycles and ends
//!   the issue group (no issue past a taken branch in the same cycle).

use super::cache::Cache;
use super::isa::{Program, SInstr, NUM_REGS};
use crate::config::VpConfig;
use crate::mem::Memory;

/// Statistics of one scalar program run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScalarRunStats {
    /// Total cycles.
    pub cycles: u64,
    /// Dynamic instructions executed.
    pub instructions: u64,
    /// Dynamic loads.
    pub loads: u64,
    /// Dynamic stores.
    pub stores: u64,
    /// L1 hits.
    pub cache_hits: u64,
    /// L1 misses.
    pub cache_misses: u64,
    /// The run hit its `max_instructions` cap before halting. On a valid
    /// program this never happens; corrupt inputs (e.g. retargeted row
    /// pointers) can drive loop bounds past the cap, and callers must
    /// treat a capped run as a corrupt-input error.
    pub capped: bool,
}

/// A static instruction with its issue constraints decoded once.
#[derive(Debug, Clone, Copy)]
struct Decoded {
    instr: SInstr,
    /// RAW source registers; [`NO_REG`] names a slot that is always
    /// ready.
    srcs: [usize; 2],
    /// Loads and stores compete for a memory port.
    mem: bool,
}

/// The ready-time slot of an absent source operand (never written).
const NO_REG: usize = NUM_REGS;

fn decode(instr: SInstr) -> Decoded {
    let reg = |r: u8| r as usize;
    let srcs = match instr {
        SInstr::Li(..) | SInstr::Jmp(_) | SInstr::Halt => [NO_REG, NO_REG],
        SInstr::Addi(_, rs, _) | SInstr::Ld(_, rs, _) => [reg(rs), NO_REG],
        SInstr::Add(_, rs, rt)
        | SInstr::Sub(_, rs, rt)
        | SInstr::St(rs, rt, _)
        | SInstr::Blt(rs, rt, _)
        | SInstr::Bge(rs, rt, _)
        | SInstr::Bne(rs, rt, _)
        | SInstr::Beq(rs, rt, _) => [reg(rs), reg(rt)],
    };
    Decoded {
        instr,
        srcs,
        mem: matches!(instr, SInstr::Ld(..) | SInstr::St(..)),
    }
}

/// Executes `program` to `Halt` (or the `max_instructions` safety cap),
/// reading and writing `mem`. Returns the run statistics; register state
/// is internal to the run. `cfg` must be valid ([`VpConfig::validate`]):
/// the issue width and memory ports are at least one.
///
/// A program that runs past `max_instructions` without halting stops
/// there with [`ScalarRunStats::capped`] set — corrupt inputs can drive
/// loop bounds arbitrarily high, so this must not panic.
pub fn run_program(
    cfg: &VpConfig,
    mem: &mut Memory,
    program: &Program,
    max_instructions: u64,
) -> ScalarRunStats {
    let code: Vec<Decoded> = program.code.iter().map(|&i| decode(i)).collect();
    let mut regs = [0i64; NUM_REGS];
    let mut ready = [0u64; NUM_REGS + 1];
    let mut cache = Cache::new(cfg.scalar_cache);
    let mut pc = 0usize;
    let mut cycle = 0u64;
    let mut slots = 0u64;
    let mut mem_ports = 0u64;
    let mut stats = ScalarRunStats::default();

    while pc < code.len() {
        if stats.instructions >= max_instructions {
            stats.capped = true;
            break;
        }
        let Decoded {
            instr,
            srcs,
            mem: is_mem,
        } = code[pc];
        // One stall check: issue at the first cycle with both sources
        // ready (RAW), a free issue slot and, for a load or store, a free
        // memory port. A full cycle pushes issue to the next one; a later
        // operand already does, onto a fresh cycle.
        let full = slots == cfg.scalar_issue_width || (is_mem && mem_ports == cfg.scalar_mem_ports);
        let t = (cycle + full as u64)
            .max(ready[srcs[0]])
            .max(ready[srcs[1]]);
        if t > cycle {
            cycle = t;
            slots = 0;
            mem_ports = 0;
        }
        let issue = cycle;
        slots += 1;
        if is_mem {
            mem_ports += 1;
        }
        stats.instructions += 1;

        let mut next_pc = pc + 1;
        match instr {
            SInstr::Li(rd, imm) => {
                regs[rd as usize] = imm;
                ready[rd as usize] = issue + cfg.scalar_alu_latency;
            }
            SInstr::Add(rd, rs, rt) => {
                regs[rd as usize] = regs[rs as usize].wrapping_add(regs[rt as usize]);
                ready[rd as usize] = issue + cfg.scalar_alu_latency;
            }
            SInstr::Addi(rd, rs, imm) => {
                regs[rd as usize] = regs[rs as usize].wrapping_add(imm);
                ready[rd as usize] = issue + cfg.scalar_alu_latency;
            }
            SInstr::Sub(rd, rs, rt) => {
                regs[rd as usize] = regs[rs as usize].wrapping_sub(regs[rt as usize]);
                ready[rd as usize] = issue + cfg.scalar_alu_latency;
            }
            SInstr::Ld(rd, rs, imm) => {
                let addr = (regs[rs as usize] + imm) as u32;
                regs[rd as usize] = mem.read(addr) as i64;
                let lat = cache.access(addr);
                ready[rd as usize] = issue + lat;
                stats.loads += 1;
            }
            SInstr::St(rs, rt, imm) => {
                let addr = (regs[rs as usize] + imm) as u32;
                mem.write(addr, regs[rt as usize] as u32);
                // Write-allocate: the access charges the port and warms
                // the cache; the store itself retires without a consumer.
                cache.access(addr);
                stats.stores += 1;
            }
            SInstr::Blt(rs, rt, t) => {
                if regs[rs as usize] < regs[rt as usize] {
                    next_pc = t;
                }
            }
            SInstr::Bge(rs, rt, t) => {
                if regs[rs as usize] >= regs[rt as usize] {
                    next_pc = t;
                }
            }
            SInstr::Bne(rs, rt, t) => {
                if regs[rs as usize] != regs[rt as usize] {
                    next_pc = t;
                }
            }
            SInstr::Beq(rs, rt, t) => {
                if regs[rs as usize] == regs[rt as usize] {
                    next_pc = t;
                }
            }
            SInstr::Jmp(t) => next_pc = t,
            SInstr::Halt => break,
        }
        // Taken control flow ends the issue group and pays the penalty.
        if next_pc != pc + 1 {
            let t = issue + 1 + cfg.scalar_branch_penalty;
            if t > cycle {
                cycle = t;
                slots = 0;
                mem_ports = 0;
            }
        }
        pc = next_pc;
    }
    stats.cycles = cycle + 1;
    stats.cache_hits = cache.hits();
    stats.cache_misses = cache.misses();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::asm::Asm;

    fn cfg() -> VpConfig {
        VpConfig::paper()
    }

    #[test]
    fn straight_line_arithmetic() {
        let mut a = Asm::new();
        a.li(1, 5).li(2, 7).add(3, 1, 2).st(0, 100, 3).halt();
        let mut mem = Memory::new();
        let st = run_program(&cfg(), &mut mem, &a.finish(), 1000);
        assert_eq!(mem.read(100), 12);
        assert_eq!(st.instructions, 5);
        assert_eq!(st.stores, 1);
    }

    #[test]
    fn loop_executes_correct_count() {
        // for i in 0..10 { mem[200+i] = i }
        let mut a = Asm::new();
        a.li(1, 0).li(2, 10).li(3, 200);
        let top = a.label();
        a.bind(top);
        a.add(4, 3, 1);
        a.st(4, 0, 1);
        a.addi(1, 1, 1);
        a.blt(1, 2, top);
        a.halt();
        let mut mem = Memory::new();
        let st = run_program(&cfg(), &mut mem, &a.finish(), 10_000);
        for i in 0..10u32 {
            assert_eq!(mem.read(200 + i), i);
        }
        assert_eq!(st.stores, 10);
        assert!(st.cycles > 10, "loop cannot be free");
    }

    #[test]
    fn load_dependence_stalls() {
        // Dependent chain: ld r1; addi r2 <- r1. Cold miss: ~22 cycles.
        let mut a = Asm::new();
        a.li(1, 0).ld(2, 1, 50).addi(3, 2, 1).halt();
        let mut mem = Memory::new();
        mem.write(50, 9);
        let st = run_program(&cfg(), &mut mem, &a.finish(), 100);
        // The addi cannot issue before the cold-miss load returns.
        assert!(st.cycles >= 22, "cycles = {}", st.cycles);
        assert_eq!(st.cache_misses, 1);
    }

    #[test]
    fn issue_width_limits_throughput() {
        // 16 independent li's: 4-way → ≥ 4 cycles.
        let mut a = Asm::new();
        for i in 0..16u8 {
            a.li(i % 30, i as i64);
        }
        a.halt();
        let mut mem = Memory::new();
        let st = run_program(&cfg(), &mut mem, &a.finish(), 100);
        assert!(st.cycles >= 4, "cycles = {}", st.cycles);
        assert!(st.cycles <= 8, "cycles = {}", st.cycles);
    }

    #[test]
    fn histogram_like_loop_is_functional() {
        // for k in 0..8: mem[300 + mem[100+k]] += 1
        let mut mem = Memory::new();
        mem.write_block(100, &[0, 1, 0, 2, 1, 0, 3, 0]);
        let mut a = Asm::new();
        a.li(1, 0).li(2, 8);
        let top = a.label();
        a.bind(top);
        a.ld(3, 1, 100); // j = JA[k]
        a.addi(4, 3, 300);
        a.ld(5, 4, 0); // cnt = IAT[j]
        a.addi(5, 5, 1);
        a.st(4, 0, 5); // IAT[j] = cnt + 1
        a.addi(1, 1, 1);
        a.blt(1, 2, top);
        a.halt();
        let st = run_program(&cfg(), &mut mem, &a.finish(), 10_000);
        assert_eq!(mem.read_block(300, 4), vec![4, 2, 1, 1]);
        assert_eq!(st.loads, 16);
        assert_eq!(st.stores, 8);
    }

    #[test]
    fn runaway_program_is_capped_not_panicked() {
        let mut a = Asm::new();
        let top = a.label();
        a.bind(top);
        a.jmp(top);
        let mut mem = Memory::new();
        let st = run_program(&cfg(), &mut mem, &a.finish(), 100);
        assert!(st.capped);
        assert_eq!(st.instructions, 100);
    }

    #[test]
    fn halting_program_is_not_capped() {
        let mut a = Asm::new();
        a.li(1, 1).halt();
        let mut mem = Memory::new();
        assert!(!run_program(&cfg(), &mut mem, &a.finish(), 100).capped);
    }

    #[test]
    fn branch_penalty_costs_cycles() {
        let run_with = |penalty: u64| {
            let mut c = cfg();
            c.scalar_branch_penalty = penalty;
            let mut a = Asm::new();
            a.li(1, 0).li(2, 100);
            let top = a.label();
            a.bind(top);
            a.addi(1, 1, 1);
            a.blt(1, 2, top);
            a.halt();
            let mut mem = Memory::new();
            run_program(&c, &mut mem, &a.finish(), 10_000).cycles
        };
        assert!(run_with(3) > run_with(0));
    }
}
