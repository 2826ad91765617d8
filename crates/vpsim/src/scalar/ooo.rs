//! An out-of-order scalar pipeline model — closer to the paper's actual
//! SimpleScalar baseline than the conservative in-order model of
//! [`super::cpu`] (see DESIGN.md §2.6).
//!
//! Model: a sliding instruction window of `window` entries. Each cycle,
//! up to `scalar_issue_width` *ready* instructions (operands available,
//! memory port free) issue from anywhere in the window, oldest first —
//! i.e. register renaming is implicit (no WAR/WAW stalls; the functional
//! state is maintained in program order, which is exact for a machine
//! with enough physical registers). Branches resolve at issue with
//! `scalar_branch_penalty` refill cycles (predicted-taken-correctly
//! fetch model, like the in-order core). Loads occupy a memory port and
//! complete after the cache latency; dependents wake up then.
//!
//! Functionally the model defers to the same semantics as the other two
//! interpreters (and is cross-checked against them); only the timing
//! differs.

use super::cache::Cache;
use super::cpu::ScalarRunStats;
use super::isa::{Program, SInstr, NUM_REGS};
use crate::config::VpConfig;
use crate::mem::Memory;

/// Reorder-window size of the out-of-order model (RUU entries in
/// SimpleScalar terms; its classic default is 16).
pub const OOO_WINDOW: usize = 16;

/// Executes `program` with out-of-order issue timing. Returns the same
/// statistics structure as the in-order model.
///
/// Stops with [`ScalarRunStats::capped`] set past `max_instructions`,
/// like the in-order model.
pub fn run_program_ooo(
    cfg: &VpConfig,
    mem: &mut Memory,
    program: &Program,
    max_instructions: u64,
) -> ScalarRunStats {
    let mut regs = [0i64; NUM_REGS];
    let mut reg_ready = [0u64; NUM_REGS];
    let mut cache = Cache::new(cfg.scalar_cache);
    let mut stats = ScalarRunStats::default();
    let mut pc = 0usize;
    // `fetch_cycle`: the cycle the *next* instruction can enter the window
    // (advanced by branch refills). `issued`: per-cycle issue/port counts.
    let mut fetch_cycle = 0u64;
    let mut finish_time = 0u64;

    // The scheduler below is a simplification that preserves program-order
    // side effects: because the functional update happens at *dispatch*
    // (in program order), timing and semantics stay separable, and the
    // timing layer only needs each instruction's operand-ready cycle.
    //
    // Issue modelling: we process instructions in program order but allow
    // each to issue at `max(operand ready, window-structural time)`, where
    // the structural time models (a) the issue width per cycle, (b) the
    // memory ports per cycle, and (c) the bounded window: an instruction
    // cannot issue before the instruction `window` slots ahead of it has
    // issued (its slot must have freed).
    let mut issue_times: std::collections::VecDeque<u64> = Default::default();
    let mut width_used: std::collections::HashMap<u64, u64> = Default::default();
    let mut ports_used: std::collections::HashMap<u64, u64> = Default::default();

    while pc < program.code.len() {
        if stats.instructions >= max_instructions {
            stats.capped = true;
            break;
        }
        let instr = program.code[pc];
        stats.instructions += 1;

        // Operand readiness (RAW only — renaming removes WAR/WAW).
        let (src1, src2) = sources(&instr);
        let mut ready = fetch_cycle;
        if let Some(r) = src1 {
            ready = ready.max(reg_ready[r as usize]);
        }
        if let Some(r) = src2 {
            ready = ready.max(reg_ready[r as usize]);
        }
        // Window-structural limit: the slot frees when the instruction
        // `OOO_WINDOW` back has issued.
        if issue_times.len() == OOO_WINDOW {
            let oldest = issue_times.pop_front().expect("window full");
            ready = ready.max(oldest);
            // Cycles before the window's oldest issue can never be
            // scheduled into again; prune them so the per-cycle maps stay
            // O(window) instead of O(dynamic instructions).
            if width_used.len() > 4 * OOO_WINDOW {
                width_used.retain(|&cyc, _| cyc >= oldest);
                ports_used.retain(|&cyc, _| cyc >= oldest);
            }
        }
        let is_mem = matches!(instr, SInstr::Ld(..) | SInstr::St(..));
        // Find the first cycle ≥ ready with issue width (and a port) free.
        let mut t = ready;
        loop {
            let w = width_used.entry(t).or_insert(0);
            if *w < cfg.scalar_issue_width {
                if is_mem {
                    let p = ports_used.entry(t).or_insert(0);
                    if *p < cfg.scalar_mem_ports {
                        *p += 1;
                    } else {
                        t += 1;
                        continue;
                    }
                }
                *width_used.entry(t).or_insert(0) += 1;
                break;
            }
            t += 1;
        }
        let issue = t;
        issue_times.push_back(issue);

        // Functional execution + result latency.
        let mut next_pc = pc + 1;
        match instr {
            SInstr::Li(rd, imm) => {
                regs[rd as usize] = imm;
                reg_ready[rd as usize] = issue + cfg.scalar_alu_latency;
            }
            SInstr::Add(rd, rs, rt) => {
                regs[rd as usize] = regs[rs as usize].wrapping_add(regs[rt as usize]);
                reg_ready[rd as usize] = issue + cfg.scalar_alu_latency;
            }
            SInstr::Addi(rd, rs, imm) => {
                regs[rd as usize] = regs[rs as usize].wrapping_add(imm);
                reg_ready[rd as usize] = issue + cfg.scalar_alu_latency;
            }
            SInstr::Sub(rd, rs, rt) => {
                regs[rd as usize] = regs[rs as usize].wrapping_sub(regs[rt as usize]);
                reg_ready[rd as usize] = issue + cfg.scalar_alu_latency;
            }
            SInstr::Ld(rd, rs, imm) => {
                let addr = (regs[rs as usize] + imm) as u32;
                regs[rd as usize] = mem.read(addr) as i64;
                let lat = cache.access(addr);
                reg_ready[rd as usize] = issue + lat;
                stats.loads += 1;
            }
            SInstr::St(rs, rt, imm) => {
                let addr = (regs[rs as usize] + imm) as u32;
                mem.write(addr, regs[rt as usize] as u32);
                cache.access(addr);
                stats.stores += 1;
            }
            SInstr::Blt(rs, rt, target) => {
                if regs[rs as usize] < regs[rt as usize] {
                    next_pc = target;
                }
            }
            SInstr::Bge(rs, rt, target) => {
                if regs[rs as usize] >= regs[rt as usize] {
                    next_pc = target;
                }
            }
            SInstr::Bne(rs, rt, target) => {
                if regs[rs as usize] != regs[rt as usize] {
                    next_pc = target;
                }
            }
            SInstr::Beq(rs, rt, target) => {
                if regs[rs as usize] == regs[rt as usize] {
                    next_pc = target;
                }
            }
            SInstr::Jmp(target) => next_pc = target,
            SInstr::Halt => {
                finish_time = finish_time.max(issue);
                break;
            }
        }
        if next_pc != pc + 1 {
            // Taken control flow: later instructions fetch after the
            // branch resolves (+ refill penalty).
            fetch_cycle = fetch_cycle.max(issue + 1 + cfg.scalar_branch_penalty);
        }
        finish_time = finish_time.max(issue);
        pc = next_pc;
    }
    stats.cycles = finish_time + 1;
    stats.cache_hits = cache.hits();
    stats.cache_misses = cache.misses();
    stats
}

fn sources(instr: &SInstr) -> (Option<u8>, Option<u8>) {
    match *instr {
        SInstr::Li(..) | SInstr::Jmp(_) | SInstr::Halt => (None, None),
        SInstr::Addi(_, rs, _) | SInstr::Ld(_, rs, _) => (Some(rs), None),
        SInstr::Add(_, rs, rt) | SInstr::Sub(_, rs, rt) | SInstr::St(rs, rt, _) => {
            (Some(rs), Some(rt))
        }
        SInstr::Blt(rs, rt, _)
        | SInstr::Bge(rs, rt, _)
        | SInstr::Bne(rs, rt, _)
        | SInstr::Beq(rs, rt, _) => (Some(rs), Some(rt)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::asm::Asm;
    use crate::scalar::cpu::run_program;
    use crate::scalar::interp::run_functional;

    fn cfg() -> VpConfig {
        VpConfig::paper()
    }

    fn histogram_like(n: usize) -> Program {
        let mut a = Asm::new();
        a.li(1, 0).li(2, n as i64).li(3, 0).li(4, 500);
        let top = a.label();
        a.bind(top);
        a.ld(5, 3, 0);
        a.add(6, 4, 5);
        a.ld(7, 6, 0);
        a.addi(7, 7, 1);
        a.st(6, 0, 7);
        a.addi(3, 3, 1);
        a.addi(1, 1, 1);
        a.blt(1, 2, top);
        a.halt();
        a.finish()
    }

    #[test]
    fn ooo_is_functionally_identical_to_the_oracle() {
        let p = histogram_like(64);
        let mut m1 = Memory::new();
        m1.write_block(0, &(0..64u32).map(|k| k % 7).collect::<Vec<_>>());
        let mut m2 = m1.clone();
        run_functional(&mut m1, &p, 10_000);
        run_program_ooo(&cfg(), &mut m2, &p, 10_000);
        for addr in 495..520u32 {
            assert_eq!(m1.read(addr), m2.read(addr));
        }
    }

    #[test]
    fn ooo_is_at_least_as_fast_as_in_order() {
        let p = histogram_like(256);
        let run_io = || {
            let mut mem = Memory::new();
            mem.write_block(0, &(0..256u32).map(|k| k % 19).collect::<Vec<_>>());
            run_program(&cfg(), &mut mem, &p, 100_000, true).cycles
        };
        let run_ooo = || {
            let mut mem = Memory::new();
            mem.write_block(0, &(0..256u32).map(|k| k % 19).collect::<Vec<_>>());
            run_program_ooo(&cfg(), &mut mem, &p, 100_000).cycles
        };
        let (io, ooo) = (run_io(), run_ooo());
        assert!(ooo <= io, "OoO {ooo} slower than in-order {io}");
        // And it genuinely overlaps iterations: meaningfully faster.
        assert!(ooo as f64 <= 0.9 * io as f64, "OoO {ooo} vs in-order {io}");
    }

    #[test]
    fn window_bounds_the_overlap() {
        // With a full window, issue cannot run unboundedly ahead: total
        // cycles ≥ instructions / issue width regardless of independence.
        let mut a = Asm::new();
        for i in 0..200u8 {
            a.li(1 + (i % 20), i as i64);
        }
        a.halt();
        let p = a.finish();
        let mut mem = Memory::new();
        let st = run_program_ooo(&cfg(), &mut mem, &p, 10_000);
        assert!(st.cycles >= st.instructions.div_ceil(cfg().scalar_issue_width));
    }

    #[test]
    fn mem_ports_still_limit_ooo() {
        // A stream of independent loads is port-bound: 64 loads on one
        // port need ≥ 64 cycles; two ports roughly halve that. (On
        // mixed code the port count is second-order in this model — the
        // greedy width allocator can even invert it slightly.)
        let mut a = Asm::new();
        a.li(1, 0);
        for i in 0..64u8 {
            a.ld(2 + (i % 20), 1, i as i64);
        }
        a.halt();
        let p = a.finish();
        let run_with = |ports: u64| {
            let mut c = cfg();
            c.scalar_mem_ports = ports;
            let mut mem = Memory::new();
            run_program_ooo(&c, &mut mem, &p, 10_000).cycles
        };
        let one = run_with(1);
        let two = run_with(2);
        assert!(one >= 64, "one port must serialize 64 loads, got {one}");
        assert!(two < one, "two ports must beat one: {two} !< {one}");
    }
}
