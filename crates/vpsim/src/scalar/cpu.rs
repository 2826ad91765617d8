//! The in-order 4-way scalar pipeline: functional interpretation of a
//! [`Program`] over simulated [`Memory`], with cycle timing.
//!
//! Timing rules (per DESIGN.md §2.6), all in `Timing::step`:
//! * up to `scalar_issue_width` instructions issue per cycle, in order;
//! * an instruction stalls until its source registers are ready (RAW);
//! * loads/stores additionally compete for `scalar_mem_ports` per cycle;
//! * load results are ready after the L1 access latency (hit or miss);
//! * ALU results are ready after `scalar_alu_latency`;
//! * a taken branch costs `scalar_branch_penalty` extra cycles and ends
//!   the issue group (no issue past a taken branch in the same cycle).
//!
//! Loops are timed per iteration, not per instruction: FastSim-style
//! memoization (Schnarr and Larus, ASPLOS 1998). A *segment* runs from a
//! loop head (the target of a backward branch or jump) to the next loop
//! head reached. Its loads, stores, register updates and L1 accesses run
//! natively, in program order; its clock advance comes from a memo table,
//! keyed on the head, the timing state relative to the issue clock, and
//! the segment's outcome bits (each conditional branch's direction and
//! each load's L1 hit or miss). Those bits fix the segment's path and
//! every latency in it, so a memo miss re-times the segment from the bits
//! alone. The timing equals per-instruction timing exactly.

use super::cache::Cache;
use super::isa::{Program, SInstr, NUM_REGS};
use crate::config::VpConfig;
use crate::mem::Memory;
use crate::replay::{pays, Words, CAPACITY};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

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

/// What an instruction does to the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Alu,
    Load,
    Store,
    /// A conditional branch: its direction is an outcome bit.
    Branch,
    Jump,
    Halt,
}

/// A static instruction with its issue constraints decoded once.
#[derive(Debug, Clone, Copy)]
struct Decoded {
    instr: SInstr,
    kind: Kind,
    /// RAW source registers; [`NO_REG`] names a slot that is always
    /// ready.
    srcs: [u8; 2],
    /// The register the result lands in; [`NO_DST`] when there is none.
    dst: u8,
    /// A loop head: the target of a backward branch or jump.
    head: bool,
}

/// The ready-time slot of an absent source operand (never written).
const NO_REG: u8 = NUM_REGS as u8;

/// The ready-time slot an instruction without a result writes (never
/// read).
const NO_DST: u8 = NUM_REGS as u8 + 1;

fn decode(instr: SInstr) -> Decoded {
    let (kind, srcs, dst) = match instr {
        SInstr::Li(rd, _) => (Kind::Alu, [NO_REG, NO_REG], rd),
        SInstr::Addi(rd, rs, _) => (Kind::Alu, [rs, NO_REG], rd),
        SInstr::Add(rd, rs, rt) | SInstr::Sub(rd, rs, rt) => (Kind::Alu, [rs, rt], rd),
        SInstr::Ld(rd, rs, _) => (Kind::Load, [rs, NO_REG], rd),
        SInstr::St(rs, rt, _) => (Kind::Store, [rs, rt], NO_DST),
        SInstr::Blt(rs, rt, _)
        | SInstr::Bge(rs, rt, _)
        | SInstr::Bne(rs, rt, _)
        | SInstr::Beq(rs, rt, _) => (Kind::Branch, [rs, rt], NO_DST),
        SInstr::Jmp(_) => (Kind::Jump, [NO_REG, NO_REG], NO_DST),
        SInstr::Halt => (Kind::Halt, [NO_REG, NO_REG], NO_DST),
    };
    Decoded {
        instr,
        kind,
        srcs,
        dst,
        head: false,
    }
}

impl Decoded {
    /// The control-flow target of a branch or jump.
    fn target(&self) -> Option<usize> {
        match self.instr {
            SInstr::Blt(.., t)
            | SInstr::Bge(.., t)
            | SInstr::Bne(.., t)
            | SInstr::Beq(.., t)
            | SInstr::Jmp(t) => Some(t),
            _ => None,
        }
    }
}

/// The pipeline's timing state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Timing {
    /// The issue clock: no later instruction issues before it.
    cycle: u64,
    /// Issue slots used in `cycle`.
    slots: u64,
    /// Memory ports used in `cycle`.
    mem_ports: u64,
    /// Each register's ready time (`ready[NO_REG]` never moves,
    /// `ready[NO_DST]` is never read).
    ready: [u64; NUM_REGS + 2],
}

impl Timing {
    /// The state at the start of a run: everything ready at cycle 0.
    fn start() -> Timing {
        Timing {
            cycle: 0,
            slots: 0,
            mem_ports: 0,
            ready: [0; NUM_REGS + 2],
        }
    }

    /// Times one instruction: its result is ready `lat` cycles after
    /// issue, and `redirect` says whether control leaves `pc + 1`. The
    /// one copy of the pipeline timing rules.
    #[inline(always)]
    fn step(&mut self, cfg: &VpConfig, d: &Decoded, lat: u64, redirect: bool) {
        // Loads and stores compete for a memory port.
        let mem = matches!(d.kind, Kind::Load | Kind::Store);
        // One stall check: issue at the first cycle with both sources
        // ready (RAW), a free issue slot and, for a load or store, a free
        // memory port. A full cycle pushes issue to the next one; a later
        // operand already does, onto a fresh cycle.
        let full =
            self.slots == cfg.scalar_issue_width || (mem && self.mem_ports == cfg.scalar_mem_ports);
        let t = (self.cycle + full as u64)
            .max(self.ready[d.srcs[0] as usize])
            .max(self.ready[d.srcs[1] as usize]);
        if t > self.cycle {
            self.cycle = t;
            self.slots = 0;
            self.mem_ports = 0;
        }
        let issue = self.cycle;
        self.slots += 1;
        self.mem_ports += mem as u64;
        self.ready[d.dst as usize] = issue + lat;
        // Taken control flow ends the issue group and pays the penalty.
        if redirect {
            self.cycle = issue + 1 + cfg.scalar_branch_penalty;
            self.slots = 0;
            self.mem_ports = 0;
        }
    }

    /// The state relative to the issue clock: every ready time clamped
    /// to the clock, then the clock moved to 0. Issue takes the max of
    /// the clock and the ready times, so a time at or before the clock
    /// acts exactly as the clock does.
    fn relative(&self) -> Timing {
        let mut ready = self.ready.map(|t| t.saturating_sub(self.cycle));
        ready[NO_DST as usize] = 0;
        Timing {
            cycle: 0,
            ready,
            ..*self
        }
    }

    /// The state moved `by` cycles later.
    fn shifted(&self, by: u64) -> Timing {
        Timing {
            cycle: self.cycle + by,
            ready: self.ready.map(|t| t + by),
            ..*self
        }
    }
}

impl Hash for Timing {
    fn hash<H: Hasher>(&self, h: &mut H) {
        let words = [self.cycle, self.slots, self.mem_ports].into_iter();
        for w in words.chain(self.ready) {
            h.write_u64(w);
        }
    }
}

/// What executing instructions produced besides their effects: the
/// outcome bits in program order from bit 0 (each load's L1 miss, each
/// conditional branch's redirect), and the load and store counts.
#[derive(Debug, Clone, Copy, Default)]
struct Outcomes {
    bits: u64,
    len: u32,
    loads: u64,
    stores: u64,
}

impl Outcomes {
    #[inline(always)]
    fn push(&mut self, bit: bool) {
        self.bits |= (bit as u64) << self.len;
        self.len += 1;
    }

    /// A conditional branch at `pc`: notes whether it is `taken` and
    /// returns the next pc (and no result latency).
    #[inline(always)]
    fn branch(&mut self, taken: bool, pc: usize, target: usize) -> (usize, u64) {
        self.push(taken);
        (if taken { target } else { pc + 1 }, 0)
    }
}

/// Instructions a memoized segment spans at most: its outcome bits
/// (at most one per instruction) fill one word.
const SEGMENT: u64 = 64;

/// The functional state of a run: registers, memory, the L1 and the
/// counts.
struct Core<'a> {
    cfg: &'a VpConfig,
    regs: [i64; NUM_REGS],
    mem: &'a mut Memory,
    cache: Cache,
    stats: ScalarRunStats,
}

impl Core<'_> {
    /// Counts `n` executed instructions that produced `out`.
    fn count(&mut self, n: u64, out: &Outcomes) {
        self.stats.instructions += n;
        self.stats.loads += out.loads;
        self.stats.stores += out.stores;
    }

    /// Executes `instr`, the instruction at `pc`, on the registers,
    /// memory and L1, noting what it produced in `out`. Returns the next
    /// pc and the latency of the result (the L1 latency for a load, the
    /// ALU latency for arithmetic), or `None` for a halt, which does
    /// nothing.
    #[inline(always)]
    fn execute(&mut self, instr: SInstr, pc: usize, out: &mut Outcomes) -> Option<(usize, u64)> {
        let regs = &mut self.regs;
        let alu = self.cfg.scalar_alu_latency;
        Some(match instr {
            SInstr::Li(rd, imm) => {
                regs[rd as usize] = imm;
                (pc + 1, alu)
            }
            SInstr::Add(rd, rs, rt) => {
                regs[rd as usize] = regs[rs as usize].wrapping_add(regs[rt as usize]);
                (pc + 1, alu)
            }
            SInstr::Addi(rd, rs, imm) => {
                regs[rd as usize] = regs[rs as usize].wrapping_add(imm);
                (pc + 1, alu)
            }
            SInstr::Sub(rd, rs, rt) => {
                regs[rd as usize] = regs[rs as usize].wrapping_sub(regs[rt as usize]);
                (pc + 1, alu)
            }
            SInstr::Ld(rd, rs, imm) => {
                let addr = (regs[rs as usize] + imm) as u32;
                regs[rd as usize] = self.mem.read(addr) as i64;
                let lat = self.cache.access(addr);
                out.loads += 1;
                out.push(lat != self.cache.hit_latency());
                (pc + 1, lat)
            }
            SInstr::St(rs, rt, imm) => {
                let addr = (regs[rs as usize] + imm) as u32;
                self.mem.write(addr, regs[rt as usize] as u32);
                // Write-allocate: the access charges the port and warms
                // the cache; the store itself retires without a consumer.
                self.cache.access(addr);
                out.stores += 1;
                (pc + 1, 0)
            }
            SInstr::Blt(rs, rt, t) => out.branch(regs[rs as usize] < regs[rt as usize], pc, t),
            SInstr::Bge(rs, rt, t) => out.branch(regs[rs as usize] >= regs[rt as usize], pc, t),
            SInstr::Bne(rs, rt, t) => out.branch(regs[rs as usize] != regs[rt as usize], pc, t),
            SInstr::Beq(rs, rt, t) => out.branch(regs[rs as usize] == regs[rt as usize], pc, t),
            SInstr::Jmp(t) => (t, 0),
            SInstr::Halt => return None,
        })
    }

    /// Times instructions one by one from `pc`, at least one, and stops
    /// before the next loop head when `to_head`. Returns that head, or
    /// `None` once the run is over: it halted, hit the `max` cap or left
    /// the code.
    #[inline(never)]
    fn run_timed(
        &mut self,
        code: &[Decoded],
        t: &mut Timing,
        mut pc: usize,
        max: u64,
        to_head: bool,
    ) -> Option<usize> {
        while let Some(d) = code.get(pc) {
            if self.stats.instructions >= max {
                self.stats.capped = true;
                return None;
            }
            let mut out = Outcomes::default();
            let step = self.execute(d.instr, pc, &mut out);
            self.count(1, &out);
            let Some((next, lat)) = step else {
                t.step(self.cfg, d, 0, false);
                return None;
            };
            t.step(self.cfg, d, lat, next != pc + 1);
            pc = next;
            if to_head && code.get(pc).is_some_and(|d| d.head) {
                return Some(pc);
            }
        }
        None
    }

    /// Runs one segment from loop head `pc` functionally. Returns where
    /// it stopped, its instruction count and outcome bits, and whether
    /// it reached a loop head. A segment that halts, leaves the code or
    /// runs [`SEGMENT`] instructions first stops short of a head (before
    /// a halt, which it leaves to the caller).
    #[inline(never)]
    fn run_segment(&mut self, code: &[Decoded], mut pc: usize) -> (usize, u64, Outcomes, bool) {
        let mut out = Outcomes::default();
        let mut n = 0;
        let mut instr = code[pc].instr;
        loop {
            let Some((next, _)) = self.execute(instr, pc, &mut out) else {
                return (pc, n, out, false);
            };
            n += 1;
            pc = next;
            match code.get(pc) {
                Some(d) if d.head => return (pc, n, out, true),
                Some(d) if n < SEGMENT => instr = d.instr,
                _ => return (pc, n, out, false),
            }
        }
    }

    /// Times the `n`-instruction segment from `head` with outcome bits
    /// `out` onto `t`: the bits give its path and its latencies.
    fn retime(&self, code: &[Decoded], t: &mut Timing, head: usize, n: u64, out: Outcomes) {
        let (hit, miss) = (self.cache.hit_latency(), self.cache.miss_latency());
        let mut bits = out.bits;
        let mut bit = || {
            let b = bits & 1 == 1;
            bits >>= 1;
            b
        };
        let mut pc = head;
        for _ in 0..n {
            let d = &code[pc];
            let target = || d.target().expect("a branch or jump has a target");
            let (next, lat) = match d.kind {
                Kind::Alu => (pc + 1, self.cfg.scalar_alu_latency),
                Kind::Load => (pc + 1, if bit() { miss } else { hit }),
                Kind::Store => (pc + 1, 0),
                Kind::Branch => (if bit() { target() } else { pc + 1 }, 0),
                Kind::Jump => (target(), 0),
                Kind::Halt => unreachable!("segments stop before a halt"),
            };
            t.step(self.cfg, d, lat, next != pc + 1);
            pc = next;
        }
    }
}

/// Memoized segment timing: a segment started from a relative timing
/// state it was timed from before, with the same outcome bits, advances
/// the clock as it did then and leaves the same relative state.
///
/// It follows [`crate::Replay`]'s rules: at most [`CAPACITY`] entries and
/// as many states, and off for the rest of the run once hits stay rare.
#[derive(Default)]
struct Memo {
    /// Interned relative states ([`Timing::relative`]), by id.
    states: Vec<Timing>,
    ids: HashMap<Timing, u32, Words>,
    /// (head and start state, outcome bits) → (clock advance, end state).
    table: HashMap<Key, (u64, u32), Words>,
    /// The last hit, which a loop that has settled repeats every
    /// iteration.
    last: Option<(Key, (u64, u32))>,
    hits: u64,
    misses: u64,
}

/// A segment's memo key. The bits alone tell segments from one head
/// apart: a walk from the head stops where the bits read so far say, so
/// no segment's bits extend another's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    /// The head pc (low half) and the start state's id (high half).
    start: u64,
    bits: u64,
}

impl Memo {
    /// An empty memo, sized for the few states and segments a loop
    /// settles into: short runs pay no rehashing.
    fn new() -> Memo {
        Memo {
            states: Vec::with_capacity(16),
            ids: HashMap::with_capacity_and_hasher(16, Words::default()),
            table: HashMap::with_capacity_and_hasher(32, Words::default()),
            ..Memo::default()
        }
    }

    fn intern(&mut self, rel: Timing) -> Option<u32> {
        if let Some(&id) = self.ids.get(&rel) {
            return Some(id);
        }
        if self.states.len() >= CAPACITY {
            return None;
        }
        let id = self.states.len() as u32;
        self.states.push(rel);
        self.ids.insert(rel, id);
        Some(id)
    }

    /// Runs whole segments from loop head `pc` while memoizing pays and
    /// the cap leaves room for one more, advancing `timing` over them.
    /// Returns the pc at which per-instruction timing takes over.
    fn run(
        &mut self,
        core: &mut Core,
        code: &[Decoded],
        timing: &mut Timing,
        mut pc: usize,
        max: u64,
    ) -> usize {
        let Some(mut state) = self.intern(timing.relative()) else {
            self.misses += 1;
            return pc;
        };
        let mut base = timing.cycle;
        while pays(self.hits, self.misses) && max - core.stats.instructions >= SEGMENT {
            let head = pc;
            let (end, n, out, whole) = core.run_segment(code, head);
            core.count(n, &out);
            pc = end;
            let key = Key {
                start: head as u64 | (state as u64) << 32,
                bits: out.bits,
            };
            let found = match self.last {
                Some((k, v)) if k == key => Some(v),
                _ => self.table.get(&key).copied(),
            };
            if let (true, Some((delta, next))) = (whole, found) {
                self.hits += 1;
                self.last = Some((key, (delta, next)));
                base += delta;
                state = next;
                continue;
            }
            self.misses += 1;
            let mut t = self.states[state as usize];
            core.retime(code, &mut t, head, n, out);
            let Some(next) = whole.then(|| self.intern(t.relative())).flatten() else {
                *timing = t.shifted(base);
                return pc;
            };
            if self.table.len() < CAPACITY {
                self.table.insert(key, (t.cycle, next));
            }
            base += t.cycle;
            state = next;
        }
        *timing = self.states[state as usize].shifted(base);
        pc
    }
}

/// Executes `program` to `Halt` (or the `max_instructions` safety cap),
/// reading and writing `mem`. Returns the run statistics; register state
/// is internal to the run. `cfg` must be valid ([`VpConfig::validate`]):
/// the issue width and memory ports are at least one.
///
/// With `memo`, loop iterations take their timing from a memo table
/// (see the module docs); without it every instruction is timed. The
/// statistics are the same either way.
///
/// A program that runs past `max_instructions` without halting stops
/// there with [`ScalarRunStats::capped`] set — corrupt inputs can drive
/// loop bounds arbitrarily high, so this must not panic.
pub fn run_program(
    cfg: &VpConfig,
    mem: &mut Memory,
    program: &Program,
    max_instructions: u64,
    memo: bool,
) -> ScalarRunStats {
    run(cfg, mem, program, max_instructions, memo).0
}

/// [`run_program`], also returning the memo when it stayed on to the
/// end.
fn run(
    cfg: &VpConfig,
    mem: &mut Memory,
    program: &Program,
    max_instructions: u64,
    memo: bool,
) -> (ScalarRunStats, Option<Memo>) {
    let mut code: Vec<Decoded> = program.code.iter().map(|&i| decode(i)).collect();
    for pc in 0..code.len() {
        match code[pc].target() {
            Some(t) if t <= pc => code[t].head = true,
            _ => {}
        }
    }
    let mut memo = (memo && code.iter().any(|d| d.head)).then(Memo::new);
    let mut core = Core {
        cfg,
        regs: [0; NUM_REGS],
        mem,
        cache: Cache::new(cfg.scalar_cache),
        stats: ScalarRunStats::default(),
    };
    let mut timing = Timing::start();
    let mut pc = 0usize;
    loop {
        if let (Some(m), Some(d)) = (&mut memo, code.get(pc)) {
            if d.head {
                pc = m.run(&mut core, &code, &mut timing, pc, max_instructions);
                if !pays(m.hits, m.misses) {
                    memo = None;
                }
            }
        }
        match core.run_timed(&code, &mut timing, pc, max_instructions, memo.is_some()) {
            Some(head) => pc = head,
            None => break,
        }
    }
    let stats = ScalarRunStats {
        cycles: timing.cycle + 1,
        cache_hits: core.cache.hits(),
        cache_misses: core.cache.misses(),
        ..core.stats
    };
    (stats, memo)
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
        let st = run_program(&cfg(), &mut mem, &a.finish(), 1000, true);
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
        let st = run_program(&cfg(), &mut mem, &a.finish(), 10_000, true);
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
        let st = run_program(&cfg(), &mut mem, &a.finish(), 100, true);
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
        let st = run_program(&cfg(), &mut mem, &a.finish(), 100, true);
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
        let st = run_program(&cfg(), &mut mem, &a.finish(), 10_000, true);
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
        let st = run_program(&cfg(), &mut mem, &a.finish(), 100, true);
        assert!(st.capped);
        assert_eq!(st.instructions, 100);
    }

    #[test]
    fn halting_program_is_not_capped() {
        let mut a = Asm::new();
        a.li(1, 1).halt();
        let mut mem = Memory::new();
        assert!(!run_program(&cfg(), &mut mem, &a.finish(), 100, true).capped);
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
            run_program(&c, &mut mem, &a.finish(), 10_000, true).cycles
        };
        assert!(run_with(3) > run_with(0));
    }

    /// Runs `p` with the memo on and off, asserts equal statistics and
    /// memory, and returns the statistics and the memo's hits.
    fn both_ways(cfg: &VpConfig, mem: &Memory, p: &Program, cap: u64) -> (ScalarRunStats, u64) {
        let (mut on_mem, mut off_mem) = (mem.clone(), mem.clone());
        let (on, memo) = run(cfg, &mut on_mem, p, cap, true);
        let (off, unmemoized) = run(cfg, &mut off_mem, p, cap, false);
        assert!(unmemoized.is_none());
        assert_eq!(on, off, "cap {cap}");
        assert_eq!(on_mem.read_block(0, 8192), off_mem.read_block(0, 8192));
        (on, memo.map_or(0, |m| m.hits))
    }

    /// A histogram loop over `n` scattered column indices.
    fn histogram(n: u32) -> (Memory, Program) {
        let mut mem = Memory::new();
        let ja: Vec<u32> = (0..n).map(|k| k.wrapping_mul(2654435761) % 3000).collect();
        mem.write_block(0, &ja);
        let mut a = Asm::new();
        a.li(1, 0).li(2, n as i64).li(3, 0).li(4, 5000);
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
        (mem, a.finish())
    }

    #[test]
    fn memoized_loop_timing_is_exact() {
        let (mem, p) = histogram(2000);
        let (st, hits) = both_ways(&cfg(), &mem, &p, 100_000);
        assert!(!st.capped && st.cache_misses > 100);
        // Iterations of mixed L1 outcomes settle into few relative states.
        assert!(hits > 1900, "hits = {hits}");
    }

    #[test]
    fn caps_landing_mid_iteration_agree() {
        let (mem, p) = histogram(40);
        for cap in 0..340 {
            let (st, _) = both_ways(&cfg(), &mem, &p, cap);
            assert_eq!(st.capped, cap < 325, "cap {cap}");
        }
    }

    #[test]
    fn bodies_longer_than_a_segment_are_timed() {
        let mut a = Asm::new();
        a.li(1, 0).li(2, 50);
        let top = a.label();
        a.bind(top);
        for k in 0..SEGMENT as u8 {
            a.addi(3 + k % 27, 3 + k % 27, 1);
        }
        a.addi(1, 1, 1);
        a.blt(1, 2, top);
        a.halt();
        let (st, hits) = both_ways(&cfg(), &Memory::new(), &a.finish(), 100_000);
        assert_eq!(st.instructions, 3 + 50 * (SEGMENT + 2));
        assert_eq!(hits, 0);
    }

    #[test]
    fn odd_control_flow_agrees() {
        use SInstr::*;
        let programs: [(&str, Vec<SInstr>); 4] = [
            // A one-instruction loop at pc 0, stopped only by the cap.
            ("self jump", vec![Jmp(0)]),
            // A jump to the next instruction is no redirect.
            (
                "jump to next",
                vec![Li(2, 30), Addi(1, 1, 1), Jmp(3), Blt(1, 2, 1), Halt],
            ),
            // The loop leaves the code through a branch past its end.
            (
                "branch past the end",
                vec![Li(2, 30), Addi(1, 1, 1), Bge(1, 2, 9), Jmp(1)],
            ),
            // A halt inside the loop body, taken on the 20th iteration.
            (
                "halt in the body",
                vec![
                    Li(2, 20),
                    Addi(1, 1, 1),
                    Bne(1, 2, 4),
                    Halt,
                    Ld(3, 1, 7),
                    Jmp(1),
                ],
            ),
        ];
        for (label, code) in programs {
            let p = Program { code };
            for cap in [0, 1, 50, 63, 64, 65, 100, 1_000] {
                let (st, hits) = both_ways(&cfg(), &Memory::new(), &p, cap);
                assert!(st.capped || st.instructions < cap, "{label}, cap {cap}");
                if cap == 1_000 {
                    assert!(hits > 0, "{label}: the memo never hit");
                }
            }
        }
    }
}
