//! Property tests of the scalar core: the timed 4-way pipeline and the
//! timing-free functional interpreter are independent implementations of
//! the same ISA, so on arbitrary programs they must leave identical
//! memory, and the timing must obey basic sanity laws. Loop timing is
//! memoized per iteration; on random looped programs, machines and
//! caches it must equal timing every instruction.
//!
//! Each property runs over seeded random cases (see `common`); a failing
//! case is replayed exactly by its `(property seed, case)` pair.

mod common;

use common::{case_rng, pick, StdRng};
use hism_stm::vpsim::scalar::asm::Label;
use hism_stm::vpsim::scalar::{
    run_functional, run_program, run_program_ooo, run_scalar, Asm, CacheConfig, Program,
    ScalarRunStats,
};
use hism_stm::vpsim::{Memory, VpConfig};

/// A randomly generated straight-line instruction (registers 1..8,
/// memory confined to words 0..64 via `base = r15` fixed at 0).
#[derive(Debug, Clone, Copy)]
enum Op {
    Li(u8, i8),
    Add(u8, u8, u8),
    Addi(u8, u8, i8),
    Sub(u8, u8, u8),
    Ld(u8, u8),
    St(u8, u8),
}

fn arb_op(r: &mut StdRng) -> Op {
    fn reg(r: &mut StdRng) -> u8 {
        r.gen_range(1..8usize) as u8
    }
    match r.gen_range(0..6usize) {
        0 => Op::Li(reg(r), r.next_u64() as i8),
        1 => Op::Add(reg(r), reg(r), reg(r)),
        2 => Op::Addi(reg(r), reg(r), r.next_u64() as i8),
        3 => Op::Sub(reg(r), reg(r), reg(r)),
        4 => Op::Ld(reg(r), r.gen_range(0..64usize) as u8),
        _ => Op::St(reg(r), r.gen_range(0..64usize) as u8),
    }
}

fn arb_ops(r: &mut StdRng, min: usize, max: usize) -> Vec<Op> {
    let n = r.gen_range(min..max);
    (0..n).map(|_| arb_op(r)).collect()
}

fn seed_mem(r: &mut StdRng) -> Vec<u32> {
    (0..64).map(|_| r.next_u64() as u32).collect()
}

fn assemble(ops: &[Op]) -> Program {
    let mut a = Asm::new();
    a.li(15, 0); // memory base register
    for op in ops {
        match *op {
            Op::Li(r, v) => a.li(r, v as i64),
            Op::Add(d, s, t) => a.add(d, s, t),
            Op::Addi(d, s, v) => a.addi(d, s, v as i64),
            Op::Sub(d, s, t) => a.sub(d, s, t),
            Op::Ld(r, addr) => a.ld(r, 15, addr as i64),
            Op::St(r, addr) => a.st(15, addr as i64, r),
        };
    }
    a.halt();
    a.finish()
}

#[test]
fn pipeline_and_functional_interpreter_agree() {
    for case in 0..128 {
        let mut r = case_rng(0x51, case);
        let program = assemble(&arb_ops(&mut r, 0, 120));
        let mem = seed_mem(&mut r);
        let cap = 10_000;
        let mut m1 = Memory::new();
        m1.write_block(0, &mem);
        let mut m2 = m1.clone();
        run_functional(&mut m1, &program, cap);
        run_program(&VpConfig::paper(), &mut m2, &program, cap, true);
        for addr in 0..64u32 {
            assert_eq!(
                m1.read(addr),
                m2.read(addr),
                "case {case}: memory diverged at {addr}"
            );
        }
    }
}

#[test]
fn ooo_model_agrees_functionally() {
    for case in 0..128 {
        let mut r = case_rng(0x52, case);
        let program = assemble(&arb_ops(&mut r, 0, 120));
        let mem = seed_mem(&mut r);
        let mut m1 = Memory::new();
        m1.write_block(0, &mem);
        let mut m2 = m1.clone();
        run_functional(&mut m1, &program, 10_000);
        let st = run_program_ooo(&VpConfig::paper(), &mut m2, &program, 10_000);
        for addr in 0..64u32 {
            assert_eq!(
                m1.read(addr),
                m2.read(addr),
                "case {case}: memory diverged at {addr}"
            );
        }
        // OoO retirement can't beat the issue-width bound either.
        assert!(st.cycles >= st.instructions.div_ceil(4), "case {case}");
    }
}

#[test]
fn ooo_never_slower_than_in_order_on_straight_line() {
    for case in 0..64 {
        let mut r = case_rng(0x53, case);
        let program = assemble(&arb_ops(&mut r, 1, 100));
        let run = |ooo: bool| {
            let mut cfg = VpConfig::paper();
            cfg.scalar_out_of_order = ooo;
            let mut mem = Memory::new();
            run_scalar(
                &cfg,
                &mut mem,
                &program,
                10_000,
                &hism_stm::obs::Recorder::disabled(),
            )
            .cycles
        };
        // On straight-line code with ample ports the window model's only
        // divergence source (branch refill interplay) is absent.
        assert!(run(true) <= run(false) + 2, "case {case}");
    }
}

#[test]
fn timing_is_deterministic() {
    for case in 0..64 {
        let mut r = case_rng(0x54, case);
        let program = assemble(&arb_ops(&mut r, 0, 60));
        let run = || {
            let mut mem = Memory::new();
            run_program(&VpConfig::paper(), &mut mem, &program, 10_000, true)
        };
        assert_eq!(run(), run(), "case {case}");
    }
}

#[test]
fn wider_issue_is_never_slower() {
    for case in 0..64 {
        let mut r = case_rng(0x55, case);
        let program = assemble(&arb_ops(&mut r, 1, 100));
        let cycles_at = |width: u64| {
            let mut cfg = VpConfig::paper();
            cfg.scalar_issue_width = width;
            let mut mem = Memory::new();
            run_program(&cfg, &mut mem, &program, 10_000, true).cycles
        };
        assert!(cycles_at(4) <= cycles_at(1), "case {case}");
        assert!(cycles_at(8) <= cycles_at(4), "case {case}");
    }
}

#[test]
fn instruction_count_matches_program_length() {
    for case in 0..64 {
        let mut r = case_rng(0x56, case);
        let ops = arb_ops(&mut r, 0, 80);
        // Straight-line code: dynamic count = static count (li + ops + halt).
        let program = assemble(&ops);
        let mut mem = Memory::new();
        let st = run_program(&VpConfig::paper(), &mut mem, &program, 10_000, true);
        assert_eq!(st.instructions as usize, ops.len() + 2, "case {case}");
    }
}

#[test]
fn cycles_lower_bounded_by_issue_width() {
    for case in 0..64 {
        let mut r = case_rng(0x57, case);
        let program = assemble(&arb_ops(&mut r, 1, 100));
        let mut mem = Memory::new();
        let st = run_program(&VpConfig::paper(), &mut mem, &program, 10_000, true);
        // 4-wide issue cannot retire more than 4 instructions per cycle.
        assert!(st.cycles >= st.instructions.div_ceil(4), "case {case}");
    }
}

// Looped programs. Registers have fixed roles so that every address
// stays inside two regions however the loop runs:
// * r1/r2 and r13/r14 count the outer and inner loop;
// * r10 walks the index region by a stride each iteration, and an index
//   load `ld r5, r10, k` reads a column index in `0..DATA_LEN`;
// * r9 = r11 + r5 addresses the data region, which loads and stores
//   read and write like a histogram's counts;
// * r12 is a branch threshold; r3, r4, r6, r7 and r8 are scratch.

/// Words of the data region; index values fall in `0..DATA_LEN`.
const DATA_LEN: u32 = 12_000;

const SCRATCH: [u8; 5] = [3, 4, 6, 7, 8];

/// One step of a loop body.
#[derive(Debug, Clone, Copy)]
enum Step {
    Alu(Op),
    /// `ld r5, r10, k`
    Index(u8),
    /// `add r9, r11, r5`
    Addr,
    /// `ld rd, r9, c`
    Load(u8, u8),
    /// `st r9, c, rs`
    Store(u8, u8),
    /// A forward branch over the next `n` steps, on r5 against r12
    /// (data-dependent) or on two scratch registers.
    Skip {
        cond: u8,
        data: bool,
        n: usize,
    },
}

/// How the loop closes.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    /// `blt` back to the top.
    Counted,
    /// A test at the top and a `jmp` back, like the scalar CRS
    /// transpose's loops.
    Jumped,
    /// A counted outer loop around a jumped inner loop.
    Nested,
}

#[derive(Debug)]
struct Looped {
    shape: Shape,
    trips: (u32, u32),
    stride: u8,
    threshold: u32,
    body: Vec<Step>,
}

fn scratch(r: &mut StdRng) -> u8 {
    SCRATCH[r.gen_range(0..SCRATCH.len())]
}

fn arb_step(r: &mut StdRng) -> Step {
    match r.gen_range(0..8usize) {
        0 | 1 => {
            let (d, s, t) = (scratch(r), scratch(r), scratch(r));
            Step::Alu(match r.gen_range(0..4usize) {
                0 => Op::Li(d, r.next_u64() as i8),
                1 => Op::Add(d, s, t),
                2 => Op::Addi(d, s, r.next_u64() as i8),
                _ => Op::Sub(d, s, t),
            })
        }
        2 => Step::Index(r.gen_range(0..8usize) as u8),
        3 => Step::Addr,
        4 => Step::Load(pick(r, &[6u8, 7]), r.gen_range(0..4usize) as u8),
        5 => Step::Store(scratch(r), r.gen_range(0..4usize) as u8),
        _ => Step::Skip {
            cond: r.gen_range(0..4usize) as u8,
            data: r.gen_bool(0.5),
            n: r.gen_range(1..4usize),
        },
    }
}

fn arb_looped(r: &mut StdRng) -> Looped {
    let shape = pick(r, &[Shape::Counted, Shape::Jumped, Shape::Nested]);
    // Most bodies fit a memoized segment; some are longer than one.
    let steps = if r.gen_bool(0.1) {
        r.gen_range(60..90usize)
    } else {
        r.gen_range(1..16usize)
    };
    let body = (0..steps).map(|_| arb_step(r)).collect();
    let trips = match shape {
        Shape::Nested => (
            r.gen_range(1..20usize) as u32,
            r.gen_range(0..20usize) as u32,
        ),
        _ => (r.gen_range(1..300usize) as u32, 0),
    };
    Looped {
        shape,
        trips,
        stride: r.gen_range(0..40usize) as u8,
        threshold: r.gen_range(0..DATA_LEN as usize) as u32,
        body,
    }
}

/// Words of the index region the loop's walk can reach.
fn index_len(l: &Looped) -> u32 {
    let iterations = l.trips.0 * l.trips.1.max(1);
    iterations * l.stride as u32 + 8
}

fn emit_op(a: &mut Asm, op: Op) {
    match op {
        Op::Li(r, v) => a.li(r, v as i64),
        Op::Add(d, s, t) => a.add(d, s, t),
        Op::Addi(d, s, v) => a.addi(d, s, v as i64),
        Op::Sub(d, s, t) => a.sub(d, s, t),
        Op::Ld(..) | Op::St(..) => unreachable!("loop bodies address memory by role"),
    };
}

fn emit_body(a: &mut Asm, l: &Looped) {
    let mut pending: Vec<(Label, usize)> = Vec::new();
    for step in &l.body {
        match *step {
            Step::Alu(op) => emit_op(a, op),
            Step::Index(k) => {
                a.ld(5, 10, k as i64);
            }
            Step::Addr => {
                a.add(9, 11, 5);
            }
            Step::Load(rd, c) => {
                a.ld(rd, 9, c as i64);
            }
            Step::Store(rs, c) => {
                a.st(9, c as i64, rs);
            }
            Step::Skip { cond, data, n } => {
                let over = a.label();
                let (s, t) = if data { (5, 12) } else { (3, 7) };
                match cond {
                    0 => a.blt(s, t, over),
                    1 => a.bge(s, t, over),
                    2 => a.bne(s, t, over),
                    _ => a.beq(s, t, over),
                };
                pending.push((over, n + 1));
            }
        }
        for (label, left) in &mut pending {
            *left -= 1;
            if *left == 0 {
                a.bind(*label);
            }
        }
        pending.retain(|&(_, left)| left > 0);
    }
    for (label, _) in pending {
        a.bind(label);
    }
    a.addi(10, 10, l.stride as i64);
}

fn assemble_looped(l: &Looped) -> Program {
    let mut a = Asm::new();
    let data = index_len(l) + 64;
    a.li(1, 0).li(2, l.trips.0 as i64).li(14, l.trips.1 as i64);
    a.li(10, 0).li(11, data as i64).li(12, l.threshold as i64);
    a.li(5, 0).li(9, data as i64);
    for r in SCRATCH {
        a.li(r, r as i64);
    }
    let jumped = |a: &mut Asm, counter: u8, bound: u8, inner: &dyn Fn(&mut Asm)| {
        let (top, end) = (a.label(), a.label());
        a.bind(top);
        a.bge(counter, bound, end);
        inner(a);
        a.addi(counter, counter, 1);
        a.jmp(top);
        a.bind(end);
    };
    match l.shape {
        Shape::Counted => {
            let top = a.label();
            a.bind(top);
            emit_body(&mut a, l);
            a.addi(1, 1, 1);
            a.blt(1, 2, top);
        }
        Shape::Jumped => jumped(&mut a, 1, 2, &|a| emit_body(a, l)),
        Shape::Nested => {
            let top = a.label();
            a.bind(top);
            a.li(13, 0);
            jumped(&mut a, 13, 14, &|a| emit_body(a, l));
            a.addi(1, 1, 1);
            a.blt(1, 2, top);
        }
    }
    a.add(3, 3, 7).st(11, 0, 3).halt();
    a.finish()
}

/// Index words in `0..DATA_LEN` and a seeded data region.
fn looped_memory(r: &mut StdRng, l: &Looped) -> Memory {
    let mut mem = Memory::new();
    let index: Vec<u32> = (0..index_len(l))
        .map(|_| r.gen_range(0..DATA_LEN as usize) as u32)
        .collect();
    mem.write_block(0, &index);
    let data: Vec<u32> = (0..DATA_LEN + 8).map(|_| r.next_u64() as u32).collect();
    mem.write_block(index_len(l) + 64, &data);
    mem
}

/// A random scalar machine: issue width, memory ports, latencies and an
/// L1 of 64 B to 32 KiB (odd set counts included).
fn arb_machine(r: &mut StdRng) -> VpConfig {
    VpConfig {
        scalar_issue_width: r.gen_range(1..5usize) as u64,
        scalar_mem_ports: r.gen_range(1..3usize) as u64,
        scalar_alu_latency: r.gen_range(1..4usize) as u64,
        scalar_branch_penalty: r.gen_range(0..4usize) as u64,
        scalar_cache: CacheConfig {
            size_bytes: pick(r, &[64, 96, 160, 224, 480, 1056, 4000, 8192, 12288, 32768]),
            line_bytes: pick(r, &[16, 32, 64]),
            assoc: pick(r, &[1, 2, 4]),
            hit_latency: r.gen_range(1..4usize) as u64,
            miss_penalty: pick(r, &[0, 5, 20]),
        },
        ..VpConfig::paper()
    }
}

/// Runs `program` from `mem` under `cap`, memo on or off.
fn run_looped(
    cfg: &VpConfig,
    mem: &Memory,
    program: &Program,
    cap: u64,
    memo: bool,
) -> (ScalarRunStats, Memory) {
    let mut mem = mem.clone();
    let st = run_program(cfg, &mut mem, program, cap, memo);
    (st, mem)
}

#[test]
fn memoized_loops_time_like_every_instruction() {
    let mut capped = 0;
    for case in 0..256 {
        let mut r = case_rng(0x58, case);
        let l = arb_looped(&mut r);
        let program = assemble_looped(&l);
        let mem = looped_memory(&mut r, &l);
        let cfg = arb_machine(&mut r);
        cfg.validate().unwrap();
        let words = (index_len(&l) + 64 + DATA_LEN + 8) as usize;
        let (off, off_mem) = run_looped(&cfg, &mem, &program, u64::MAX, false);
        let (on, on_mem) = run_looped(&cfg, &mem, &program, u64::MAX, true);
        assert!(!on.capped, "case {case}");
        assert_eq!(on, off, "case {case}: {l:?}");
        assert_eq!(
            on_mem.read_block(0, words),
            off_mem.read_block(0, words),
            "case {case}"
        );
        let mut functional = mem.clone();
        run_functional(&mut functional, &program, u64::MAX);
        assert_eq!(
            on_mem.read_block(0, words),
            functional.read_block(0, words),
            "case {case}"
        );
        // A cap inside the run stops both at the same instruction.
        let cap = r.gen_range(0..on.instructions as usize) as u64;
        let (on, on_mem) = run_looped(&cfg, &mem, &program, cap, true);
        let (off, off_mem) = run_looped(&cfg, &mem, &program, cap, false);
        assert!(on.capped && on.instructions == cap, "case {case}");
        assert_eq!(on, off, "case {case}: cap {cap}");
        assert_eq!(
            on_mem.read_block(0, words),
            off_mem.read_block(0, words),
            "case {case}"
        );
        capped += 1;
    }
    assert_eq!(capped, 256);
}
