//! Property tests for the simulator's two hot-path primitives, each
//! against a naive per-element reference that shares no code with it:
//!
//! * the stream funnel ([`TimingModel::stream`] and
//!   [`TimingModel::batched`] under a borrowed [`Ready`] operand, and the
//!   unconstrained `*_last` shortcuts) against a per-slot loop over a
//!   materialised readiness vector, for every readiness form, chaining on
//!   and off, and one- and two-slot elements;
//! * guarded [`Memory`] block reads and writes against word-by-word
//!   `read`/`write` loops under every [`OobPolicy`], including blocks
//!   that straddle the guard and the end of the store. Data, the sticky
//!   [`MemFault`] and the `oob_events` count must all agree.
//!
//! [`MemFault`]: hism_stm::vpsim::MemFault

mod common;

use common::{case_rng, pick, StdRng};
use hism_stm::vpsim::{
    Engine, IdealTiming, Memory, OobPolicy, PaperTiming, Ready, Stream, TimingModel, VReg, VpConfig,
};

const CASES: u64 = 400;

/// The acceptance rule spelled out one slot at a time: slot `k` belongs
/// to element `k / slots`, waits for that element's readiness, and the
/// unit takes at most `rate` slots per cycle.
fn reference_stream(issue: u64, s: Stream, ready: Option<&[u64]>) -> Vec<u64> {
    let mut out = Vec::new();
    let mut t = issue + s.startup;
    let mut used = 0u64;
    for k in 0..s.n * s.slots {
        let avail = ready.map_or(0, |r| r[k / s.slots]);
        if avail > t {
            t = avail;
            used = 0;
        }
        if used == s.rate {
            t += 1;
            used = 0;
        }
        out.push(t + s.latency);
        used += 1;
    }
    out
}

/// One group per cycle, each gated by its slowest element.
fn reference_batched(
    issue: u64,
    startup: u64,
    latency: u64,
    groups: &[usize],
    ready: Option<&[u64]>,
) -> Vec<u64> {
    let mut out = Vec::new();
    let mut t = issue + startup;
    let mut k = 0;
    for &g in groups {
        let mut gate = 0;
        for i in k..k + g {
            gate = gate.max(ready.map_or(0, |r| r[i]));
        }
        let accept = t.max(gate);
        for _ in 0..g {
            out.push(accept + latency);
        }
        k += g;
        t = accept + 1;
    }
    out
}

/// A register of `n` elements whose ready times wander, not always
/// monotonically, over roughly `0..span`.
fn arb_reg(r: &mut StdRng, n: usize, span: u64) -> VReg {
    VReg {
        data: vec![0; n],
        ready: (0..n).map(|_| r.gen_range(0..span)).collect(),
    }
}

/// The readiness the old engine materialised for `regs` (one or two
/// sources): per-element maxima with chaining, every element at the
/// latest producer completion without.
fn materialise(regs: &[&VReg], chaining: bool) -> Vec<u64> {
    let n = regs[0].len();
    if chaining {
        (0..n)
            .map(|i| regs.iter().map(|v| v.ready[i]).max().unwrap())
            .collect()
    } else {
        let last = regs.iter().map(|v| v.last_ready()).max().unwrap();
        vec![last; n]
    }
}

#[test]
fn stream_funnel_matches_the_per_slot_reference() {
    let mut out = vec![7; 5]; // reused across cases: stale contents must go
    for case in 0..CASES {
        let mut r = case_rng(0x5F1, case);
        let issue = r.gen_range(0..500u64);
        let s = Stream {
            startup: r.gen_range(0..30u64),
            rate: r.gen_range(1..9u64),
            latency: r.gen_range(0..6u64),
            n: r.gen_range(0..=70usize),
            slots: pick(&mut r, &[1usize, 1, 2]),
        };
        let chaining = r.gen_bool(0.5);
        let mut vp = VpConfig::paper();
        vp.chaining = chaining;
        let e = Engine::new(vp, Memory::new());
        let span = pick(&mut r, &[1u64, issue + 20, issue + 400]);
        let (a, b) = (arb_reg(&mut r, s.n, span), arb_reg(&mut r, s.n, span));
        let t = r.gen_range(0..span);
        let all_at_t = vec![t; s.n];
        let both = materialise(&[&a, &b], chaining);
        let one = materialise(&[&a], chaining);
        let forms: [(&str, Ready, Option<&[u64]>); 4] = [
            ("none", Ready::None, None),
            ("at", Ready::At(t), Some(&all_at_t)),
            ("one", e.ready(&a), Some(&one)),
            ("max", e.ready2(&a, &b), Some(&both)),
        ];
        for (form, ready, materialised) in forms {
            let ctx = format!("case {case} {form} chaining={chaining} issue={issue} {s:?}");
            let want = reference_stream(issue, s, materialised);
            PaperTiming.stream(issue, s, ready, &mut out);
            assert_eq!(out, want, "{ctx}");
            IdealTiming.stream(issue, s, ready, &mut out);
            assert_eq!(out, vec![issue; s.len()], "ideal {ctx}");
        }
        let unconstrained = reference_stream(issue, s, None);
        assert_eq!(
            PaperTiming.stream_last(issue, s),
            unconstrained.last().copied().unwrap_or(issue),
            "case {case} stream_last {s:?}"
        );

        // Batched transfers over the same operands, in random groups.
        let mut groups = Vec::new();
        let mut left = s.n;
        while left > 0 {
            let g = r.gen_range(1..=left.min(5));
            groups.push(g);
            left -= g;
        }
        if r.gen_bool(0.2) {
            groups.push(0);
        }
        for (form, ready, materialised) in [
            ("none", Ready::None, None),
            ("at", Ready::At(t), Some(&all_at_t[..])),
            ("max", e.ready2(&a, &b), Some(&both[..])),
        ] {
            let want = reference_batched(issue, s.startup, s.latency, &groups, materialised);
            PaperTiming.batched(issue, s.startup, s.latency, &groups, ready, &mut out);
            assert_eq!(out, want, "case {case} batched {form} {groups:?}");
        }
        let want = reference_batched(issue, s.startup, s.latency, &groups, None);
        assert_eq!(
            PaperTiming.batched_last(issue, s.startup, s.latency, &groups),
            want.last().copied().unwrap_or(issue),
            "case {case} batched_last {groups:?}"
        );
    }
}

/// Everything observable about a memory: fault state plus every word,
/// read with the guard disarmed so the read itself records nothing.
fn observe(m: &Memory) -> (Option<hism_stm::vpsim::MemFault>, u64, usize, Vec<u32>) {
    let (fault, events) = (m.fault(), m.oob_events());
    let mut open = m.clone();
    open.guard(0, OobPolicy::Grow);
    let words = (0..open.len() as u32).map(|a| open.read(a)).collect();
    (fault, events, m.len(), words)
}

#[test]
fn block_access_matches_word_by_word_access() {
    for case in 0..CASES {
        let mut r = case_rng(0x3E3, case);
        let size = r.gen_range(0..64usize);
        let mut mem = Memory::with_capacity(size);
        for a in 0..size as u32 {
            mem.write(a, r.gen_range(1..1000u64) as u32);
        }
        let policy = pick(&mut r, &[OobPolicy::Grow, OobPolicy::Trap]);
        // The guard sits below, at, or above the end of the store.
        let limit = r.gen_range(0..=size + 16) as u32;
        mem.guard(limit, policy);
        let mut reference = mem.clone();
        for step in 0..12 {
            let ctx = format!("case {case} step {step} {policy:?} size {size} limit {limit}");
            // Blocks start around the guard and the end of the store so
            // that many of them straddle one or both.
            let anchor = pick(&mut r, &[0, limit, size as u32, mem.len() as u32]);
            let addr = anchor.saturating_sub(r.gen_range(0..8usize) as u32)
                + r.gen_range(0..3usize) as u32;
            let n = r.gen_range(0..12usize);
            if r.gen_bool(0.5) {
                let got = mem.read_block(addr, n);
                let want: Vec<u32> = (0..n as u32).map(|k| reference.read(addr + k)).collect();
                assert_eq!(got, want, "read {addr}+{n} {ctx}");
            } else {
                let data: Vec<u32> = (0..n).map(|_| r.gen_range(0..1000u64) as u32).collect();
                mem.write_block(addr, &data);
                for (k, &w) in data.iter().enumerate() {
                    reference.write(addr + k as u32, w);
                }
            }
            assert_eq!(observe(&mem), observe(&reference), "after {addr}+{n} {ctx}");
        }
    }
}
