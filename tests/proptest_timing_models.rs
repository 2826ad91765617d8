//! Property tests for the pluggable timing models: the timing model may
//! only change *when* things happen, never *what* happens.
//!
//! * Every registry kernel's functional output is byte-identical (equal
//!   [`registry::KernelOutput::digest`]) under the paper timing model and
//!   the ideal zero-latency model, and the ideal cycle count is a lower
//!   bound on the paper one.
//! * Per-element ready times within any `VReg` an engine produces are
//!   monotonically non-decreasing — streams deliver elements in order
//!   under every model.

mod common;

use common::{arb_coo, case_rng};
use hism_stm::stm::kernels::registry;
use hism_stm::vpsim::{Engine, Memory, TimingKind, VReg, VpConfig};

const CASES: u64 = 24;

fn monotone(v: &VReg) -> bool {
    v.ready.windows(2).all(|w| w[0] <= w[1])
}

#[test]
fn functional_output_is_identical_under_every_timing_model() {
    for case in 0..CASES {
        let mut r = case_rng(0xB1, case);
        let coo = arb_coo(&mut r, 120, 500);
        for &name in registry::names() {
            let run = |timing: TimingKind| {
                let ctx = registry::ExecCtx::with_timing(timing);
                let mut k = registry::create(name).unwrap();
                k.prepare(&coo, &ctx).unwrap();
                let report = k
                    .run(&ctx)
                    .unwrap_or_else(|e| panic!("case {case} {name} ({timing:?}): {e}"));
                k.verify(&coo, &report.output)
                    .unwrap_or_else(|e| panic!("case {case} {name} ({timing:?}): {e}"));
                report
            };
            let paper = run(TimingKind::Paper);
            let ideal = run(TimingKind::Ideal);
            assert_eq!(
                paper.output_digest, ideal.output_digest,
                "case {case}: {name} output depends on the timing model"
            );
            assert!(
                ideal.report.cycles <= paper.report.cycles,
                "case {case}: {name} ideal {} > paper {}",
                ideal.report.cycles,
                paper.report.cycles
            );
        }
    }
}

#[test]
fn vreg_ready_times_are_monotone_within_a_register() {
    for case in 0..CASES {
        let mut r = case_rng(0xB2, case);
        for &timing in &[TimingKind::Paper, TimingKind::Ideal] {
            let mut vp = VpConfig::paper();
            vp.section_size = common::pick(&mut r, &[8usize, 16, 64]);
            vp.chaining = r.gen_bool(0.5);
            let s = vp.section_size;
            let n = r.gen_range(1..=s);
            let mut mem = Memory::with_capacity(4 * s);
            for i in 0..(4 * s) {
                mem.write(i as u32, r.gen_range(0..s as u64) as u32);
            }
            let mut e = Engine::with_timing(vp, mem, timing);

            // A chained sequence touching every stream shape: contiguous
            // load, gather through it, ALU ops, strided load, scatter-add.
            let a = e.v_ld(0, n);
            assert!(monotone(&a), "v_ld ({timing:?})");
            let idx = e.v_iota(n, 0, 1);
            assert!(monotone(&idx), "v_iota ({timing:?})");
            let g = e.v_ld_idx(0, &idx);
            assert!(monotone(&g), "v_ld_idx ({timing:?})");
            let sum = e.v_add(&a, &g);
            assert!(monotone(&sum), "v_add ({timing:?})");
            let st = e.v_ld_strided(0, 2, n.min(2 * s / 2));
            assert!(monotone(&st), "v_ld_strided ({timing:?})");
            let (lo, hi) = e.v_ld_pair(0, n.min(s / 2));
            assert!(monotone(&lo) && monotone(&hi), "v_ld_pair ({timing:?})");
            let slid = e.v_slide_up(&sum, r.gen_range(0..n), 0);
            assert!(monotone(&slid), "v_slide_up ({timing:?})");
        }
    }
}

#[test]
fn ideal_timing_is_never_slower_across_random_engine_programs() {
    // The same instruction sequence replayed under both models: ideal
    // total cycles must be <= paper total cycles.
    for case in 0..CASES {
        let run = |timing: TimingKind| {
            let mut r = case_rng(0xB3, case);
            let s = 64usize;
            let mut mem = Memory::with_capacity(8 * s);
            for i in 0..(8 * s) {
                mem.write(i as u32, r.gen_range(0..s as u64) as u32);
            }
            let mut e = Engine::with_timing(VpConfig::paper(), mem, timing);
            for _ in 0..r.gen_range(3..20usize) {
                let n = r.gen_range(1..=s);
                let v = e.v_ld(r.gen_range(0..(4 * s)) as u32, n);
                let w = e.v_add(&v, &v);
                e.v_st(r.gen_range((4 * s)..(7 * s)) as u32, &w);
            }
            e.cycles()
        };
        let paper = run(TimingKind::Paper);
        let ideal = run(TimingKind::Ideal);
        assert!(ideal <= paper, "case {case}: ideal {ideal} > paper {paper}");
        assert!(paper > 0);
    }
}
