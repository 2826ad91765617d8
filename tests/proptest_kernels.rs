//! Property tests of the simulated kernels and the STM unit: for
//! arbitrary matrices and arbitrary legal hardware geometries, the
//! simulated transposition must be exact and its timing sane.
//!
//! Each property runs over seeded random cases (see `common`); a failing
//! case is replayed exactly by its `(property seed, case)` pair.

mod common;

use common::{arb_coo, arb_positions, case_rng, pick, StdRng};
use hism_stm::hism::{build, HismImage};
use hism_stm::sparse::Csr;
use hism_stm::stm::kernels::{transpose_crs, transpose_hism};
use hism_stm::stm::unit::{block_timing, buffer_utilization, StmConfig, StmUnit};
use hism_stm::stm::ExecCtx;
use hism_stm::vpsim::VpConfig;

/// Arbitrary STM geometry with a matching VP config.
fn arb_geometry(r: &mut StdRng) -> ExecCtx {
    let s = pick(r, &[4usize, 8, 16, 64]);
    let b = pick(r, &[1u64, 2, 4, 8]);
    let l = pick(r, &[1usize, 2, 4, 8]);
    let vp = VpConfig {
        section_size: s,
        chaining: r.gen_bool(0.5),
        ..VpConfig::paper()
    };
    ExecCtx {
        vp,
        stm: StmConfig { s, b, l },
        ..ExecCtx::paper()
    }
}

/// Unique block positions numbered row-major with values `1..`.
fn numbered_block(positions: &[(u8, u8)]) -> Vec<(u8, u8, u32)> {
    positions
        .iter()
        .enumerate()
        .map(|(k, &(r, c))| (r, c, k as u32 + 1))
        .collect()
}

#[test]
fn simulated_hism_transpose_is_exact_for_any_geometry() {
    for case in 0..48 {
        let mut r = case_rng(0xA1, case);
        let coo = arb_coo(&mut r, 70, 120);
        let ctx = arb_geometry(&mut r);
        // A failing case is shrunk to a minimal counterexample before the
        // panic (see `common::check_coo_property`).
        common::check_coo_property("hism_transpose_exact", 0xA1, case, &coo, |m| {
            let h = build::from_coo(m, ctx.stm.s).unwrap();
            let img = HismImage::encode(&h);
            let (out, report) = transpose_hism(&ctx, &img).unwrap();
            let mut canon = m.clone();
            canon.canonicalize();
            build::to_coo(&out.decode().unwrap()) == m.transpose_canonical()
                && report.nnz == canon.nnz()
        });
    }
}

#[test]
fn simulated_crs_transpose_is_exact() {
    for case in 0..48 {
        let mut r = case_rng(0xA2, case);
        let coo = arb_coo(&mut r, 70, 120);
        let mut ctx = ExecCtx::paper();
        ctx.vp.chaining = r.gen_bool(0.5);
        common::check_coo_property("crs_transpose_exact", 0xA2, case, &coo, |m| {
            let csr = Csr::from_coo(m);
            let (got, report) = transpose_crs(&ctx, &csr).unwrap();
            got.validate().unwrap();
            got == csr.transpose_pissanetsky() && report.cycles > 0
        });
    }
}

#[test]
fn stm_unit_transposes_any_block() {
    for case in 0..48 {
        let mut r = case_rng(0xA3, case);
        let positions = arb_positions(&mut r, 16, 0, 80);
        let b = r.gen_range(1..9u64);
        let l = r.gen_range(1..9usize);
        let block = numbered_block(&positions);
        let mut unit = StmUnit::new(StmConfig { s: 16, b, l });
        let (t, timing) = unit.transpose_block(&block);
        // Output is the coordinate swap, row-major sorted.
        let mut expect: Vec<(u8, u8, u32)> =
            block.iter().map(|&(row, col, v)| (col, row, v)).collect();
        expect.sort();
        assert_eq!(t, expect, "case {case}");
        // Timing sanity: at least ceil(z/b) batches per phase, at most z.
        let z = block.len() as u64;
        let min_batches = z.div_ceil(b);
        assert!(timing.write_batches >= min_batches, "case {case}");
        assert!(timing.read_batches >= min_batches, "case {case}");
        assert!(timing.write_batches <= z.max(1) || z == 0, "case {case}");
        // Fast path agrees with the unit.
        assert_eq!(
            block_timing(&positions, &StmConfig { s: 16, b, l }),
            timing,
            "case {case}"
        );
    }
}

#[test]
fn wider_buffers_and_more_lines_never_slow_a_block() {
    for case in 0..48 {
        let mut r = case_rng(0xA4, case);
        let positions = arb_positions(&mut r, 32, 1, 120);
        let t =
            |b: u64, l: usize| block_timing(&positions, &StmConfig { s: 32, b, l }).total_cycles();
        assert!(t(2, 1) <= t(1, 1), "case {case}");
        assert!(t(4, 1) <= t(2, 1), "case {case}");
        assert!(t(4, 2) <= t(4, 1), "case {case}");
        assert!(t(4, 4) <= t(4, 2), "case {case}");
        assert!(t(8, 8) <= t(4, 4), "case {case}");
    }
}

#[test]
fn chaining_never_hurts_the_kernels() {
    for case in 0..32 {
        let mut r = case_rng(0xA5, case);
        let coo = arb_coo(&mut r, 70, 120);
        let cyc = |chaining: bool| {
            let ctx = ExecCtx {
                vp: VpConfig {
                    section_size: 16,
                    chaining,
                    ..VpConfig::paper()
                },
                stm: StmConfig { s: 16, b: 4, l: 4 },
                ..ExecCtx::paper()
            };
            let h = build::from_coo(&coo, 16).unwrap();
            let (_, hr) = transpose_hism(&ctx, &HismImage::encode(&h)).unwrap();
            let (_, cr) = transpose_crs(&ctx, &Csr::from_coo(&coo)).unwrap();
            (hr.cycles, cr.cycles)
        };
        let (h_on, c_on) = cyc(true);
        let (h_off, c_off) = cyc(false);
        assert!(
            h_on <= h_off,
            "case {case}: HiSM chained {h_on} > unchained {h_off}"
        );
        assert!(
            c_on <= c_off,
            "case {case}: CRS chained {c_on} > unchained {c_off}"
        );
    }
}

#[test]
fn faster_memory_never_slows_the_kernels() {
    for case in 0..32 {
        let mut r = case_rng(0xA6, case);
        let coo = arb_coo(&mut r, 70, 120);
        let cyc = |startup: u64| {
            let mut ctx = ExecCtx::paper();
            ctx.vp.mem_startup = startup;
            let h = build::from_coo(&coo, 64).unwrap();
            let (_, hr) = transpose_hism(&ctx, &HismImage::encode(&h)).unwrap();
            let (_, cr) = transpose_crs(&ctx, &Csr::from_coo(&coo)).unwrap();
            (hr.cycles, cr.cycles)
        };
        let (h_fast, c_fast) = cyc(5);
        let (h_slow, c_slow) = cyc(40);
        assert!(h_fast <= h_slow, "case {case}");
        assert!(c_fast <= c_slow, "case {case}");
    }
}

#[test]
fn micro_model_agrees_with_analytic_model() {
    // The cycle-stepped hardware model and the closed-form batch model
    // are independent implementations of the same unit.
    for case in 0..48 {
        let mut r = case_rng(0xA7, case);
        let positions = arb_positions(&mut r, 16, 0, 100);
        let b = r.gen_range(1..9u64);
        let l = r.gen_range(1..9usize);
        let block: Vec<(u8, u8, u32)> = positions
            .iter()
            .enumerate()
            .map(|(k, &(row, col))| (row, col, k as u32))
            .collect();
        let cfg = StmConfig { s: 16, b, l };
        let mut micro = hism_stm::stm::micro::MicroStm::new(cfg);
        let (micro_out, micro_t) = micro.transpose_block(&block);
        assert_eq!(micro_t, block_timing(&positions, &cfg), "case {case}");
        if !block.is_empty() {
            assert_eq!(micro.cycles(), micro_t.total_cycles(), "case {case}");
        }
        let mut unit = StmUnit::new(cfg);
        let (unit_out, _) = unit.transpose_block(&block);
        assert_eq!(micro_out, unit_out, "case {case}");
    }
}

#[test]
fn bu_is_always_a_valid_fraction() {
    for case in 0..48 {
        let mut r = case_rng(0xA8, case);
        let positions = arb_positions(&mut r, 64, 1, 200);
        let b = r.gen_range(1..9u64);
        let l = r.gen_range(1..9usize);
        let cfg = StmConfig { s: 64, b, l };
        let timing = block_timing(&positions, &cfg);
        let bu = buffer_utilization(&[timing], b);
        assert!(bu > 0.0 && bu <= 1.0, "case {case}: BU = {bu}");
    }
}
