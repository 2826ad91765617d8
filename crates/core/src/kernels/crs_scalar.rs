//! The fully scalar CRS transposition — Pissanetsky's algorithm with *no*
//! vectorization, run entirely on the 4-way scalar core.
//!
//! The paper's introduction motivates the STM by noting that sparse
//! transposition "execute\[s\] inefficiently on traditional scalar and
//! vector architectures"; this kernel is the *traditional scalar
//! processor* data point, complementing the vectorized baseline of
//! [`super::crs_transpose`]. It assembles the complete algorithm — IAT
//! init, column histogram, scan-add, scatter — as one program for the
//! scalar mini-ISA and executes it on the timed pipeline.

use crate::exec::{ExecCtx, KernelError};
use crate::kernels::crs_transpose::{decode_result, load_csr, CrsLayout};
use crate::obs::{record_oob, record_phases};
use crate::report::{Phase, TransposeReport};
use stm_obs::{Category, Lane};
use stm_sparse::Csr;
use stm_vpsim::scalar::{run_scalar, Asm, Program};
use stm_vpsim::{Allocator, Memory};

/// Builds the complete scalar transposition program over a [`CrsLayout`].
pub fn scalar_transpose_program(layout: &CrsLayout, rows: usize, cols: usize) -> Program {
    let mut a = Asm::new();
    // Register map:
    //  r1 = loop counter, r2 = bound, r3 = scratch addr, r4..r19 = scratch.
    // --- init: IAT[0..=cols] = 0 -----------------------------------------
    a.li(1, 0);
    a.li(2, cols as i64 + 1);
    a.li(20, 0);
    a.li(5, layout.iat as i64);
    let init_top = a.label();
    let init_end = a.label();
    a.bind(init_top);
    a.bge(1, 2, init_end);
    a.add(3, 5, 1);
    a.st(3, 0, 20);
    a.addi(1, 1, 1);
    a.jmp(init_top);
    a.bind(init_end);

    // --- histogram: for jp in 0..nnz { IAT[JA[jp]+1] += 1 } ---------------
    a.li(1, 0);
    a.li(4, layout.ja as i64); // &JA[jp]
    a.li(5, layout.iat as i64 + 1);
    // r2 = nnz = IA[rows] (loaded from memory so the program is generic).
    a.li(3, layout.ia as i64 + rows as i64);
    a.ld(2, 3, 0);
    let hist_top = a.label();
    let hist_end = a.label();
    a.bind(hist_top);
    a.bge(1, 2, hist_end);
    a.ld(6, 4, 0); // j = JA[jp]
    a.add(7, 5, 6); // &IAT[j+1]
    a.ld(8, 7, 0);
    a.addi(8, 8, 1);
    a.st(7, 0, 8);
    a.addi(4, 4, 1);
    a.addi(1, 1, 1);
    a.jmp(hist_top);
    a.bind(hist_end);

    // --- scan-add: for j in 0..cols { IAT[j+1] += IAT[j] } ----------------
    a.li(1, 0);
    a.li(2, cols as i64);
    a.li(5, layout.iat as i64);
    let scan_top = a.label();
    let scan_end = a.label();
    a.bind(scan_top);
    a.bge(1, 2, scan_end);
    a.add(3, 5, 1); // &IAT[j]
    a.ld(6, 3, 0);
    a.ld(7, 3, 1);
    a.add(7, 7, 6);
    a.st(3, 1, 7);
    a.addi(1, 1, 1);
    a.jmp(scan_top);
    a.bind(scan_end);

    // --- scatter (paper Fig. 9, lines 4-13) --------------------------------
    a.li(1, 0); // i
    a.li(2, rows as i64);
    a.li(10, layout.ja as i64);
    a.li(11, layout.an as i64);
    a.li(12, layout.iat as i64);
    a.li(13, layout.jat as i64);
    a.li(14, layout.ant as i64);
    a.li(3, layout.ia as i64);
    let outer_top = a.label();
    let outer_end = a.label();
    a.bind(outer_top);
    a.bge(1, 2, outer_end);
    a.add(4, 3, 1);
    a.ld(5, 4, 0); // iaa = IA[i]
    a.ld(6, 4, 1); // iab = IA[i+1]
    let inner_top = a.label();
    let inner_end = a.label();
    a.bind(inner_top);
    a.bge(5, 6, inner_end);
    a.add(7, 10, 5);
    a.ld(8, 7, 0); //  j = JA[jp]
    a.add(9, 12, 8);
    a.ld(15, 9, 0); // k = IAT[j]
    a.add(16, 13, 15);
    a.st(16, 0, 1); // JAT[k] = i
    a.add(17, 11, 5);
    a.ld(18, 17, 0); // AN[jp]
    a.add(19, 14, 15);
    a.st(19, 0, 18); // ANT[k] = AN[jp]
    a.addi(15, 15, 1);
    a.st(9, 0, 15); // IAT[j] = k + 1
    a.addi(5, 5, 1);
    a.jmp(inner_top);
    a.bind(inner_end);
    a.addi(1, 1, 1);
    a.jmp(outer_top);
    a.bind(outer_end);
    a.halt();
    a.finish()
}

/// Dynamic-instruction cap for the program (generous linear bound).
pub fn scalar_transpose_max_instructions(rows: usize, cols: usize, nnz: usize) -> u64 {
    64 + 8 * (cols as u64 + 2)
        + 10 * nnz as u64
        + 9 * (cols as u64 + 1)
        + 8 * rows as u64
        + 16 * nnz as u64
}

/// Runs the fully scalar transposition; returns the decoded transpose
/// and the report (all cycles in the single `scalar` phase).
///
/// The whole kernel is one scalar-core interpreter run, so the timing
/// model maps its cycle total (identity under the paper model, zero
/// under the ideal bound) and the trace is a single `Complete` span on
/// the scalar lane plus the phase roll-up.
pub fn transpose_crs_scalar(
    ctx: &ExecCtx,
    csr: &Csr,
) -> Result<(Csr, TransposeReport), KernelError> {
    let (vp_cfg, rec) = (&ctx.vp, &ctx.obs);
    let mut mem = Memory::new();
    let mut alloc = Allocator::new(64);
    let layout = load_csr(&mut mem, &mut alloc, csr);
    // The interpreter is already bounded by its instruction cap; the guard
    // additionally keeps corrupt indices from growing memory silently.
    mem.guard(alloc.watermark(), vp_cfg.oob);
    let (rows, cols, nnz) = (csr.rows(), csr.cols(), csr.nnz());
    let program = scalar_transpose_program(&layout, rows, cols);
    let cap = scalar_transpose_max_instructions(rows, cols, nnz);
    let stats = run_scalar(vp_cfg, &mut mem, &program, cap);
    let cycles = ctx.timing.model().scalar_cycles(stats.cycles);
    if rec.is_enabled() {
        rec.complete(
            Lane::Scalar,
            Category::Scalar,
            "scalar.interpret",
            0,
            cycles,
            stats.instructions,
        );
        rec.observe("scalar.instructions", stats.instructions);
    }
    record_oob(rec, mem.oob_events(), cycles);
    if stats.capped {
        return Err(KernelError::Corrupt(format!(
            "scalar transpose exceeded its {cap}-instruction budget — corrupt row pointers"
        )));
    }
    let report = TransposeReport {
        wall_ns: None,
        cycles,
        nnz,
        engine: Default::default(),
        scalar: Some(stats),
        stm: None,
        phases: vec![Phase {
            name: "scalar-transpose",
            cycles,
        }],
        fu_busy: Default::default(),
        // No vector engine ran: every port spent the whole run behind
        // the scalar core, keeping the conservation invariant uniform.
        stalls: stm_vpsim::StallBreakdown::scalar_only(vp_cfg.mem_ports, cycles),
    };
    record_phases(rec, &report.phases);
    if let Some(f) = mem.fault() {
        return Err(f.into());
    }
    let result = decode_result(&mem, &layout, rows, cols, nnz)?;
    Ok((result, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::transpose_crs;
    use stm_sparse::{gen, Coo};

    fn run(coo: &Coo) -> (Csr, TransposeReport) {
        transpose_crs_scalar(&ExecCtx::paper(), &Csr::from_coo(coo)).unwrap()
    }

    #[test]
    fn scalar_transpose_is_functionally_exact() {
        let coo = gen::random::uniform(80, 120, 700, 9);
        let (got, report) = run(&coo);
        assert_eq!(got, Csr::from_coo(&coo).transpose_pissanetsky());
        assert!(report.cycles > 0);
        assert!(report.scalar.unwrap().instructions > 700);
    }

    #[test]
    fn handles_empty_rows_and_matrix() {
        let coo = Coo::from_triplets(10, 10, vec![(9, 0, 1.0)]).unwrap();
        let (got, _) = run(&coo);
        assert_eq!(got, Csr::from_coo(&coo).transpose_pissanetsky());
        let (got, _) = run(&Coo::new(4, 6));
        assert_eq!(got.nnz(), 0);
        assert_eq!(got.shape(), (6, 4));
    }

    #[test]
    fn agrees_with_vectorized_kernel() {
        let coo = gen::blocks::block_band(96, 8, 1, 0.8, 3);
        let csr = Csr::from_coo(&coo);
        let (scalar_t, _) = transpose_crs_scalar(&ExecCtx::paper(), &csr).unwrap();
        let (vector_t, _) = transpose_crs(&ExecCtx::paper(), &csr).unwrap();
        assert_eq!(scalar_t, vector_t);
    }

    #[test]
    fn vectorization_pays_off_on_long_rows() {
        // The vector baseline must beat the scalar one when rows are long
        // enough to amortize the vector startups.
        let mut coo = Coo::new(64, 2048);
        for r in 0..64 {
            for k in 0..100 {
                coo.push(r, (k * 19 + r) % 2048, 1.0);
            }
        }
        let csr = Csr::from_coo(&coo);
        let (_, scalar_rep) = transpose_crs_scalar(&ExecCtx::paper(), &csr).unwrap();
        let (_, vector_rep) = transpose_crs(&ExecCtx::paper(), &csr).unwrap();
        assert!(
            vector_rep.cycles < scalar_rep.cycles,
            "vector {} !< scalar {}",
            vector_rep.cycles,
            scalar_rep.cycles
        );
    }

    #[test]
    fn double_transpose_round_trips() {
        let coo = gen::rmat::rmat(6, 300, gen::rmat::RmatProbs::default(), 4);
        let csr = Csr::from_coo(&coo);
        let (t, _) = run(&coo);
        let (tt, _) = transpose_crs_scalar(&ExecCtx::paper(), &t).unwrap();
        assert_eq!(tt, csr);
    }
}
