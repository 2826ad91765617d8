//! Simulated sparse matrix–vector multiplication over HiSM — the
//! operation the HiSM format was introduced for (paper reference \[5\],
//! Stathis et al., IPDPS 2003) and the reason the STM paper expects the
//! format to be resident: "the use of HiSM is likely to provide high
//! speedups not only for the sparse matrix-vector multiplication but also
//! for other operations". This kernel is the *extension* half of that
//! argument, letting the repository compare both operations on one
//! machine model.
//!
//! Per leaf `s²`-block at origin `(ro, co)` (strip-mined):
//!
//! ```text
//! v_ldb     vr1, vr2        # values + packed positions
//! v_srl_imm rows, vr2, 8    # unpack in-block rows
//! v_and_imm cols, vr2, 0xff # unpack in-block columns
//! v_ld_idx  xg, &x[co], cols        # gather x
//! v_fmul    prod, vr1, xg
//! v_sca_f32 prod, &y[ro], rows      # scatter-accumulate into y
//! ```
//!
//! The scatter-accumulate resolves in-vector row collisions sequentially
//! (left to right), standing in for the accumulation hardware of \[5\].

use super::{simulate, Ran};
use crate::exec::{ExecCtx, KernelError};
use crate::report::TransposeReport;
use stm_hism::image::{HismImage, WORDS_PER_ENTRY};
use stm_sparse::Value;
use stm_vpsim::{Engine, Memory};

/// Simulates `y = A * x` for a HiSM image. Returns the result vector and
/// a cycle report (reusing [`TransposeReport`]'s cycle/nnz accounting).
///
/// The image is treated as untrusted — see [`super::transpose_hism`].
pub fn spmv_hism(
    ctx: &ExecCtx,
    image: &HismImage,
    x: &[Value],
) -> Result<(Vec<Value>, TransposeReport), KernelError> {
    if x.len() != image.root.cols as usize {
        return Err(KernelError::Config(format!(
            "x length {} != matrix columns {}",
            x.len(),
            image.root.cols
        )));
    }
    let s = image.root.s as usize;
    if ctx.vp.section_size != s {
        return Err(KernelError::Config(format!(
            "engine section size {} != image section size {s}",
            ctx.vp.section_size
        )));
    }
    // Validates the pointer/length structure up front (typed error on a
    // corrupt hierarchy) and prices the report.
    let nnz = super::hism_transpose::image_nnz(image)?;

    // Memory layout: image at 0, then x, then y (zeroed).
    let mut mem = Memory::with_capacity(image.words.len() + 2 * x.len());
    mem.write_block(0, &image.words);
    let x_base = image.words.len() as u32;
    for (i, &v) in x.iter().enumerate() {
        mem.write_f32(x_base + i as u32, v);
    }
    let padded = (image.root.rows as usize).max(1);
    let y_base = x_base + x.len() as u32;
    let body = |e: &mut Engine| {
        let mut budget = image.words.len() / 2 + 1;
        walk(
            e,
            image.root.addr,
            image.root.len as usize,
            image.root.levels - 1,
            (0, 0),
            x_base,
            y_base,
            s,
            &mut budget,
        )?;
        Ok(Ran::whole(e, "hism-spmv"))
    };
    // Garbage positions send gathers/scatters past the layout; the guard
    // turns those into a recorded fault instead of silent growth.
    simulate(ctx, mem, y_base + padded as u32, nnz, body, |mem| {
        Ok((0..padded)
            .map(|i| mem.read_f32(y_base + i as u32))
            .collect())
    })
}

#[allow(clippy::too_many_arguments)]
fn walk(
    e: &mut Engine,
    addr: u32,
    len: usize,
    level: u32,
    origin: (usize, usize),
    x_base: u32,
    y_base: u32,
    s: usize,
    budget: &mut usize,
) -> Result<(), KernelError> {
    if len == 0 {
        return Ok(());
    }
    if *budget < len {
        return Err(KernelError::Corrupt(format!(
            "runaway blockarray of {len} entries at word {addr}"
        )));
    }
    *budget -= len;
    if addr as u64 + (WORDS_PER_ENTRY as u64 + 1) * len as u64 > u32::MAX as u64 {
        return Err(KernelError::Corrupt(format!(
            "blockarray at word {addr} ({len} entries) exceeds the address space"
        )));
    }
    if level == 0 {
        let mut off = 0usize;
        while off < len {
            let vl = s.min(len - off);
            let (vals, pos) = e.v_ld_pair(addr + WORDS_PER_ENTRY * off as u32, vl);
            let rows = e.v_srl_imm(&pos, 8);
            let cols = e.v_and_imm(&pos, 0xff);
            let xg = e.v_ld_idx(x_base + origin.1 as u32, &cols);
            let prod = e.v_fmul(&vals, &xg);
            e.v_scatter_add_f32(&prod, y_base + origin.0 as u32, &rows);
            e.loop_overhead();
            off += vl;
        }
        return Ok(());
    }
    let step = s.pow(level);
    let lens_base = addr + WORDS_PER_ENTRY * len as u32;
    for k in 0..len {
        let ptr = e.mem().read(addr + WORDS_PER_ENTRY * k as u32);
        let pos = e.mem().read(addr + WORDS_PER_ENTRY * k as u32 + 1);
        let clen = e.mem().read(lens_base + k as u32) as usize;
        let (br, bc) = stm_hism::image::unpack_pos(pos);
        e.scalar_cycles(super::hism_transpose::CHILD_CALL_OVERHEAD);
        let child_origin = (origin.0 + br as usize * step, origin.1 + bc as usize * step);
        walk(
            e,
            ptr,
            clen,
            level - 1,
            child_origin,
            x_base,
            y_base,
            s,
            budget,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::machine;
    use stm_hism::build;
    use stm_sparse::{gen, Coo, Csr};

    fn run(coo: &Coo, s: usize) -> (Vec<f32>, TransposeReport) {
        let h = build::from_coo(coo, s).unwrap();
        let img = HismImage::encode(&h);
        let x: Vec<f32> = (0..coo.cols()).map(|i| ((i % 7) as f32) - 3.0).collect();
        spmv_hism(&machine(s, 4), &img, &x).unwrap()
    }

    fn oracle(coo: &Coo) -> Vec<f32> {
        let x: Vec<f32> = (0..coo.cols()).map(|i| ((i % 7) as f32) - 3.0).collect();
        Csr::from_coo(coo).spmv(&x).unwrap()
    }

    #[test]
    fn spmv_matches_csr_oracle_single_block() {
        let coo = gen::random::uniform(8, 8, 30, 3);
        let (y, report) = run(&coo, 8);
        let expect = oracle(&coo);
        for (a, b) in y.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
        assert!(report.cycles > 0);
    }

    #[test]
    fn spmv_matches_csr_oracle_multilevel() {
        let coo = gen::blocks::block_dense(64, 8, 6, 0.7, 5);
        let (y, _) = run(&coo, 8);
        let expect = oracle(&coo);
        for (a, b) in y.iter().take(expect.len()).zip(&expect) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn spmv_handles_row_collisions_in_one_vector() {
        // Multiple entries of one block row inside one strip section.
        let mut coo = Coo::new(8, 8);
        for c in 0..8 {
            coo.push(3, c, (c + 1) as f32);
        }
        let (y, _) = run(&coo, 8);
        let expect = oracle(&coo);
        assert!((y[3] - expect[3]).abs() < 1e-4);
    }

    #[test]
    fn empty_matrix_yields_zero_vector() {
        let (y, report) = run(&Coo::new(8, 8), 8);
        assert!(y.iter().all(|&v| v == 0.0));
        assert!(report.cycles < 10);
    }

    #[test]
    fn spmv_at_paper_section_size() {
        let coo = gen::structured::grid2d_5pt(12, 12);
        let (y, _) = run(&coo, 64);
        let expect = oracle(&coo);
        for (a, b) in y.iter().take(expect.len()).zip(&expect) {
            assert!((a - b).abs() < 1e-3);
        }
    }
}
