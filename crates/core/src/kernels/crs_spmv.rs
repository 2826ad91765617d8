//! Simulated CRS sparse matrix–vector multiplication — the conventional
//! vectorized SpMV the HiSM work (paper reference \[5\]) compares against.
//!
//! Per row (strip-mined):
//!
//! ```text
//! v_ld     ja, &JA[iaa]          # column indices
//! v_ld     an, &AN[iaa]          # values
//! v_ld_idx xg, &x, ja            # gather x
//! v_fmul   prod, an, xg
//! log-step v_slide/v_fadd reduction → prod[vl-1] holds the row sum
//! scalar accumulate + store y[i]
//! ```

use super::{simulate, Ran};
use crate::exec::{ExecCtx, KernelError};
use crate::report::TransposeReport;
use stm_sparse::{Csr, Value};
use stm_vpsim::{Allocator, Engine, Memory, VpConfig};

/// Simulates `y = A * x` for a CSR matrix. Returns the result vector and
/// the cycle report.
pub fn spmv_crs(
    ctx: &ExecCtx,
    csr: &Csr,
    x: &[Value],
) -> Result<(Vec<Value>, TransposeReport), KernelError> {
    if x.len() != csr.cols() {
        return Err(KernelError::Config(format!(
            "x length {} != matrix columns {}",
            x.len(),
            csr.cols()
        )));
    }
    let s = ctx.vp.section_size;
    let mut mem = Memory::new();
    let mut alloc = Allocator::new(64);
    let ia = alloc.alloc(csr.rows() + 1);
    let ja = alloc.alloc(csr.nnz());
    let an = alloc.alloc(csr.nnz());
    let xb = alloc.alloc(csr.cols().max(1));
    let yb = alloc.alloc(csr.rows().max(1));
    mem.write_block(
        ia,
        &csr.row_ptr().iter().map(|&p| p as u32).collect::<Vec<_>>(),
    );
    mem.write_block(
        ja,
        &csr.col_idx().iter().map(|&c| c as u32).collect::<Vec<_>>(),
    );
    mem.write_block(
        an,
        &csr.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
    );
    for (i, &v) in x.iter().enumerate() {
        mem.write_f32(xb + i as u32, v);
    }
    let body = |e: &mut Engine| {
        run_rows(e, &ctx.vp, csr, s, ia, ja, an, xb, yb)?;
        Ok(Ran::whole(e, "crs-spmv"))
    };
    // Corrupt column indices would gather past the allocation; the guard
    // records that as a fault instead of silently growing memory.
    simulate(ctx, mem, alloc.watermark(), csr.nnz(), body, |mem| {
        Ok((0..csr.rows())
            .map(|i| mem.read_f32(yb + i as u32))
            .collect())
    })
}

/// The per-row gather/multiply/reduce loop, factored out so the caller can
/// record out-of-bounds counts on every exit path (including the typed
/// row-pointer rejection).
#[allow(clippy::too_many_arguments)]
fn run_rows(
    e: &mut Engine,
    vp_cfg: &VpConfig,
    csr: &Csr,
    s: usize,
    ia: u32,
    ja: u32,
    an: u32,
    xb: u32,
    yb: u32,
) -> Result<(), KernelError> {
    for i in 0..csr.rows() {
        let iaa = e.mem().read(ia + i as u32) as usize;
        let iab = e.mem().read(ia + i as u32 + 1) as usize;
        // IA comes from untrusted input: reject runaway row intervals.
        if iaa > iab || iab > csr.nnz() {
            return Err(KernelError::Corrupt(format!(
                "row pointer IA[{i}..={}] = {iaa}..{iab} outside 0..={}",
                i + 1,
                csr.nnz()
            )));
        }
        // Scalar: interval loads + accumulator init + final store.
        e.scalar_cycles(vp_cfg.loop_overhead + 2 * vp_cfg.scalar_cache.hit_latency);
        let mut acc = 0f32;
        let mut jp = iaa;
        while jp < iab {
            let vl = s.min(iab - jp);
            let jav = e.v_ld(ja + jp as u32, vl);
            let anv = e.v_ld(an + jp as u32, vl);
            let xg = e.v_ld_idx(xb, &jav);
            let mut prod = e.v_fmul(&anv, &xg);
            // Log-step in-register reduction (slide + fadd).
            let mut k = 1usize;
            while k < vl {
                let shifted = e.v_slide_up(&prod, k, 0.0f32.to_bits());
                prod = e.v_fadd(&prod, &shifted);
                k *= 2;
            }
            acc += f32::from_bits(*prod.data.last().expect("vl >= 1"));
            // Reading the partial sum into a scalar register.
            e.scalar_cycles(2);
            e.loop_overhead();
            jp += vl;
        }
        e.mem_mut().write_f32(yb + i as u32, acc);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_sparse::{gen, Coo};

    fn run(coo: &Coo) -> (Vec<f32>, Vec<f32>) {
        let csr = Csr::from_coo(coo);
        let x: Vec<f32> = (0..coo.cols()).map(|i| ((i % 5) as f32) - 2.0).collect();
        let (y, _) = spmv_crs(&ExecCtx::paper(), &csr, &x).unwrap();
        (y, csr.spmv(&x).unwrap())
    }

    #[test]
    fn matches_host_oracle() {
        let coo = gen::random::uniform(90, 120, 800, 4);
        let (y, expect) = run(&coo);
        for (a, b) in y.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-3 * (1.0 + b.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn long_rows_strip_mine_correctly() {
        let mut coo = Coo::new(3, 500);
        for c in 0..400 {
            coo.push(1, c, 0.25);
        }
        let (y, expect) = run(&coo);
        assert!((y[1] - expect[1]).abs() < 1e-2, "{} vs {}", y[1], expect[1]);
        assert_eq!(y[0], 0.0);
    }

    #[test]
    fn empty_matrix_gives_zeros() {
        let (y, _) = run(&Coo::new(5, 5));
        assert!(y.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn spmv_cost_grows_with_nnz() {
        let small = gen::random::uniform(64, 64, 200, 1);
        let large = gen::random::uniform(64, 64, 2000, 1);
        let x = vec![1.0f32; 64];
        let (_, r1) = spmv_crs(&ExecCtx::paper(), &Csr::from_coo(&small), &x).unwrap();
        let (_, r2) = spmv_crs(&ExecCtx::paper(), &Csr::from_coo(&large), &x).unwrap();
        assert!(r2.cycles > r1.cycles);
    }
}
