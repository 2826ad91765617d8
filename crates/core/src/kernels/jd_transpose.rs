//! Simulated transposition from Jagged Diagonal storage.
//!
//! JD has no per-row pointer array, so the kernel first *regroups* the
//! jagged diagonals into CRS arrays in simulated memory — a count /
//! scan / scatter over the row permutation — and then runs the standard
//! Pissanetsky pipeline of [`super::crs_transpose`] on the regrouped
//! arrays. Regrouping in ascending diagonal order writes each row's
//! entries in ascending column order, so the intermediate CRS image and
//! therefore the final output are **byte-identical** to the
//! `transpose_crs` reference.

use super::{simulate, Ran};
use crate::exec::{ExecCtx, KernelError};
use crate::kernels::crs_transpose::{decode_result, run_phases, CrsLayout};
use crate::report::{Phase, TransposeReport};
use stm_sparse::{Csr, Value};
use stm_vpsim::{Allocator, Engine, Memory, VpConfig};

/// The raw JD arrays a run consumes, mutable for the fault injector.
#[derive(Debug, Clone)]
pub struct JdArrays {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// `perm[k]` = original row at sorted position `k`.
    pub perm: Vec<usize>,
    /// Diagonal offsets (`num_diagonals + 1` entries).
    pub jd_ptr: Vec<usize>,
    /// Column indices, diagonal-major.
    pub col_idx: Vec<usize>,
    /// Values, diagonal-major.
    pub values: Vec<Value>,
}

impl JdArrays {
    /// Copies the storage out of a constructed [`stm_sparse::Jd`].
    pub fn from_jd(jd: &stm_sparse::Jd) -> Self {
        JdArrays {
            rows: jd.rows(),
            cols: jd.cols(),
            perm: jd.perm().to_vec(),
            jd_ptr: jd.jd_ptr().to_vec(),
            col_idx: jd.col_idx().to_vec(),
            values: jd.values().to_vec(),
        }
    }

    /// Structural sanity of the untrusted arrays — typed errors instead
    /// of runaway loops.
    fn check(&self) -> Result<(), KernelError> {
        if self.perm.len() != self.rows {
            return Err(KernelError::Corrupt("JD perm length != rows".into()));
        }
        let mut seen = vec![false; self.rows];
        for &p in &self.perm {
            if p >= self.rows || seen[p] {
                return Err(KernelError::Corrupt("JD perm not a permutation".into()));
            }
            seen[p] = true;
        }
        if self.jd_ptr.first().copied().unwrap_or(1) != 0
            || self.jd_ptr.windows(2).any(|w| w[0] > w[1])
            || self.jd_ptr.last().copied().unwrap_or(1) != self.col_idx.len()
            || self.values.len() != self.col_idx.len()
        {
            return Err(KernelError::Corrupt("JD jd_ptr malformed".into()));
        }
        for d in 0..self.jd_ptr.len() - 1 {
            if self.jd_ptr[d + 1] - self.jd_ptr[d] > self.rows {
                return Err(KernelError::Corrupt(format!(
                    "JD diagonal {d} longer than the row count"
                )));
            }
        }
        Ok(())
    }
}

/// Simulates the JD transposition of `jda`. Returns the transposed CSR
/// matrix and the cycle report (three regroup phases followed by the
/// four standard CRS phases).
pub fn transpose_jd(ctx: &ExecCtx, jda: &JdArrays) -> Result<(Csr, TransposeReport), KernelError> {
    jda.check()?;
    let (rows, cols, nnz) = (jda.rows, jda.cols, jda.col_idx.len());
    let n_diag = jda.jd_ptr.len() - 1;
    let mut mem = Memory::new();
    let mut alloc = Allocator::new(64);
    let perm = alloc.alloc(rows);
    let jdptr = alloc.alloc(n_diag + 1);
    let jdc = alloc.alloc(nnz);
    let jdv = alloc.alloc(nnz);
    let ia = alloc.alloc(rows + 1);
    let cur = alloc.alloc(rows.max(1));
    let jab = alloc.alloc(nnz);
    let anb = alloc.alloc(nnz);
    let jat = alloc.alloc(nnz);
    let ant = alloc.alloc(nnz);
    // IAT last: a corrupt column index indexes past the watermark.
    let iat = alloc.alloc(cols + 1);
    let permv: Vec<u32> = jda.perm.iter().map(|&p| p as u32).collect();
    let jdptrv: Vec<u32> = jda.jd_ptr.iter().map(|&p| p as u32).collect();
    let jdcv: Vec<u32> = jda.col_idx.iter().map(|&c| c as u32).collect();
    let jdvv: Vec<u32> = jda.values.iter().map(|v| v.to_bits()).collect();
    mem.write_block(perm, &permv);
    mem.write_block(jdptr, &jdptrv);
    mem.write_block(jdc, &jdcv);
    mem.write_block(jdv, &jdvv);
    let layout = CrsLayout {
        ia,
        ja: jab,
        an: anb,
        iat,
        jat,
        ant,
    };
    let body = |e: &mut Engine| {
        let rec = &ctx.obs;
        if rec.is_enabled() {
            rec.add("format.jd.diagonals", n_diag as u64);
            rec.add(
                "format.jd.longest",
                jda.jd_ptr
                    .windows(2)
                    .map(|w| w[1] - w[0])
                    .max()
                    .unwrap_or(0) as u64,
            );
        }
        run_all_phases(e, &ctx.vp, jda, perm, jdc, jdv, cur, &layout)
    };
    simulate(ctx, mem, alloc.watermark(), nnz, body, |mem| {
        decode_result(&mem, &layout, rows, cols, nnz)
    })
}

/// Regroups the diagonals into CRS arrays (count → scan → scatter),
/// then hands off to the shared CRS phase pipeline.
#[allow(clippy::too_many_arguments)]
fn run_all_phases(
    e: &mut Engine,
    vp_cfg: &VpConfig,
    jda: &JdArrays,
    perm: u32,
    jdc: u32,
    jdv: u32,
    cur: u32,
    layout: &CrsLayout,
) -> Result<Ran, KernelError> {
    let mut phases = Vec::new();
    let s = vp_cfg.section_size;
    let (rows, cols) = (jda.rows, jda.cols);
    let nnz = jda.col_idx.len();
    let n_diag = jda.jd_ptr.len() - 1;

    // Phase 0: count row lengths into IA[1..]. Zero IA, then for every
    // diagonal gather the permutation and bump the counts through it —
    // conflict-free within a strip because the positions of one diagonal
    // map to distinct rows.
    let zero = e.v_set_imm(s, 0);
    let mut off = 0usize;
    while off < rows + 1 {
        let vl = s.min(rows + 1 - off);
        let section = zero.slice(0..vl);
        e.v_st(layout.ia + off as u32, &section);
        e.loop_overhead();
        off += vl;
    }
    for d in 0..n_diag {
        let len = jda.jd_ptr[d + 1] - jda.jd_ptr[d];
        // Diagonal bookkeeping: jd_ptr loads and loop control.
        e.scalar_cycles(vp_cfg.loop_overhead + vp_cfg.scalar_cache.hit_latency);
        let mut k = 0usize;
        while k < len {
            let vl = s.min(len - k);
            let vp = e.v_ld(perm + k as u32, vl);
            let vcnt = e.v_ld_idx(layout.ia + 1, &vp);
            let vinc = e.v_add_imm(&vcnt, 1);
            e.v_st_idx(&vinc, layout.ia + 1, &vp);
            e.loop_overhead();
            k += vl;
        }
    }
    let t0 = e.cycles();
    phases.push(Phase {
        name: "regroup-count",
        cycles: t0,
    });

    // Phase 1: prefix-sum IA into CRS row pointers.
    crate::kernels::scan::scan_add_inplace(e, layout.ia, rows + 1);
    let t1 = e.cycles();
    phases.push(Phase {
        name: "regroup-scan",
        cycles: t1 - t0,
    });

    // Phase 2: scatter. CUR = IA (running cursors), then move every
    // diagonal's columns and values to their row's next slot. Ascending
    // diagonal order = ascending column order within each row, so the
    // regrouped arrays match `Csr::from_coo` byte for byte.
    let mut off = 0usize;
    while off < rows {
        let vl = s.min(rows - off);
        let v = e.v_ld(layout.ia + off as u32, vl);
        e.v_st(cur + off as u32, &v);
        e.loop_overhead();
        off += vl;
    }
    for d in 0..n_diag {
        let base = jda.jd_ptr[d] as u32;
        let len = jda.jd_ptr[d + 1] - jda.jd_ptr[d];
        e.scalar_cycles(vp_cfg.loop_overhead + vp_cfg.scalar_cache.hit_latency);
        let mut k = 0usize;
        while k < len {
            let vl = s.min(len - k);
            let vp = e.v_ld(perm + k as u32, vl);
            let vk = e.v_ld_idx(cur, &vp); // next slot per row
            let vc = e.v_ld(jdc + base + k as u32, vl);
            e.v_st_idx(&vc, layout.ja, &vk);
            let vv = e.v_ld(jdv + base + k as u32, vl);
            e.v_st_idx(&vv, layout.an, &vk);
            let vk1 = e.v_add_imm(&vk, 1);
            e.v_st_idx(&vk1, cur, &vp);
            e.loop_overhead();
            k += vl;
        }
    }
    let t2 = e.cycles();
    phases.push(Phase {
        name: "regroup-scatter",
        cycles: t2 - t1,
    });

    // The standard CRS pipeline on the regrouped arrays (its phase
    // cycles are relative to the clock at entry).
    let mut ran = run_phases(e, vp_cfg, layout, rows, cols, nnz)?;
    phases.append(&mut ran.phases);
    Ok(Ran { phases, ..ran })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_obs::Recorder;
    use stm_sparse::{gen, Coo, Jd};

    fn arrays(coo: &Coo) -> JdArrays {
        JdArrays::from_jd(&Jd::from_coo(coo))
    }

    #[test]
    fn matches_pissanetsky_byte_for_byte() {
        for coo in [
            gen::random::uniform(90, 70, 600, 3),
            gen::random::power_law(100, 100, 7.0, 1.3, 6),
            gen::structured::diagonal(60),
            Coo::new(8, 4),
        ] {
            let jda = arrays(&coo);
            let (got, report) = transpose_jd(&ExecCtx::paper(), &jda).unwrap();
            assert_eq!(got, Csr::from_coo(&coo).transpose_pissanetsky());
            let sum: u64 = report.phases.iter().map(|p| p.cycles).sum();
            assert_eq!(sum, report.cycles, "phases must partition the run");
            assert_eq!(report.phases.len(), 7);
        }
    }

    #[test]
    fn corrupt_pointers_are_typed_errors() {
        let coo = gen::random::uniform(40, 40, 200, 1);
        let mut jda = arrays(&coo);
        jda.jd_ptr[1] = jda.col_idx.len() + 7;
        assert!(matches!(
            transpose_jd(&ExecCtx::paper(), &jda),
            Err(KernelError::Corrupt(_))
        ));
        let mut jda = arrays(&coo);
        jda.col_idx.pop();
        jda.values.pop();
        assert!(matches!(
            transpose_jd(&ExecCtx::paper(), &jda),
            Err(KernelError::Corrupt(_))
        ));
    }

    #[test]
    fn out_of_range_column_faults_the_guard() {
        let coo = gen::random::uniform(30, 30, 150, 2);
        let mut jda = arrays(&coo);
        jda.col_idx[5] = jda.cols + 40;
        let err = transpose_jd(&ExecCtx::paper(), &jda).unwrap_err();
        assert!(
            matches!(err, KernelError::MemFault(_) | KernelError::Corrupt(_)),
            "{err:?}"
        );
    }

    #[test]
    fn diagonal_counter_is_recorded() {
        let coo = gen::random::power_law(60, 60, 6.0, 1.4, 9);
        let jda = arrays(&coo);
        let ctx = ExecCtx {
            obs: Recorder::enabled_default(),
            ..ExecCtx::paper()
        };
        transpose_jd(&ctx, &jda).unwrap();
        let data = ctx.obs.snapshot();
        assert_eq!(
            data.counter("format.jd.diagonals"),
            (jda.jd_ptr.len() - 1) as u64
        );
    }
}
