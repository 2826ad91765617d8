//! The CRS transposition baseline: Pissanetsky's algorithm (paper Fig. 9)
//! vectorized exactly as the paper describes, on the simulated vector
//! processor.
//!
//! Phases:
//!
//! 0. **init** — zero the transposed index array `IAT` ("easily
//!    vectorized, being translated into a sequence of vector stores");
//! 1. **histogram** — count the non-zeros of every column, *scalar*, on
//!    the 4-way core ([`super::histogram`]);
//! 2. **scan-add** — vectorized prefix sum over `IAT`
//!    ([`super::scan`]);
//! 3. **scatter** — the doubly nested loop of Fig. 9 lines 4–13,
//!    vectorized per row with the paper's own pseudo-assembly:
//!
//!    ```text
//!    v_ld       VR0, 4(&JA)        % 7   column indices of row i
//!    v_ld_idx   VR1, VR0, 4(&IAT)  % 8   k = IAT[j]
//!    v_setimm   VR2, i             % 9
//!    v_st_idx   VR2, VR1, &JAT     % 9   JAT[k] = i
//!    v_ld       VR3, 4(&AN)        % 10
//!    v_st_idx   VR3, VR1, &ANT     % 10  ANT[k] = AN[jp]
//!    v_add_imm  VR1, 1             % 11
//!    v_st_idx   VR1, 4(&IAT)       % 11  IAT[j] = k + 1
//!    ```
//!
//! Unlike HiSM's in-place transposition, CRS needs freshly allocated
//! output arrays (`JAT`, `ANT`, `IAT`) — the paper points this contrast
//! out in Section IV-A.

use super::{simulate, Ran};
use crate::exec::{ExecCtx, KernelError};
use crate::kernels::histogram::{histogram_max_instructions, histogram_program};
use crate::kernels::scan::scan_add_inplace;
use crate::report::{Phase, TransposeReport};
use stm_sparse::Csr;
use stm_vpsim::scalar::run_scalar;
use stm_vpsim::{Allocator, Engine, Memory, Replay, VpConfig};

/// Word addresses of the CRS arrays in simulated memory.
#[derive(Debug, Clone, Copy)]
pub struct CrsLayout {
    /// Row pointers of `A` (`IA`, `rows + 1` words).
    pub ia: u32,
    /// Column indices of `A` (`JA`, `nnz` words).
    pub ja: u32,
    /// Values of `A` (`AN`, `nnz` words).
    pub an: u32,
    /// Transposed index array (`IAT`, `cols + 1` words).
    pub iat: u32,
    /// Transposed column indices (`JAT`, `nnz` words).
    pub jat: u32,
    /// Transposed values (`ANT`, `nnz` words).
    pub ant: u32,
}

/// Lays the input matrix out in a fresh memory, exactly as a program would
/// have it resident before calling the transposition routine.
pub fn load_csr(mem: &mut Memory, alloc: &mut Allocator, csr: &Csr) -> CrsLayout {
    let nnz = csr.nnz();
    let layout = CrsLayout {
        ia: alloc.alloc(csr.rows() + 1),
        ja: alloc.alloc(nnz),
        an: alloc.alloc(nnz),
        iat: alloc.alloc(csr.cols() + 1),
        jat: alloc.alloc(nnz),
        ant: alloc.alloc(nnz),
    };
    mem.write_iter(layout.ia, csr.row_ptr().iter().map(|&p| p as u32));
    mem.write_iter(layout.ja, csr.col_idx().iter().map(|&c| c as u32));
    mem.write_iter(layout.an, csr.values().iter().map(|v| v.to_bits()));
    layout
}

/// Reads the transposed matrix back out of simulated memory.
///
/// After the scatter phase, `IAT[j]` holds the start of transposed row
/// `j + 1` (Pissanetsky's cursors end at the next row's start), so the
/// transposed row-pointer array is `[0] ++ IAT[0..cols]`.
pub fn decode_result(
    mem: &Memory,
    layout: &CrsLayout,
    rows: usize,
    cols: usize,
    nnz: usize,
) -> Result<Csr, KernelError> {
    let mut row_ptr = Vec::with_capacity(cols + 1);
    row_ptr.push(0usize);
    for j in 0..cols {
        row_ptr.push(mem.read(layout.iat + j as u32) as usize);
    }
    let col_idx = mem.read_block_map(layout.jat, nnz, |w| w as usize);
    let values = mem.read_block_map(layout.ant, nnz, f32::from_bits);
    Csr::from_parts(cols, rows, row_ptr, col_idx, values)
        .map_err(|e| KernelError::Corrupt(format!("simulated CRS transposition invalid: {e}")))
}

/// Scalar overhead charged per row of the scatter loop: loading `IA(i)`
/// and `IA(i+1)` (two likely-hit scalar loads) plus the loop control.
fn row_overhead(cfg: &VpConfig) -> u64 {
    cfg.loop_overhead + 2 * cfg.scalar_cache.hit_latency
}

/// One row of the scatter loop (Fig. 9 lines 6–12), strip-mined into
/// sections of at most `s` entries, on the engine.
fn scatter_row(
    e: &mut Engine,
    vp_cfg: &VpConfig,
    layout: &CrsLayout,
    i: u32,
    row: std::ops::Range<usize>,
) {
    e.scalar_cycles(row_overhead(vp_cfg));
    let mut jp = row.start;
    while jp < row.end {
        let vl = vp_cfg.section_size.min(row.end - jp);
        let vr0 = e.v_ld(layout.ja + jp as u32, vl); // j
        let vr1 = e.v_ld_idx(layout.iat, &vr0); // k = IAT[j]
        let vr2 = e.v_set_imm(vl, i);
        e.v_st_idx(&vr2, layout.jat, &vr1); // JAT[k] = i
        let vr3 = e.v_ld(layout.an + jp as u32, vl);
        e.v_st_idx(&vr3, layout.ant, &vr1); // ANT[k] = AN[jp]
        let vr4 = e.v_add_imm(&vr1, 1);
        e.v_st_idx(&vr4, layout.iat, &vr0); // IAT[j] = k + 1
        e.loop_overhead();
        jp += vl;
    }
}

/// Buffers [`scatter_row_functional`] reuses across rows.
#[derive(Default)]
struct Scratch {
    j: Vec<u32>,
    k: Vec<u32>,
    an: Vec<u32>,
}

/// The functional work of [`scatter_row`] without its timing: the same
/// guarded memory accesses in the same order, so a corrupt column index
/// faults (and counts out-of-bounds events) exactly as the timed row
/// does. Per strip: the gather of every `IAT[j]` before any store, `AN`
/// loaded after the `JAT` stores and before the `ANT` stores, and later
/// lanes overwriting earlier ones.
fn scatter_row_functional(
    mem: &mut Memory,
    layout: &CrsLayout,
    i: u32,
    row: std::ops::Range<usize>,
    s: usize,
    b: &mut Scratch,
) {
    let mut jp = row.start;
    while jp < row.end {
        let vl = s.min(row.end - jp);
        mem.read_block_into(layout.ja + jp as u32, vl, &mut b.j);
        b.k.clear();
        b.k.extend(b.j.iter().map(|&j| mem.read(layout.iat.wrapping_add(j))));
        for &k in &b.k {
            mem.write(layout.jat.wrapping_add(k), i);
        }
        mem.read_block_into(layout.an + jp as u32, vl, &mut b.an);
        for (&k, &v) in b.k.iter().zip(&b.an) {
            mem.write(layout.ant.wrapping_add(k), v);
        }
        for (&j, &k) in b.j.iter().zip(&b.k) {
            mem.write(layout.iat.wrapping_add(j), k.wrapping_add(1));
        }
        jp += vl;
    }
}

/// Simulates the CRS transposition of `csr`. Returns the transposed
/// matrix (decoded from simulated memory) and the cycle report.
pub fn transpose_crs(ctx: &ExecCtx, csr: &Csr) -> Result<(Csr, TransposeReport), KernelError> {
    let mut mem = Memory::new();
    let mut alloc = Allocator::new(64); // leave a scratch page at 0
    let layout = load_csr(&mut mem, &mut alloc, csr);
    let (rows, cols, nnz) = (csr.rows(), csr.cols(), csr.nnz());
    // Corrupt column indices would scatter outside the allocation; the
    // guard records that as a fault instead of silently growing memory.
    simulate(
        ctx,
        mem,
        alloc.watermark(),
        nnz,
        |e| run_phases(e, &ctx.vp, &layout, rows, cols, nnz),
        |mem| decode_result(&mem, &layout, rows, cols, nnz),
    )
}

/// The four phases of the vectorized Pissanetsky transposition, charged
/// to `e`. Phase cycles are relative to the engine clock at
/// entry, so kernels that stage their input first (the JD regroup) can
/// reuse the pipeline and still report a clean phase partition.
pub(crate) fn run_phases(
    e: &mut Engine,
    vp_cfg: &VpConfig,
    layout: &CrsLayout,
    rows: usize,
    cols: usize,
    nnz: usize,
) -> Result<Ran, KernelError> {
    let mut phases = Vec::new();
    let s = vp_cfg.section_size;
    let start = e.cycles();

    // Phase 0: IAT[0..=cols] = 0 — a sequence of vector stores.
    let zero = e.v_set_imm(s, 0);
    let mut off = 0usize;
    while off < cols + 1 {
        let vl = s.min(cols + 1 - off);
        let section = zero.slice(0..vl);
        e.v_st(layout.iat + off as u32, &section);
        e.loop_overhead();
        off += vl;
    }
    let t0 = e.cycles();
    phases.push(Phase {
        name: "init",
        cycles: t0 - start,
    });

    // Phase 1: scalar histogram on the 4-way core.
    let program = histogram_program(layout.ja, nnz, layout.iat);
    let rec = e.recorder().clone();
    let scalar_stats = run_scalar(
        vp_cfg,
        e.mem_mut(),
        &program,
        histogram_max_instructions(nnz),
        &rec,
    );
    if scalar_stats.capped {
        return Err(KernelError::Corrupt(
            "histogram program exceeded its instruction budget".into(),
        ));
    }
    e.advance_serial(scalar_stats.cycles);
    let t1 = e.cycles();
    phases.push(Phase {
        name: "histogram",
        cycles: t1 - t0,
    });

    // Phase 2: vectorized scan-add over IAT.
    scan_add_inplace(e, layout.iat, cols + 1);
    let t2 = e.cycles();
    phases.push(Phase {
        name: "scan-add",
        cycles: t2 - t1,
    });

    // Phase 3: the vectorized scatter loop. A row's timing depends only
    // on its length and the engine's relative timing state, so rows
    // replay memoized timing and run only their functional work.
    let mut replay = Replay::new();
    let mut scratch = Scratch::default();
    for i in 0..rows {
        let iaa = e.mem().read(layout.ia + i as u32) as usize;
        let iab = e.mem().read(layout.ia + i as u32 + 1) as usize;
        // IA comes from untrusted input: a non-monotone or oversized row
        // pointer would make this loop run away past the arrays.
        if iaa > iab || iab > nnz {
            return Err(KernelError::Corrupt(format!(
                "row pointer IA[{i}..={}] = {iaa}..{iab} outside 0..={nnz}",
                i + 1
            )));
        }
        replay.run(
            e,
            &[(iab - iaa) as u64],
            |mem| scatter_row_functional(mem, layout, i as u32, iaa..iab, s, &mut scratch),
            |e| scatter_row(e, vp_cfg, layout, i as u32, iaa..iab),
        );
    }
    let t3 = e.cycles();
    phases.push(Phase {
        name: "scatter",
        cycles: t3 - t2,
    });
    Ok(Ran {
        scalar: Some(scalar_stats),
        ..Ran::phased(phases)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_sparse::{gen, Coo};

    fn run(coo: &Coo) -> (Csr, TransposeReport) {
        transpose_crs(&ExecCtx::paper(), &Csr::from_coo(coo)).unwrap()
    }

    #[test]
    fn transposes_functionally() {
        let coo = gen::random::uniform(60, 90, 500, 5);
        let (got, report) = run(&coo);
        assert_eq!(got, Csr::from_coo(&coo).transpose_pissanetsky());
        assert_eq!(report.nnz, coo.nnz());
        assert!(report.cycles > 0);
    }

    #[test]
    fn handles_empty_rows_and_columns() {
        let coo = Coo::from_triplets(10, 10, vec![(0, 9, 1.0), (9, 0, 2.0), (5, 5, 3.0)]).unwrap();
        let (got, _) = run(&coo);
        assert_eq!(got, Csr::from_coo(&coo).transpose_pissanetsky());
    }

    #[test]
    fn empty_matrix() {
        let coo = Coo::new(5, 7);
        let (got, report) = run(&coo);
        assert_eq!(got.nnz(), 0);
        assert_eq!(got.shape(), (7, 5));
        assert!(report.cycles > 0); // init + per-row overhead still paid
    }

    #[test]
    fn long_rows_strip_mine() {
        // One row with 200 entries (> section size) exercises strip-mining.
        let mut coo = Coo::new(4, 256);
        for c in 0..200 {
            coo.push(1, c, (c + 1) as f32);
        }
        let (got, _) = run(&coo);
        assert_eq!(got, Csr::from_coo(&coo).transpose_pissanetsky());
    }

    #[test]
    fn phases_sum_to_total() {
        let coo = gen::structured::grid2d_5pt(12, 12);
        let (_, report) = run(&coo);
        let sum: u64 = report.phases.iter().map(|p| p.cycles).sum();
        assert_eq!(sum, report.cycles);
        assert_eq!(report.phases.len(), 4);
    }

    #[test]
    fn crs_benefits_from_higher_anz() {
        // The paper's Fig. 12 trend: cycles/nnz falls as rows get longer,
        // because the per-row startup amortizes.
        let short_rows = gen::structured::diagonal(2000); // ANZ 1
        let long_rows = {
            let mut coo = Coo::new(100, 2000);
            for r in 0..100 {
                for c in 0..40 {
                    coo.push(r, (c * 50 + r) % 2000, 1.0);
                }
            }
            coo
        }; // ANZ 40
        let (_, a) = run(&short_rows);
        let (_, b) = run(&long_rows);
        assert!(
            a.cycles_per_nnz() > b.cycles_per_nnz(),
            "{} !> {}",
            a.cycles_per_nnz(),
            b.cycles_per_nnz()
        );
    }

    #[test]
    fn replayed_rows_fault_like_timed_rows() {
        // Garbage column indices in late rows of a banded matrix: those
        // rows replay their timing, and their out-of-bounds gathers and
        // scatters must count and fault exactly as timed rows do.
        let csr = Csr::from_coo(&gen::structured::tridiagonal(200));
        let run = |rec: stm_obs::Recorder| {
            let mut mem = Memory::new();
            let mut alloc = Allocator::new(64);
            let layout = load_csr(&mut mem, &mut alloc, &csr);
            for k in [400u32, 401, 520] {
                mem.write(layout.ja + k, 0x4000_0000 + k);
            }
            mem.guard(alloc.watermark(), stm_vpsim::OobPolicy::Trap);
            let vp = VpConfig::paper();
            let mut e = Engine::new(vp.clone(), mem);
            e.set_recorder(rec);
            let ran = run_phases(&mut e, &vp, &layout, 200, 200, csr.nnz()).is_ok();
            let words = e.mem().read_block(0, alloc.watermark() as usize);
            (ran, e.cycles(), e.stats_snapshot(), e.mem_fault(), words)
        };
        let replayed = run(stm_obs::Recorder::disabled());
        let timed = run(stm_obs::Recorder::enabled(1 << 16));
        assert!(replayed.2.mem_oob_events > 0);
        assert!(replayed.3.is_some());
        assert_eq!(replayed, timed);
    }

    #[test]
    fn double_transpose_round_trips() {
        let coo = gen::rmat::rmat(7, 600, gen::rmat::RmatProbs::default(), 8);
        let csr = Csr::from_coo(&coo);
        let (t, _) = transpose_crs(&ExecCtx::paper(), &csr).unwrap();
        let (tt, _) = transpose_crs(&ExecCtx::paper(), &t).unwrap();
        assert_eq!(tt, csr);
    }
}
