//! Simulated transposition straight from coordinate (COO) triplets.
//!
//! The algorithm is the same histogram → scan → scatter pipeline as the
//! CRS kernel, but the scatter walks the triplet arrays instead of a row
//! pointer: the host groups consecutive equal-row runs (the canonical
//! COO order sorts by row) and each run is scattered with the identical
//! 8-operation sequence. Since the entries arrive in exactly the order a
//! CSR walk would produce them, the output is **byte-identical** to the
//! `transpose_crs` reference.

use super::{simulate, Ran};
use crate::exec::{ExecCtx, KernelError};
use crate::kernels::crs_transpose::{decode_result, CrsLayout};
use crate::kernels::histogram::{histogram_max_instructions, histogram_program};
use crate::kernels::scan::scan_add_inplace;
use crate::report::{Phase, TransposeReport};
use stm_sparse::{Csr, Value};
use stm_vpsim::scalar::run_scalar;
use stm_vpsim::{Allocator, Engine, Memory, VpConfig};

/// The raw triplet arrays a run consumes. Kept as plain vectors (not a
/// [`stm_sparse::Coo`]) so the fault injector can plant out-of-range
/// coordinates without tripping the host type's invariants.
#[derive(Debug, Clone)]
pub struct CooArrays {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Canonically ordered triplets (row, col, value).
    pub entries: Vec<(usize, usize, Value)>,
}

/// Simulates the COO transposition of `ca`. Returns the transposed CSR
/// matrix and the cycle report.
pub fn transpose_coo(ctx: &ExecCtx, ca: &CooArrays) -> Result<(Csr, TransposeReport), KernelError> {
    let (rows, cols, nnz) = (ca.rows, ca.cols, ca.entries.len());
    let mut mem = Memory::new();
    let mut alloc = Allocator::new(64);
    let rowa = alloc.alloc(nnz);
    let cola = alloc.alloc(nnz);
    let vala = alloc.alloc(nnz);
    let jat = alloc.alloc(nnz);
    let ant = alloc.alloc(nnz);
    // IAT last: a corrupt column index writes past the watermark and
    // trips the guard instead of clobbering a neighbour array.
    let iat = alloc.alloc(cols + 1);
    let rowv: Vec<u32> = ca.entries.iter().map(|&(r, _, _)| r as u32).collect();
    let colv: Vec<u32> = ca.entries.iter().map(|&(_, c, _)| c as u32).collect();
    let valv: Vec<u32> = ca.entries.iter().map(|&(_, _, v)| v.to_bits()).collect();
    mem.write_block(rowa, &rowv);
    mem.write_block(cola, &colv);
    mem.write_block(vala, &valv);
    let layout = CrsLayout {
        ia: rowa, // the row array; decode ignores it
        ja: cola,
        an: vala,
        iat,
        jat,
        ant,
    };
    simulate(
        ctx,
        mem,
        alloc.watermark(),
        nnz,
        |e| run_phases(e, &ctx.vp, ca, &layout),
        |mem| decode_result(&mem, &layout, rows, cols, nnz),
    )
}

/// The four phases of the COO transposition over the arrays at `l`
/// (`ia` holds the row array).
fn run_phases(
    e: &mut Engine,
    vp_cfg: &VpConfig,
    ca: &CooArrays,
    l: &CrsLayout,
) -> Result<Ran, KernelError> {
    let (rowa, cola, vala, jat, ant, iat) = (l.ia, l.ja, l.an, l.jat, l.ant, l.iat);
    let mut phases = Vec::new();
    let s = vp_cfg.section_size;
    let (rows, cols, nnz) = (ca.rows, ca.cols, ca.entries.len());

    // Phase 0: IAT[0..=cols] = 0.
    let zero = e.v_set_imm(s, 0);
    let mut off = 0usize;
    while off < cols + 1 {
        let vl = s.min(cols + 1 - off);
        let section = zero.slice(0..vl);
        e.v_st(iat + off as u32, &section);
        e.loop_overhead();
        off += vl;
    }
    let t0 = e.cycles();
    phases.push(Phase {
        name: "init",
        cycles: t0,
    });

    // Phase 1: scalar histogram over the column array.
    let program = histogram_program(cola, nnz, iat);
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

    // Phase 2: scan-add over IAT.
    scan_add_inplace(e, iat, cols + 1);
    let t2 = e.cycles();
    phases.push(Phase {
        name: "scan-add",
        cycles: t2 - t1,
    });

    // Phase 3: scatter. The host groups runs of equal row index (the
    // canonical order is row-major, so runs are consecutive); a run out
    // of order or out of range is a typed corruption, not a panic.
    let mut seg = 0usize;
    while seg < nnz {
        let i = ca.entries[seg].0;
        if i >= rows {
            return Err(KernelError::Corrupt(format!(
                "COO row index {i} outside 0..{rows}"
            )));
        }
        let mut end = seg + 1;
        while end < nnz && ca.entries[end].0 == i {
            end += 1;
        }
        // Per-segment bookkeeping: the row boundary scan and loop control.
        e.scalar_cycles(vp_cfg.loop_overhead + vp_cfg.scalar_cache.hit_latency);
        let mut j = seg;
        while j < end {
            let vl = s.min(end - j);
            // The boundary detection reads the row array too: one vector
            // load plus a couple of scalar compares per strip.
            let _vrow = e.v_ld(rowa + j as u32, vl);
            e.scalar_cycles(2);
            let vr0 = e.v_ld(cola + j as u32, vl);
            let vr1 = e.v_ld_idx(iat, &vr0); // k = IAT[col]
            let vr2 = e.v_set_imm(vl, i as u32);
            e.v_st_idx(&vr2, jat, &vr1); // JAT[k] = row
            let vr3 = e.v_ld(vala + j as u32, vl);
            e.v_st_idx(&vr3, ant, &vr1); // ANT[k] = value
            let vr4 = e.v_add_imm(&vr1, 1);
            e.v_st_idx(&vr4, iat, &vr0); // IAT[col] = k + 1
            e.loop_overhead();
            j += vl;
        }
        seg = end;
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

    fn arrays(coo: &Coo) -> CooArrays {
        let mut canon = coo.clone();
        canon.canonicalize();
        CooArrays {
            rows: canon.rows(),
            cols: canon.cols(),
            entries: canon.iter().copied().collect(),
        }
    }

    #[test]
    fn matches_pissanetsky_byte_for_byte() {
        for coo in [
            gen::random::uniform(90, 70, 600, 3),
            gen::random::power_law(64, 100, 5.0, 1.4, 8),
            gen::structured::diagonal(50),
            Coo::new(5, 7),
        ] {
            let ca = arrays(&coo);
            let (got, report) = transpose_coo(&ExecCtx::paper(), &ca).unwrap();
            assert_eq!(got, Csr::from_coo(&coo).transpose_pissanetsky());
            let sum: u64 = report.phases.iter().map(|p| p.cycles).sum();
            assert_eq!(sum, report.cycles);
            assert_eq!(report.phases.len(), 4);
        }
    }

    #[test]
    fn out_of_range_row_is_corrupt() {
        let coo = gen::random::uniform(20, 20, 60, 5);
        let mut ca = arrays(&coo);
        ca.entries[0].0 = ca.rows + 3;
        // The runaway row sorts first, so the very first segment trips.
        assert!(matches!(
            transpose_coo(&ExecCtx::paper(), &ca),
            Err(KernelError::Corrupt(_))
        ));
    }

    #[test]
    fn out_of_range_column_faults_the_guard() {
        let coo = gen::random::uniform(30, 30, 120, 9);
        let mut ca = arrays(&coo);
        ca.entries[10].1 = ca.cols + 100;
        let err = transpose_coo(&ExecCtx::paper(), &ca).unwrap_err();
        assert!(
            matches!(err, KernelError::MemFault(_) | KernelError::Corrupt(_)),
            "{err:?}"
        );
    }
}
