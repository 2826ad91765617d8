//! Simulated kernels over the SELL-C-σ format: transposition and SpMV.
//!
//! Both kernels run on the flattened [`SellArrays`] image of a
//! [`stm_sparse::Sell`] matrix (the registry keeps the raw arrays so
//! the fault injector can corrupt them like every other prepared
//! input).
//!
//! * [`transpose_sell`] walks the *original* rows in ascending order
//!   through the inverse permutation, gathering each row's entries with
//!   stride-`C` vector loads, and scatters them with exactly the
//!   Pissanetsky cursor discipline of [`super::crs_transpose`] — so its
//!   output CSR is **byte-identical** to the `transpose_crs` reference
//!   (same digest, same oracle).
//! * [`spmv_sell`] is the format's showcase: per chunk and depth it
//!   touches only the *active-lane prefix* (σ being a multiple of `C`
//!   guarantees the live lanes at any depth form a prefix), accumulating
//!   per-position partial sums in simulated memory in ascending-column
//!   order — the same floating-point order as the host `Csr::spmv`, so
//!   the result vector is bit-identical to the CSR reference.

use super::{simulate, Ran};
use crate::exec::{ExecCtx, KernelError};
use crate::kernels::crs_transpose::{decode_result, CrsLayout};
use crate::kernels::histogram::{histogram_max_instructions, histogram_program};
use crate::kernels::scan::scan_add_inplace;
use crate::report::{Phase, TransposeReport};
use stm_obs::Recorder;
use stm_sparse::{Csr, Sell, Value};
use stm_vpsim::scalar::run_scalar;
use stm_vpsim::{Allocator, Engine, Memory, VpConfig};

/// The flattened SELL-C-σ arrays a kernel run consumes — a plain copy of
/// the [`Sell`] matrix's storage, mutable so the registry's fault
/// injector can corrupt it between prepare and run.
#[derive(Debug, Clone)]
pub struct SellArrays {
    /// Number of rows of the original matrix.
    pub rows: usize,
    /// Number of columns of the original matrix.
    pub cols: usize,
    /// Chunk height `C`.
    pub c: usize,
    /// `perm[p]` = original row at sorted position `p`.
    pub perm: Vec<usize>,
    /// Chunk offsets into `col_idx`/`values` (`chunks + 1` entries).
    pub chunk_ptr: Vec<usize>,
    /// Per-chunk widths.
    pub chunk_len: Vec<usize>,
    /// Per-position row lengths (sorted order).
    pub row_len: Vec<usize>,
    /// Padded column indices (sentinel `cols` at padding cells).
    pub col_idx: Vec<usize>,
    /// Padded values (`0.0` at padding cells).
    pub values: Vec<Value>,
}

impl SellArrays {
    /// Copies the storage out of a constructed [`Sell`] matrix.
    pub fn from_sell(sell: &Sell) -> Self {
        SellArrays {
            rows: sell.rows(),
            cols: sell.cols(),
            c: sell.config().c,
            perm: sell.perm().to_vec(),
            chunk_ptr: sell.chunk_ptr().to_vec(),
            chunk_len: sell.chunk_len().to_vec(),
            row_len: sell.row_len().to_vec(),
            col_idx: sell.col_idx().to_vec(),
            values: sell.values().to_vec(),
        }
    }

    /// Stored non-zeros (padding excluded).
    pub fn nnz(&self) -> usize {
        self.row_len.iter().sum()
    }

    /// Number of 32-bit words the arrays occupy in simulated memory.
    pub fn words(&self) -> u64 {
        (self.perm.len()
            + self.chunk_ptr.len()
            + self.chunk_len.len()
            + self.row_len.len()
            + self.col_idx.len()
            + self.values.len()) as u64
    }

    /// Enumerates the cell offsets backed by a real non-zero, in storage
    /// order — the cells the fault injector may legally target.
    pub fn active_cells(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.nnz());
        for i in 0..self.chunk_len.len() {
            let base = i * self.c;
            let lanes = self.c.min(self.rows - base);
            for k in 0..lanes {
                for j in 0..self.row_len[base + k] {
                    out.push(self.chunk_ptr[i] + j * self.c + k);
                }
            }
        }
        out
    }

    /// Structural sanity of the (untrusted) arrays: every check a run
    /// needs before it can bound its loops. Returns a typed
    /// [`KernelError::Corrupt`] instead of running away on corrupt
    /// pointers or lengths.
    fn check(&self) -> Result<(), KernelError> {
        if self.c == 0 {
            return Err(KernelError::Corrupt("SELL chunk height C = 0".into()));
        }
        let chunks = self.rows.div_ceil(self.c);
        if self.perm.len() != self.rows || self.row_len.len() != self.rows {
            return Err(KernelError::Corrupt(
                "SELL perm/row_len length != rows".into(),
            ));
        }
        let mut seen = vec![false; self.rows];
        for &p in &self.perm {
            if p >= self.rows || seen[p] {
                return Err(KernelError::Corrupt("SELL perm not a permutation".into()));
            }
            seen[p] = true;
        }
        if self.chunk_len.len() != chunks || self.chunk_ptr.len() != chunks + 1 {
            return Err(KernelError::Corrupt(
                "SELL chunk arrays inconsistent with rows/C".into(),
            ));
        }
        if self.chunk_ptr.first().copied().unwrap_or(1) != 0 {
            return Err(KernelError::Corrupt("SELL chunk_ptr[0] != 0".into()));
        }
        for i in 0..chunks {
            if self.chunk_ptr[i + 1] < self.chunk_ptr[i]
                || self.chunk_ptr[i + 1] - self.chunk_ptr[i] != self.c * self.chunk_len[i]
            {
                return Err(KernelError::Corrupt(format!(
                    "SELL chunk {i} span != C * width"
                )));
            }
            for k in 0..self.c.min(self.rows - i * self.c) {
                if self.row_len[i * self.c + k] > self.chunk_len[i] {
                    return Err(KernelError::Corrupt(format!(
                        "SELL row at position {} longer than chunk {i}",
                        i * self.c + k
                    )));
                }
            }
        }
        if self.col_idx.len() != *self.chunk_ptr.last().unwrap_or(&0)
            || self.values.len() != self.col_idx.len()
        {
            return Err(KernelError::Corrupt(
                "SELL data arrays inconsistent with chunk_ptr".into(),
            ));
        }
        Ok(())
    }
}

/// Word addresses of the SELL arrays in simulated memory.
struct SellLayout {
    perm: u32,
    inv: u32,
    row_len: u32,
    col: u32,
    val: u32,
}

/// Loads the shared SELL input arrays (permutation, row lengths, padded
/// columns and values). The caller allocates its kernel-specific output
/// arrays afterwards, so the array most sensitive to corrupt column
/// indices can sit last before the watermark.
fn load_sell(mem: &mut Memory, alloc: &mut Allocator, sa: &SellArrays) -> SellLayout {
    let layout = SellLayout {
        perm: alloc.alloc(sa.rows),
        inv: alloc.alloc(sa.rows),
        row_len: alloc.alloc(sa.rows),
        col: alloc.alloc(sa.col_idx.len()),
        val: alloc.alloc(sa.values.len()),
    };
    let perm: Vec<u32> = sa.perm.iter().map(|&p| p as u32).collect();
    let row_len: Vec<u32> = sa.row_len.iter().map(|&l| l as u32).collect();
    let col: Vec<u32> = sa.col_idx.iter().map(|&c| c as u32).collect();
    let val: Vec<u32> = sa.values.iter().map(|v| v.to_bits()).collect();
    mem.write_block(layout.perm, &perm);
    mem.write_block(layout.row_len, &row_len);
    mem.write_block(layout.col, &col);
    mem.write_block(layout.val, &val);
    layout
}

/// Record the `format.sell.*` counters describing the chunk geometry the
/// run executed over.
fn record_sell_counters(rec: &Recorder, sa: &SellArrays) {
    if !rec.is_enabled() {
        return;
    }
    let stored = sa.nnz() as u64;
    let cells = sa.col_idx.len() as u64;
    rec.add("format.sell.chunks", sa.chunk_len.len() as u64);
    rec.add("format.sell.stored", stored);
    rec.add("format.sell.padding", cells.saturating_sub(stored));
    rec.add(
        "format.sell.max_chunk_len",
        sa.chunk_len.iter().copied().max().unwrap_or(0) as u64,
    );
}

/// Simulates the SELL-C-σ transposition of `sa`. Returns the transposed
/// CSR matrix — byte-identical to the `transpose_crs` reference — and
/// the cycle report.
pub fn transpose_sell(
    ctx: &ExecCtx,
    sa: &SellArrays,
) -> Result<(Csr, TransposeReport), KernelError> {
    sa.check()?;
    let (rows, cols, nnz) = (sa.rows, sa.cols, sa.nnz());
    let mut mem = Memory::new();
    let mut alloc = Allocator::new(64);
    let layout = load_sell(&mut mem, &mut alloc, sa);
    let jat = alloc.alloc(nnz);
    let ant = alloc.alloc(nnz);
    // IAT is allocated *last* (cols + 2 words: the histogram runs over the
    // padded column array, so the pad sentinel `cols` counts into the
    // discarded IAT[cols + 1]); a corrupt column index indexes past it,
    // straight over the watermark.
    let iat = alloc.alloc(cols + 2);
    let body = |e: &mut Engine| {
        record_sell_counters(&ctx.obs, sa);
        run_transpose_phases(e, &ctx.vp, sa, &layout, jat, ant, iat)
    };
    let crs_layout = CrsLayout {
        ia: layout.row_len, // unused by decode
        ja: layout.col,
        an: layout.val,
        iat,
        jat,
        ant,
    };
    simulate(ctx, mem, alloc.watermark(), nnz, body, |mem| {
        decode_result(&mem, &crs_layout, rows, cols, nnz)
    })
}

/// The five phases of the SELL transposition.
fn run_transpose_phases(
    e: &mut Engine,
    vp_cfg: &VpConfig,
    sa: &SellArrays,
    layout: &SellLayout,
    jat: u32,
    ant: u32,
    iat: u32,
) -> Result<Ran, KernelError> {
    let mut phases = Vec::new();
    let s = vp_cfg.section_size;
    let (rows, cols) = (sa.rows, sa.cols);
    let cells = sa.col_idx.len();

    // Phase 0: the inverse permutation INV[perm[p]] = p — an iota
    // scattered through the permutation (conflict-free: perm is a
    // permutation, so the indices within a strip are distinct).
    let mut off = 0usize;
    while off < rows {
        let vl = s.min(rows - off);
        let positions = e.v_iota(vl, off as u32, 1);
        let perm = e.v_ld(layout.perm + off as u32, vl);
        e.v_st_idx(&positions, layout.inv, &perm);
        e.loop_overhead();
        off += vl;
    }
    let t0 = e.cycles();
    phases.push(Phase {
        name: "invperm",
        cycles: t0,
    });

    // Phase 1: IAT[0..cols + 2] = 0 (one extra word discards the pad
    // sentinel's histogram counts).
    let zero = e.v_set_imm(s, 0);
    let mut off = 0usize;
    while off < cols + 2 {
        let vl = s.min(cols + 2 - off);
        let section = zero.slice(0..vl);
        e.v_st(iat + off as u32, &section);
        e.loop_overhead();
        off += vl;
    }
    let t1 = e.cycles();
    phases.push(Phase {
        name: "init",
        cycles: t1 - t0,
    });

    // Phase 2: scalar histogram over the *padded* column array — the
    // padding overhead of the format is paid here, visibly: every pad
    // cell costs one loop iteration whose count lands in IAT[cols + 1].
    let program = histogram_program(layout.col, cells, iat);
    let rec = e.recorder().clone();
    let scalar_stats = run_scalar(
        vp_cfg,
        e.mem_mut(),
        &program,
        histogram_max_instructions(cells),
        &rec,
    );
    if scalar_stats.capped {
        return Err(KernelError::Corrupt(
            "histogram program exceeded its instruction budget".into(),
        ));
    }
    e.advance_serial(scalar_stats.cycles);
    let t2 = e.cycles();
    phases.push(Phase {
        name: "histogram",
        cycles: t2 - t1,
    });

    // Phase 3: vectorized scan-add over IAT[0..=cols] (the discard word
    // stays out of the prefix sum).
    scan_add_inplace(e, iat, cols + 1);
    let t3 = e.cycles();
    phases.push(Phase {
        name: "scan-add",
        cycles: t3 - t2,
    });

    // Phase 4: the Pissanetsky scatter, walking the *original* rows in
    // ascending order through INV so the cursor evolution — and with it
    // the output bytes — match the CRS reference exactly. Each strip
    // gathers the row's cells with one stride-C load per operand.
    let c = sa.c as u32;
    for r in 0..rows {
        let p = e.mem().read(layout.inv + r as u32) as usize;
        // INV was built from a checked permutation, but read it back
        // defensively: runaway positions must not index past the arrays.
        if p >= rows {
            return Err(KernelError::Corrupt(format!(
                "inverse permutation entry {r} = {p} outside 0..{rows}"
            )));
        }
        let len = e.mem().read(layout.row_len + p as u32) as usize;
        if len != sa.row_len[p] {
            return Err(KernelError::Corrupt(format!(
                "row length at position {p} changed during the run"
            )));
        }
        let chunk = p / sa.c;
        let lane = (p % sa.c) as u32;
        let base = sa.chunk_ptr[chunk] as u32 + lane;
        // Scalar bookkeeping: INV, row length and chunk pointer loads
        // plus the loop control.
        e.scalar_cycles(vp_cfg.loop_overhead + 3 * vp_cfg.scalar_cache.hit_latency);
        let mut j = 0usize;
        while j < len {
            let vl = s.min(len - j);
            let vr0 = e.v_ld_strided(layout.col + base + (j as u32) * c, c, vl);
            let vr1 = e.v_ld_idx(iat, &vr0); // k = IAT[j]
            let vr2 = e.v_set_imm(vl, r as u32);
            e.v_st_idx(&vr2, jat, &vr1); // JAT[k] = r
            let vr3 = e.v_ld_strided(layout.val + base + (j as u32) * c, c, vl);
            e.v_st_idx(&vr3, ant, &vr1); // ANT[k] = value
            let vr4 = e.v_add_imm(&vr1, 1);
            e.v_st_idx(&vr4, iat, &vr0); // IAT[col] = k + 1
            e.loop_overhead();
            j += vl;
        }
    }
    let t4 = e.cycles();
    phases.push(Phase {
        name: "scatter",
        cycles: t4 - t3,
    });
    Ok(Ran {
        scalar: Some(scalar_stats),
        ..Ran::phased(phases)
    })
}

/// Simulates `y = A * x` over the SELL-C-σ arrays. The result is
/// bit-identical to the host `Csr::spmv` on the same matrix: partial
/// sums accumulate per row in ascending-column (= ascending-depth)
/// order, and padding cells are never touched.
pub fn spmv_sell(
    ctx: &ExecCtx,
    sa: &SellArrays,
    x: &[Value],
) -> Result<(Vec<Value>, TransposeReport), KernelError> {
    sa.check()?;
    if sa.c > ctx.vp.section_size {
        return Err(KernelError::Config(format!(
            "SELL chunk height {} exceeds the section size {}",
            sa.c, ctx.vp.section_size
        )));
    }
    if x.len() != sa.cols {
        return Err(KernelError::Config(format!(
            "x length {} != matrix columns {}",
            x.len(),
            sa.cols
        )));
    }
    let (rows, nnz) = (sa.rows, sa.nnz());
    let mut mem = Memory::new();
    let mut alloc = Allocator::new(64);
    let layout = load_sell(&mut mem, &mut alloc, sa);
    let acc = alloc.alloc(rows.max(1));
    let yb = alloc.alloc(rows.max(1));
    // x sits last before the watermark: a corrupt column index gathers
    // past the allocation and trips the guard instead of silently
    // reading a neighbouring array.
    let xb = alloc.alloc(sa.cols.max(1));
    for (i, &v) in x.iter().enumerate() {
        mem.write_f32(xb + i as u32, v);
    }
    let body = |e: &mut Engine| {
        record_sell_counters(&ctx.obs, sa);
        run_spmv_phases(e, &ctx.vp, sa, &layout, acc, yb, xb).map(Ran::phased)
    };
    simulate(ctx, mem, alloc.watermark(), nnz, body, |mem| {
        Ok((0..rows).map(|i| mem.read_f32(yb + i as u32)).collect())
    })
}

/// The three phases of the SELL SpMV.
fn run_spmv_phases(
    e: &mut Engine,
    vp_cfg: &VpConfig,
    sa: &SellArrays,
    layout: &SellLayout,
    acc: u32,
    yb: u32,
    xb: u32,
) -> Result<Vec<Phase>, KernelError> {
    let mut phases = Vec::new();
    let s = vp_cfg.section_size;
    let rows = sa.rows;

    // Phase 0: zero the per-position accumulators (at least one word so
    // even an empty matrix charges a cycle or two, like the other
    // kernels' init phases).
    let zero = e.v_set_imm(s, 0);
    let n = rows.max(1);
    let mut off = 0usize;
    while off < n {
        let vl = s.min(n - off);
        let section = zero.slice(0..vl);
        e.v_st(acc + off as u32, &section);
        e.loop_overhead();
        off += vl;
    }
    let t0 = e.cycles();
    phases.push(Phase {
        name: "init",
        cycles: t0,
    });

    // Phase 1: per chunk and depth, one fused gather/multiply/accumulate
    // over the active-lane prefix. The descending in-chunk sort (σ a
    // multiple of C) means the lanes still alive at depth j are exactly
    // positions base..base+nact — padding cells are never loaded.
    for i in 0..sa.chunk_len.len() {
        let base = i * sa.c;
        let lanes = sa.c.min(rows - base);
        // Chunk bookkeeping: chunk pointer + width loads, loop control.
        e.scalar_cycles(vp_cfg.loop_overhead + 2 * vp_cfg.scalar_cache.hit_latency);
        let cptr = sa.chunk_ptr[i] as u32;
        for j in 0..sa.chunk_len[i] {
            let nact = sa.row_len[base..base + lanes]
                .iter()
                .take_while(|&&l| l > j)
                .count();
            if nact == 0 {
                break;
            }
            let cell = cptr + (j * sa.c) as u32;
            let vc = e.v_ld(layout.col + cell, nact);
            let vx = e.v_ld_idx(xb, &vc);
            let vv = e.v_ld(layout.val + cell, nact);
            let prod = e.v_fmul(&vv, &vx);
            let vacc = e.v_ld(acc + base as u32, nact);
            let sum = e.v_fadd(&vacc, &prod);
            e.v_st(acc + base as u32, &sum);
            e.loop_overhead();
        }
    }
    let t1 = e.cycles();
    phases.push(Phase {
        name: "chunk-mac",
        cycles: t1 - t0,
    });

    // Phase 2: y[perm[p]] = acc[p] — one gather of the permutation and
    // an indexed store per strip (conflict-free: perm is a permutation).
    let mut off = 0usize;
    while off < rows {
        let vl = s.min(rows - off);
        let vacc = e.v_ld(acc + off as u32, vl);
        let vperm = e.v_ld(layout.perm + off as u32, vl);
        e.v_st_idx(&vacc, yb, &vperm);
        e.loop_overhead();
        off += vl;
    }
    let t2 = e.cycles();
    phases.push(Phase {
        name: "scatter-y",
        cycles: t2 - t1,
    });
    Ok(phases)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_sparse::{gen, Coo, SellConfig, SparseFormat};

    fn arrays(coo: &Coo) -> SellArrays {
        let sell = Sell::from_coo_with(coo, SellConfig { c: 64, sigma: 512 }).unwrap();
        SellArrays::from_sell(&sell)
    }

    #[test]
    fn transpose_is_byte_identical_to_crs_reference() {
        for coo in [
            gen::random::uniform(90, 70, 600, 3),
            gen::random::power_law(120, 120, 8.0, 1.2, 5),
            gen::structured::diagonal(80),
            Coo::new(6, 9),
        ] {
            let sa = arrays(&coo);
            let (got, report) = transpose_sell(&ExecCtx::paper(), &sa).unwrap();
            assert_eq!(got, Csr::from_coo(&coo).transpose_pissanetsky());
            assert!(report.cycles > 0);
            let sum: u64 = report.phases.iter().map(|p| p.cycles).sum();
            assert_eq!(sum, report.cycles);
            assert_eq!(report.phases.len(), 5);
        }
    }

    #[test]
    fn spmv_is_bit_identical_to_host_csr() {
        for coo in [
            gen::random::uniform(150, 90, 1100, 7),
            gen::random::power_law(200, 200, 12.0, 1.1, 9),
        ] {
            let sa = arrays(&coo);
            let x = crate::exec::spmv_input(coo.cols());
            let (y, report) = spmv_sell(&ExecCtx::paper(), &sa, &x).unwrap();
            let expect = Csr::from_coo(&coo).spmv(&x).unwrap();
            assert_eq!(y.len(), expect.len());
            for (i, (a, b)) in y.iter().zip(&expect).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "row {i}");
            }
            let sum: u64 = report.phases.iter().map(|p| p.cycles).sum();
            assert_eq!(sum, report.cycles);
        }
    }

    #[test]
    fn spmv_charges_for_stored_entries_not_padding() {
        // One dense row among short ones inflates CSR-style padding; the
        // active-prefix loop must keep the cost roughly linear in nnz.
        let mut skew = Coo::new(256, 256);
        for c in 0..256 {
            skew.push(0, c, 1.0);
        }
        for r in 1..256 {
            skew.push(r, (r * 7) % 256, 1.0);
        }
        let uniform = gen::random::uniform(256, 256, skew.nnz(), 3);
        let x = crate::exec::spmv_input(256);
        let cyc = |coo: &Coo| {
            spmv_sell(&ExecCtx::paper(), &arrays(coo), &x)
                .unwrap()
                .1
                .cycles
        };
        let (a, b) = (cyc(&skew), cyc(&uniform));
        // Equal nnz. The dense row still costs its 256 serial depths of
        // loop overhead, but the padded *lanes* (63 dead lanes × 256
        // depths ≈ 16k cells, a ~32× blowup) are never loaded — so the
        // skewed run must stay well under that padded multiple.
        assert!(a < 15 * b, "skewed {a} vs uniform {b}");
    }

    #[test]
    fn corrupt_arrays_are_typed_errors() {
        let coo = gen::random::uniform(40, 40, 200, 1);
        let x = crate::exec::spmv_input(40);
        let mut sa = arrays(&coo);
        sa.chunk_ptr[1] += 3;
        assert!(matches!(
            transpose_sell(&ExecCtx::paper(), &sa),
            Err(KernelError::Corrupt(_))
        ));
        let mut sa = arrays(&coo);
        sa.row_len[0] = sa.col_idx.len() + 1;
        assert!(matches!(
            spmv_sell(&ExecCtx::paper(), &sa, &x),
            Err(KernelError::Corrupt(_))
        ));
        let mut sa = arrays(&coo);
        sa.col_idx.pop();
        sa.values.pop();
        assert!(matches!(
            transpose_sell(&ExecCtx::paper(), &sa),
            Err(KernelError::Corrupt(_))
        ));
    }

    #[test]
    fn format_counters_are_recorded() {
        let coo = gen::random::uniform(80, 80, 400, 11);
        let sa = arrays(&coo);
        let ctx = ExecCtx {
            obs: Recorder::enabled_default(),
            ..ExecCtx::paper()
        };
        transpose_sell(&ctx, &sa).unwrap();
        let data = ctx.obs.snapshot();
        assert_eq!(data.counter("format.sell.chunks"), 2);
        assert_eq!(data.counter("format.sell.stored"), sa.nnz() as u64);
        assert_eq!(
            data.counter("format.sell.stored") + data.counter("format.sell.padding"),
            sa.col_idx.len() as u64
        );
    }

    #[test]
    fn active_cells_enumerates_exactly_the_stored_entries() {
        let coo = gen::random::power_law(100, 60, 6.0, 1.3, 2);
        let sa = arrays(&coo);
        let cells = sa.active_cells();
        assert_eq!(cells.len(), sa.nnz());
        for &cell in &cells {
            assert!(sa.col_idx[cell] < sa.cols, "cell {cell} is padding");
        }
    }

    #[test]
    fn trait_digest_agrees_with_sell_to_coo() {
        // The SELL round trip feeding these kernels preserves the matrix.
        let coo = gen::random::uniform(64, 64, 300, 13);
        let sell = Sell::from_coo_with(&coo, SellConfig::default()).unwrap();
        let mut expect = coo.clone();
        expect.canonicalize();
        assert_eq!(SparseFormat::to_coo(&sell), expect);
    }
}
