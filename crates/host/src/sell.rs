//! Host-native SELL-C-σ kernels, bit-identical to the simulated
//! `transpose_sell` / `spmv_sell`.
//!
//! The simulated SELL transposition gathers every original row (in
//! ascending order, through the inverse permutation) and scatters with
//! the Pissanetsky cursor discipline, so its output CSR is byte-identical
//! to `Csr::transpose_pissanetsky` of the reconstructed matrix — which is
//! exactly what the host leg computes, in one histogram and one scatter
//! over the SELL cells. The simulated SpMV accumulates
//! per-lane partial sums depth by depth over the active-lane prefix of
//! each chunk; per lane that is ascending-column sequential accumulation
//! from `+0.0`, the same floating-point order as `Csr::spmv`, and lanes
//! are independent.

use crate::HostError;
use stm_sparse::{Csr, Value};

/// A borrowed view of the flattened SELL-C-σ arrays (the registry's
/// `SellArrays` lives in `stm-core`, which depends on this crate — so
/// the host kernels consume plain slices instead).
#[derive(Debug, Clone, Copy)]
pub struct SellView<'a> {
    /// Number of rows of the original matrix.
    pub rows: usize,
    /// Number of columns of the original matrix.
    pub cols: usize,
    /// Chunk height `C`.
    pub c: usize,
    /// `perm[p]` = original row at sorted position `p`.
    pub perm: &'a [usize],
    /// Chunk offsets into `col_idx`/`values` (`chunks + 1` entries).
    pub chunk_ptr: &'a [usize],
    /// Per-chunk widths.
    pub chunk_len: &'a [usize],
    /// Per-position row lengths (sorted order).
    pub row_len: &'a [usize],
    /// Padded column indices (sentinel `cols` at padding cells).
    pub col_idx: &'a [usize],
    /// Padded values (`0.0` at padding cells).
    pub values: &'a [Value],
}

/// Structural sanity of the (untrusted) arrays — the same checks the
/// simulated kernels run before bounding their loops, as typed
/// [`HostError::Corrupt`] instead of panics.
pub fn check_sell(v: &SellView<'_>) -> Result<(), HostError> {
    if v.c == 0 {
        return Err(HostError::Corrupt("SELL chunk height C = 0".into()));
    }
    let chunks = v.rows.div_ceil(v.c);
    if v.perm.len() != v.rows || v.row_len.len() != v.rows {
        return Err(HostError::Corrupt(
            "SELL perm/row_len length != rows".into(),
        ));
    }
    let mut seen = vec![false; v.rows];
    for &p in v.perm {
        if p >= v.rows || seen[p] {
            return Err(HostError::Corrupt("SELL perm not a permutation".into()));
        }
        seen[p] = true;
    }
    if v.chunk_len.len() != chunks || v.chunk_ptr.len() != chunks + 1 {
        return Err(HostError::Corrupt(
            "SELL chunk arrays inconsistent with rows/C".into(),
        ));
    }
    if v.chunk_ptr.first().copied().unwrap_or(1) != 0 {
        return Err(HostError::Corrupt("SELL chunk_ptr[0] != 0".into()));
    }
    for i in 0..chunks {
        if v.chunk_ptr[i + 1] < v.chunk_ptr[i]
            || v.chunk_ptr[i + 1] - v.chunk_ptr[i] != v.c * v.chunk_len[i]
        {
            return Err(HostError::Corrupt(format!(
                "SELL chunk {i} span != C * width"
            )));
        }
        for k in 0..v.c.min(v.rows - i * v.c) {
            if v.row_len[i * v.c + k] > v.chunk_len[i] {
                return Err(HostError::Corrupt(format!(
                    "SELL row at position {} longer than chunk {i}",
                    i * v.c + k
                )));
            }
        }
    }
    if v.col_idx.len() != *v.chunk_ptr.last().unwrap_or(&0) || v.values.len() != v.col_idx.len() {
        return Err(HostError::Corrupt(
            "SELL data arrays inconsistent with chunk_ptr".into(),
        ));
    }
    Ok(())
}

/// The storage cell of sorted position `p` at depth 0; depth `j` is
/// `j * C` cells further.
fn first_cell(v: &SellView<'_>, p: usize) -> usize {
    v.chunk_ptr[p / v.c] + p % v.c
}

/// Host SELL transposition: Pissanetsky's algorithm straight from the
/// SELL cells — a column histogram over the active cells, then the
/// cursor scatter visiting original rows in ascending order through the
/// inverse permutation. Byte-identical to `Csr::transpose_pissanetsky`
/// of the original matrix.
pub fn transpose_sell(v: &SellView<'_>) -> Result<Csr, HostError> {
    check_sell(v)?;
    // Column histogram, checking every active cell's column on the way
    // (padding cells carry the sentinel `cols`).
    let mut row_ptr = vec![0usize; v.cols + 1];
    for (p, &len) in v.row_len.iter().enumerate() {
        let first = first_cell(v, p);
        for cell in (first..).step_by(v.c).take(len) {
            let c = v.col_idx[cell];
            if c >= v.cols {
                return Err(HostError::Corrupt(format!(
                    "active SELL cell {cell} has column {c} outside 0..{}",
                    v.cols
                )));
            }
            row_ptr[c + 1] += 1;
        }
    }
    for c in 0..v.cols {
        row_ptr[c + 1] += row_ptr[c];
    }
    let nnz = row_ptr[v.cols];
    let mut inv = vec![0usize; v.rows];
    for (p, &r) in v.perm.iter().enumerate() {
        inv[r] = p;
    }
    // `next[c]` is the next free slot of transposed row `c`.
    let mut next = row_ptr[..v.cols].to_vec();
    let mut col_idx = vec![0usize; nnz];
    let mut values = vec![0.0; nnz];
    for (r, &p) in inv.iter().enumerate() {
        let first = first_cell(v, p);
        for cell in (first..).step_by(v.c).take(v.row_len[p]) {
            let slot = &mut next[v.col_idx[cell]];
            col_idx[*slot] = r;
            values[*slot] = v.values[cell];
            *slot += 1;
        }
    }
    let mut out = Csr::from_parts_unchecked(v.cols, v.rows, row_ptr, col_idx, values);
    if crate::diverge_requested("transpose_sell") {
        let (rows, cols, rp, ja, mut an) = out.into_parts();
        if let Some(val) = an.first_mut() {
            *val = Value::from_bits(val.to_bits() ^ 0x8000_0000);
        }
        out = Csr::from_parts_unchecked(rows, cols, rp, ja, an);
    }
    Ok(out)
}

/// Host SELL SpMV: per chunk and depth, the active-lane prefix gathers
/// `x`, multiplies and accumulates, then the accumulator scatters back
/// through the permutation. Bit-identical to the simulated `spmv_sell` (and to
/// `Csr::spmv`).
pub fn spmv_sell(
    v: &SellView<'_>,
    x: &[Value],
    section_size: usize,
) -> Result<Vec<Value>, HostError> {
    if v.c > section_size {
        return Err(HostError::Config(format!(
            "SELL chunk height {} exceeds section size {section_size}",
            v.c
        )));
    }
    if x.len() != v.cols {
        return Err(HostError::Config(format!(
            "x length {} != matrix columns {}",
            x.len(),
            v.cols
        )));
    }
    check_sell(v)?;
    let mut acc = vec![0.0f32; v.rows];
    for i in 0..v.chunk_len.len() {
        let base = i * v.c;
        let lanes = v.c.min(v.rows - base);
        for j in 0..v.chunk_len[i] {
            // σ-sorting makes the live lanes at any depth a prefix.
            let nact = v.row_len[base..base + lanes]
                .iter()
                .take_while(|&&l| l > j)
                .count();
            if nact == 0 {
                break;
            }
            let cell = v.chunk_ptr[i] + j * v.c;
            for k in 0..nact {
                let c = v.col_idx[cell + k];
                if c >= v.cols {
                    return Err(HostError::Corrupt(format!(
                        "active SELL cell {} has column {c} outside 0..{}",
                        cell + k,
                        v.cols
                    )));
                }
                acc[base + k] += v.values[cell + k] * x[c];
            }
        }
    }
    let mut y = vec![0.0f32; v.rows];
    for (p, &a) in acc.iter().enumerate() {
        y[v.perm[p]] = a;
    }
    if crate::diverge_requested("spmv_sell") {
        if let Some(val) = y.first_mut() {
            *val = f32::from_bits(val.to_bits() ^ 0x8000_0000);
        }
    }
    Ok(y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_sparse::{gen, Coo, Sell, SellConfig};

    fn view_of(sell: &Sell) -> SellView<'_> {
        SellView {
            rows: sell.rows(),
            cols: sell.cols(),
            c: sell.config().c,
            perm: sell.perm(),
            chunk_ptr: sell.chunk_ptr(),
            chunk_len: sell.chunk_len(),
            row_len: sell.row_len(),
            col_idx: sell.col_idx(),
            values: sell.values(),
        }
    }

    fn cases() -> Vec<Coo> {
        vec![
            gen::random::uniform(90, 70, 600, 3),
            gen::random::power_law(64, 64, 9.0, 1.2, 11),
            gen::structured::grid2d_5pt(10, 14),
            Coo::new(7, 5),
        ]
    }

    #[test]
    fn transpose_matches_pissanetsky_of_the_original() {
        for coo in cases() {
            let sell = Sell::from_coo_with(&coo, SellConfig::default()).unwrap();
            let expect = Csr::from_coo(&coo).transpose_pissanetsky();
            assert_eq!(transpose_sell(&view_of(&sell)).unwrap(), expect);
        }
    }

    #[test]
    fn spmv_is_bit_identical_to_csr() {
        for coo in cases() {
            let sell = Sell::from_coo_with(&coo, SellConfig::default()).unwrap();
            let x: Vec<f32> = (0..coo.cols()).map(|i| ((i % 9) as f32) - 4.0).collect();
            let oracle = Csr::from_coo(&coo).spmv(&x).unwrap();
            let y = spmv_sell(&view_of(&sell), &x, 64).unwrap();
            assert_eq!(y.len(), oracle.len());
            for (a, b) in y.iter().zip(&oracle) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn corrupt_views_fail_typed() {
        let coo = gen::random::uniform(40, 40, 220, 1);
        let sell = Sell::from_coo_with(&coo, SellConfig::default()).unwrap();
        let good = view_of(&sell);
        // Broken permutation.
        let perm = vec![0usize; good.rows];
        let bad = SellView {
            perm: &perm,
            ..good
        };
        assert!(matches!(transpose_sell(&bad), Err(HostError::Corrupt(_))));
        // Row longer than its chunk.
        let mut row_len = good.row_len.to_vec();
        row_len[0] = usize::MAX / 2;
        let bad = SellView {
            row_len: &row_len,
            ..good
        };
        assert!(matches!(transpose_sell(&bad), Err(HostError::Corrupt(_))));
        let x = vec![1.0f32; good.cols];
        assert!(matches!(
            spmv_sell(&bad, &x, 64),
            Err(HostError::Corrupt(_))
        ));
        // Active cell pointing at the pad sentinel column.
        if let Some(&first_active) = good.col_idx.iter().position(|&c| c < good.cols).as_ref() {
            let mut col_idx = good.col_idx.to_vec();
            col_idx[first_active] = good.cols + 3;
            let bad = SellView {
                col_idx: &col_idx,
                ..good
            };
            // Only corrupt if that cell is actually active; uniform(40,40,220)
            // has nnz > 0, so cell 0 of chunk 0 is active.
            assert!(matches!(transpose_sell(&bad), Err(HostError::Corrupt(_))));
            assert!(matches!(
                spmv_sell(&bad, &x, 64),
                Err(HostError::Corrupt(_))
            ));
        }
        // C above the section size is a configuration error.
        assert!(matches!(
            spmv_sell(&good, &x, good.c - 1),
            Err(HostError::Config(_))
        ));
    }
}
