//! Host-native CRS kernels: Pissanetsky transposition and the sectioned
//! SpMV, bit-identical to the simulated `transpose_crs` / `spmv_crs`.
//!
//! The simulated transpose executes exactly the three Pissanetsky phases
//! of [`Csr::transpose_pissanetsky`] (histogram, scan-add, scatter), so
//! the host leg re-runs those phases directly over the raw arrays after
//! a structural check. The simulated SpMV reduces each row *section* (at
//! most `s` products) with a log-step slide/add tree whose zero-fill
//! additions are **not** floating-point identities (`-0.0 + 0.0 = +0.0`),
//! so the host leg replicates that literal tree instead of the naive
//! sequential sum — see DESIGN.md §14.

use crate::HostError;
use stm_sparse::{Csr, Value};

/// Structural checks mirroring what the simulator's guarded memory would
/// catch on a corrupt CRS input: pointer-array shape, monotonicity,
/// array-length agreement and column range. Returns a typed error so a
/// host leg fed fault-injected arrays fails exactly like the simulator
/// leg — typed, never a panic or an out-of-bounds access.
pub fn check_csr(csr: &Csr) -> Result<(), HostError> {
    let (rows, cols) = csr.shape();
    let rp = csr.row_ptr();
    if rp.len() != rows + 1 {
        return Err(HostError::Corrupt(format!(
            "row_ptr has length {}, expected {}",
            rp.len(),
            rows + 1
        )));
    }
    if rp.first() != Some(&0) {
        return Err(HostError::Corrupt("row_ptr[0] != 0".into()));
    }
    if let Some(w) = rp.windows(2).find(|w| w[0] > w[1]) {
        return Err(HostError::Corrupt(format!(
            "row_ptr not monotone ({} > {})",
            w[0], w[1]
        )));
    }
    if *rp.last().unwrap() != csr.col_idx().len() || csr.col_idx().len() != csr.values().len() {
        return Err(HostError::Corrupt(format!(
            "row_ptr[rows] = {} disagrees with col_idx/values lengths {}/{}",
            rp.last().unwrap(),
            csr.col_idx().len(),
            csr.values().len()
        )));
    }
    if let Some((k, &c)) = csr.col_idx().iter().enumerate().find(|&(_, &c)| c >= cols) {
        return Err(HostError::Corrupt(format!(
            "column index JA[{k}] = {c} outside 0..{cols}"
        )));
    }
    Ok(())
}

/// Host Pissanetsky transposition of a (checked) CRS matrix.
///
/// Byte-identical to the simulated `transpose_crs` (which is itself
/// tested byte-identical to [`Csr::transpose_pissanetsky`]).
pub fn transpose_csr(csr: &Csr) -> Result<Csr, HostError> {
    check_csr(csr)?;
    let mut out = csr.transpose_pissanetsky();
    if crate::diverge_requested("transpose_crs") {
        out = diverge(out);
    }
    Ok(out)
}

/// CI self-test divergence: flip the sign bit of the first stored value
/// (or materialize a sentinel row on empty matrices) so the digest gate
/// must fail. See [`crate::diverge_requested`].
fn diverge(csr: Csr) -> Csr {
    let (rows, cols, row_ptr, col_idx, mut values) = csr.into_parts();
    match values.first_mut() {
        Some(v) => *v = Value::from_bits(v.to_bits() ^ 0x8000_0000),
        None => {
            return Csr::from_parts_unchecked(rows.wrapping_add(1), cols, row_ptr, col_idx, values)
        }
    }
    Csr::from_parts_unchecked(rows, cols, row_ptr, col_idx, values)
}

/// Host `y = A * x` replicating the simulated `spmv_crs` bit for bit:
/// per row, sections of at most `s` products are reduced with a log-step
/// slide/add tree (zero-filled slides included), and the per-section
/// results accumulate left to right into `acc` starting from `+0.0`.
///
/// `s` is the vector section size the simulator would strip-mine with —
/// it shapes the reduction tree, so it is part of the functional
/// contract, not just a cost parameter.
pub fn spmv_csr(csr: &Csr, x: &[Value], s: usize) -> Result<Vec<Value>, HostError> {
    if x.len() != csr.cols() {
        return Err(HostError::Config(format!(
            "x length {} != matrix columns {}",
            x.len(),
            csr.cols()
        )));
    }
    if s == 0 {
        return Err(HostError::Config("section size s = 0".into()));
    }
    check_csr(csr)?;
    let nnz = csr.nnz();
    let (ja, an) = (csr.col_idx(), csr.values());
    let mut y = vec![0.0f32; csr.rows()];
    // One section's products + the slide buffer, reused across rows.
    let mut prod = vec![0.0f32; s];
    let mut shifted = vec![0.0f32; s];
    for (i, yi) in y.iter_mut().enumerate() {
        let iaa = csr.row_ptr()[i];
        let iab = csr.row_ptr()[i + 1];
        if iaa > iab || iab > nnz {
            return Err(HostError::Corrupt(format!(
                "row pointer IA[{i}..={}] = {iaa}..{iab} outside 0..={nnz}",
                i + 1
            )));
        }
        let mut acc = 0.0f32;
        let mut jp = iaa;
        while jp < iab {
            let vl = s.min(iab - jp);
            for ((p, &a), &j) in prod.iter_mut().zip(&an[jp..jp + vl]).zip(&ja[jp..jp + vl]) {
                *p = a * x[j];
            }
            // The simulator's reduction: shifted = slide_up(prod, k, 0.0);
            // prod = prod + shifted. The 0.0 fills participate in real
            // additions, so they stay.
            let mut k = 1usize;
            while k < vl {
                shifted[..k].fill(0.0);
                shifted[k..vl].copy_from_slice(&prod[..vl - k]);
                for (p, &sh) in prod[..vl].iter_mut().zip(&shifted[..vl]) {
                    *p += sh;
                }
                k *= 2;
            }
            acc += prod[vl - 1];
            jp += vl;
        }
        *yi = acc;
    }
    if crate::diverge_requested("spmv_crs") {
        if let Some(v) = y.first_mut() {
            *v = Value::from_bits(v.to_bits() ^ 0x8000_0000);
        }
    }
    Ok(y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_sparse::{gen, Coo};

    fn x_for(cols: usize) -> Vec<f32> {
        (0..cols).map(|i| ((i % 9) as f32) - 4.0).collect()
    }

    #[test]
    fn transpose_matches_pissanetsky() {
        for coo in [
            gen::random::uniform(90, 70, 600, 3),
            gen::structured::diagonal(40),
            Coo::new(5, 9),
        ] {
            let csr = Csr::from_coo(&coo);
            assert_eq!(transpose_csr(&csr).unwrap(), csr.transpose_pissanetsky());
        }
    }

    #[test]
    fn corrupt_arrays_are_typed_errors_not_panics() {
        let coo = gen::random::uniform(40, 40, 220, 1);
        let good = Csr::from_coo(&coo);
        let (rows, cols, rp, ja, an) = good.clone().into_parts();
        // Column out of range.
        let mut bad_ja = ja.clone();
        bad_ja[0] = cols + 7;
        let bad = Csr::from_parts_unchecked(rows, cols, rp.clone(), bad_ja, an.clone());
        assert!(matches!(transpose_csr(&bad), Err(HostError::Corrupt(_))));
        assert!(matches!(
            spmv_csr(&bad, &x_for(cols), 64),
            Err(HostError::Corrupt(_))
        ));
        // Truncated data arrays.
        let mut short_ja = ja.clone();
        let mut short_an = an.clone();
        short_ja.pop();
        short_an.pop();
        let bad = Csr::from_parts_unchecked(rows, cols, rp.clone(), short_ja, short_an);
        assert!(matches!(transpose_csr(&bad), Err(HostError::Corrupt(_))));
        // Non-monotone row pointers.
        let mut bad_rp = rp.clone();
        bad_rp[1] = bad_rp[2] + 5;
        let bad = Csr::from_parts_unchecked(rows, cols, bad_rp, ja, an);
        assert!(matches!(
            spmv_csr(&bad, &x_for(cols), 64),
            Err(HostError::Corrupt(_))
        ));
    }

    #[test]
    fn section_size_shapes_the_result_tree() {
        // Same matrix, different s ⇒ the tree has different shape; the
        // host treats s as part of the functional contract.
        let mut coo = Coo::new(1, 100);
        for c in 0..100 {
            coo.push(0, c, 0.1 + c as f32 * 0.3);
        }
        let csr = Csr::from_coo(&coo);
        let x = x_for(100);
        let y64 = spmv_csr(&csr, &x, 64).unwrap();
        let y8 = spmv_csr(&csr, &x, 8).unwrap();
        // Values are close but need not be bit-identical across s.
        assert!((y64[0] - y8[0]).abs() < 1e-2 * y64[0].abs().max(1.0));
    }

    #[test]
    fn empty_rows_produce_positive_zero() {
        let coo = Coo::from_triplets(3, 3, vec![(1, 1, -0.0)]).unwrap();
        let csr = Csr::from_coo(&coo);
        let y = spmv_csr(&csr, &[1.0, 1.0, 1.0], 64).unwrap();
        assert_eq!(y[0].to_bits(), 0.0f32.to_bits());
        assert_eq!(y[2].to_bits(), 0.0f32.to_bits());
        // acc starts at +0.0 and adds the (possibly -0.0) product:
        // -0.0 + 0.0 = +0.0, exactly like the simulator.
        assert_eq!(y[1].to_bits(), 0.0f32.to_bits());
    }
}
