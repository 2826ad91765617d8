//! Random-structure generators: uniform (Erdős–Rényi) and power-law rows.

use super::{finish, nz_value, rng};
use crate::Coo;

/// Uniformly random sparsity (`bcspwr10`-like): `nnz` coordinates drawn
/// uniformly over the `rows x cols` grid. Duplicates are merged, so the
/// final count can fall slightly short of `nnz` for dense draws. This is
/// the lowest-locality family in the suite.
pub fn uniform(rows: usize, cols: usize, nnz: usize, seed: u64) -> Coo {
    assert!(rows > 0 && cols > 0);
    let mut r = rng(seed);
    let mut coo = Coo::new(rows, cols);
    for _ in 0..nnz {
        let i = r.gen_range(0..rows);
        let j = r.gen_range(0..cols);
        coo.push(i, j, nz_value(&mut r));
    }
    finish(coo)
}

/// Power-law row degrees (`psmigr_1`-like): row `i`'s expected non-zero
/// count follows a Zipf-style law `deg(i) ∝ (i+1)^(-alpha)` scaled so the
/// mean row degree is `avg_deg`. Columns within a row are drawn uniformly.
/// Produces a few very long rows and many short ones — high ANZ variance.
pub fn power_law(rows: usize, cols: usize, avg_deg: f64, alpha: f64, seed: u64) -> Coo {
    assert!(rows > 0 && cols > 0);
    assert!(avg_deg > 0.0 && alpha >= 0.0);
    let mut r = rng(seed);
    // Normalize the Zipf weights so that the degrees sum to rows*avg_deg.
    let weights: Vec<f64> = (0..rows).map(|i| (i as f64 + 1.0).powf(-alpha)).collect();
    let wsum: f64 = weights.iter().sum();
    let total = rows as f64 * avg_deg;
    let mut coo = Coo::new(rows, cols);
    // Shuffle row identities so the heavy rows are scattered through the
    // matrix, like a permuted real-world matrix.
    let mut perm: Vec<usize> = (0..rows).collect();
    for i in (1..rows).rev() {
        let j = r.gen_range(0..=i);
        perm.swap(i, j);
    }
    for (rank, &row) in perm.iter().enumerate() {
        let deg = ((weights[rank] / wsum * total).round() as usize).clamp(1, cols);
        for _ in 0..deg {
            let j = r.gen_range(0..cols);
            coo.push(row, j, nz_value(&mut r));
        }
    }
    finish(coo)
}

/// A "spread diagonal": entries near the diagonal with random jitter of
/// width `spread` — moderately local, band-like but irregular.
pub fn jittered_diagonal(n: usize, per_row: usize, spread: usize, seed: u64) -> Coo {
    assert!(n > 0);
    let mut r = rng(seed);
    let mut coo = Coo::new(n, n);
    for i in 0..n {
        coo.push(i, i, nz_value(&mut r));
        for _ in 1..per_row {
            let off = r.gen_range(0..=2 * spread) as isize - spread as isize;
            let j = (i as isize + off).clamp(0, n as isize - 1) as usize;
            coo.push(i, j, nz_value(&mut r));
        }
    }
    finish(coo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MatrixMetrics;

    #[test]
    fn uniform_has_about_requested_nnz() {
        let m = uniform(1000, 1000, 5000, 42);
        // A few duplicate draws collapse; stay within 2%.
        assert!(m.nnz() > 4900 && m.nnz() <= 5000, "nnz = {}", m.nnz());
    }

    #[test]
    fn uniform_low_locality() {
        let m = uniform(2048, 2048, 4000, 1);
        let met = MatrixMetrics::compute(&m);
        // ~1 entry per touched 32x32 block → locality near 1/32.
        assert!(met.locality < 0.1, "locality = {}", met.locality);
    }

    #[test]
    fn power_law_has_skewed_rows() {
        let m = power_law(512, 512, 8.0, 1.5, 9);
        let h = crate::format::row_lengths(&m);
        let max = *h.iter().max().unwrap();
        let nonzero_rows = h.iter().filter(|&&c| c > 0).count();
        let mean = m.nnz() as f64 / nonzero_rows as f64;
        assert!(max as f64 > 5.0 * mean, "max {max} vs mean {mean}");
    }

    #[test]
    fn power_law_every_row_occupied() {
        let m = power_law(100, 100, 4.0, 1.0, 3);
        let h = crate::format::row_lengths(&m);
        assert!(h.iter().all(|&c| c >= 1));
    }

    #[test]
    fn jittered_diagonal_stays_near_diagonal() {
        let m = jittered_diagonal(200, 4, 5, 11);
        for &(i, j, _) in m.iter() {
            assert!((i as isize - j as isize).unsigned_abs() <= 5);
        }
    }
}
