//! The three D-SAB matrix metrics used to organize the evaluation.
//!
//! The paper (Section IV-B) sorts its 132 candidate matrices by three
//! criteria and builds one 10-matrix experiment set per criterion:
//!
//! * **Matrix size** — the number of non-zeros (paper range 48 → 3 753 461).
//! * **Locality** — partition the matrix into 32×32 blocks; for each
//!   non-empty block divide its non-zero count by 32 ("to express the number
//!   in terms of the dimension of the block"); average over the non-empty
//!   blocks (paper range 0.07 → 12.85). High locality means dense blocks and
//!   is the regime the STM is designed for.
//! * **Average non-zeros per row** (ANZ) — nnz / rows (paper range 1 → 172).
//!   High ANZ favours the row-oriented CRS algorithm.

use crate::Coo;
use std::collections::HashMap;

/// Block dimension the locality metric is defined over (fixed to 32 by the
/// D-SAB definition, independent of the machine's section size).
pub const LOCALITY_BLOCK: usize = 32;

/// The D-SAB metrics of one matrix, extended with the row-shape
/// statistics the format cost model reads (row-length CV, max row
/// length, empty-row count, predicted SELL-C-σ occupancy).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatrixMetrics {
    /// Number of non-zero elements ("matrix size" criterion).
    pub nnz: usize,
    /// Average non-zeros per non-empty 32×32 block, divided by 32.
    pub locality: f64,
    /// Average non-zeros per row.
    pub avg_nnz_per_row: f64,
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Coefficient of variation of the row non-zero counts
    /// (population standard deviation / mean; `0` when the mean is 0).
    pub row_nnz_cv: f64,
    /// Largest row non-zero count.
    pub max_row_nnz: usize,
    /// Number of rows with no non-zeros.
    pub empty_rows: usize,
    /// Predicted SELL-C-σ chunk occupancy at the default `C = 64`,
    /// `σ = 512` (see [`crate::sell::occupancy_from_lengths`]);
    /// `1.0` for an empty matrix.
    pub sell_occupancy: f64,
}

impl Default for MatrixMetrics {
    /// All-zero metrics of an empty matrix (occupancy `1.0`).
    fn default() -> Self {
        MatrixMetrics {
            nnz: 0,
            locality: 0.0,
            avg_nnz_per_row: 0.0,
            rows: 0,
            cols: 0,
            row_nnz_cv: 0.0,
            max_row_nnz: 0,
            empty_rows: 0,
            sell_occupancy: 1.0,
        }
    }
}

impl MatrixMetrics {
    /// Computes all metrics for a COO matrix. Duplicate coordinates
    /// are counted once (the matrix is canonicalized first).
    pub fn compute(coo: &Coo) -> Self {
        let canon = coo.canonical();
        let nnz = canon.nnz();
        let locality = locality(&canon);
        let (rows, cols) = canon.shape();
        let lengths = crate::format::row_lengths(&canon);
        let mean = nnz as f64 / rows.max(1) as f64;
        let row_nnz_cv = if nnz == 0 {
            0.0
        } else {
            let var = lengths
                .iter()
                .map(|&l| (l as f64 - mean).powi(2))
                .sum::<f64>()
                / rows.max(1) as f64;
            var.sqrt() / mean
        };
        let cfg = crate::SellConfig::default();
        MatrixMetrics {
            nnz,
            locality,
            avg_nnz_per_row: mean,
            rows,
            cols,
            row_nnz_cv,
            max_row_nnz: lengths.iter().copied().max().unwrap_or(0),
            empty_rows: lengths.iter().filter(|&&l| l == 0).count(),
            sell_occupancy: crate::sell::occupancy_from_lengths(&lengths, cfg.c, cfg.sigma),
        }
    }
}

/// The D-SAB locality metric: average over the non-empty 32×32 blocks of
/// (non-zeros in block) / 32. Returns 0 for an empty matrix.
pub fn locality(coo: &Coo) -> f64 {
    locality_with_block(coo, LOCALITY_BLOCK)
}

/// Locality with a custom block dimension (used by the ablation benches to
/// relate the metric to the machine's section size).
pub fn locality_with_block(coo: &Coo, block: usize) -> f64 {
    assert!(block > 0, "block dimension must be positive");
    let mut counts: HashMap<(usize, usize), usize> = HashMap::new();
    for &(r, c, _) in coo.iter() {
        *counts.entry((r / block, c / block)).or_insert(0) += 1;
    }
    if counts.is_empty() {
        return 0.0;
    }
    let total: usize = counts.values().sum();
    total as f64 / (counts.len() as f64 * block as f64)
}

/// Histogram of non-zeros per row — used by the suite report example.
pub fn row_nnz_histogram(coo: &Coo) -> Vec<usize> {
    let mut h = vec![0usize; coo.rows()];
    for &(r, _, _) in coo.iter() {
        h[r] += 1;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Coo;

    #[test]
    fn diagonal_matrix_metrics() {
        // 64x64 identity: ANZ = 1; each 32x32 diagonal block holds 32
        // non-zeros so locality = 32/32 = 1.
        let mut coo = Coo::new(64, 64);
        for i in 0..64 {
            coo.push(i, i, 1.0);
        }
        let m = MatrixMetrics::compute(&coo);
        assert_eq!(m.nnz, 64);
        assert!((m.avg_nnz_per_row - 1.0).abs() < 1e-12);
        assert!((m.locality - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fully_dense_block_has_locality_32() {
        // One fully dense 32x32 block: 1024 non-zeros / 32 = 32.
        let mut coo = Coo::new(32, 32);
        for r in 0..32 {
            for c in 0..32 {
                coo.push(r, c, 1.0);
            }
        }
        assert!((locality(&coo) - 32.0).abs() < 1e-12);
    }

    #[test]
    fn scattered_entries_have_minimal_locality() {
        // One entry per 32x32 block: locality = 1/32 ≈ 0.031, the floor.
        let mut coo = Coo::new(320, 320);
        for b in 0..10 {
            coo.push(b * 32, b * 32 + 1, 1.0);
        }
        assert!((locality(&coo) - 1.0 / 32.0).abs() < 1e-12);
    }

    #[test]
    fn empty_matrix_locality_zero() {
        assert_eq!(locality(&Coo::new(10, 10)), 0.0);
    }

    #[test]
    fn duplicates_counted_once() {
        let coo = Coo::from_triplets(32, 32, vec![(0, 0, 1.0), (0, 0, 2.0)]).unwrap();
        let m = MatrixMetrics::compute(&coo);
        assert_eq!(m.nnz, 1);
    }

    #[test]
    fn custom_block_dimension() {
        let mut coo = Coo::new(64, 64);
        for i in 0..64 {
            coo.push(i, i, 1.0);
        }
        // With 64-wide blocks, one block with 64 nnz: 64/64 = 1.
        assert!((locality_with_block(&coo, 64) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_matrix_metrics_are_degenerate_safe() {
        let m = MatrixMetrics::compute(&Coo::new(0, 0));
        assert_eq!(m, MatrixMetrics::default());
        let hollow = MatrixMetrics::compute(&Coo::new(7, 3));
        assert_eq!(hollow.nnz, 0);
        assert_eq!(hollow.rows, 7);
        assert_eq!(hollow.cols, 3);
        assert_eq!(hollow.row_nnz_cv, 0.0);
        assert_eq!(hollow.max_row_nnz, 0);
        assert_eq!(hollow.empty_rows, 7);
        assert_eq!(hollow.sell_occupancy, 1.0);
    }

    #[test]
    fn single_row_matrix_has_zero_cv() {
        let coo = Coo::from_triplets(1, 8, vec![(0, 1, 1.0), (0, 5, 2.0), (0, 7, 3.0)]).unwrap();
        let m = MatrixMetrics::compute(&coo);
        assert_eq!(m.rows, 1);
        assert_eq!(m.max_row_nnz, 3);
        assert_eq!(m.empty_rows, 0);
        assert!(m.row_nnz_cv.abs() < 1e-12, "uniform lengths ⇒ CV = 0");
        // One row in a C=64 chunk: 3 stored cells of 64*3 allocated
        // (the last chunk is padded to full height).
        assert!((m.sell_occupancy - 1.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn dense_row_dominates_max_and_cv() {
        // One fully dense row among empties: CV = sqrt(n-1) for n rows.
        let mut coo = Coo::new(16, 16);
        for c in 0..16 {
            coo.push(0, c, 1.0);
        }
        let m = MatrixMetrics::compute(&coo);
        assert_eq!(m.max_row_nnz, 16);
        assert_eq!(m.empty_rows, 15);
        assert!(
            (m.row_nnz_cv - (15f64).sqrt()).abs() < 1e-9,
            "{}",
            m.row_nnz_cv
        );
        // One C=64 chunk of width 16: 16 stored cells of 64*16 allocated.
        assert!((m.sell_occupancy - 16.0 / 1024.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_rows_have_zero_cv_and_full_occupancy() {
        let mut coo = Coo::new(64, 64);
        for i in 0..64 {
            coo.push(i, i, 1.0);
        }
        let m = MatrixMetrics::compute(&coo);
        assert_eq!(m.row_nnz_cv, 0.0);
        assert_eq!(m.sell_occupancy, 1.0);
        assert_eq!(m.max_row_nnz, 1);
    }

    #[test]
    fn row_histogram_counts() {
        let coo = Coo::from_triplets(3, 3, vec![(0, 0, 1.0), (0, 1, 1.0), (2, 2, 1.0)]).unwrap();
        assert_eq!(row_nnz_histogram(&coo), vec![2, 0, 1]);
    }
}
