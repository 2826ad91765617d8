//! Sparse matrix–vector multiplication over HiSM.
//!
//! The HiSM format was originally introduced (paper reference \[5\]) for
//! SpMV; the STM paper argues the format pays off for *other* operations
//! too. This software SpMV exercises the hierarchical traversal end to end
//! and powers the domain examples (PageRank, BiCG), where transposition
//! and multiplication are combined.

use crate::matrix::{BlockData, HismMatrix};
use stm_sparse::{FormatError, Value};

/// Computes `y = A * x` over the hierarchical structure.
pub fn spmv(h: &HismMatrix, x: &[Value]) -> Result<Vec<Value>, FormatError> {
    if x.len() != h.cols() {
        return Err(FormatError::ShapeMismatch {
            expected: (h.cols(), 1),
            found: (x.len(), 1),
        });
    }
    let mut y = vec![0.0; h.rows()];
    walk(h, h.root(), h.levels() - 1, (0, 0), x, &mut y);
    Ok(y)
}

fn walk(
    h: &HismMatrix,
    block: usize,
    level: usize,
    origin: (usize, usize),
    x: &[Value],
    y: &mut [Value],
) {
    let step = h.section_size().pow(level as u32);
    match &h.blocks()[block].data {
        BlockData::Leaf(entries) => {
            for e in entries {
                let (r, c) = (origin.0 + e.row as usize, origin.1 + e.col as usize);
                // Padding cells never hold entries, but guard anyway: the
                // logical matrix may be smaller than the padded square.
                if r < y.len() && c < x.len() {
                    y[r] += e.value * x[c];
                }
            }
        }
        BlockData::Node(entries) => {
            for e in entries {
                let child_origin = (
                    origin.0 + e.row as usize * step,
                    origin.1 + e.col as usize * step,
                );
                walk(h, e.child, level - 1, child_origin, x, y);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build;
    use stm_sparse::{gen, Coo, Csr};

    #[test]
    fn spmv_matches_csr() {
        let coo = gen::random::uniform(80, 60, 400, 21);
        let h = build::from_coo(&coo, 8).unwrap();
        let csr = Csr::from_coo(&coo);
        let x: Vec<f32> = (0..60).map(|i| (i as f32 * 0.37).sin()).collect();
        let yh = spmv(&h, &x).unwrap();
        let yc = csr.spmv(&x).unwrap();
        for (a, b) in yh.iter().zip(&yc) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn spmv_rejects_bad_length() {
        let h = build::from_coo(&Coo::new(4, 4), 4).unwrap();
        assert!(spmv(&h, &[1.0]).is_err());
    }

    #[test]
    fn empty_matrix_gives_zero_vector() {
        let h = build::from_coo(&Coo::new(3, 3), 4).unwrap();
        assert_eq!(spmv(&h, &[1.0, 2.0, 3.0]).unwrap(), vec![0.0; 3]);
    }
}
