//! R-MAT (recursive matrix) generator — self-similar graph adjacency
//! matrices with power-law-ish degree distributions and clustered blocks,
//! standing in for the web/graph matrices of the Matrix Market collection.

use super::{finish, nz_value, rng};
use crate::Coo;

/// The four quadrant probabilities of the R-MAT recursion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmatProbs {
    /// Top-left quadrant probability.
    pub a: f64,
    /// Top-right quadrant probability.
    pub b: f64,
    /// Bottom-left quadrant probability.
    pub c: f64,
    /// Bottom-right quadrant probability (`1 - a - b - c`).
    pub d: f64,
}

impl Default for RmatProbs {
    /// The Graph500 parameters (a=0.57, b=c=0.19, d=0.05).
    fn default() -> Self {
        RmatProbs {
            a: 0.57,
            b: 0.19,
            c: 0.19,
            d: 0.05,
        }
    }
}

impl RmatProbs {
    /// A flatter recursion (closer to uniform), for lower-locality variants.
    pub fn flat() -> Self {
        RmatProbs {
            a: 0.3,
            b: 0.25,
            c: 0.25,
            d: 0.2,
        }
    }

    fn validate(&self) {
        let s = self.a + self.b + self.c + self.d;
        assert!(
            (s - 1.0).abs() < 1e-9,
            "R-MAT probabilities must sum to 1, got {s}"
        );
        assert!(
            self.a >= 0.0 && self.b >= 0.0 && self.c >= 0.0 && self.d >= 0.0,
            "R-MAT probabilities must be non-negative"
        );
    }
}

/// Generates a `2^scale x 2^scale` R-MAT matrix with (up to) `nnz` entries;
/// duplicate coordinates merge, so skewed parameter sets land below `nnz`.
pub fn rmat(scale: u32, nnz: usize, probs: RmatProbs, seed: u64) -> Coo {
    probs.validate();
    let n = 1usize << scale;
    let mut r = rng(seed);
    let mut coo = Coo::new(n, n);
    for _ in 0..nnz {
        let (mut row, mut col) = (0usize, 0usize);
        for _ in 0..scale {
            row <<= 1;
            col <<= 1;
            // Quadrant q: 0 top-left, 1 top-right, 2 bottom-left,
            // 3 bottom-right; its high bit picks the row half, its low
            // bit the column half.
            let t: f64 = r.gen_f64();
            let q = usize::from(t >= probs.a)
                + usize::from(t >= probs.a + probs.b)
                + usize::from(t >= probs.a + probs.b + probs.c);
            row |= q >> 1;
            col |= q & 1;
        }
        coo.push(row, col, nz_value(&mut r));
    }
    finish(coo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MatrixMetrics;

    #[test]
    fn shape_is_power_of_two() {
        let m = rmat(8, 1000, RmatProbs::default(), 1);
        assert_eq!(m.shape(), (256, 256));
    }

    #[test]
    fn skewed_probs_cluster_top_left() {
        let m = rmat(10, 5000, RmatProbs::default(), 2);
        let in_top_left = m.iter().filter(|&&(r, c, _)| r < 512 && c < 512).count();
        // a=0.57 at every level strongly biases to the top-left quadrant.
        assert!(in_top_left * 2 > m.nnz(), "{in_top_left} of {}", m.nnz());
    }

    #[test]
    fn default_probs_sum_to_one() {
        let p = RmatProbs::default();
        assert!((p.a + p.b + p.c + p.d - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn bad_probs_panic() {
        rmat(
            4,
            10,
            RmatProbs {
                a: 0.9,
                b: 0.9,
                c: 0.0,
                d: 0.0,
            },
            0,
        );
    }

    #[test]
    fn rmat_locality_exceeds_uniform() {
        let rm = MatrixMetrics::compute(&rmat(11, 8000, RmatProbs::default(), 3));
        let un = MatrixMetrics::compute(&super::super::random::uniform(2048, 2048, 8000, 3));
        assert!(
            rm.locality > un.locality,
            "{} vs {}",
            rm.locality,
            un.locality
        );
    }
}
