//! Dense matrices, used as exhaustive oracles in small tests.

use crate::{Coo, FormatError, Value};

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    rows: usize,
    cols: usize,
    data: Vec<Value>,
}

impl Dense {
    /// Creates a zero-filled `rows x cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Dense {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a dense matrix from a COO matrix (duplicates summed).
    pub fn from_coo(coo: &Coo) -> Self {
        let mut d = Dense::zeros(coo.rows(), coo.cols());
        for &(r, c, v) in coo.iter() {
            d.data[r * d.cols + c] += v;
        }
        d
    }

    /// Converts to canonical COO, dropping zeros.
    pub fn to_coo(&self) -> Coo {
        let mut coo = Coo::new(self.rows, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                let v = self.data[r * self.cols + c];
                if v != 0.0 {
                    coo.push(r, c, v);
                }
            }
        }
        coo
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    pub fn get(&self, r: usize, c: usize) -> Value {
        self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    pub fn set(&mut self, r: usize, c: usize, v: Value) {
        self.data[r * self.cols + c] = v;
    }

    /// The textbook dense transpose (strided copy) — the trivial case the
    /// paper's Section II contrasts sparse transposition against.
    pub fn transpose(&self) -> Dense {
        let mut t = Dense::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        t
    }

    /// Count of non-zero elements.
    pub fn nnz(&self) -> usize {
        self.data.iter().filter(|&&v| v != 0.0).count()
    }
}

impl crate::SparseFormat for Dense {
    const NAME: &'static str = "dense";

    fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    fn nnz(&self) -> usize {
        Dense::nnz(self)
    }

    fn validate(&self) -> Result<(), FormatError> {
        if self.data.len() != self.rows * self.cols {
            return Err(FormatError::ShapeMismatch {
                expected: (self.rows, self.cols),
                found: (self.data.len(), 1),
            });
        }
        Ok(())
    }

    fn from_coo(coo: &Coo) -> Result<Self, FormatError> {
        Ok(Dense::from_coo(coo))
    }

    fn to_coo(&self) -> Coo {
        Dense::to_coo(self)
    }

    fn transpose(&self) -> Result<Self, FormatError> {
        Ok(Dense::transpose(self))
    }

    fn spmv(&self, x: &[Value]) -> Result<Vec<Value>, FormatError> {
        if x.len() != self.cols {
            return Err(FormatError::ShapeMismatch {
                expected: (self.cols, 1),
                found: (x.len(), 1),
            });
        }
        let mut y = vec![0.0; self.rows];
        for (r, yr) in y.iter_mut().enumerate() {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            *yr = row.iter().zip(x).map(|(d, xc)| d * xc).sum();
        }
        Ok(y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_small() {
        let m = Dense {
            rows: 2,
            cols: 3,
            data: vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        };
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.get(0, 1), 4.0);
        assert_eq!(t.get(2, 0), 3.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn coo_round_trip() {
        let coo = Coo::from_triplets(2, 2, vec![(0, 1, 2.5), (1, 0, -1.0)]).unwrap();
        let d = Dense::from_coo(&coo);
        assert_eq!(d.nnz(), 2);
        let mut back = d.to_coo();
        back.canonicalize();
        let mut orig = coo;
        orig.canonicalize();
        assert_eq!(back, orig);
    }

    #[test]
    fn dense_transpose_agrees_with_coo_transpose() {
        let coo = Coo::from_triplets(3, 2, vec![(0, 0, 1.0), (2, 1, 7.0)]).unwrap();
        let via_dense = Dense::from_coo(&coo).transpose().to_coo();
        assert_eq!(via_dense, coo.transpose_canonical());
    }
}
