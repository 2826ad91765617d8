//! Coordinate (triplet) storage — the interchange format of this workspace.
//!
//! Every other format converts through [`Coo`]; the transposition oracles in
//! the test suites are all phrased as "sort the transposed triplets".

use crate::{FormatError, Value};
use std::borrow::Cow;

/// A single non-zero entry: `(row, col, value)`.
pub type Triplet = (usize, usize, Value);

/// A sparse matrix in coordinate (triplet) format.
///
/// Entries may be in any order and (until [`Coo::canonicalize`] is called)
/// may contain duplicates. Construction is cheap; structure queries are done
/// by the compressed formats.
#[derive(Debug, Clone, PartialEq)]
pub struct Coo {
    rows: usize,
    cols: usize,
    entries: Vec<Triplet>,
}

impl Coo {
    /// Creates an empty `rows x cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        Coo {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Creates a matrix from a triplet list, validating every index.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        entries: Vec<Triplet>,
    ) -> Result<Self, FormatError> {
        for &(r, c, _) in &entries {
            if r >= rows || c >= cols {
                return Err(FormatError::IndexOutOfBounds {
                    row: r,
                    col: c,
                    rows,
                    cols,
                });
            }
        }
        Ok(Coo {
            rows,
            cols,
            entries,
        })
    }

    /// Appends one entry. Panics in debug builds if the index is out of
    /// bounds; use [`Coo::from_triplets`] for checked bulk construction.
    pub fn push(&mut self, row: usize, col: usize, value: Value) {
        debug_assert!(row < self.rows && col < self.cols, "entry out of bounds");
        self.entries.push((row, col, value));
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Matrix shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of stored entries (including duplicates if not canonical).
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Borrow the triplets.
    pub fn entries(&self) -> &[Triplet] {
        &self.entries
    }

    /// Consumes the matrix, returning the triplets.
    pub fn into_entries(self) -> Vec<Triplet> {
        self.entries
    }

    /// Iterate over `(row, col, value)`.
    pub fn iter(&self) -> impl Iterator<Item = &Triplet> {
        self.entries.iter()
    }

    /// Sorts entries row-major (by row, then column). Stable, so duplicate
    /// coordinates keep insertion order.
    pub fn sort_row_major(&mut self) {
        self.entries.sort_by_key(|a| (a.0, a.1));
    }

    /// Sorts entries column-major (by column, then row).
    pub fn sort_col_major(&mut self) {
        self.entries.sort_by_key(|a| (a.1, a.0));
    }

    /// Sorts row-major, sums duplicates, and drops explicit zeros produced
    /// by the summation. After this call the triplet list is *canonical*:
    /// strictly increasing in `(row, col)`.
    pub fn canonicalize(&mut self) {
        self.sort_row_major();
        let mut out: Vec<Triplet> = Vec::with_capacity(self.entries.len());
        for &(r, c, v) in &self.entries {
            match out.last_mut() {
                Some(last) if last.0 == r && last.1 == c => last.2 += v,
                _ => out.push((r, c, v)),
            }
        }
        out.retain(|&(_, _, v)| v != 0.0);
        self.entries = out;
    }

    /// The canonical form of this matrix: borrowed when the triplet list
    /// already is canonical, otherwise a canonicalized copy. Lets readers
    /// that need canonical order skip the clone on the common path.
    pub fn canonical(&self) -> Cow<'_, Coo> {
        if self.is_canonical() {
            Cow::Borrowed(self)
        } else {
            let mut c = self.clone();
            c.canonicalize();
            Cow::Owned(c)
        }
    }

    /// Returns `true` if the triplet list is canonical (strictly increasing
    /// row-major coordinates, no explicit zeros).
    pub fn is_canonical(&self) -> bool {
        self.entries
            .windows(2)
            .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1))
            && self.entries.iter().all(|&(_, _, v)| v != 0.0)
    }

    /// Returns the transpose: an `cols x rows` matrix with every entry's
    /// coordinates swapped. The result is *not* re-sorted.
    pub fn transpose(&self) -> Coo {
        Coo {
            rows: self.cols,
            cols: self.rows,
            entries: self.entries.iter().map(|&(r, c, v)| (c, r, v)).collect(),
        }
    }

    /// Canonical transpose: transposed, sorted row-major, duplicates summed.
    /// This is the oracle used throughout the test suites.
    pub fn transpose_canonical(&self) -> Coo {
        let mut t = self.transpose();
        t.canonicalize();
        t
    }

    /// Checks every entry is in bounds and, optionally, that the list is
    /// canonical.
    pub fn validate(&self, require_canonical: bool) -> Result<(), FormatError> {
        for &(r, c, _) in &self.entries {
            if r >= self.rows || c >= self.cols {
                return Err(FormatError::IndexOutOfBounds {
                    row: r,
                    col: c,
                    rows: self.rows,
                    cols: self.cols,
                });
            }
        }
        if require_canonical {
            for w in self.entries.windows(2) {
                if (w[0].0, w[0].1) == (w[1].0, w[1].1) {
                    return Err(FormatError::DuplicateEntry {
                        row: w[1].0,
                        col: w[1].1,
                    });
                }
            }
        }
        Ok(())
    }

    /// Multiplies `y = A * x` (reference implementation for cross-checks).
    pub fn spmv(&self, x: &[Value]) -> Result<Vec<Value>, FormatError> {
        if x.len() != self.cols {
            return Err(FormatError::ShapeMismatch {
                expected: (self.cols, 1),
                found: (x.len(), 1),
            });
        }
        let mut y = vec![0.0; self.rows];
        for &(r, c, v) in &self.entries {
            y[r] += v * x[c];
        }
        Ok(y)
    }
}

impl crate::SparseFormat for Coo {
    const NAME: &'static str = "coo";

    fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    fn nnz(&self) -> usize {
        self.entries.len()
    }

    fn validate(&self) -> Result<(), FormatError> {
        Coo::validate(self, false)
    }

    fn from_coo(coo: &Coo) -> Result<Self, FormatError> {
        Ok(coo.canonical().into_owned())
    }

    fn to_coo(&self) -> Coo {
        self.canonical().into_owned()
    }

    fn transpose(&self) -> Result<Self, FormatError> {
        Ok(self.transpose_canonical())
    }

    fn spmv(&self, x: &[Value]) -> Result<Vec<Value>, FormatError> {
        Coo::spmv(self, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Coo {
        Coo::from_triplets(
            3,
            4,
            vec![(0, 1, 1.0), (2, 3, 2.0), (1, 0, 3.0), (0, 0, 4.0)],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_shape() {
        let m = sample();
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.nnz(), 4);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let err = Coo::from_triplets(2, 2, vec![(2, 0, 1.0)]).unwrap_err();
        assert!(matches!(err, FormatError::IndexOutOfBounds { row: 2, .. }));
    }

    #[test]
    fn sort_row_major_orders_entries() {
        let mut m = sample();
        m.sort_row_major();
        let coords: Vec<_> = m.iter().map(|&(r, c, _)| (r, c)).collect();
        assert_eq!(coords, vec![(0, 0), (0, 1), (1, 0), (2, 3)]);
    }

    #[test]
    fn sort_col_major_orders_entries() {
        let mut m = sample();
        m.sort_col_major();
        let coords: Vec<_> = m.iter().map(|&(r, c, _)| (r, c)).collect();
        assert_eq!(coords, vec![(0, 0), (1, 0), (0, 1), (2, 3)]);
    }

    #[test]
    fn canonicalize_sums_duplicates_and_drops_zeros() {
        let mut m = Coo::from_triplets(
            2,
            2,
            vec![(0, 0, 1.0), (0, 0, 2.0), (1, 1, 5.0), (1, 1, -5.0)],
        )
        .unwrap();
        m.canonicalize();
        assert_eq!(m.entries(), &[(0, 0, 3.0)]);
        assert!(m.is_canonical());
    }

    #[test]
    fn canonical_borrows_canonical_input() {
        let mut m = sample();
        m.canonicalize();
        assert!(matches!(m.canonical(), Cow::Borrowed(b) if std::ptr::eq(b, &m)));
        assert!(matches!(Coo::new(3, 3).canonical(), Cow::Borrowed(_)));
    }

    #[test]
    fn canonical_canonicalizes_everything_else() {
        let unsorted = sample();
        let dup = Coo::from_triplets(2, 2, vec![(0, 1, 1.0), (0, 1, 2.0)]).unwrap();
        let zero = Coo::from_triplets(2, 2, vec![(0, 0, 1.0), (1, 1, 0.0)]).unwrap();
        let neg_zero = Coo::from_triplets(2, 2, vec![(1, 0, -0.0)]).unwrap();
        for m in [unsorted, dup, zero, neg_zero] {
            let c = m.canonical();
            assert!(matches!(c, Cow::Owned(_)), "{m:?}");
            let mut want = m.clone();
            want.canonicalize();
            assert_eq!(*c, want);
            assert!(c.is_canonical());
        }
    }

    #[test]
    fn transpose_swaps_coordinates_and_shape() {
        let t = sample().transpose();
        assert_eq!(t.shape(), (4, 3));
        assert!(t.iter().any(|&(r, c, v)| (r, c, v) == (3, 2, 2.0)));
    }

    #[test]
    fn transpose_is_involution() {
        let m = sample();
        let mut tt = m.transpose().transpose();
        tt.sort_row_major();
        let mut orig = m.clone();
        orig.sort_row_major();
        assert_eq!(tt, orig);
    }

    #[test]
    fn validate_detects_duplicates() {
        let m = Coo::from_triplets(2, 2, vec![(0, 0, 1.0), (0, 0, 2.0)]).unwrap();
        assert!(m.validate(false).is_ok());
        assert!(matches!(
            m.validate(true),
            Err(FormatError::DuplicateEntry { row: 0, col: 0 })
        ));
    }

    #[test]
    fn spmv_matches_hand_computation() {
        let m = sample();
        let y = m.spmv(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        // row0: 4*1 + 1*2 = 6 ; row1: 3*1 = 3 ; row2: 2*4 = 8
        assert_eq!(y, vec![6.0, 3.0, 8.0]);
    }

    #[test]
    fn spmv_rejects_wrong_length() {
        assert!(sample().spmv(&[1.0]).is_err());
    }

    #[test]
    fn empty_matrix_behaves() {
        let m = Coo::new(5, 5);
        assert_eq!(m.nnz(), 0);
        assert!(m.is_canonical());
        assert_eq!(m.transpose_canonical().nnz(), 0);
    }
}
