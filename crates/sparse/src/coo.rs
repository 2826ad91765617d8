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
    ///
    /// Chooses the cheapest stable order from one pass over the input:
    /// canonical input returns at once, other input is grouped by row
    /// (already, or by a counting scatter) and then each row that is out
    /// of column order is sorted. That is O(nnz + rows) plus O(r log r)
    /// for each out-of-order row of r entries. Input with an entry
    /// outside the shape, or a shape far larger than the entry count,
    /// takes a comparison sort instead (O(nnz log nnz)). Duplicates keep
    /// insertion order and are summed left to right, so the result is
    /// bit-identical to a stable sort followed by a merge.
    pub fn canonicalize(&mut self) {
        let order = Order::of(&self.entries, self.rows, self.cols);
        if order.strict && order.nonzero {
            return;
        }
        if !order.strict {
            self.sort_canonical(order);
            self.entries.dedup_by(|later, kept| {
                let same = (later.0, later.1) == (kept.0, kept.1);
                if same {
                    kept.2 += later.2;
                }
                same
            });
        }
        self.entries.retain(|&(_, _, v)| v != 0.0);
    }

    /// Stable row-major sort, by the cheapest route `order` allows:
    ///
    /// * rows already grouped in order (stencil generators push the
    ///   diagonal first): sort only the row runs that are out of order;
    /// * an entry outside the shape, or an index space much larger than
    ///   the list or past the 32-bit slot index: comparison sort, so no
    ///   counting array is indexed out of range or sized by a huge
    ///   declared shape;
    /// * otherwise one stable counting scatter by row, then the same
    ///   per-row sorts. Input already sorted by column (the transpose of
    ///   canonical input) leaves every row in order.
    fn sort_canonical(&mut self, order: Order) {
        let n = self.entries.len();
        if order.rows_grouped {
            for run in self.entries.chunk_by_mut(|a, b| a.0 == b.0) {
                if !run.is_sorted_by_key(|e| e.1) {
                    run.sort_by_key(|e| e.1);
                }
            }
        } else if !order.in_shape
            || self.rows.max(self.cols) > (SPARSE_SHAPE_FACTOR * n).min(u32::MAX as usize)
        {
            self.sort_row_major();
        } else {
            scatter_sort_by_row(&mut self.entries, self.rows);
        }
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
        let order = Order::of(&self.entries, self.rows, self.cols);
        order.strict && order.nonzero
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

/// [`Coo::canonicalize`] sorts by comparison when the larger dimension
/// exceeds this many times the entry count (or 2³²).
const SPARSE_SHAPE_FACTOR: usize = 4;

/// What one pass over a triplet list learns about its order.
#[derive(Debug, Clone, Copy)]
struct Order {
    /// Strictly increasing `(row, col)`.
    strict: bool,
    /// No explicit zero value.
    nonzero: bool,
    /// Every coordinate inside the declared shape.
    in_shape: bool,
    /// Rows non-decreasing (each row's entries are contiguous and in row
    /// order).
    rows_grouped: bool,
}

impl Order {
    fn of(entries: &[Triplet], rows: usize, cols: usize) -> Order {
        let mut o = Order {
            strict: true,
            nonzero: entries.first().is_none_or(|e| e.2 != 0.0),
            in_shape: entries.first().is_none_or(|e| e.0 < rows && e.1 < cols),
            rows_grouped: true,
        };
        for w in entries.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            o.strict &= (a.0, a.1) < (b.0, b.1);
            o.nonzero &= b.2 != 0.0;
            o.in_shape &= b.0 < rows && b.1 < cols;
            o.rows_grouped &= a.0 <= b.0;
        }
        o
    }
}

/// Stable row-major sort of `entries` (rows below `rows`, columns below
/// 2³²): a counting scatter by row into `(column, value)` slots, a third
/// the size of a triplet so the scattered writes touch a third of the
/// memory, then a stable sort of each row that is out of column order and
/// a sequential write-back.
fn scatter_sort_by_row(entries: &mut [Triplet], rows: usize) {
    let mut start = vec![0usize; rows + 1];
    for &(r, _, _) in entries.iter() {
        start[r + 1] += 1;
    }
    for r in 1..start.len() {
        start[r] += start[r - 1];
    }
    let mut next = start.clone();
    let mut slots = vec![(0u32, 0.0); entries.len()];
    for &(r, c, v) in entries.iter() {
        slots[next[r]] = (c as u32, v);
        next[r] += 1;
    }
    let mut out = entries.iter_mut();
    for (r, w) in start.windows(2).enumerate() {
        let row = &mut slots[w[0]..w[1]];
        if !row.is_sorted_by_key(|s| s.0) {
            row.sort_by_key(|s| s.0);
        }
        for (&(c, v), e) in row.iter().zip(&mut out) {
            *e = (r, c as usize, v);
        }
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

    /// The sort-then-merge canonical form every faster path must match
    /// bit for bit: stable sort by `(row, col)`, sum duplicates left to
    /// right, drop zeros.
    fn reference_canonical(entries: &[Triplet]) -> Vec<Triplet> {
        let mut sorted = entries.to_vec();
        sorted.sort_by_key(|a| (a.0, a.1));
        let mut out: Vec<Triplet> = Vec::with_capacity(sorted.len());
        for &(r, c, v) in &sorted {
            match out.last_mut() {
                Some(last) if last.0 == r && last.1 == c => last.2 += v,
                _ => out.push((r, c, v)),
            }
        }
        out.retain(|&(_, _, v)| v != 0.0);
        out
    }

    fn bits(entries: &[Triplet]) -> Vec<(usize, usize, u32)> {
        entries
            .iter()
            .map(|&(r, c, v)| (r, c, v.to_bits()))
            .collect()
    }

    /// Random triplets over a few distinct positions (so most collide),
    /// with values whose sums depend on order (1e8 + 1 − 1e8), cancel to
    /// ±0, or are NaN.
    fn random_triplets(rows: usize, cols: usize, nnz: usize, seed: u64) -> Vec<Triplet> {
        const VALUES: [Value; 9] = [1e8, 1.0, -1e8, -1.0, 0.0, -0.0, 0.5, f32::NAN, -3.25];
        let mut rng = crate::rng::StdRng::seed_from_u64(seed);
        let positions: Vec<(usize, usize)> = (0..nnz / 3 + 1)
            .map(|_| (rng.gen_range(0..rows), rng.gen_range(0..cols)))
            .collect();
        (0..nnz)
            .map(|_| {
                let (r, c) = positions[rng.gen_range(0..positions.len())];
                (r, c, VALUES[rng.gen_range(0..VALUES.len())])
            })
            .collect()
    }

    #[test]
    fn canonicalize_matches_sort_then_merge_on_every_path() {
        // Shapes pick the path for unordered input: a sparse index space
        // takes the comparison sort, the rest the row scatter (with short
        // rows or long ones).
        let shapes = [
            (10_000, 20, 200),
            (20, 10_000, 200),
            (400, 300, 200),
            (1000, 1000, 3000),
            (3, 5, 200),
            (64, 64, 1000),
            (1, 1, 50),
        ];
        for (seed, &(rows, cols, nnz)) in shapes.iter().enumerate() {
            let shuffled = random_triplets(rows, cols, nnz, seed as u64);
            let mut row_grouped = shuffled.clone();
            row_grouped.sort_by_key(|e| e.0);
            let mut col_sorted = shuffled.clone();
            col_sorted.sort_by_key(|e| e.1);
            let mut row_major = shuffled.clone();
            row_major.sort_by_key(|e| (e.0, e.1));
            let canonical = reference_canonical(&shuffled);
            for (order, entries) in [
                ("shuffled", shuffled),
                ("row-grouped", row_grouped),
                ("column-sorted", col_sorted),
                ("row-major", row_major),
                ("canonical", canonical),
            ] {
                let want = reference_canonical(&entries);
                let mut m = Coo::from_triplets(rows, cols, entries).unwrap();
                m.canonicalize();
                assert_eq!(
                    bits(m.entries()),
                    bits(&want),
                    "{rows}x{cols}, {nnz} entries, {order}"
                );
                let t = m.transpose();
                assert_eq!(
                    bits(m.transpose_canonical().entries()),
                    bits(&reference_canonical(t.entries())),
                    "transpose of {rows}x{cols}, {order}"
                );
            }
        }
    }

    #[test]
    fn huge_declared_shape_sizes_no_counting_array() {
        // A Matrix Market header or a service frame can declare any
        // shape; counting arrays that large would exhaust memory.
        let huge = 1 << 40;
        let entries = vec![(7, 1, 1.0), (0, huge - 1, 2.0), (7, 0, 3.0), (7, 1, 4.0)];
        let want = reference_canonical(&entries);
        let mut m = Coo::from_triplets(huge, huge, entries).unwrap();
        m.canonicalize();
        assert_eq!(bits(m.entries()), bits(&want));
        assert_eq!(m.transpose_canonical().nnz(), 3);
    }

    #[test]
    fn out_of_shape_entries_take_the_comparison_sort() {
        // `push` checks bounds only in debug builds and decoders can
        // hand back coordinates past the declared shape; such input
        // still canonicalizes as sort-then-merge would, never indexing a
        // counting array out of range.
        let entries = random_triplets(9, 9, 60, 11);
        let mut col_sorted = entries.clone();
        col_sorted.sort_by_key(|e| e.1);
        for entries in [entries, col_sorted] {
            let want = reference_canonical(&entries);
            let mut m = Coo {
                rows: 4,
                cols: 4,
                entries,
            };
            m.canonicalize();
            assert_eq!(bits(m.entries()), bits(&want));
        }
    }

    #[test]
    fn canonicalize_keeps_insertion_order_of_duplicates() {
        // 1e8 + 1 − 1e8 is 0 in f32 but 1e8 − 1e8 + 1 is 1: the sum is
        // only reproducible if duplicates stay in insertion order.
        for (cols, entries) in [
            (4, vec![(1, 2, 1e8), (0, 3, 1.0), (1, 2, 1.0), (1, 2, -1e8)]),
            (4, vec![(1, 2, 1e8), (1, 2, -1e8), (0, 3, 1.0), (1, 2, 1.0)]),
        ] {
            let want = reference_canonical(&entries);
            let mut m = Coo::from_triplets(2, cols, entries).unwrap();
            m.canonicalize();
            assert_eq!(bits(m.entries()), bits(&want));
        }
    }

    #[test]
    fn canonicalize_drops_cancelled_sums_of_either_sign() {
        let mut m = Coo::from_triplets(
            2,
            2,
            vec![(1, 1, -0.0), (0, 0, 1.0), (0, 0, -1.0), (1, 1, -0.0)],
        )
        .unwrap();
        m.canonicalize();
        assert!(m.entries().is_empty(), "{:?}", m.entries());
    }
}
