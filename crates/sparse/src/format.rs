//! The unified [`SparseFormat`] trait — one contract over every storage
//! format in this workspace — and the shared construction helpers the
//! per-format `from_coo` paths are built on.
//!
//! Every format is a different *encoding* of the same mathematical
//! object, so the trait is phrased around the canonical COO
//! interchange form: a format must convert to and from canonical COO,
//! and everything else (transpose, SpMV, the canonical digest) has a
//! correct default through that round-trip. Formats override the
//! defaults only where they own a structurally better algorithm
//! (CSR's Pissanetsky transpose, CSC's zero-cost reinterpretation,
//! SELL-C-σ's chunked SpMV).
//!
//! The shared helpers collapse what used to be per-struct copies:
//!
//! * [`compress_sorted`] — the count/prefix-sum/fill kernel behind both
//!   `Csr::from_coo` (outer = row) and `Csc::from_coo` (outer = column);
//! * [`length_sorted_perm`] — the windowed descending row-length sort.
//!   JD is the `window = rows` (global) case; SELL-C-σ is the
//!   `window = σ` case;
//! * [`row_lengths`] / [`row_buckets`] — per-row non-zero counts and
//!   `(col, value)` lists of a canonical COO matrix;
//! * [`canonical_digest`] — the byte digest every format's
//!   [`SparseFormat::digest`] reduces to, making digests comparable
//!   *across* formats.

use crate::hash::Fnv1a;
use crate::{Coo, FormatError, Shape, Value};

/// The common contract of every sparse (and dense) matrix format.
///
/// Laws, property-tested in `tests/format_trait.rs` for every impl:
///
/// * `from_coo(a).to_coo()` equals `a` canonicalized (round-trip);
/// * `transpose(transpose(a))` equals `a` (involution, up to
///   canonical COO);
/// * `digest` of two formats holding the same matrix are equal.
pub trait SparseFormat: Sized {
    /// Short lowercase format name (`"coo"`, `"csr"`, …) — the same
    /// token the bench harness accepts for `--format`.
    const NAME: &'static str;

    /// Matrix shape `(rows, cols)`.
    fn shape(&self) -> Shape;

    /// Number of stored non-zeros (excluding any padding).
    fn nnz(&self) -> usize;

    /// Checks the format's structural invariants.
    fn validate(&self) -> Result<(), FormatError>;

    /// Builds the format from a COO matrix (canonicalizing first).
    fn from_coo(coo: &Coo) -> Result<Self, FormatError>;

    /// Converts to canonical COO (sorted row-major, duplicates summed,
    /// no explicit zeros).
    fn to_coo(&self) -> Coo;

    /// Returns the transpose, in the same format. Default: through
    /// canonical COO.
    fn transpose(&self) -> Result<Self, FormatError> {
        let mut t = SparseFormat::to_coo(self).transpose();
        t.canonicalize();
        Self::from_coo(&t)
    }

    /// Multiplies `y = A * x`. Default: through canonical COO.
    fn spmv(&self, x: &[Value]) -> Result<Vec<Value>, FormatError> {
        SparseFormat::to_coo(self).spmv(x)
    }

    /// Canonical byte digest of the *matrix* (not the encoding): equal
    /// across formats holding the same matrix. Default: FNV-1a over
    /// the canonical COO bytes ([`canonical_digest`]).
    fn digest(&self) -> u64 {
        canonical_digest(&SparseFormat::to_coo(self))
    }
}

/// FNV-1a digest of a matrix's canonical COO form: shape, then every
/// `(row, col, value-bits)` triplet in canonical order. Value *bits*
/// (not value equality), so `-0.0` and `+0.0` digest differently —
/// the same strictness the kernel-output digests use.
pub fn canonical_digest(coo: &Coo) -> u64 {
    let c = coo.canonical();
    let mut h = Fnv1a::new();
    h.u64(c.rows() as u64);
    h.u64(c.cols() as u64);
    for &(r, col, v) in c.iter() {
        h.u64(r as u64);
        h.u64(col as u64);
        h.u32(v.to_bits());
    }
    h.finish()
}

/// The shared compressed-format construction kernel: count outer
/// occurrences, exclusive-prefix-sum into a pointer array, and fill the
/// index/value arrays in input order.
///
/// `entries` must be sorted by outer index (row-major for CSR, where
/// outer = row and inner = column; column-major for CSC, where outer =
/// column and inner = row); the canonical-COO producers guarantee this.
/// Returns `(ptr, idx, values)` with `ptr.len() == n_outer + 1`.
pub fn compress_sorted(
    n_outer: usize,
    entries: impl Iterator<Item = (usize, usize, Value)>,
) -> (Vec<usize>, Vec<usize>, Vec<Value>) {
    let (lo, _) = entries.size_hint();
    let mut ptr = vec![0usize; n_outer + 1];
    let mut idx = Vec::with_capacity(lo);
    let mut vals = Vec::with_capacity(lo);
    for (o, i, v) in entries {
        ptr[o + 1] += 1;
        idx.push(i);
        vals.push(v);
    }
    for o in 0..n_outer {
        ptr[o + 1] += ptr[o];
    }
    (ptr, idx, vals)
}

/// Per-row non-zero counts of a canonical COO matrix.
pub fn row_lengths(coo: &Coo) -> Vec<usize> {
    let mut lens = vec![0usize; coo.rows()];
    for &(r, _, _) in coo.iter() {
        lens[r] += 1;
    }
    lens
}

/// Per-row `(col, value)` lists of a canonical COO matrix, columns
/// ascending within each row (canonical order preserved).
pub fn row_buckets(coo: &Coo) -> Vec<Vec<(usize, Value)>> {
    let mut rows: Vec<Vec<(usize, Value)>> = vec![Vec::new(); coo.rows()];
    for &(r, c, v) in coo.iter() {
        rows[r].push((c, v));
    }
    rows
}

/// The windowed descending row-length sort shared by JD and SELL-C-σ:
/// within each consecutive window of `window` rows, sort row indices by
/// descending length (stable — ties keep original row order). With
/// `window >= lengths.len()` this is JD's global sort; SELL-C-σ uses
/// `window = σ` to bound how far the permutation moves a row.
///
/// Every row index appears exactly once (empty rows included).
pub fn length_sorted_perm(lengths: &[usize], window: usize) -> Vec<usize> {
    assert!(window > 0, "sort window must be positive");
    let mut perm: Vec<usize> = (0..lengths.len()).collect();
    for chunk in perm.chunks_mut(window) {
        chunk.sort_by_key(|&r| std::cmp::Reverse(lengths[r]));
    }
    perm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn digest_is_encoding_independent() {
        let coo = gen::random::uniform(60, 40, 300, 7);
        let mut shuffled = Coo::new(60, 40);
        let mut entries = coo.entries().to_vec();
        entries.reverse();
        for (r, c, v) in entries {
            shuffled.push(r, c, v);
        }
        assert_eq!(canonical_digest(&coo), canonical_digest(&shuffled));
    }

    #[test]
    fn digest_distinguishes_signed_zero() {
        let a = Coo::from_triplets(1, 1, vec![(0, 0, 0.5)]).unwrap();
        let b = Coo::from_triplets(1, 1, vec![(0, 0, -0.5)]).unwrap();
        assert_ne!(canonical_digest(&a), canonical_digest(&b));
    }

    #[test]
    fn digest_depends_on_shape() {
        let a = Coo::new(2, 3);
        let b = Coo::new(3, 2);
        assert_ne!(canonical_digest(&a), canonical_digest(&b));
    }

    #[test]
    fn compress_sorted_matches_hand_result() {
        let entries = vec![(0usize, 0usize, 1.0f32), (0, 3, 2.0), (2, 1, 3.0)];
        let (ptr, idx, vals) = compress_sorted(3, entries.into_iter());
        assert_eq!(ptr, vec![0, 2, 2, 3]);
        assert_eq!(idx, vec![0, 3, 1]);
        assert_eq!(vals, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn length_sorted_perm_global_is_stable_descending() {
        let lens = [1usize, 3, 1, 2];
        assert_eq!(length_sorted_perm(&lens, 4), vec![1, 3, 0, 2]);
        // Larger windows than the input behave identically.
        assert_eq!(length_sorted_perm(&lens, 100), vec![1, 3, 0, 2]);
    }

    #[test]
    fn length_sorted_perm_windows_do_not_cross() {
        let lens = [1usize, 5, 2, 9];
        // Window 2: each pair sorts independently.
        assert_eq!(length_sorted_perm(&lens, 2), vec![1, 0, 3, 2]);
    }

    #[test]
    fn row_helpers_cover_empty_rows() {
        let coo = Coo::from_triplets(4, 4, vec![(1, 0, 1.0), (1, 2, 2.0), (3, 3, 3.0)]).unwrap();
        assert_eq!(row_lengths(&coo), vec![0, 2, 0, 1]);
        let buckets = row_buckets(&coo);
        assert_eq!(buckets[1], vec![(0, 1.0), (2, 2.0)]);
        assert!(buckets[0].is_empty());
    }
}
