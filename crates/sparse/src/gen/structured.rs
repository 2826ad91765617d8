//! Structured generators: diagonals, bands, and PDE stencils.

use super::{finish, nz_value, rng};
use crate::Coo;

/// Pure diagonal matrix (`bcsstm20`-like): exactly one non-zero per row,
/// ANZ = 1, the worst case for a row-oriented format.
pub fn diagonal(n: usize) -> Coo {
    let mut coo = Coo::new(n, n);
    for i in 0..n {
        coo.push(i, i, 1.0 + i as f32 * 0.25);
    }
    finish(coo)
}

/// Tridiagonal matrix (1-D Laplacian stencil).
pub fn tridiagonal(n: usize) -> Coo {
    let mut coo = Coo::new(n, n);
    for i in 0..n {
        coo.push(i, i, 2.0);
        if i > 0 {
            coo.push(i, i - 1, -1.0);
        }
        if i + 1 < n {
            coo.push(i, i + 1, -1.0);
        }
    }
    finish(coo)
}

/// Banded matrix with half-bandwidth `half_bw`; each in-band position is
/// kept with probability `fill`. `fill = 1.0` gives a dense band.
pub fn banded(n: usize, half_bw: usize, fill: f64, seed: u64) -> Coo {
    assert!((0.0..=1.0).contains(&fill), "fill must be a probability");
    let mut r = rng(seed);
    let mut coo = Coo::new(n, n);
    for i in 0..n {
        let lo = i.saturating_sub(half_bw);
        let hi = (i + half_bw).min(n - 1);
        for j in lo..=hi {
            if i == j || r.gen_bool(fill) {
                coo.push(i, j, nz_value(&mut r));
            }
        }
    }
    finish(coo)
}

/// Five-point 2-D finite-difference stencil on an `nx x ny` grid
/// (the classic Poisson operator; `n = nx*ny` rows).
pub fn grid2d_5pt(nx: usize, ny: usize) -> Coo {
    let n = nx * ny;
    let mut coo = Coo::new(n, n);
    let idx = |x: usize, y: usize| y * nx + x;
    for y in 0..ny {
        for x in 0..nx {
            let i = idx(x, y);
            coo.push(i, i, 4.0);
            if x > 0 {
                coo.push(i, idx(x - 1, y), -1.0);
            }
            if x + 1 < nx {
                coo.push(i, idx(x + 1, y), -1.0);
            }
            if y > 0 {
                coo.push(i, idx(x, y - 1), -1.0);
            }
            if y + 1 < ny {
                coo.push(i, idx(x, y + 1), -1.0);
            }
        }
    }
    finish(coo)
}

/// Seven-point 3-D finite-difference stencil on an `nx x ny x nz` grid.
pub fn grid3d_7pt(nx: usize, ny: usize, nz: usize) -> Coo {
    let n = nx * ny * nz;
    let mut coo = Coo::new(n, n);
    let idx = |x: usize, y: usize, z: usize| (z * ny + y) * nx + x;
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let i = idx(x, y, z);
                coo.push(i, i, 6.0);
                if x > 0 {
                    coo.push(i, idx(x - 1, y, z), -1.0);
                }
                if x + 1 < nx {
                    coo.push(i, idx(x + 1, y, z), -1.0);
                }
                if y > 0 {
                    coo.push(i, idx(x, y - 1, z), -1.0);
                }
                if y + 1 < ny {
                    coo.push(i, idx(x, y + 1, z), -1.0);
                }
                if z > 0 {
                    coo.push(i, idx(x, y, z - 1), -1.0);
                }
                if z + 1 < nz {
                    coo.push(i, idx(x, y, z + 1), -1.0);
                }
            }
        }
    }
    finish(coo)
}

/// Arrowhead matrix: dense first row, first column, and diagonal — the
/// classic "bad bandwidth" sparse pattern (one global hub plus local
/// self-coupling), common in constrained optimization KKT systems.
pub fn arrowhead(n: usize) -> Coo {
    let mut coo = Coo::new(n, n);
    for i in 0..n {
        coo.push(i, i, 4.0);
        if i > 0 {
            coo.push(0, i, -1.0);
            coo.push(i, 0, -1.0);
        }
    }
    finish(coo)
}

/// Nine-point 2-D stencil (adds the diagonal neighbours) — a denser stencil
/// variant for suite diversity.
pub fn grid2d_9pt(nx: usize, ny: usize) -> Coo {
    let n = nx * ny;
    let idx = |x: usize, y: usize| y * nx + x;
    let mut coo = Coo::new(n, n);
    for y in 0..ny as isize {
        for x in 0..nx as isize {
            let i = idx(x as usize, y as usize);
            for dy in -1..=1isize {
                for dx in -1..=1isize {
                    let (xx, yy) = (x + dx, y + dy);
                    if xx < 0 || yy < 0 || xx >= nx as isize || yy >= ny as isize {
                        continue;
                    }
                    let j = idx(xx as usize, yy as usize);
                    let v = if i == j { 8.0 } else { -1.0 };
                    coo.push(i, j, v);
                }
            }
        }
    }
    finish(coo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MatrixMetrics;

    #[test]
    fn diagonal_has_anz_one() {
        let m = MatrixMetrics::compute(&diagonal(100));
        assert_eq!(m.nnz, 100);
        assert!((m.avg_nnz_per_row - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tridiagonal_nnz() {
        assert_eq!(tridiagonal(10).nnz(), 3 * 10 - 2);
    }

    #[test]
    fn banded_full_fill_is_dense_band() {
        let m = banded(10, 2, 1.0, 0);
        // rows 2..7 have 5 entries; edges clipped.
        assert_eq!(
            m.nnz(),
            (0..10usize)
                .map(|i| {
                    let lo = i.saturating_sub(2);
                    let hi = (i + 2).min(9);
                    hi - lo + 1
                })
                .sum::<usize>()
        );
    }

    #[test]
    fn grid2d_interior_rows_have_five_entries() {
        let m = grid2d_5pt(5, 5);
        let counts = crate::format::row_lengths(&m);
        assert_eq!(counts[12], 5); // center of the 5x5 grid
        assert_eq!(counts[0], 3); // corner
    }

    #[test]
    fn grid3d_interior_rows_have_seven_entries() {
        let m = grid3d_7pt(3, 3, 3);
        let counts = crate::format::row_lengths(&m);
        assert_eq!(counts[13], 7); // center of the 3x3x3 grid
    }

    #[test]
    fn grid2d_5pt_is_symmetric() {
        let m = grid2d_5pt(4, 4);
        let t = m.transpose_canonical();
        let mut orig = m;
        orig.canonicalize();
        assert_eq!(t, orig);
    }

    #[test]
    fn arrowhead_has_dense_hub() {
        let m = arrowhead(50);
        assert_eq!(m.nnz(), 50 + 2 * 49);
        let h = crate::format::row_lengths(&m);
        assert_eq!(h[0], 50); // the hub row
        assert_eq!(h[1], 2); // diagonal + column entry
    }

    #[test]
    fn grid9_denser_than_grid5() {
        assert!(grid2d_9pt(6, 6).nnz() > grid2d_5pt(6, 6).nnz());
    }
}
