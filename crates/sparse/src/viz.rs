//! Terminal visualization: ASCII "spy" plots of sparsity patterns — the
//! quick-look tool for a format/reordering library whose whole subject
//! is *where the non-zeros sit*.

use crate::Coo;

/// Density ramp used by [`spy`], lightest to darkest.
const RAMP: [char; 5] = ['·', '░', '▒', '▓', '█'];

/// Renders the sparsity pattern as a `height`-line ASCII plot. Each
/// character cell aggregates a rectangle of the matrix; its glyph encodes
/// the cell's non-zero density relative to the densest cell (' ' = empty).
pub fn spy(coo: &Coo, width: usize, height: usize) -> String {
    assert!(width > 0 && height > 0);
    let (rows, cols) = (coo.rows().max(1), coo.cols().max(1));
    let mut counts = vec![0u32; width * height];
    for &(r, c, _) in coo.iter() {
        let y = r * height / rows;
        let x = c * width / cols;
        counts[y.min(height - 1) * width + x.min(width - 1)] += 1;
    }
    let max = counts.iter().copied().max().unwrap_or(0).max(1);
    let mut out = String::with_capacity((width + 3) * (height + 2));
    out.push('┌');
    out.push_str(&"─".repeat(width));
    out.push_str("┐\n");
    for y in 0..height {
        out.push('│');
        for x in 0..width {
            let c = counts[y * width + x];
            if c == 0 {
                out.push(' ');
            } else {
                let idx =
                    ((c as usize * RAMP.len()).div_ceil(max as usize + 1)).min(RAMP.len() - 1);
                out.push(RAMP[idx]);
            }
        }
        out.push_str("│\n");
    }
    out.push('└');
    out.push_str(&"─".repeat(width));
    out.push_str("┘\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn spy_shows_diagonal() {
        let coo = gen::structured::diagonal(100);
        let s = spy(&coo, 10, 10);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 12); // border + 10 rows + border
                                     // Diagonal cells are filled, off-diagonal are blank.
        for (k, line) in lines[1..11].iter().enumerate() {
            let chars: Vec<char> = line.chars().collect();
            assert_ne!(chars[1 + k], ' ', "diagonal cell {k} empty");
            if k > 1 {
                assert_eq!(chars[1], ' ', "off-diagonal cell filled in row {k}");
            }
        }
    }

    #[test]
    fn spy_handles_empty_matrix() {
        let s = spy(&Coo::new(10, 10), 8, 4);
        assert!(s.lines().count() == 6);
        assert!(!s.contains('█'));
    }

    #[test]
    fn spy_density_ramp_marks_dense_cells() {
        let coo = gen::blocks::block_dense(100, 50, 1, 1.0, 1);
        let s = spy(&coo, 10, 10);
        assert!(
            s.contains('█'),
            "a fully dense tile must hit the ramp top:\n{s}"
        );
    }
}
