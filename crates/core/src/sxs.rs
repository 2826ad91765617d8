//! The `s x s` in-processor memory: one 32-bit payload plane plus the
//! non-zero indicator plane (paper Fig. 3).
//!
//! The indicator plane is held as one bit line per column (`[u64; 4]`
//! covers every `s ≤ 256`) plus a mask of the columns holding any set
//! bit. That gives the model the hardware's cost: `icm` clears only the
//! touched columns, `insert` sets one bit, and the column-major drain
//! walks set bits with `trailing_zeros`, the way the non-zero locator
//! (Fig. 4) hands out "the first B 1's" of a line without visiting the
//! zeros. A block session therefore costs O(z + touched columns) host
//! work, not O(s²). [`crate::locator::first_ones`] remains the
//! behavioural specification the drain order is tested against.

/// Bit words per indicator line: `4 × 64 = 256` covers every legal `s`.
const LINE_WORDS: usize = 4;

/// One line (a column, or the touched-column mask) of indicator bits.
type Line = [u64; LINE_WORDS];

/// Sets bit `i`; returns whether it was already set.
fn set_bit(line: &mut Line, i: usize) -> bool {
    let (w, m) = (i / 64, 1u64 << (i % 64));
    let was = line[w] & m != 0;
    line[w] |= m;
    was
}

fn bit(line: &Line, i: usize) -> bool {
    line[i / 64] >> (i % 64) & 1 == 1
}

/// `line` with every bit below position `i` cleared.
fn from_bit(mut line: Line, i: usize) -> Line {
    for (w, word) in line.iter_mut().enumerate() {
        let lo = w * 64;
        if i >= lo + 64 {
            *word = 0;
        } else if i > lo {
            *word &= !0u64 << (i - lo);
        }
    }
    line
}

/// Clears and returns the lowest set bit of `line`.
fn pop_lowest(line: &mut Line) -> Option<usize> {
    for (w, word) in line.iter_mut().enumerate() {
        if *word != 0 {
            let i = word.trailing_zeros() as usize;
            *word &= *word - 1;
            return Some(w * 64 + i);
        }
    }
    None
}

/// Positions of the set bits of `line`, in increasing order.
fn ones(mut line: Line) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || pop_lowest(&mut line))
}

/// The column-major drain: set elements as `(col, row, payload)` in
/// (col, row) order. See [`SxsMemory::column_major_from`].
pub struct ColumnMajor<'a> {
    mem: &'a SxsMemory,
    /// Touched columns not yet entered.
    cols: Line,
    col: usize,
    /// Rows of `col` not yet yielded.
    rows: Line,
}

impl Iterator for ColumnMajor<'_> {
    type Item = (u8, u8, u32);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(r) = pop_lowest(&mut self.rows) {
                let p = self.mem.payload[self.col * self.mem.s + r];
                return Some((self.col as u8, r as u8, p));
            }
            self.col = pop_lowest(&mut self.cols)?;
            self.rows = self.mem.cols[self.col];
        }
    }
}

/// The STM's central storage. `payload` is a value word (level 0) or a
/// pointer word (upper levels) — the unit never interprets it.
#[derive(Debug, Clone)]
pub struct SxsMemory {
    s: usize,
    /// Payload plane, column-major (`col * s + row`), so a column drains
    /// from contiguous words. Never cleared: the indicators say which
    /// words are live.
    payload: Vec<u32>,
    /// Row indicator bits of each column.
    cols: Vec<Line>,
    /// Columns with at least one set indicator.
    touched: Line,
    /// Number of set indicators.
    len: usize,
}

impl SxsMemory {
    /// A cleared `s x s` memory.
    pub fn new(s: usize) -> Self {
        assert!((2..=256).contains(&s), "section size out of range");
        SxsMemory {
            s,
            payload: vec![0; s * s],
            cols: vec![[0; LINE_WORDS]; s],
            touched: [0; LINE_WORDS],
            len: 0,
        }
    }

    /// Block dimension.
    pub fn s(&self) -> usize {
        self.s
    }

    /// The `icm` instruction: reset every non-zero indicator. Only the
    /// touched columns hold set bits, so only they are cleared.
    pub fn clear(&mut self) {
        for c in ones(self.touched) {
            self.cols[c] = [0; LINE_WORDS];
        }
        self.touched = [0; LINE_WORDS];
        self.len = 0;
    }

    /// Inserts one element (write phase). Overwrites silently — two
    /// entries at one position inside a blockarray would be a malformed
    /// input, caught by HiSM validation upstream.
    pub fn insert(&mut self, row: u8, col: u8, payload: u32) {
        let (r, c) = self.check(row, col);
        self.payload[c * self.s + r] = payload;
        if !set_bit(&mut self.cols[c], r) {
            self.len += 1;
        }
        set_bit(&mut self.touched, c);
    }

    /// Number of set indicators.
    pub fn count(&self) -> usize {
        self.len
    }

    /// Whether position `(row, col)` holds an element.
    pub fn occupied(&self, row: u8, col: u8) -> bool {
        let (r, c) = self.check(row, col);
        bit(&self.cols[c], r)
    }

    /// The drain sequence from column-major position `from` (`col * s +
    /// row`) on: every set element at or after it, as `(col, row,
    /// payload)` in (col, row) order. Lets a read phase resume where its
    /// previous strip stopped without materialising the whole drain.
    pub fn column_major_from(&self, from: usize) -> ColumnMajor<'_> {
        let (c0, r0) = (from / self.s, from % self.s);
        ColumnMajor {
            mem: self,
            cols: from_bit(self.touched, c0 + 1),
            col: c0,
            rows: match self.cols.get(c0) {
                Some(&line) => from_bit(line, r0),
                None => [0; LINE_WORDS],
            },
        }
    }

    fn check(&self, row: u8, col: u8) -> (usize, usize) {
        let (r, c) = (row as usize, col as usize);
        assert!(
            r < self.s && c < self.s,
            "position ({r},{c}) outside s={}",
            self.s
        );
        (r, c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locator::first_ones;

    #[test]
    fn insert_and_read_back() {
        let mut m = SxsMemory::new(8);
        m.insert(1, 2, 100);
        m.insert(5, 2, 200);
        m.insert(1, 7, 300);
        assert_eq!(m.count(), 3);
        assert_eq!(
            m.column_major_from(0).collect::<Vec<_>>(),
            vec![(2, 1, 100), (2, 5, 200), (7, 1, 300)]
        );
        assert!(m.occupied(1, 2));
        assert!(!m.occupied(0, 0));
    }

    #[test]
    fn clear_resets_indicators() {
        let mut m = SxsMemory::new(4);
        m.insert(0, 0, 1);
        m.clear();
        assert_eq!(m.count(), 0);
        assert_eq!(m.column_major_from(0).count(), 0);
    }

    #[test]
    fn drain_is_column_major_transposed_order() {
        let mut m = SxsMemory::new(4);
        // Insert row-wise: (0,1), (0,3), (2,1).
        m.insert(0, 1, 10);
        m.insert(0, 3, 11);
        m.insert(2, 1, 12);
        // Column-major: col1 rows 0,2; col3 row 0.
        assert_eq!(
            m.column_major_from(0).collect::<Vec<_>>(),
            vec![(1, 0, 10), (1, 2, 12), (3, 0, 11)]
        );
    }

    #[test]
    fn drain_resumes_at_any_position() {
        let mut m = SxsMemory::new(200);
        for (r, c) in [(0u8, 0u8), (70, 0), (199, 0), (5, 64), (130, 130), (3, 199)] {
            m.insert(r, c, r as u32 * 1000 + c as u32);
        }
        let all: Vec<_> = m.column_major_from(0).collect();
        for from in 0..200 * 200 {
            let want: Vec<_> = all
                .iter()
                .copied()
                .filter(|&(c, r, _)| c as usize * 200 + r as usize >= from)
                .collect();
            assert_eq!(m.column_major_from(from).collect::<Vec<_>>(), want);
        }
    }

    #[test]
    fn columns_read_like_the_behavioural_locator() {
        // Every column of the drain is exactly `first_ones` over that
        // column's indicator string taken to its full width.
        let s = 130;
        let mut m = SxsMemory::new(s);
        let mut plane = vec![vec![false; s]; s];
        for k in 0..900usize {
            let (r, c) = ((k * 37 + k / 7) % s, (k * 11 + k / 13) % s);
            m.insert(r as u8, c as u8, k as u32);
            plane[c][r] = true;
        }
        for (c, col) in plane.iter().enumerate() {
            let rows: Vec<usize> = m
                .column_major_from(c * s)
                .take_while(|&(cc, _, _)| cc as usize == c)
                .map(|(_, r, _)| r as usize)
                .collect();
            assert_eq!(rows, first_ones(col, s), "column {c}");
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_insert_panics() {
        SxsMemory::new(4).insert(4, 0, 1);
    }

    #[test]
    fn overwrite_is_silent() {
        let mut m = SxsMemory::new(4);
        m.insert(1, 1, 1);
        m.insert(1, 1, 2);
        assert_eq!(m.count(), 1);
        assert_eq!(m.column_major_from(0).collect::<Vec<_>>(), vec![(1, 1, 2)]);
    }
}
