//! The host-side HiSM structure: an arena of hierarchical `s x s` blocks.

use stm_sparse::Value;

/// One non-zero of a level-0 blockarray: value + 8-bit in-block position.
///
/// The paper stores 8 bits per row/column position because `s < 256` on
/// every vector architecture it targets; we keep the same bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeafEntry {
    /// Row position inside the block (`0 .. s`).
    pub row: u8,
    /// Column position inside the block (`0 .. s`).
    pub col: u8,
    /// The non-zero value.
    pub value: Value,
}

/// One entry of a level ≥ 1 blockarray: a pointer to a non-empty child
/// blockarray plus its 8-bit in-block position. The child's *length* (the
/// paper's lengths vector) is recovered from the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeEntry {
    /// Row position inside the block (`0 .. s`).
    pub row: u8,
    /// Column position inside the block (`0 .. s`).
    pub col: u8,
    /// Arena index of the child block.
    pub child: usize,
}

/// The payload of a block: values at level 0, child pointers above.
#[derive(Debug, Clone, PartialEq)]
pub enum BlockData {
    /// A level-0 blockarray of values.
    Leaf(Vec<LeafEntry>),
    /// A level ≥ 1 blockarray of child pointers.
    Node(Vec<NodeEntry>),
}

/// One `s x s` block (an *s²-block* in the paper's terms).
#[derive(Debug, Clone, PartialEq)]
pub struct HismBlock {
    /// Hierarchy level: 0 for leaves, `levels - 1` for the root.
    pub level: usize,
    /// The blockarray. Entries are kept sorted row-major within the block
    /// (the paper permits any fixed order per level; we use row-major at
    /// every level).
    pub data: BlockData,
}

impl HismBlock {
    /// Number of entries in the blockarray (the paper's "length").
    pub fn len(&self) -> usize {
        match &self.data {
            BlockData::Leaf(v) => v.len(),
            BlockData::Node(v) => v.len(),
        }
    }

    /// True when the blockarray is empty (never stored by the builder,
    /// but possible to construct by hand).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A sparse matrix in the Hierarchical Sparse Matrix format.
///
/// Blocks live in an arena (`blocks`); `root` indexes the top-level block.
/// The logical (pre-padding) shape is kept so round-trips through COO are
/// exact.
#[derive(Debug, Clone, PartialEq)]
pub struct HismMatrix {
    /// Section size `s` (block dimension at every level).
    pub(crate) s: usize,
    /// Logical number of rows (before padding to `s^q`).
    pub(crate) rows: usize,
    /// Logical number of columns (before padding to `s^q`).
    pub(crate) cols: usize,
    /// Number of hierarchy levels `q`.
    pub(crate) levels: usize,
    /// Block arena; children always precede their parent (post-order), and
    /// the root is the last element.
    pub(crate) blocks: Vec<HismBlock>,
    /// Arena index of the root block.
    pub(crate) root: usize,
    /// Total number of non-zero values (leaf entries).
    pub(crate) nnz: usize,
}

impl HismMatrix {
    /// Section size `s`.
    pub fn section_size(&self) -> usize {
        self.s
    }

    /// Logical number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Logical shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of hierarchy levels `q = max(⌈log_s M⌉, ⌈log_s N⌉)` (≥ 1).
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Number of stored non-zero values.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Arena access.
    pub fn blocks(&self) -> &[HismBlock] {
        &self.blocks
    }

    /// Index of the root block in the arena.
    pub fn root(&self) -> usize {
        self.root
    }

    /// The root block.
    pub fn root_block(&self) -> &HismBlock {
        &self.blocks[self.root]
    }

    /// Value at `(row, col)` of the logical matrix, or `None` when
    /// structurally zero. Walks the hierarchy using the paper's coordinate
    /// decomposition `i = i_0 + i_1 s + … + i_q s^q`.
    pub fn get(&self, row: usize, col: usize) -> Option<Value> {
        if row >= self.rows || col >= self.cols {
            return None;
        }
        let mut block = self.root;
        let mut level = self.levels - 1;
        loop {
            let step = self.s.pow(level as u32);
            let (br, bc) = ((row / step % self.s) as u8, (col / step % self.s) as u8);
            match &self.blocks[block].data {
                BlockData::Leaf(entries) => {
                    return entries
                        .iter()
                        .find(|e| e.row == br && e.col == bc)
                        .map(|e| e.value);
                }
                BlockData::Node(entries) => {
                    let child = entries.iter().find(|e| e.row == br && e.col == bc)?;
                    block = child.child;
                    level -= 1;
                }
            }
        }
    }

    /// Checks structural invariants: positions within `0..s`, row-major
    /// ordering with no duplicates per blockarray, level consistency of
    /// children, and the nnz count.
    pub fn validate(&self) -> Result<(), String> {
        if self.s < 2 || self.s > 256 {
            return Err(format!("section size {} out of range 2..=256", self.s));
        }
        if self.levels == 0 {
            return Err("levels must be >= 1".into());
        }
        let mut leaf_nnz = 0usize;
        for (i, b) in self.blocks.iter().enumerate() {
            let coords: Vec<(u8, u8)> = match &b.data {
                BlockData::Leaf(v) => {
                    if b.level != 0 {
                        return Err(format!("leaf data at level {} (block {i})", b.level));
                    }
                    leaf_nnz += v.len();
                    v.iter().map(|e| (e.row, e.col)).collect()
                }
                BlockData::Node(v) => {
                    if b.level == 0 {
                        return Err(format!("node data at level 0 (block {i})"));
                    }
                    for e in v {
                        if e.child >= self.blocks.len() {
                            return Err(format!("dangling child {} in block {i}", e.child));
                        }
                        let cl = self.blocks[e.child].level;
                        if cl + 1 != b.level {
                            return Err(format!(
                                "block {i} (level {}) points at level {cl}",
                                b.level
                            ));
                        }
                        if self.blocks[e.child].is_empty() {
                            return Err(format!("block {i} stores an empty child"));
                        }
                    }
                    v.iter().map(|e| (e.row, e.col)).collect()
                }
            };
            for &(r, c) in &coords {
                if r as usize >= self.s || c as usize >= self.s {
                    return Err(format!("position ({r},{c}) outside s={} block", self.s));
                }
            }
            if coords.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("blockarray {i} not strictly row-major"));
            }
        }
        if self.root >= self.blocks.len() {
            return Err("root out of range".into());
        }
        if self.blocks[self.root].level + 1 != self.levels {
            return Err(format!(
                "root level {} inconsistent with levels {}",
                self.blocks[self.root].level, self.levels
            ));
        }
        if leaf_nnz != self.nnz {
            return Err(format!("nnz {} != leaf entries {leaf_nnz}", self.nnz));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build;
    use stm_sparse::Coo;

    fn small() -> HismMatrix {
        // 10x10 with s=4 → q=2 levels.
        let coo = Coo::from_triplets(
            10,
            10,
            vec![(0, 0, 1.0), (9, 9, 2.0), (3, 7, 3.0), (5, 1, 4.0)],
        )
        .unwrap();
        build::from_coo(&coo, 4).unwrap()
    }

    #[test]
    fn basic_shape_and_levels() {
        let h = small();
        assert_eq!(h.shape(), (10, 10));
        assert_eq!(h.levels(), 2);
        assert_eq!(h.nnz(), 4);
        h.validate().unwrap();
    }

    #[test]
    fn get_finds_all_entries() {
        let h = small();
        assert_eq!(h.get(0, 0), Some(1.0));
        assert_eq!(h.get(9, 9), Some(2.0));
        assert_eq!(h.get(3, 7), Some(3.0));
        assert_eq!(h.get(5, 1), Some(4.0));
        assert_eq!(h.get(1, 1), None);
        assert_eq!(h.get(20, 0), None);
    }

    #[test]
    fn block_counts() {
        let h = small();
        let at = |level| h.blocks().iter().filter(|b| b.level == level).count();
        assert_eq!(at(1), 1); // the root
                              // entries (0,0),(3,7) are in distinct 4x4 leaves; (5,1),(9,9) too.
        assert_eq!(at(0), 4);
    }
}
