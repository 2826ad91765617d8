//! Building HiSM matrices from COO and flattening them back.
//!
//! One builder recursion serves two sinks: the host block arena of
//! [`from_coo`] and the sealed memory image of [`image_from_coo`].

use crate::image::{
    pack_pos, HismImage, IntegrityHeader, RootDesc, SectionSums, INTEGRITY_VERSION,
};
use crate::matrix::{BlockData, HismBlock, HismMatrix, LeafEntry, NodeEntry};
use stm_sparse::coo::Triplet;
use stm_sparse::hash::fnv1a_u32;
use stm_sparse::{Coo, FormatError};

/// Number of hierarchy levels for an `rows x cols` matrix at section size
/// `s`: `q = max(⌈log_s rows⌉, ⌈log_s cols⌉)`, at least 1 (the paper pads
/// the matrix with zeros to `s^q x s^q`).
pub fn levels_for(rows: usize, cols: usize, s: usize) -> usize {
    assert!(s >= 2);
    let dim = rows.max(cols).max(1);
    let mut q = 1usize;
    let mut span = s;
    while span < dim {
        span *= s;
        q += 1;
    }
    q
}

/// Builds a HiSM matrix from a COO matrix with section size `s`
/// (2 ..= 256, since in-block positions are stored in 8 bits).
///
/// The input is canonicalized first (duplicates summed, zeros dropped;
/// already-canonical input is borrowed, not copied). Children are emitted
/// into the arena before their parents (post-order), so the root is
/// always the last block — the same order the memory-image serializer
/// uses.
///
/// ```
/// use stm_sparse::Coo;
/// let coo = Coo::from_triplets(100, 100, vec![(0, 0, 1.0), (99, 99, 2.0)]).unwrap();
/// let h = stm_hism::build::from_coo(&coo, 64).unwrap();
/// assert_eq!(h.levels(), 2);          // 100 > 64 → two levels
/// assert_eq!(h.get(99, 99), Some(2.0));
/// assert_eq!(stm_hism::build::to_coo(&h), coo);
/// ```
pub fn from_coo(coo: &Coo, s: usize) -> Result<HismMatrix, FormatError> {
    let (arena, root, shape) = build(coo, s, |_| Arena::default())?;
    let m = HismMatrix {
        s,
        rows: shape.rows,
        cols: shape.cols,
        levels: shape.levels,
        blocks: arena.0,
        root,
        nnz: shape.nnz,
    };
    debug_assert_eq!(m.validate(), Ok(()));
    Ok(m)
}

/// Builds the sealed memory image of a COO matrix at section size `s`
/// in one recursion: the same image as
/// `HismImage::encode(&from_coo(coo, s)?)`, with no block arena in
/// between. Leaf and node words are written in post-order as the
/// builder finishes each block, and the section sums are taken as they
/// are written, so no walk seals the image afterwards.
///
/// ```
/// use stm_hism::{build, HismImage};
/// let coo = stm_sparse::gen::random::uniform(90, 70, 400, 3);
/// let img = build::image_from_coo(&coo, 8).unwrap();
/// assert_eq!(img, HismImage::encode(&build::from_coo(&coo, 8).unwrap()));
/// ```
pub fn image_from_coo(coo: &Coo, s: usize) -> Result<HismImage, FormatError> {
    let (image, (addr, len), shape) = build(coo, s, |shape| Words::sized_for(shape, s))?;
    Ok(image.finish(RootDesc {
        addr,
        len,
        levels: shape.levels as u32,
        rows: shape.rows as u32,
        cols: shape.cols as u32,
        s: s as u32,
    }))
}

/// What the builder learns about a matrix before it recurses.
struct Shape {
    rows: usize,
    cols: usize,
    levels: usize,
    nnz: usize,
}

/// Canonicalizes and checks `coo`, then runs the one builder recursion
/// into the sink `sink` makes. Returns the sink, the root it finished
/// and the matrix's shape.
fn build<S: Sink>(
    coo: &Coo,
    s: usize,
    sink: impl FnOnce(&Shape) -> S,
) -> Result<(S, S::Block, Shape), FormatError> {
    if !(2..=256).contains(&s) {
        return Err(FormatError::Parse(format!(
            "section size {s} outside the supported 2..=256 range"
        )));
    }
    let canon = coo.canonical();
    // Entries outside the declared shape would silently truncate when the
    // in-block coordinates are narrowed to 8 bits below — reject them here
    // with the typed bounds error instead.
    canon.validate(false)?;
    let (rows, cols) = canon.shape();
    let shape = Shape {
        rows,
        cols,
        levels: levels_for(rows, cols, s),
        nnz: canon.nnz(),
    };
    // The one working copy of the triplets: every level permutes
    // sub-slices of it in place.
    let mut entries = canon.entries().to_vec();
    let mut b = Builder {
        s,
        sink: sink(&shape),
        scratch: Vec::new(),
        counts: vec![0; s + 1],
        children: Vec::new(),
    };
    let root = b.block(&mut entries, shape.levels - 1, (0, 0));
    Ok((b.sink, root, shape))
}

/// Where the builder puts each block it finishes: a host block arena
/// ([`from_coo`]) or image words ([`image_from_coo`]).
trait Sink {
    /// How a parent refers to a finished child.
    type Block: Copy;

    /// A leaf of the block at `origin`, from its row-major triplets.
    fn leaf(&mut self, entries: &[Triplet], origin: (usize, usize)) -> Self::Block;

    /// A level-`level` node over its children, row-major, each with its
    /// in-block position.
    fn node(&mut self, level: usize, children: &[(u8, u8, Self::Block)]) -> Self::Block;
}

/// The host block arena; blocks are referred to by arena index.
#[derive(Default)]
struct Arena(Vec<HismBlock>);

impl Arena {
    fn push(&mut self, level: usize, data: BlockData) -> usize {
        self.0.push(HismBlock { level, data });
        self.0.len() - 1
    }
}

impl Sink for Arena {
    type Block = usize;

    fn leaf(&mut self, entries: &[Triplet], origin: (usize, usize)) -> usize {
        let leaf = entries
            .iter()
            .map(|&(r, c, v)| LeafEntry {
                row: (r - origin.0) as u8,
                col: (c - origin.1) as u8,
                value: v,
            })
            .collect();
        self.push(0, BlockData::Leaf(leaf))
    }

    fn node(&mut self, level: usize, children: &[(u8, u8, usize)]) -> usize {
        let node = children
            .iter()
            .map(|&(row, col, child)| NodeEntry { row, col, child })
            .collect();
        self.push(level, BlockData::Node(node))
    }
}

/// The image words in the layout [`HismImage::encode`] writes, with the
/// relocation table and the section sums; blocks are referred to by
/// their `(word address, entry count)`.
struct Words {
    words: Vec<u32>,
    pointer_sites: Vec<u32>,
    sums: SectionSums,
}

impl Words {
    /// Room for the whole image of a matrix of `shape`, so the words
    /// never reallocate: two words per non-zero and three per node
    /// entry. A level-ℓ node holds one entry per non-empty block one
    /// level down, of which there are at most `nnz` and at most
    /// `⌈rows/s^ℓ⌉·⌈cols/s^ℓ⌉`.
    fn sized_for(shape: &Shape, s: usize) -> Words {
        let mut node_entries = 0usize;
        let mut span = 1usize;
        for _ in 1..shape.levels {
            span = span.saturating_mul(s);
            let blocks = shape
                .rows
                .div_ceil(span)
                .saturating_mul(shape.cols.div_ceil(span));
            node_entries = node_entries.saturating_add(blocks.min(shape.nnz));
        }
        Words {
            words: Vec::with_capacity(2 * shape.nnz + 3 * node_entries),
            pointer_sites: Vec::with_capacity(node_entries),
            sums: SectionSums::default(),
        }
    }

    fn finish(mut self, root: RootDesc) -> HismImage {
        self.words.shrink_to_fit();
        self.pointer_sites.shrink_to_fit();
        HismImage {
            words: self.words,
            root,
            pointer_sites: self.pointer_sites,
            integrity: Some(IntegrityHeader {
                version: INTEGRITY_VERSION,
                sums: self.sums,
            }),
        }
    }

    fn addr(&self) -> u32 {
        self.words.len() as u32
    }
}

impl Sink for Words {
    type Block = (u32, u32);

    fn leaf(&mut self, entries: &[Triplet], origin: (usize, usize)) -> (u32, u32) {
        let addr = self.addr();
        for &(r, c, v) in entries {
            let (value, pos) = (
                v.to_bits(),
                pack_pos((r - origin.0) as u8, (c - origin.1) as u8),
            );
            self.sums.values ^= fnv1a_u32(value);
            self.sums.positions ^= fnv1a_u32(pos);
            self.words.extend([value, pos]);
        }
        (addr, entries.len() as u32)
    }

    fn node(&mut self, _level: usize, children: &[(u8, u8, (u32, u32))]) -> (u32, u32) {
        let addr = self.addr();
        for &(row, col, (child, _)) in children {
            let pos = pack_pos(row, col);
            self.sums.pointers ^= fnv1a_u32(child);
            self.sums.positions ^= fnv1a_u32(pos);
            self.pointer_sites.push(self.addr());
            self.words.extend([child, pos]);
        }
        for &(_, _, (_, len)) in children {
            self.sums.lengths ^= fnv1a_u32(len);
            self.words.push(len);
        }
        (addr, children.len() as u32)
    }
}

/// Recursive builder state: the sink plus the scatter buffers shared by
/// every level (a level finishes its scatter before it recurses, so one
/// set suffices) and the finished children of the nodes in progress.
struct Builder<S: Sink> {
    s: usize,
    sink: S,
    scratch: Vec<Triplet>,
    counts: Vec<usize>,
    /// Finished children of the nodes being built, innermost last.
    children: Vec<(u8, u8, S::Block)>,
}

impl<S: Sink> Builder<S> {
    /// Builds the block at `level` covering the `s^(level+1)`-wide square
    /// at `origin` from row-major-sorted triplets, permuting them in place,
    /// and hands it to the sink. An empty slice still creates the (empty)
    /// block when it is the root, so that empty matrices are representable.
    ///
    /// The block rows of a row-major slice are contiguous runs. Each run is
    /// stably reordered by block column, which leaves every child's
    /// triplets contiguous and still row-major, so children recurse on
    /// sub-slices and leaves need no sort. Children are visited in
    /// (block row, block column) order, which fixes the layout.
    fn block(&mut self, entries: &mut [Triplet], level: usize, origin: (usize, usize)) -> S::Block {
        if level == 0 {
            debug_assert!(entries
                .windows(2)
                .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
            return self.sink.leaf(entries, origin);
        }
        let step = self.s.pow(level as u32);
        let block_row = |e: &Triplet| (e.0 - origin.0) / step;
        let block_col = |e: &Triplet| (e.1 - origin.1) / step;
        let first = self.children.len();
        let mut i = 0usize;
        while i < entries.len() {
            let br = block_row(&entries[i]);
            let run_len = entries[i..].partition_point(|e| block_row(e) == br);
            let run = &mut entries[i..i + run_len];
            self.scatter_by(run, block_col);
            let mut j = 0usize;
            while j < run.len() {
                let bc = block_col(&run[j]);
                let len = run[j..].partition_point(|e| block_col(e) == bc);
                let child_origin = (origin.0 + br * step, origin.1 + bc * step);
                let child = self.block(&mut run[j..j + len], level - 1, child_origin);
                self.children.push((br as u8, bc as u8, child));
                j += len;
            }
            i += run_len;
        }
        let node = self.sink.node(level, &self.children[first..]);
        self.children.truncate(first);
        node
    }

    /// Stably reorders `run` by `key` (a block column, `< s`): a counting
    /// scatter through the shared scratch when the run holds at least `s`
    /// triplets, a stable sort below that.
    fn scatter_by(&mut self, run: &mut [Triplet], key: impl Fn(&Triplet) -> usize) {
        if run.len() < self.s {
            run.sort_by_key(|e| key(e));
            return;
        }
        let counts = &mut self.counts;
        counts.fill(0);
        for e in run.iter() {
            counts[key(e) + 1] += 1;
        }
        for k in 1..counts.len() {
            counts[k] += counts[k - 1];
        }
        self.scratch.clear();
        self.scratch.extend_from_slice(run);
        for &e in &self.scratch {
            let slot = &mut counts[key(&e)];
            run[*slot] = e;
            *slot += 1;
        }
    }
}

/// Flattens a HiSM matrix back to canonical COO.
pub fn to_coo(h: &HismMatrix) -> Coo {
    let mut coo = Coo::new(h.rows(), h.cols());
    collect(h, h.root(), h.levels() - 1, (0, 0), &mut coo);
    coo.canonicalize();
    coo
}

fn collect(h: &HismMatrix, block: usize, level: usize, origin: (usize, usize), out: &mut Coo) {
    // Saturating: a decoded deep hierarchy reaches here only with every
    // entry inside the matrix, so a saturated step only ever scales 0.
    let step = h.section_size().saturating_pow(level as u32);
    match &h.blocks()[block].data {
        BlockData::Leaf(entries) => {
            for e in entries {
                out.push(
                    origin.0 + e.row as usize,
                    origin.1 + e.col as usize,
                    e.value,
                );
            }
        }
        BlockData::Node(entries) => {
            for e in entries {
                let child_origin = (
                    origin.0 + e.row as usize * step,
                    origin.1 + e.col as usize * step,
                );
                collect(h, e.child, level - 1, child_origin, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_sparse::gen;

    #[test]
    fn levels_formula_matches_paper() {
        // s=64: up to 64 → 1 level; up to 4096 → 2; up to 262144 → 3.
        assert_eq!(levels_for(64, 64, 64), 1);
        assert_eq!(levels_for(65, 1, 64), 2);
        assert_eq!(levels_for(4096, 4096, 64), 2);
        assert_eq!(levels_for(4097, 1, 64), 3);
        assert_eq!(levels_for(1, 1, 64), 1);
    }

    #[test]
    fn round_trip_small() {
        let coo = Coo::from_triplets(7, 13, vec![(0, 12, 1.0), (6, 0, 2.0), (3, 3, 3.0)]).unwrap();
        let h = from_coo(&coo, 4).unwrap();
        h.validate().unwrap();
        let mut orig = coo;
        orig.canonicalize();
        assert_eq!(to_coo(&h), orig);
    }

    #[test]
    fn round_trip_generator_families() {
        for (i, coo) in [
            gen::structured::tridiagonal(200),
            gen::random::uniform(150, 150, 900, 5),
            gen::blocks::block_dense(128, 16, 6, 0.8, 6),
            gen::rmat::rmat(7, 500, gen::rmat::RmatProbs::default(), 7),
        ]
        .into_iter()
        .enumerate()
        {
            for s in [4usize, 8, 64] {
                let h = from_coo(&coo, s).unwrap();
                h.validate().unwrap();
                let mut orig = coo.clone();
                orig.canonicalize();
                assert_eq!(to_coo(&h), orig, "family {i}, s={s}");
            }
        }
    }

    #[test]
    fn empty_matrix_is_representable() {
        let h = from_coo(&Coo::new(100, 100), 8).unwrap();
        assert_eq!(h.nnz(), 0);
        assert_eq!(to_coo(&h).nnz(), 0);
        h.validate().unwrap();
    }

    #[test]
    fn single_level_when_matrix_fits_one_block() {
        let coo = Coo::from_triplets(5, 5, vec![(4, 4, 1.0)]).unwrap();
        let h = from_coo(&coo, 8).unwrap();
        assert_eq!(h.levels(), 1);
        assert_eq!(h.blocks().len(), 1);
    }

    #[test]
    fn rejects_oversized_section() {
        assert!(from_coo(&Coo::new(2, 2), 512).is_err());
        assert!(from_coo(&Coo::new(2, 2), 1).is_err());
    }

    #[test]
    fn builder_revalidates_entry_bounds() {
        // `Coo::push` asserts bounds at insertion, so every in-API COO
        // passes; the builder still revalidates so no future unchecked
        // constructor can smuggle out-of-shape coordinates into the 8-bit
        // narrowing of `build_block`.
        let coo = Coo::from_triplets(10, 10, vec![(9, 9, 1.0)]).unwrap();
        assert!(from_coo(&coo, 8).is_ok());
    }

    #[test]
    fn an_out_of_shape_push_after_canonicalize_is_a_typed_error() {
        let mut coo = Coo::from_triplets(10, 10, vec![(9, 9, 1.0)]).unwrap();
        coo.canonicalize();
        if cfg!(debug_assertions) {
            // `push` asserts the bounds itself in debug builds.
            return;
        }
        coo.push(12, 3, 2.0);
        for err in [from_coo(&coo, 8).err(), image_from_coo(&coo, 8).err()] {
            assert!(
                matches!(err, Some(FormatError::IndexOutOfBounds { row: 12, .. })),
                "{err:?}"
            );
        }
    }

    #[test]
    fn post_order_children_before_parents() {
        let coo = gen::random::uniform(100, 100, 300, 1);
        let h = from_coo(&coo, 8).unwrap();
        for (i, b) in h.blocks().iter().enumerate() {
            if let BlockData::Node(v) = &b.data {
                for e in v {
                    assert!(e.child < i, "child after parent");
                }
            }
        }
        assert_eq!(h.root(), h.blocks().len() - 1);
    }

    #[test]
    fn three_level_hierarchy() {
        // s=4, dim 70 → q=3 (4^2=16 < 70 <= 64? no: 4^3 = 64 < 70 → q=4).
        assert_eq!(levels_for(70, 70, 4), 4);
        let coo = Coo::from_triplets(70, 70, vec![(69, 69, 1.0), (0, 0, 2.0)]).unwrap();
        let h = from_coo(&coo, 4).unwrap();
        assert_eq!(h.levels(), 4);
        assert_eq!(h.get(69, 69), Some(1.0));
        let mut orig = coo;
        orig.canonicalize();
        assert_eq!(to_coo(&h), orig);
    }
}
