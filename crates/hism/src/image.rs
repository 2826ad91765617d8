//! The flat memory image of a HiSM matrix — what the simulated vector
//! processor actually operates on.
//!
//! Layout (32-bit words, addresses are word offsets from the image base):
//!
//! * A blockarray of length `n` occupies `2n` words: entry `k` is the pair
//!   `[payload_k, pos_k]`, where `payload` is the value's bit pattern
//!   (level 0) or the child blockarray's word address (levels ≥ 1), and
//!   `pos = row << 8 | col` packs the 8-bit in-block coordinates.
//! * For levels ≥ 1 the paper's *lengths vector* — `n` words, the k-th
//!   holding the entry count of the k-th child — is stored immediately
//!   after the blockarray (at `addr + 2n`).
//! * Blocks are laid out in post-order (children before parents), so every
//!   pointer refers backwards; the root blockarray is last and is described
//!   by the external [`RootDesc`].
//!
//! The paper packs value + positions into 48 bits; we use two aligned
//! 32-bit words per entry. The cycle model accounts for this via
//! `VpConfig::words_per_entry` (see DESIGN.md, "Deliberate model
//! interpretations").

use crate::error::ImageError;
use crate::matrix::{BlockData, HismBlock, HismMatrix, LeafEntry, NodeEntry};
use stm_sparse::hash::{fnv1a_u32, Fnv1a};
use stm_sparse::Value;

/// Words per blockarray entry in the image (`[payload, pos]`).
pub const WORDS_PER_ENTRY: u32 = 2;

/// Packs in-block coordinates into a position word (`row << 8 | col`).
pub fn pack_pos(row: u8, col: u8) -> u32 {
    (row as u32) << 8 | col as u32
}

/// Unpacks a position word into `(row, col)`.
pub fn unpack_pos(pos: u32) -> (u8, u8) {
    (((pos >> 8) & 0xff) as u8, (pos & 0xff) as u8)
}

/// The root descriptor the paper keeps outside the image: "the matrix can
/// be referred to in terms of the memory position of the start of the top
/// level s²-blockarray and its length".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RootDesc {
    /// Word address of the root blockarray.
    pub addr: u32,
    /// Entry count of the root blockarray.
    pub len: u32,
    /// Number of hierarchy levels `q`.
    pub levels: u32,
    /// Logical rows (pre-padding).
    pub rows: u32,
    /// Logical columns (pre-padding).
    pub cols: u32,
    /// Section size `s`.
    pub s: u32,
}

/// Version of the integrity sidecar header this crate writes.
pub const INTEGRITY_VERSION: u32 = 1;

/// Order-independent FNV-1a checksums over the four word classes of a
/// HiSM image: leaf values, child pointers, position words, and lengths
/// vectors. Each XORs the per-word hashes ([`fnv1a_u32`]) of its class,
/// so a permuted-but-intact image — the simulated STM permutes
/// blockarrays in place — still verifies, and a producer that writes
/// every word anyway can accumulate the sums on the way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SectionSums {
    /// XOR of per-word hashes over leaf payload (value-bit) words.
    pub values: u64,
    /// XOR of per-word hashes over node payload (child-pointer) words.
    pub pointers: u64,
    /// XOR of per-word hashes over position words (all levels).
    pub positions: u64,
    /// XOR of per-word hashes over lengths-vector words.
    pub lengths: u64,
}

impl SectionSums {
    /// The first section that disagrees with `other`, as a typed error
    /// (`self` is the header, `other` the recomputed sums).
    fn diff(&self, other: &SectionSums) -> Option<ImageError> {
        let pairs = [
            ("values", self.values, other.values),
            ("pointers", self.pointers, other.pointers),
            ("positions", self.positions, other.positions),
            ("lengths", self.lengths, other.lengths),
        ];
        pairs
            .into_iter()
            .find(|(_, a, b)| a != b)
            .map(|(section, expect, got)| ImageError::Integrity {
                section,
                expect,
                got,
            })
    }
}

/// One leaf payload word, located both in the image (word address) and in
/// the matrix (global coordinates) — the unit of value-targeted fault
/// injection and of weighted site selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValueSite {
    /// Word address of the value word inside the image.
    pub addr: u32,
    /// Global row of the entry this word belongs to.
    pub row: u64,
    /// Global column of the entry this word belongs to.
    pub col: u64,
    /// The value currently stored there (bit cast).
    pub value: f32,
}

/// The versioned sidecar header carrying an image's section checksums.
/// It travels next to the image (never inside the word vector, which
/// stays exactly the hardware layout) and is re-derivable at any time
/// from a structurally valid image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntegrityHeader {
    /// Header format version ([`INTEGRITY_VERSION`]).
    pub version: u32,
    /// The section checksums.
    pub sums: SectionSums,
}

/// A serialized HiSM matrix: the word image plus its root descriptor and
/// the relocation table (word indices that hold child addresses).
#[derive(Debug, Clone, PartialEq)]
pub struct HismImage {
    /// The image words. Addresses in [`RootDesc`] and in pointer entries
    /// are relative to index 0 of this vector (i.e. the image is linked
    /// for base address 0).
    pub words: Vec<u32>,
    /// Root descriptor.
    pub root: RootDesc,
    /// Word indices that contain child addresses, for [`HismImage::relocate`].
    pub pointer_sites: Vec<u32>,
    /// Section checksums sealed over the current words, when present.
    /// `None` marks a legacy/headerless image — it still loads, but the
    /// consumer counts the absence.
    pub integrity: Option<IntegrityHeader>,
}

impl HismImage {
    /// Serializes a HiSM matrix (blocks are already in post-order in the
    /// arena, so arena order is the layout order).
    pub fn encode(h: &HismMatrix) -> HismImage {
        let mut words: Vec<u32> = Vec::new();
        let mut pointer_sites: Vec<u32> = Vec::new();
        let mut addr_of: Vec<u32> = vec![u32::MAX; h.blocks().len()];
        for (i, b) in h.blocks().iter().enumerate() {
            let addr = words.len() as u32;
            addr_of[i] = addr;
            match &b.data {
                BlockData::Leaf(entries) => {
                    for e in entries {
                        words.push(e.value.to_bits());
                        words.push(pack_pos(e.row, e.col));
                    }
                }
                BlockData::Node(entries) => {
                    for e in entries {
                        pointer_sites.push(words.len() as u32);
                        words.push(addr_of[e.child]);
                        words.push(pack_pos(e.row, e.col));
                    }
                    for e in entries {
                        words.push(h.blocks()[e.child].len() as u32);
                    }
                }
            }
        }
        let root = RootDesc {
            addr: addr_of[h.root()],
            len: h.root_block().len() as u32,
            levels: h.levels() as u32,
            rows: h.rows() as u32,
            cols: h.cols() as u32,
            s: h.section_size() as u32,
        };
        let mut img = HismImage {
            words,
            root,
            pointer_sites,
            integrity: None,
        };
        img.seal_integrity();
        img
    }

    /// Recomputes the section checksums over the current words and walks
    /// the image structure in the process. Fails with the first
    /// structural corruption found, exactly like [`HismImage::decode`]
    /// (minus position-range checks, which are a decode concern).
    pub fn compute_integrity(&self) -> Result<IntegrityHeader, ImageError> {
        let mut sums_only = ();
        let mut w = Walker::structure(self, &mut sums_only);
        w.root()?;
        Ok(IntegrityHeader {
            version: INTEGRITY_VERSION,
            sums: w.sums,
        })
    }

    /// Word addresses of every leaf payload (value-bit) word, in layout
    /// order. Empty for an empty matrix. This is the target set for
    /// value-only fault injection: flipping any of these words corrupts
    /// matrix *content* without touching structure.
    pub fn value_sites(&self) -> Result<Vec<u32>, ImageError> {
        Ok(self
            .value_sites_detailed()?
            .iter()
            .map(|s| s.addr)
            .collect())
    }

    /// Every leaf payload word together with its global matrix
    /// coordinates and current value, in layout order. The coordinates
    /// let a fault injector weight sites by how they feed a downstream
    /// computation (e.g. which SpMV input element they multiply).
    pub fn value_sites_detailed(&self) -> Result<Vec<ValueSite>, ImageError> {
        let mut sites = Vec::new();
        Walker::structure(self, &mut sites).root()?;
        Ok(sites)
    }

    /// (Re-)seals the integrity header over the current words. A
    /// structurally broken image cannot be summed; it is left headerless.
    pub fn seal_integrity(&mut self) {
        self.integrity = self.compute_integrity().ok();
    }

    /// Re-verifies the sealed checksums against the current words.
    ///
    /// * `Ok(true)` — header present and every section matches.
    /// * `Ok(false)` — no header (or an unknown future version): nothing
    ///   to check; callers count the absence.
    /// * `Err(ImageError::Integrity {..})` — a section disagrees.
    /// * `Err(other)` — the image is too structurally broken to walk.
    pub fn verify_integrity(&self) -> Result<bool, ImageError> {
        let Some(header) = self.sealed() else {
            return Ok(false);
        };
        let got = self.compute_integrity()?;
        match header.sums.diff(&got.sums) {
            Some(err) => Err(err),
            None => Ok(true),
        }
    }

    /// The integrity header, when it is a version this crate checks.
    fn sealed(&self) -> Option<&IntegrityHeader> {
        self.integrity
            .as_ref()
            .filter(|h| h.version == INTEGRITY_VERSION)
    }

    /// Rebuilds the host structure from the image. Works on images whose
    /// blockarrays were permuted in place (e.g. by the simulated STM), as
    /// long as the `(pointer, length)` pairing is consistent.
    ///
    /// The image is treated as untrusted input: the first corruption found
    /// (out-of-bounds pointer or length, position outside the block,
    /// runaway total size) is returned as a typed [`ImageError`] carrying
    /// the offending word address — decoding never panics.
    pub fn decode(&self) -> Result<HismMatrix, ImageError> {
        let mut rebuild = Rebuild::default();
        let root = self.walk(&mut rebuild)?;
        Ok(HismMatrix {
            s: self.root.s as usize,
            rows: self.root.rows as usize,
            cols: self.root.cols as usize,
            levels: self.root.levels as usize,
            blocks: rebuild.arena,
            root,
            nnz: rebuild.nnz,
        })
    }

    /// The canonical digest of the matrix the image holds, equal to
    /// `canonical_digest(&build::to_coo(&self.decode()?))`
    /// ([`stm_sparse::format::canonical_digest`]); `None` exactly when
    /// [`HismImage::decode`] fails.
    ///
    /// Every blockarray is stored row-major, so a walk in layout order
    /// reaches each matrix row's entries in column order: grouping them
    /// by row (stably) yields canonical order with no sort, and the
    /// triplets go straight to the hasher, explicit zeros skipped. When
    /// a row's columns do not strictly increase (an unsorted leaf, or a
    /// position stored twice, whose values canonical form sums), an
    /// entry lies outside the shape, or the shape has far more rows than
    /// entries, the digest is taken through decode instead, so every
    /// value stays bit-identical.
    pub fn canonical_digest(&self) -> Option<u64> {
        let mut flat = Flatten {
            rows: self.root.rows,
            cols: self.root.cols,
            entries: Vec::with_capacity(self.words.len() / 2),
            in_shape: true,
        };
        self.walk(&mut flat).ok()?;
        flat.digest().or_else(|| {
            let coo = crate::build::to_coo(&self.decode().ok()?);
            Some(stm_sparse::format::canonical_digest(&coo))
        })
    }

    /// Walks the image with every check [`HismImage::decode`] makes and
    /// fails with the error decode fails with, handing each leaf entry
    /// and finished blockarray to `visit` (entries in layout order,
    /// children before their parent).
    ///
    /// A sealed image is checked against its checksums before anything
    /// else, so a flipped bit is reported as the content corruption it
    /// is — even when it lands on a word the structural checks would
    /// never look at. Position errors found on the way therefore wait
    /// until the sums are known, and the walk goes on past them: what
    /// `visit` saw is meaningful only on `Ok`.
    pub fn walk<V: Visitor>(&self, visit: &mut V) -> Result<V::Block, ImageError> {
        self.walk_checked(visit, false)
    }

    /// [`HismImage::walk`], visiting the entries of every blockarray in
    /// row-major position order (stably, so equal positions keep their
    /// layout order) — the order of [`HismImage::decode`]'s blockarrays.
    pub fn walk_in_position_order<V: Visitor>(
        &self,
        visit: &mut V,
    ) -> Result<V::Block, ImageError> {
        self.walk_checked(visit, true)
    }

    fn walk_checked<V: Visitor>(
        &self,
        visit: &mut V,
        ordered: bool,
    ) -> Result<V::Block, ImageError> {
        if self.root.levels == 0 {
            return Err(ImageError::ZeroLevels);
        }
        let s_ok = (2..=256).contains(&self.root.s);
        let header = self.sealed();
        if header.is_none() && !s_ok {
            return Err(ImageError::BadSectionSize(self.root.s));
        }
        let mut w = Walker::structure(self, visit);
        w.positions = s_ok;
        w.defer = header.is_some();
        w.ordered = ordered;
        let root = w.root()?;
        if let Some(err) = header.and_then(|h| h.sums.diff(&w.sums)) {
            return Err(err);
        }
        if !s_ok {
            return Err(ImageError::BadSectionSize(self.root.s));
        }
        match w.position_error {
            Some(err) => Err(err),
            None => Ok(root),
        }
    }

    /// Adds `base` to every stored child address and to the root address,
    /// producing an image linked for loading at word address `base`.
    pub fn relocate(&mut self, base: u32) {
        for &site in &self.pointer_sites {
            self.words[site as usize] += base;
        }
        self.root.addr += base;
        // A relocated image is linked for a foreign base address: its
        // words can no longer be walked from index 0, so the sealed sums
        // are unverifiable. Drop the header rather than carry a stale one.
        self.integrity = None;
    }
}

/// What a walk over an image ([`HismImage::walk`]) does with what it
/// reaches. Blockarrays finish children first, so a visitor can rebuild
/// the hierarchy; the default methods ignore structure.
pub trait Visitor {
    /// What a finished blockarray hands its parent.
    type Block: Default;

    /// Whether [`Visitor::entry`] reads `at`. When it does not and
    /// positions go unchecked, the walk passes the leaf's origin instead
    /// of computing each entry's coordinates.
    const COORDINATES: bool = true;

    /// A level-`level` blockarray of `len` entries is about to be
    /// visited.
    fn open(&mut self, _level: u32, _len: u32) {}

    /// One leaf entry: the word address of its value word, its in-block
    /// `(row, col)`, its global coordinates and its value bits.
    fn entry(&mut self, addr: u32, pos: (u8, u8), at: (u64, u64), bits: u32);

    /// The leaf blockarray whose `len` entries were just visited.
    fn leaf(&mut self, _len: u32) -> Self::Block {
        Self::Block::default()
    }

    /// One entry of a node blockarray at in-block `pos`, after its
    /// child blockarray finished as `child`.
    fn child(&mut self, _pos: (u8, u8), _child: Self::Block) {}

    /// The level-`level` node blockarray whose `len` children were just
    /// visited.
    fn node(&mut self, _level: u32, _len: u32) -> Self::Block {
        Self::Block::default()
    }
}

/// A walk that only sums and checks.
impl Visitor for () {
    type Block = ();
    const COORDINATES: bool = false;

    fn entry(&mut self, _: u32, _: (u8, u8), _: (u64, u64), _: u32) {}
}

/// Collects the [`ValueSite`]s.
impl Visitor for Vec<ValueSite> {
    type Block = ();

    fn entry(&mut self, addr: u32, _: (u8, u8), at: (u64, u64), bits: u32) {
        self.push(ValueSite {
            addr,
            row: at.0,
            col: at.1,
            value: f32::from_bits(bits),
        });
    }
}

/// Rebuilds the host block arena for [`HismImage::decode`]: every
/// blockarray sorted row-major, children before their parent.
#[derive(Default)]
struct Rebuild {
    arena: Vec<HismBlock>,
    /// The entries of the leaf being visited, sized when it opens.
    leaf: Vec<LeafEntry>,
    /// Finished children of the nodes being visited, innermost last.
    nodes: Vec<NodeEntry>,
    nnz: usize,
}

impl Rebuild {
    fn push(&mut self, level: u32, data: BlockData) -> usize {
        self.arena.push(HismBlock {
            level: level as usize,
            data,
        });
        self.arena.len() - 1
    }
}

impl Visitor for Rebuild {
    type Block = usize;
    const COORDINATES: bool = false;

    fn open(&mut self, level: u32, len: u32) {
        if level == 0 {
            self.leaf = Vec::with_capacity(len as usize);
        }
    }

    fn entry(&mut self, _: u32, (row, col): (u8, u8), _: (u64, u64), bits: u32) {
        self.leaf.push(LeafEntry {
            row,
            col,
            value: Value::from_bits(bits),
        });
    }

    fn leaf(&mut self, len: u32) -> usize {
        self.nnz += len as usize;
        let mut leaf = std::mem::take(&mut self.leaf);
        leaf.sort_by_key(|e| (e.row, e.col));
        self.push(0, BlockData::Leaf(leaf))
    }

    fn child(&mut self, (row, col): (u8, u8), child: usize) {
        self.nodes.push(NodeEntry { row, col, child });
    }

    fn node(&mut self, level: u32, len: u32) -> usize {
        let mut node = self.nodes.split_off(self.nodes.len() - len as usize);
        node.sort_by_key(|e| (e.row, e.col));
        self.push(level, BlockData::Node(node))
    }
}

/// Collects the leaf entries for [`HismImage::canonical_digest`] as
/// `(row, col, value bits)` in layout order.
struct Flatten {
    rows: u32,
    cols: u32,
    entries: Vec<(u32, u32, u32)>,
    /// No entry visited so far lies outside the shape.
    in_shape: bool,
}

/// [`Flatten::digest`] leaves a matrix with more than this many rows per
/// entry to the digest through decode, whose row sort is sized by the
/// entries rather than by the declared rows.
const MAX_ROWS_PER_ENTRY: usize = 4;

impl Visitor for Flatten {
    type Block = ();

    fn entry(&mut self, _: u32, _: (u8, u8), (row, col): (u64, u64), bits: u32) {
        if row < u64::from(self.rows) && col < u64::from(self.cols) {
            self.entries.push((row as u32, col as u32, bits));
        } else {
            self.in_shape = false;
        }
    }
}

impl Flatten {
    /// Hashes what [`stm_sparse::format::canonical_digest`] hashes —
    /// shape, then every non-zero `(row, col, bits)` in row-major order —
    /// or `None` when an entry lies outside the shape, some row's columns
    /// are not strictly increasing in layout order, or the shape has far
    /// more rows than entries.
    fn digest(self) -> Option<u64> {
        let (rows, n) = (self.rows as usize, self.entries.len());
        if !self.in_shape || rows > MAX_ROWS_PER_ENTRY * n.max(1) {
            return None;
        }
        // A stable counting scatter by row.
        let mut next = vec![0u32; rows];
        for &(r, _, _) in &self.entries {
            next[r as usize] += 1;
        }
        let mut sum = 0;
        for at in &mut next {
            (*at, sum) = (sum, sum + *at);
        }
        let mut grouped = vec![(0, 0, 0); n];
        for &e in &self.entries {
            let at = &mut next[e.0 as usize];
            grouped[*at as usize] = e;
            *at += 1;
        }
        let mut h = Fnv1a::new();
        h.u64(u64::from(self.rows));
        h.u64(u64::from(self.cols));
        let mut last = None;
        for &(row, col, bits) in &grouped {
            if last >= Some((row, col)) {
                return None;
            }
            last = Some((row, col));
            // `Coo::canonicalize` drops explicit zeros of either sign.
            if bits << 1 != 0 {
                h.u64(u64::from(row));
                h.u64(u64::from(col));
                h.u32(bits);
            }
        }
        Some(h.finish())
    }
}

/// The one walker over an image's hierarchy, behind decode, the
/// integrity sums, the value sites and every [`Visitor`]. Every read is
/// bounds-checked and the entries visited are budgeted, so a corrupt
/// image yields a typed [`ImageError`] instead of a panic or unbounded
/// recursion.
struct Walker<'a, V> {
    image: &'a HismImage,
    visit: &'a mut V,
    /// Entries the walk may still visit. A valid image never holds more
    /// than words/2, so running out means a pointer cycle or a corrupt
    /// lengths vector.
    budget: u64,
    /// The section sums of every word visited.
    sums: SectionSums,
    /// Check every position against the block and the declared shape
    /// (the root's section size is valid).
    positions: bool,
    /// Record the first position error and walk on instead of failing.
    defer: bool,
    position_error: Option<ImageError>,
    /// Visit each blockarray's entries in position order.
    ordered: bool,
}

impl<'a, V: Visitor> Walker<'a, V> {
    /// A walk that sums and checks structure only. It runs before
    /// decode's section-size guard, so the root descriptor is untrusted:
    /// offsets saturate instead of overflowing on garbage `s`/`levels`.
    fn structure(image: &'a HismImage, visit: &'a mut V) -> Self {
        Walker {
            image,
            visit,
            budget: image.words.len() as u64 / 2 + 1,
            sums: SectionSums::default(),
            positions: false,
            defer: false,
            position_error: None,
            ordered: false,
        }
    }

    fn root(&mut self) -> Result<V::Block, ImageError> {
        let root = self.image.root;
        self.block(root.addr, root.len, root.levels.max(1) - 1, (0, 0))
    }

    fn word(&self, addr: usize) -> Result<u32, ImageError> {
        let words = &self.image.words;
        words.get(addr).copied().ok_or(ImageError::OutOfBounds {
            addr: addr.min(u32::MAX as usize) as u32,
            len: words.len() as u32,
        })
    }

    /// Visits the blockarray at `addr` whose block starts at matrix
    /// coordinates `origin`.
    fn block(
        &mut self,
        addr: u32,
        len: u32,
        level: u32,
        origin: (u64, u64),
    ) -> Result<V::Block, ImageError> {
        let base = addr as usize;
        if (len as u64) > self.budget {
            return Err(ImageError::Runaway { addr });
        }
        self.budget -= len as u64;
        // Each level-ℓ position addresses an s^ℓ × s^ℓ subblock.
        let step = (self.image.root.s.max(1) as u64).saturating_pow(level);
        let order = self.order(base, len as usize)?;
        self.visit.open(level, len);
        if level == 0 {
            // The entries' word pairs that lie inside the image; the
            // first word read past its end is then the image length (or
            // `base`, for a blockarray that starts past it).
            let words: &'a [u32] = &self.image.words;
            let stored = words.get(base..).unwrap_or_default();
            let pairs = &stored[..stored.len().min(2 * len as usize)];
            let (values, positions) = match &order {
                None => self.leaf_entries(base, pairs, origin, 0..pairs.len() / 2)?,
                // An ordered walk has read every position word already.
                Some(order) => {
                    self.leaf_entries(base, pairs, origin, order.iter().map(|&k| k as usize))?
                }
            };
            if pairs.len() < 2 * len as usize {
                return Err(ImageError::OutOfBounds {
                    addr: base.max(words.len()).min(u32::MAX as usize) as u32,
                    len: words.len() as u32,
                });
            }
            self.sums.values ^= values;
            self.sums.positions ^= positions;
            return Ok(self.visit.leaf(len));
        }
        let nth = |i: usize| order.as_ref().map_or(i, |o| o[i] as usize);
        let lens_base = base + 2 * len as usize;
        for i in 0..len as usize {
            let k = nth(i);
            let child_addr = self.word(base + 2 * k)?;
            let p = self.word(base + 2 * k + 1)?;
            let pos = unpack_pos(p);
            let child_origin = self.place(base + 2 * k + 1, pos, origin, step)?;
            let child_len = self.word(lens_base + k)?;
            self.sums.pointers ^= fnv1a_u32(child_addr);
            self.sums.positions ^= fnv1a_u32(p);
            self.sums.lengths ^= fnv1a_u32(child_len);
            let child = self.block(child_addr, child_len, level - 1, child_origin)?;
            self.visit.child(pos, child);
        }
        Ok(self.visit.node(level, len))
    }

    /// Visits the leaf entries `ks` of the blockarray at `base`, whose
    /// word pairs are `pairs`. Returns their value and position sums.
    fn leaf_entries(
        &mut self,
        base: usize,
        pairs: &[u32],
        origin: (u64, u64),
        ks: impl Iterator<Item = usize>,
    ) -> Result<(u64, u64), ImageError> {
        let (mut values, mut positions) = (0, 0);
        let mut check = self.positions && self.position_error.is_none();
        let bounds = self.bounds();
        for k in ks {
            let (bits, p) = (pairs[2 * k], pairs[2 * k + 1]);
            values ^= fnv1a_u32(bits);
            positions ^= fnv1a_u32(p);
            let pos = unpack_pos(p);
            let at = if check || V::COORDINATES {
                (
                    origin.0.saturating_add(u64::from(pos.0)),
                    origin.1.saturating_add(u64::from(pos.1)),
                )
            } else {
                origin
            };
            if check && !fits(pos, at, bounds) {
                self.misplaced(base + 2 * k + 1, pos, at)?;
                check = false;
            }
            self.visit.entry((base + 2 * k) as u32, pos, at, bits);
        }
        Ok((values, positions))
    }

    /// An ordered walk's visiting order of the blockarray at `base`:
    /// entry indices stably sorted by position.
    fn order(&self, base: usize, len: usize) -> Result<Option<Vec<u32>>, ImageError> {
        if !self.ordered {
            return Ok(None);
        }
        let mut keys = Vec::with_capacity(len);
        for k in 0..len {
            keys.push((self.word(base + 2 * k + 1)? & 0xffff, k as u32));
        }
        keys.sort_by_key(|&(pos, _)| pos);
        Ok(Some(keys.into_iter().map(|(_, k)| k).collect()))
    }

    /// Where the entry at `pos` of the block at `origin` lands in the
    /// matrix (each position spans `step` rows and columns), checked
    /// when positions are. Saturating, so a corrupt deep hierarchy lands
    /// out of shape instead of overflowing.
    fn place(
        &mut self,
        addr: usize,
        pos: (u8, u8),
        origin: (u64, u64),
        step: u64,
    ) -> Result<(u64, u64), ImageError> {
        let at = (
            origin
                .0
                .saturating_add(u64::from(pos.0).saturating_mul(step)),
            origin
                .1
                .saturating_add(u64::from(pos.1).saturating_mul(step)),
        );
        if self.positions && self.position_error.is_none() && !fits(pos, at, self.bounds()) {
            self.misplaced(addr, pos, at)?;
        }
        Ok(at)
    }

    /// The bounds a checked position keeps ([`fits`]).
    fn bounds(&self) -> (u32, u64, u64) {
        let root = &self.image.root;
        (root.s.min(256), u64::from(root.rows), u64::from(root.cols))
    }

    /// The error of the position word at `addr` that places its entry at
    /// `at` outside the block or the declared shape: it fails the walk,
    /// or is recorded and the walk goes on when errors are deferred.
    #[cold]
    fn misplaced(
        &mut self,
        addr: usize,
        (row, col): (u8, u8),
        at: (u64, u64),
    ) -> Result<(), ImageError> {
        let RootDesc { rows, cols, s, .. } = self.image.root;
        let addr = addr.min(u32::MAX as usize) as u32;
        let err = if s < 256 && (u32::from(row) >= s || u32::from(col) >= s) {
            ImageError::BadPosition { addr, row, col, s }
        } else {
            debug_assert!(at.0 >= u64::from(rows) || at.1 >= u64::from(cols));
            ImageError::OutOfShape { addr, rows, cols }
        };
        if !self.defer {
            return Err(err);
        }
        self.position_error = Some(err);
        Ok(())
    }
}

/// Whether an entry at in-block `pos`, landing at matrix coordinates
/// `at`, keeps `(s, rows, cols)`: each in-block coordinate below the
/// section size (any `u8` when `s` is 256) and the entry inside the
/// declared rows and columns.
fn fits((row, col): (u8, u8), at: (u64, u64), (s, rows, cols): (u32, u64, u64)) -> bool {
    u32::from(row) < s && u32::from(col) < s && at.0 < rows && at.1 < cols
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build;
    use stm_sparse::{gen, Coo};

    #[test]
    fn pos_packing_round_trip() {
        for (r, c) in [(0u8, 0u8), (255, 255), (7, 63), (63, 7)] {
            assert_eq!(unpack_pos(pack_pos(r, c)), (r, c));
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let coo = gen::random::uniform(120, 90, 500, 11);
        let h = build::from_coo(&coo, 8).unwrap();
        let img = HismImage::encode(&h);
        let back = img.decode().unwrap();
        back.validate().unwrap();
        assert_eq!(build::to_coo(&back), build::to_coo(&h));
    }

    #[test]
    fn image_size_accounting() {
        // 3 leaf entries in one block (s=8, 5x5 → 1 level): 6 words.
        let coo = Coo::from_triplets(5, 5, vec![(0, 0, 1.0), (1, 2, 2.0), (4, 4, 3.0)]).unwrap();
        let h = build::from_coo(&coo, 8).unwrap();
        let img = HismImage::encode(&h);
        assert_eq!(img.words.len(), 6);
        assert_eq!(
            img.root,
            RootDesc {
                addr: 0,
                len: 3,
                levels: 1,
                rows: 5,
                cols: 5,
                s: 8
            }
        );
        assert!(img.pointer_sites.is_empty());
    }

    #[test]
    fn two_level_image_has_lengths_vectors() {
        // s=4, 8x8 → 2 levels; two leaves.
        let coo = Coo::from_triplets(8, 8, vec![(0, 0, 1.0), (7, 7, 2.0)]).unwrap();
        let h = build::from_coo(&coo, 4).unwrap();
        let img = HismImage::encode(&h);
        // leaves: 2 + 2 words; root: 2 entries * 2 + 2 lengths = 6 words.
        assert_eq!(img.words.len(), 10);
        assert_eq!(img.pointer_sites.len(), 2);
        // Lengths vector of the root holds 1, 1.
        let root_base = img.root.addr as usize;
        assert_eq!(&img.words[root_base + 4..root_base + 6], &[1, 1]);
    }

    #[test]
    fn pointers_are_backwards() {
        let coo = gen::rmat::rmat(7, 400, gen::rmat::RmatProbs::default(), 5);
        let h = build::from_coo(&coo, 8).unwrap();
        let img = HismImage::encode(&h);
        for &site in &img.pointer_sites {
            assert!(img.words[site as usize] < site);
        }
    }

    #[test]
    fn relocation_shifts_pointers_and_root() {
        let coo = Coo::from_triplets(8, 8, vec![(0, 0, 1.0), (7, 7, 2.0)]).unwrap();
        let h = build::from_coo(&coo, 4).unwrap();
        let mut img = HismImage::encode(&h);
        let before: Vec<u32> = img
            .pointer_sites
            .iter()
            .map(|&s| img.words[s as usize])
            .collect();
        img.relocate(1000);
        let after: Vec<u32> = img
            .pointer_sites
            .iter()
            .map(|&s| img.words[s as usize])
            .collect();
        for (b, a) in before.iter().zip(&after) {
            assert_eq!(b + 1000, *a);
        }
        assert_eq!(img.root.addr, 1000 + 4); // two 2-word leaves precede root
    }

    #[test]
    fn try_decode_rejects_out_of_bounds_pointer() {
        let coo = Coo::from_triplets(8, 8, vec![(0, 0, 1.0), (7, 7, 2.0)]).unwrap();
        let h = build::from_coo(&coo, 4).unwrap();
        let mut img = HismImage::encode(&h);
        let site = img.pointer_sites[0] as usize;
        img.words[site] = 1_000_000; // dangling child pointer
        assert!(img.decode().is_err());
    }

    #[test]
    fn try_decode_rejects_runaway_length() {
        let coo = Coo::from_triplets(8, 8, vec![(0, 0, 1.0), (7, 7, 2.0)]).unwrap();
        let h = build::from_coo(&coo, 4).unwrap();
        let mut img = HismImage::encode(&h);
        // Corrupt the root lengths vector with an absurd child length.
        let root_base = img.root.addr as usize;
        img.words[root_base + 2 * img.root.len as usize] = u32::MAX;
        assert!(img.decode().is_err());
    }

    #[test]
    fn try_decode_rejects_bad_position() {
        let coo = Coo::from_triplets(4, 4, vec![(0, 0, 1.0)]).unwrap();
        let h = build::from_coo(&coo, 4).unwrap();
        let mut img = HismImage::encode(&h);
        img.words[1] = pack_pos(200, 200); // outside an s=4 block
        assert!(img.decode().is_err());
    }

    #[test]
    fn a_sealed_image_reports_its_sums_before_its_positions() {
        // A position moved outside its block changes the positions sum:
        // sealed, that is the error; unsealed, the position itself is.
        let coo = Coo::from_triplets(4, 4, vec![(0, 0, 1.0), (3, 3, 2.0)]).unwrap();
        let mut img = HismImage::encode(&build::from_coo(&coo, 4).unwrap());
        img.words[1] = pack_pos(200, 200);
        assert!(matches!(
            img.decode(),
            Err(ImageError::Integrity {
                section: "positions",
                ..
            })
        ));
        img.integrity = None;
        assert_eq!(
            img.decode(),
            Err(ImageError::BadPosition {
                addr: 1,
                row: 200,
                col: 200,
                s: 4
            })
        );
    }

    #[test]
    fn try_decode_rejects_zero_levels() {
        let coo = Coo::from_triplets(4, 4, vec![(0, 0, 1.0)]).unwrap();
        let h = build::from_coo(&coo, 4).unwrap();
        let mut img = HismImage::encode(&h);
        img.root.levels = 0;
        assert!(img.decode().is_err());
    }

    #[test]
    fn encode_seals_a_verifiable_header() {
        let coo = gen::random::uniform(120, 90, 500, 11);
        let h = build::from_coo(&coo, 8).unwrap();
        let img = HismImage::encode(&h);
        let header = img.integrity.expect("encode must seal");
        assert_eq!(header.version, INTEGRITY_VERSION);
        assert_eq!(img.verify_integrity(), Ok(true));
    }

    #[test]
    fn headerless_images_still_load() {
        let coo = gen::random::uniform(50, 50, 200, 7);
        let h = build::from_coo(&coo, 8).unwrap();
        let mut img = HismImage::encode(&h);
        img.integrity = None; // a legacy image
        assert_eq!(img.verify_integrity(), Ok(false));
        assert_eq!(build::to_coo(&img.decode().unwrap()), build::to_coo(&h));
    }

    #[test]
    fn sealed_sums_survive_blockarray_permutation() {
        // The STM permutes blockarrays in place; a permuted-but-intact
        // image must still verify (sums are order-independent per class).
        let coo = Coo::from_triplets(5, 5, vec![(0, 0, 1.0), (1, 2, 2.0), (4, 4, 3.0)]).unwrap();
        let h = build::from_coo(&coo, 8).unwrap();
        let mut img = HismImage::encode(&h);
        img.words.swap(0, 2);
        img.words.swap(1, 3);
        assert_eq!(img.verify_integrity(), Ok(true));
    }

    #[test]
    fn a_value_bit_flip_is_caught_at_decode_by_the_checksum() {
        // A flipped value bit changes no structure — only the checksum
        // can see it.
        let coo = gen::random::uniform(50, 50, 200, 7);
        let h = build::from_coo(&coo, 8).unwrap();
        let mut img = HismImage::encode(&h);
        let site = img.value_sites().unwrap()[3] as usize;
        img.words[site] ^= 1 << 13;
        match img.decode() {
            Err(ImageError::Integrity { section, .. }) => assert_eq!(section, "values"),
            other => panic!("expected integrity error, got {other:?}"),
        }
        assert!(matches!(
            img.verify_integrity(),
            Err(ImageError::Integrity { .. })
        ));
    }

    #[test]
    fn value_sites_are_exactly_the_leaf_payload_words() {
        let coo = Coo::from_triplets(8, 8, vec![(0, 0, 1.0), (7, 7, 2.0)]).unwrap();
        let h = build::from_coo(&coo, 4).unwrap();
        let img = HismImage::encode(&h);
        // Two 1-entry leaves at words 0..2 and 2..4: payloads at 0 and 2.
        assert_eq!(img.value_sites().unwrap(), vec![0, 2]);
    }

    #[test]
    fn relocation_drops_the_unverifiable_header() {
        let coo = Coo::from_triplets(8, 8, vec![(0, 0, 1.0), (7, 7, 2.0)]).unwrap();
        let h = build::from_coo(&coo, 4).unwrap();
        let mut img = HismImage::encode(&h);
        assert!(img.integrity.is_some());
        img.relocate(1000);
        assert!(img.integrity.is_none());
    }

    /// [`HismImage::canonical_digest`] without its fallback through
    /// decode: `None` when the walk fails or the fallback would be taken.
    fn one_walk_digest(img: &HismImage) -> Option<u64> {
        let mut flat = Flatten {
            rows: img.root.rows,
            cols: img.root.cols,
            entries: Vec::new(),
            in_shape: true,
        };
        img.walk(&mut flat).ok()?;
        flat.digest()
    }

    #[test]
    fn built_images_digest_in_one_walk() {
        let cases = [
            (gen::random::uniform(120, 90, 500, 11), 8),
            (
                gen::rmat::rmat(7, 400, gen::rmat::RmatProbs::default(), 5),
                4,
            ),
            (gen::random::uniform(30, 70, 90, 2).transpose(), 2),
            (Coo::new(0, 0), 4),
            (Coo::new(4, 9), 4),
        ];
        for (coo, s) in cases {
            let want = stm_sparse::format::canonical_digest(&coo);
            let img = build::image_from_coo(&coo, s).unwrap();
            assert_eq!(one_walk_digest(&img), Some(want), "{coo:?}");
            assert_eq!(img.canonical_digest(), Some(want), "{coo:?}");
        }
        // Far more rows than entries: the digest through decode.
        let tall = Coo::from_triplets(1000, 9, vec![(900, 1, 2.0), (7, 8, 1.0)]).unwrap();
        let img = build::image_from_coo(&tall, 8).unwrap();
        assert_eq!(one_walk_digest(&img), None);
        let want = stm_sparse::format::canonical_digest(&tall);
        assert_eq!(img.canonical_digest(), Some(want));
    }

    #[test]
    fn explicit_zeros_are_skipped_and_disordered_rows_fall_back() {
        let leaf = |entries: &[(u8, u8, f32)]| {
            let words = entries
                .iter()
                .flat_map(|&(r, c, v)| [v.to_bits(), pack_pos(r, c)])
                .collect();
            let root = RootDesc {
                addr: 0,
                len: entries.len() as u32,
                levels: 1,
                rows: 4,
                cols: 4,
                s: 4,
            };
            HismImage {
                words,
                root,
                pointer_sites: Vec::new(),
                integrity: None,
            }
        };
        let in_order = leaf(&[(0, 1, 1.0), (0, 3, 2.0), (2, 0, 3.0)]);
        let swapped = leaf(&[(0, 3, 2.0), (0, 1, 1.0), (2, 0, 3.0)]);
        let twice = leaf(&[(0, 1, 1.0), (2, 0, 3.0), (0, 1, 0.5)]);
        let want = in_order.canonical_digest();
        assert!(want.is_some());
        assert_eq!(one_walk_digest(&in_order), want);
        let zeros = leaf(&[
            (0, 0, 0.0),
            (0, 1, 1.0),
            (0, 3, 2.0),
            (1, 1, -0.0),
            (2, 0, 3.0),
        ]);
        assert_eq!(one_walk_digest(&zeros), want);
        assert_eq!(one_walk_digest(&swapped), None);
        assert_eq!(swapped.canonical_digest(), want);
        assert_eq!(one_walk_digest(&twice), None);
        let summed = leaf(&[(0, 1, 1.5), (2, 0, 3.0)]);
        assert_eq!(twice.canonical_digest(), summed.canonical_digest());
    }

    #[test]
    fn decode_tolerates_permuted_blockarrays() {
        // Swap two entries of a leaf blockarray (with their pos words):
        // decode must still recover the same matrix.
        let coo = Coo::from_triplets(5, 5, vec![(0, 0, 1.0), (1, 2, 2.0), (4, 4, 3.0)]).unwrap();
        let h = build::from_coo(&coo, 8).unwrap();
        let mut img = HismImage::encode(&h);
        img.words.swap(0, 2);
        img.words.swap(1, 3);
        let back = img.decode().unwrap();
        assert_eq!(build::to_coo(&back), build::to_coo(&h));
    }
}
