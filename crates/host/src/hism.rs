//! Host-native HiSM kernels: in-place hierarchical transposition and
//! SpMV over the flat word image, bit-identical to the simulated
//! `transpose_hism` / `spmv_hism`.
//!
//! Both kernels walk the same untrusted image the simulator walks, with
//! the same defenses: an entry budget of `words/2 + 1` against runaway
//! length words, an address-space check against retargeted pointers,
//! and bounds checks standing in for the simulator's guarded memory.
//! Every defect is a typed [`HostError`], never a panic.
//!
//! The transposition is in place and uses the STM's own method: each
//! blockarray's entries are set into an s×s bit plane at their
//! positions, and a column-major drain of the set bits writes them back
//! at their *swapped* coordinates — row-major order of the transposed
//! block — with the lengths vector of non-leaf blockarrays permuted
//! identically; children are then visited through the rewritten pointer
//! words. The SpMV accumulates leaf products into `y` strictly in
//! hierarchy-walk order, left to right within each leaf blockarray,
//! exactly like the simulator's sequential scatter-accumulate.

use crate::HostError;
use std::cell::Cell;
use stm_hism::image::{
    pack_pos, unpack_pos, HismImage, IntegrityHeader, RootDesc, SectionSums, INTEGRITY_VERSION,
    WORDS_PER_ENTRY,
};
use stm_sparse::hash::fnv1a_u32;
use stm_sparse::Value;

const WPE: usize = WORDS_PER_ENTRY as usize;

/// The root blockarray's walk parameters `(addr, len, level)`; an
/// image claiming zero levels is corrupt.
fn root_walk(image: &HismImage) -> Result<(u32, usize, u32), HostError> {
    match image.root.levels.checked_sub(1) {
        Some(level) => Ok((image.root.addr, image.root.len as usize, level)),
        None => Err(HostError::Corrupt("image with zero levels".into())),
    }
}

/// Guards shared by both walks, in the simulator's order: entry budget
/// first (a corrupt length can claim billions of entries), then the
/// u32 address-space check, then the image footprint itself.
fn check_block(
    words_len: usize,
    addr: u32,
    len: usize,
    footprint_words: usize,
    budget: &mut usize,
) -> Result<(), HostError> {
    if *budget < len {
        return Err(HostError::Corrupt(format!(
            "runaway blockarray of {len} entries at word {addr}"
        )));
    }
    *budget -= len;
    if addr as u64 + (WPE as u64 + 1) * len as u64 > u32::MAX as u64 {
        return Err(HostError::Corrupt(format!(
            "blockarray at word {addr} ({len} entries) exceeds the address space"
        )));
    }
    if addr as usize + footprint_words > words_len {
        return Err(HostError::Corrupt(format!(
            "blockarray at word {addr} ({len} entries) outside the {words_len}-word image"
        )));
    }
    Ok(())
}

/// Host HiSM transposition. Returns the transposed image and the matrix
/// nnz (the leaf entries its budgeted walk visited). Scalar on every
/// ISA: the per-blockarray permutation is bit-plane bookkeeping with
/// nothing element-wise to vectorize. `section_size` must match the
/// image's `s` (the same configuration contract the simulated kernel
/// enforces).
pub fn transpose_hism(
    image: &HismImage,
    section_size: usize,
) -> Result<(HismImage, usize), HostError> {
    if image.root.s as usize != section_size {
        return Err(HostError::Config(format!(
            "image section size {} != configured section size {section_size}",
            image.root.s
        )));
    }
    if !(2..=256).contains(&section_size) {
        return Err(HostError::Config(format!(
            "section size {section_size} outside the supported 2..=256 range"
        )));
    }
    let (addr, len, level) = root_walk(image)?;
    // Every word a blockarray claims is written by the walk; the rest are
    // copied from the input after it, so the output costs one pass.
    let mut words = vec![0; image.words.len()];
    // A plane left behind by an earlier call on this thread is reused:
    // its source table costs more to allocate than a small matrix costs
    // to transpose. A call that panics never returns its plane.
    let plane = PLANE
        .with(Cell::take)
        .filter(|p| p.s == section_size)
        .unwrap_or_else(|| BitPlane::new(section_size));
    let mut t = Transposer {
        input: &image.words,
        plane,
        claimed: vec![0; words.len().div_ceil(64)],
        overlap: false,
        sums: SectionSums::default(),
        budget: words.len() / 2 + 1,
        nnz: 0,
    };
    let walked = t.block(&mut words, addr, len, level);
    debug_assert!(t.plane.touched.iter().all(|&w| w == 0));
    if walked.is_ok() {
        t.copy_unclaimed(&mut words);
    }
    PLANE.with(|p| p.set(Some(t.plane)));
    walked?;
    let diverged = crate::diverge_requested("transpose_hism");
    if diverged {
        diverge(&mut words, &image.root);
    }
    let mut out = HismImage {
        words,
        root: RootDesc {
            rows: image.root.cols,
            cols: image.root.rows,
            ..image.root
        },
        pointer_sites: image.pointer_sites.clone(),
        integrity: None,
    };
    // Transposition rewrites position words, so the input's sums no
    // longer apply. The write pass summed every word it wrote, which are
    // exactly the words a seal walks — unless blockarrays overlapped
    // (only a corrupt image does that) or the divergence hook rewrote a
    // word afterwards; then seal by walking the output.
    if t.overlap || diverged {
        out.seal_integrity();
    } else {
        out.integrity = Some(IntegrityHeader {
            version: INTEGRITY_VERSION,
            sums: t.sums,
        });
        debug_assert_eq!(out.integrity, out.compute_integrity().ok());
    }
    Ok((out, t.nnz))
}

thread_local! {
    /// The calling thread's idle [`BitPlane`], if any.
    static PLANE: Cell<Option<BitPlane>> = const { Cell::new(None) };
}

/// The host's s×s STM memory (paper §III), holding one blockarray at a
/// time: an indicator bit per in-block position, stored column by column
/// (one `u64` per 64 rows), the source entry of every set position, and
/// one bit per touched column so the drain visits — and clears — only
/// those columns. Deliberately separate from the simulator's own
/// indicator plane: the host leg judges the simulator in the vote.
struct BitPlane {
    s: usize,
    /// log2 of a column's stride in the plane: the smallest of 6, 7 or 8
    /// with `s <= 1 << col_shift`, so position `(r, c)` has the index
    /// `p = c << col_shift | r` and every column starts a new `u64`.
    col_shift: u32,
    /// Indicator bits, bit `p % 64` of word `p / 64`.
    bits: Vec<u64>,
    /// Touched columns, bit `c % 64` of word `c / 64`.
    touched: [u64; 4],
    /// Source entry index at every position; read only where the
    /// indicator bit is set.
    src: Vec<u32>,
}

impl BitPlane {
    fn new(s: usize) -> Self {
        let col_shift = s.next_power_of_two().trailing_zeros().max(6);
        BitPlane {
            s,
            col_shift,
            bits: vec![0; (s << col_shift) / 64],
            touched: [0; 4],
            src: vec![0; s << col_shift],
        }
    }

    /// Stores every `[payload, pos]` entry of a blockarray at its
    /// position, remembering its index. Fails with the first position
    /// outside the block or already taken, leaving the plane empty.
    fn fill(&mut self, entries: &[u32]) -> Result<(), u32> {
        // The first 64 columns' touched bits stay in a register while
        // filling: kept in memory, each entry would wait on the previous
        // entry's store.
        let mut low = 0u64;
        for (k, entry) in entries.chunks_exact(WPE).enumerate() {
            let (r, c) = unpack_pos(entry[1]);
            let (r, c) = (r as usize, c as usize);
            let p = c << self.col_shift | r;
            let bit = 1u64 << (p % 64);
            if r >= self.s || c >= self.s || self.bits[p / 64] & bit != 0 {
                self.touched[0] |= low;
                self.drain(|_, _, _| {});
                return Err(entry[1]);
            }
            self.bits[p / 64] |= bit;
            self.src[p] = k as u32;
            if c < 64 {
                low |= 1 << c;
            } else {
                self.touched[c / 64] |= 1 << (c % 64);
            }
        }
        self.touched[0] |= low;
        Ok(())
    }

    /// Visits every stored entry as `(r, c, k)` in the STM's drain order
    /// — column by column, rows ascending — leaving the plane empty.
    #[inline]
    fn drain(&mut self, mut visit: impl FnMut(usize, usize, u32)) {
        let col_words = 1 << (self.col_shift - 6);
        let rows_mask = (1 << self.col_shift) - 1;
        for t in 0..self.s.div_ceil(64) {
            let mut cols = std::mem::take(&mut self.touched[t]);
            while cols != 0 {
                let c = 64 * t + cols.trailing_zeros() as usize;
                cols &= cols - 1;
                let first = c * col_words;
                for w in first..first + col_words {
                    let mut rows = std::mem::take(&mut self.bits[w]);
                    while rows != 0 {
                        let p = 64 * w + rows.trailing_zeros() as usize;
                        rows &= rows - 1;
                        visit(p & rows_mask, c, self.src[p]);
                    }
                }
            }
        }
    }
}

/// One run of the in-place transposition: the untouched input image,
/// the bit plane, and what the walk has checked and summed so far.
struct Transposer<'a> {
    /// The input image's words, read wherever no blockarray has claimed
    /// the output's yet.
    input: &'a [u32],
    plane: BitPlane,
    /// One bit per image word: set once a blockarray's footprint has been
    /// rewritten, so a second claim on a word reveals overlapping
    /// blockarrays.
    claimed: Vec<u64>,
    overlap: bool,
    /// Section sums over every word the write pass produced.
    sums: SectionSums,
    /// Entries the walk may still visit: `words/2 + 1`, the simulator's
    /// guard against runaway length words.
    budget: usize,
    /// Leaf entries visited: the matrix nnz.
    nnz: usize,
}

impl Transposer<'_> {
    /// Whether word `i` is claimed.
    fn claimed(&self, i: usize) -> bool {
        self.claimed[i / 64] >> (i % 64) & 1 != 0
    }

    /// Claims image words `start..start + len` for the blockarray being
    /// rewritten. Returns them as they stood before when an earlier
    /// blockarray had claimed, and so rewritten, some of them — only a
    /// corrupt image overlaps; otherwise they still hold the input's.
    fn claim(&mut self, words: &[u32], start: usize, len: usize) -> Option<Vec<u32>> {
        let overlapped = claim_masks(start, len).any(|(w, m)| self.claimed[w] & m != 0);
        let before = overlapped.then(|| {
            (start..start + len)
                .map(|i| {
                    if self.claimed(i) {
                        words[i]
                    } else {
                        self.input[i]
                    }
                })
                .collect()
        });
        for (w, m) in claim_masks(start, len) {
            self.claimed[w] |= m;
        }
        self.overlap |= overlapped;
        before
    }

    /// Gives every word no blockarray claimed its input value.
    fn copy_unclaimed(&self, words: &mut [u32]) {
        for (w, &claimed) in self.claimed.iter().enumerate() {
            if claimed != !0 {
                for i in 64 * w..(64 * w + 64).min(words.len()) {
                    if claimed >> (i % 64) & 1 == 0 {
                        words[i] = self.input[i];
                    }
                }
            }
        }
    }

    /// One blockarray (Fig. 6's `transpose_block`, minus the cycle
    /// accounting): every entry goes into the bit plane at its position,
    /// and the column-major drain writes them back at their swapped
    /// positions — row-major order of Aᵀ's block. Children are then
    /// visited through the rewritten pointer/length pairs.
    fn block(
        &mut self,
        words: &mut [u32],
        addr: u32,
        len: usize,
        level: u32,
    ) -> Result<(), HostError> {
        if len == 0 {
            return Ok(());
        }
        let footprint = if level > 0 {
            (WPE + 1) * len
        } else {
            WPE * len
        };
        check_block(words.len(), addr, len, footprint, &mut self.budget)?;
        let base = addr as usize;
        let lens_at = WPE * len;
        let before = self.claim(words, base, footprint);
        let Transposer {
            input, plane, sums, ..
        } = self;
        let src = before.as_deref().unwrap_or(&input[base..base + footprint]);

        // Out-of-block positions and collisions are exactly what the
        // coprocessor's v_stcr rejects.
        if let Err(pos) = plane.fill(&src[..lens_at]) {
            return Err(position_fault(pos, plane.s, addr));
        }
        // Output slot `j` takes the `j`-th drained entry, transposed. The
        // sums gather in locals, which stay in registers.
        let out = &mut words[base..base + footprint];
        let mut j = 0;
        let (mut payloads, mut positions, mut lengths) = (0, 0, 0);
        plane.drain(|r, c, k| {
            let k = k as usize;
            let payload = src[WPE * k];
            let pos = pack_pos(c as u8, r as u8);
            out[WPE * j] = payload;
            out[WPE * j + 1] = pos;
            payloads ^= fnv1a_u32(payload);
            positions ^= fnv1a_u32(pos);
            if level > 0 {
                let clen = src[lens_at + k];
                out[lens_at + j] = clen;
                lengths ^= fnv1a_u32(clen);
            }
            j += 1;
        });
        sums.positions ^= positions;
        sums.lengths ^= lengths;
        if level > 0 {
            sums.pointers ^= payloads;
        } else {
            sums.values ^= payloads;
        }

        if level == 0 {
            self.nnz += len;
            return Ok(());
        }
        for k in 0..len {
            let ptr = words[base + WPE * k];
            let clen = words[base + lens_at + k] as usize;
            self.block(words, ptr, clen, level - 1)?;
        }
        Ok(())
    }
}

/// The `(word, mask)` pairs of the claimed bitset covering image words
/// `start..start + len`.
fn claim_masks(start: usize, len: usize) -> impl Iterator<Item = (usize, u64)> {
    let end = start + len;
    let words = if len == 0 {
        0..0
    } else {
        start / 64..end.div_ceil(64)
    };
    words.map(move |w| {
        let lo = start.max(64 * w) - 64 * w;
        let hi = end.min(64 * w + 64) - 64 * w;
        (w, (!0u64 >> (64 - (hi - lo))) << lo)
    })
}

/// The error for a position `v_stcr` rejects: outside the s×s block, or
/// already taken in the blockarray at `addr`.
#[cold]
fn position_fault(pos: u32, s: usize, addr: u32) -> HostError {
    let (r, c) = unpack_pos(pos);
    let fault = if (r as usize) < s && (c as usize) < s {
        "duplicated"
    } else {
        "outside the block"
    };
    HostError::Corrupt(format!(
        "v_stcr position ({r},{c}) {fault} in the {s}x{s} blockarray at word {addr}"
    ))
}

/// CI self-test divergence: flip the sign bit of the first leaf payload.
/// The hierarchy was just validated, so the unwraps cannot fire; empty
/// matrices have no leaf to perturb and stay unchanged.
fn diverge(words: &mut [u32], root: &RootDesc) {
    fn first_leaf(words: &[u32], addr: u32, len: usize, level: u32) -> Option<usize> {
        if len == 0 {
            return None;
        }
        if level == 0 {
            return Some(addr as usize);
        }
        for k in 0..len {
            let ptr = words[addr as usize + WPE * k];
            let clen = words[addr as usize + WPE * len + k] as usize;
            if let Some(w) = first_leaf(words, ptr, clen, level - 1) {
                return Some(w);
            }
        }
        None
    }
    if let Some(w) = first_leaf(words, root.addr, root.len as usize, root.levels - 1) {
        words[w] ^= 0x8000_0000;
    }
}

/// Host `y = A * x` over a HiSM image, bit-identical to the simulated
/// `spmv_hism`: leaf products accumulate into `y` sequentially in
/// hierarchy-walk order (the simulated scatter-accumulate resolves row
/// collisions left to right), and `y` has the simulator's padded length
/// `rows.max(1)`. Returns `y` and the matrix nnz (the leaf count of
/// the validating walk).
pub fn spmv_hism(
    image: &HismImage,
    x: &[Value],
    section_size: usize,
) -> Result<(Vec<Value>, usize), HostError> {
    if x.len() != image.root.cols as usize {
        return Err(HostError::Config(format!(
            "x length {} != matrix columns {}",
            x.len(),
            image.root.cols
        )));
    }
    let s = image.root.s as usize;
    if section_size != s {
        return Err(HostError::Config(format!(
            "configured section size {section_size} != image section size {s}"
        )));
    }
    let (addr, len, level) = root_walk(image)?;
    let padded = (image.root.rows as usize).max(1);
    let mut y = vec![0.0f32; padded];
    let mut budget = image.words.len() / 2 + 1;
    let nnz = walk(
        &image.words,
        addr,
        len,
        level,
        (0, 0),
        x,
        &mut y,
        s,
        &mut budget,
    )?;
    if crate::diverge_requested("spmv_hism") {
        if let Some(v) = y.first_mut() {
            *v = f32::from_bits(v.to_bits() ^ 0x8000_0000);
        }
    }
    Ok((y, nnz))
}

#[allow(clippy::too_many_arguments)]
fn walk(
    words: &[u32],
    addr: u32,
    len: usize,
    level: u32,
    origin: (usize, usize),
    x: &[Value],
    y: &mut [Value],
    s: usize,
    budget: &mut usize,
) -> Result<usize, HostError> {
    if len == 0 {
        return Ok(0);
    }
    let footprint = if level > 0 {
        (WPE + 1) * len
    } else {
        WPE * len
    };
    check_block(words.len(), addr, len, footprint, budget)?;
    let base = addr as usize;
    if level == 0 {
        for k in 0..len {
            let w = base + WPE * k;
            let pos = words[w + 1];
            // The simulated unpack is v_srl_imm/v_and_imm: the row
            // shift is NOT masked, so garbage high bits become a
            // huge row index — an OOB fault there, a typed error here.
            let row = origin.0 + (pos >> 8) as usize;
            let col = origin.1 + (pos & 0xff) as usize;
            if col >= x.len() {
                return Err(HostError::Corrupt(format!(
                    "x gather index {col} outside 0..{}",
                    x.len()
                )));
            }
            if row >= y.len() {
                return Err(HostError::Corrupt(format!(
                    "y scatter index {row} outside 0..{}",
                    y.len()
                )));
            }
            y[row] += f32::from_bits(words[w]) * x[col];
        }
        return Ok(len);
    }
    let step = s.pow(level);
    let mut nnz = 0;
    for k in 0..len {
        let ptr = words[base + WPE * k];
        let pos = words[base + WPE * k + 1];
        let clen = words[base + WPE * len + k] as usize;
        let (br, bc) = unpack_pos(pos);
        let child_origin = (origin.0 + br as usize * step, origin.1 + bc as usize * step);
        nnz += walk(words, ptr, clen, level - 1, child_origin, x, y, s, budget)?;
    }
    Ok(nnz)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_hism::{build, transpose as href};
    use stm_sparse::{gen, Coo, Csr};

    fn image_of(coo: &Coo, s: usize) -> HismImage {
        HismImage::encode(&build::from_coo(coo, s).unwrap())
    }

    #[test]
    fn transpose_matches_software_reference_word_for_word() {
        for (coo, s) in [
            (gen::random::uniform(50, 50, 300, 17), 8),
            (gen::blocks::block_dense(64, 8, 5, 0.6, 31), 8),
            (gen::random::uniform(200, 70, 400, 23), 4),
            (gen::structured::grid2d_5pt(20, 20), 64),
            (Coo::new(8, 8), 8),
        ] {
            let img = image_of(&coo, s);
            let (out, _) = transpose_hism(&img, s).unwrap();
            let expected = HismImage::encode(&href::transpose(&build::from_coo(&coo, s).unwrap()));
            assert_eq!(out.words, expected.words);
            assert_eq!(out.root, expected.root);
        }
    }

    /// The software reference's image of Aᵀ.
    fn reference(coo: &Coo, s: usize) -> HismImage {
        HismImage::encode(&href::transpose(&build::from_coo(coo, s).unwrap()))
    }

    /// A `rows x cols` matrix holding a full s×s block at `(r0, c0)`
    /// plus a few scattered entries, with distinct values.
    fn full_block(rows: usize, cols: usize, s: usize, (r0, c0): (usize, usize)) -> Coo {
        let mut coo = Coo::new(rows, cols);
        for r in 0..s {
            for c in 0..s {
                coo.push(r0 + r, c0 + c, (r * s + c + 1) as f32);
            }
        }
        for k in 0..rows.min(cols) / 3 {
            let (r, c) = (3 * k, cols - 1 - 3 * k);
            if !(r0..r0 + s).contains(&r) || !(c0..c0 + s).contains(&c) {
                coo.push(r, c, -(k as f32) - 0.5);
            }
        }
        coo.canonicalize();
        coo
    }

    #[test]
    fn bit_plane_matches_the_reference_across_section_sizes() {
        // Non-multiples of 64 (2, 5, 65), multi-word columns (65, 128,
        // 256), and 256, where u8 coordinates cover the whole block.
        for s in [2usize, 5, 65, 128, 256] {
            let n = 3 * s + 7;
            let cases = [
                gen::random::uniform(n, n - 3, 4 * n, s as u64),
                gen::random::power_law(n, n, 6.0, 1.1, s as u64 + 1),
                gen::structured::diagonal(n),
                full_block(s, s, s, (0, 0)),
                full_block(2 * s + 1, 2 * s, s, (s + 1, 0)),
            ];
            for coo in cases {
                let img = image_of(&coo, s);
                let (out, nnz) = transpose_hism(&img, s).unwrap();
                let want = reference(&coo, s);
                assert_eq!(nnz, coo.nnz(), "s={s}");
                assert_eq!(out.words, want.words, "s={s}");
                assert_eq!(out.root, want.root, "s={s}");
                assert_eq!(out.integrity, want.integrity, "s={s}");
            }
        }
    }

    #[test]
    fn out_of_order_blockarrays_still_drain_column_major() {
        // Reversing a leaf's entries (a full block, one row-major run,
        // and a column-major diagonal) must not change the drain order,
        // and so not the output.
        for (coo, s) in [
            (full_block(8, 8, 8, (0, 0)), 8),
            (full_block(65, 65, 65, (0, 0)), 65),
            (gen::blocks::block_dense(8, 8, 1, 0.9, 4), 8),
            (gen::structured::diagonal(48), 64),
        ] {
            let mut img = image_of(&coo, s);
            assert_eq!(img.root.levels, 1);
            let a = img.root.addr as usize;
            let n = img.root.len as usize;
            let mut pairs: Vec<[u32; 2]> = img.words[a..a + WPE * n]
                .chunks_exact(WPE)
                .map(|e| [e[0], e[1]])
                .collect();
            pairs.reverse();
            img.words[a..a + WPE * n].copy_from_slice(pairs.concat().as_slice());
            let (out, _) = transpose_hism(&img, s).unwrap();
            let want = reference(&coo, s);
            assert_eq!(out.words, want.words, "s={s}");
            assert_eq!(out.integrity, want.integrity, "s={s}");
        }
    }

    #[test]
    fn duplicate_and_out_of_block_positions_fail_typed() {
        for s in [5usize, 64, 256] {
            let coo = gen::random::uniform(s, s, 3 * s, 9);
            let img = image_of(&coo, s);
            assert_eq!(img.root.levels, 1);
            let a = img.root.addr as usize;
            // The last entry repeats the first one's position.
            let mut dup = img.clone();
            let last = a + WPE * (img.root.len as usize - 1);
            dup.words[last + 1] = dup.words[a + 1];
            match transpose_hism(&dup, s) {
                Err(HostError::Corrupt(m)) => assert!(m.contains("duplicated"), "{m}"),
                other => panic!("s={s}: duplicate position accepted: {other:?}"),
            }
            // A position past the block (only expressible below s = 256).
            if s < 256 {
                let mut oob = img.clone();
                oob.words[last + 1] = pack_pos(0, s as u8);
                match transpose_hism(&oob, s) {
                    Err(HostError::Corrupt(m)) => assert!(m.contains("outside"), "{m}"),
                    other => panic!("s={s}: out-of-block position accepted: {other:?}"),
                }
            }
            // A failed blockarray leaves the thread's plane clean for the
            // next call.
            let (out, _) = transpose_hism(&img, s).unwrap();
            assert_eq!(out.words, reference(&coo, s).words, "s={s}");
        }
    }

    /// Transposes `img` the plain way: in place on a copy of its words,
    /// each blockarray re-read from those words when it is reached and
    /// stably sorted by swapped position.
    fn in_place_reference(img: &HismImage) -> Vec<u32> {
        fn block(words: &mut [u32], addr: usize, len: usize, level: u32) {
            let lens_at = addr + WPE * len;
            let mut order: Vec<usize> = (0..len).collect();
            order.sort_by_key(|&k| {
                let (r, c) = unpack_pos(words[addr + WPE * k + 1]);
                (c, r)
            });
            let entries = words[addr..lens_at].to_vec();
            let lens = if level > 0 {
                words[lens_at..lens_at + len].to_vec()
            } else {
                Vec::new()
            };
            for (j, &k) in order.iter().enumerate() {
                let (r, c) = unpack_pos(entries[WPE * k + 1]);
                words[addr + WPE * j] = entries[WPE * k];
                words[addr + WPE * j + 1] = pack_pos(c, r);
                if level > 0 {
                    words[lens_at + j] = lens[k];
                }
            }
            if level > 0 {
                for k in 0..len {
                    let (ptr, clen) = (words[addr + WPE * k], words[lens_at + k]);
                    block(words, ptr as usize, clen as usize, level - 1);
                }
            }
        }
        let mut words = img.words.clone();
        let root = &img.root;
        block(
            &mut words,
            root.addr as usize,
            root.len as usize,
            root.levels - 1,
        );
        words
    }

    #[test]
    fn overlapping_blockarrays_transpose_in_place_and_seal_by_walking() {
        // Point the root's second child at the first one's blockarray:
        // the transposition visits it twice, each time as the first
        // visit left it, so the write pass's sums would not describe the
        // output; the seal must still match it.
        let coo = gen::random::uniform(50, 50, 300, 17);
        let mut img = image_of(&coo, 8);
        let (a, n) = (img.root.addr as usize, img.root.len as usize);
        assert!(img.root.levels == 2 && n >= 2);
        img.words[a + WPE] = img.words[a];
        img.words[a + WPE * n + 1] = img.words[a + WPE * n];
        let (out, _) = transpose_hism(&img, 8).unwrap();
        assert_eq!(out.words, in_place_reference(&img));
        assert_eq!(out.integrity, out.compute_integrity().ok());
        // A child shifted by one entry into its neighbour overlaps it
        // partially.
        let mut img = image_of(&coo, 8);
        img.words[a + WPE] = img.words[a] + WPE as u32;
        let (out, _) = transpose_hism(&img, 8).unwrap();
        assert_eq!(out.words, in_place_reference(&img));
        assert_eq!(out.integrity, out.compute_integrity().ok());
    }

    #[test]
    fn words_outside_every_blockarray_are_kept() {
        // Words no blockarray claims — a trailing run here — pass through.
        let coo = gen::random::uniform(50, 50, 300, 17);
        let mut img = image_of(&coo, 8);
        img.words.extend([0xdead_beef, 7, 0]);
        let (out, _) = transpose_hism(&img, 8).unwrap();
        assert_eq!(out.words, in_place_reference(&img));
        assert_eq!(&out.words[out.words.len() - 3..], [0xdead_beef, 7, 0]);
    }

    #[test]
    fn spmv_is_close_to_csr_oracle() {
        for (coo, s) in [
            (gen::random::uniform(8, 8, 30, 3), 8),
            (gen::blocks::block_dense(64, 8, 6, 0.7, 5), 8),
            (gen::structured::grid2d_5pt(12, 12), 64),
        ] {
            let img = image_of(&coo, s);
            let x: Vec<f32> = (0..coo.cols()).map(|i| ((i % 7) as f32) - 3.0).collect();
            let (y, nnz) = spmv_hism(&img, &x, s).unwrap();
            assert_eq!(nnz, coo.nnz());
            let oracle = Csr::from_coo(&coo).spmv(&x).unwrap();
            for (a, b) in y.iter().zip(&oracle) {
                assert!((a - b).abs() < 1e-3, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn corrupt_images_fail_typed_never_panic() {
        let coo = gen::random::uniform(50, 50, 300, 17);
        let img = image_of(&coo, 8);
        let x = vec![1.0f32; 50];
        // Retarget the root out of the image.
        let mut bad = img.clone();
        bad.root.addr = u32::MAX - 2;
        assert!(matches!(
            transpose_hism(&bad, 8),
            Err(HostError::Corrupt(_))
        ));
        assert!(matches!(spmv_hism(&bad, &x, 8), Err(HostError::Corrupt(_))));
        // Runaway root length.
        let mut bad = img.clone();
        bad.root.len = u32::MAX / 4;
        assert!(matches!(
            transpose_hism(&bad, 8),
            Err(HostError::Corrupt(_))
        ));
        // Zero levels.
        let mut bad = img.clone();
        bad.root.levels = 0;
        assert!(matches!(
            transpose_hism(&bad, 8),
            Err(HostError::Corrupt(_))
        ));
        // Section-size mismatch is a configuration error.
        assert!(matches!(
            transpose_hism(&img, 16),
            Err(HostError::Config(_))
        ));
        assert!(matches!(spmv_hism(&img, &x, 16), Err(HostError::Config(_))));
    }

    #[test]
    fn double_transposition_restores_the_image() {
        let coo = gen::rmat::rmat(6, 150, gen::rmat::RmatProbs::default(), 3);
        let img = image_of(&coo, 8);
        let (once, nnz) = transpose_hism(&img, 8).unwrap();
        assert_eq!(nnz, coo.nnz());
        let (twice, _) = transpose_hism(&once, 8).unwrap();
        assert_eq!(twice.words, img.words);
        assert_eq!(twice.root, img.root);
    }

    #[test]
    fn both_walks_count_the_matrix_nnz() {
        let coo = gen::random::uniform(90, 60, 500, 7);
        let img = image_of(&coo, 8);
        assert!(img.root.levels > 1);
        assert_eq!(transpose_hism(&img, 8).unwrap().1, coo.nnz());
        let x = vec![1.0; 60];
        assert_eq!(spmv_hism(&img, &x, 8).unwrap().1, coo.nnz());
    }
}
