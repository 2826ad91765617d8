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
//! The transposition is in place: each blockarray's `[payload, pos]`
//! pairs are re-sorted row-major by their *swapped* coordinates — the
//! order the s×s STM memory drains in — with the lengths vector of
//! non-leaf blockarrays permuted identically, then children are visited
//! through the rewritten pointer words. The SpMV accumulates leaf
//! products into `y` strictly in hierarchy-walk order, left to right
//! within each strip, exactly like the simulator's sequential
//! scatter-accumulate; only the element-wise gather-multiply is
//! SIMD-dispatched.

use crate::{HostError, HostIsa};
use stm_hism::image::{
    fnv_word, pack_pos, unpack_pos, HismImage, IntegrityHeader, RootDesc, SectionSums,
    INTEGRITY_VERSION, WORDS_PER_ENTRY,
};
use stm_sparse::Value;

const WPE: usize = WORDS_PER_ENTRY as usize;

/// Leaf entries of an image = the matrix nnz. A budgeted, bounds-checked
/// walk mirroring the simulator's `image_nnz` validation: corrupt
/// hierarchies yield typed errors instead of panics or unbounded
/// recursion. Both kernels run it up front so structural faults surface
/// before any arithmetic.
pub fn image_nnz(image: &HismImage) -> Result<usize, HostError> {
    fn word(image: &HismImage, addr: usize) -> Result<u32, HostError> {
        image.words.get(addr).copied().ok_or_else(|| {
            HostError::Corrupt(format!(
                "image access at word {addr} outside the {}-word image",
                image.words.len()
            ))
        })
    }
    fn walk(
        image: &HismImage,
        addr: u32,
        len: usize,
        level: u32,
        budget: &mut usize,
    ) -> Result<usize, HostError> {
        if *budget < len {
            return Err(HostError::Corrupt(format!(
                "runaway blockarray of {len} entries at word {addr}"
            )));
        }
        *budget -= len;
        if level == 0 {
            return Ok(len);
        }
        let mut total = 0;
        for k in 0..len {
            let ptr = word(image, addr as usize + WPE * k)?;
            let clen = word(image, addr as usize + WPE * len + k)?;
            total += walk(image, ptr, clen as usize, level - 1, budget)?;
        }
        Ok(total)
    }
    if image.root.levels == 0 {
        return Err(HostError::Corrupt("image with zero levels".into()));
    }
    let mut budget = image.words.len() / 2 + 1;
    walk(
        image,
        image.root.addr,
        image.root.len as usize,
        image.root.levels - 1,
        &mut budget,
    )
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

/// Host HiSM transposition. Scalar on every ISA: the per-blockarray
/// permutation is a counting scatter (or a sort) plus a cursor rewrite,
/// with nothing element-wise to vectorize. `section_size` must match the
/// image's `s` (the same configuration contract the simulated kernel
/// enforces).
pub fn transpose_hism(image: &HismImage, section_size: usize) -> Result<HismImage, HostError> {
    if image.root.s as usize != section_size {
        return Err(HostError::Config(format!(
            "image section size {} != configured section size {section_size}",
            image.root.s
        )));
    }
    image_nnz(image)?;
    let s = image.root.s as usize;
    let mut words = image.words.clone();
    let mut budget = words.len() / 2 + 1;
    let mut scratch = TransposeScratch::new(s, words.len());
    transpose_block(
        &mut words,
        image.root.addr,
        image.root.len as usize,
        image.root.levels - 1,
        s,
        &mut scratch,
        &mut budget,
    )?;
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
    if scratch.overlap || diverged {
        out.seal_integrity();
    } else {
        out.integrity = Some(IntegrityHeader {
            version: INTEGRITY_VERSION,
            sums: scratch.sums,
        });
        debug_assert_eq!(out.integrity, out.compute_integrity().ok());
    }
    Ok(out)
}

/// Per-run staging for [`transpose_block`], reused by every blockarray.
struct TransposeScratch {
    /// Drain-order keys of the blockarray being permuted.
    keys: Vec<u64>,
    /// Per-column cursors of the counting scatter (`s + 1` slots).
    counts: Vec<usize>,
    /// The blockarray's entry words and lengths vector before rewriting.
    entries: Vec<u32>,
    lens: Vec<u32>,
    /// One bit per image word: set once a blockarray's footprint has been
    /// rewritten, so a second claim on a word reveals overlapping
    /// blockarrays.
    claimed: Vec<u64>,
    overlap: bool,
    /// Section sums over every word the write pass produced.
    sums: SectionSums,
}

impl TransposeScratch {
    fn new(s: usize, words: usize) -> Self {
        TransposeScratch {
            keys: Vec::new(),
            counts: vec![0; s + 1],
            entries: Vec::new(),
            lens: Vec::new(),
            claimed: vec![0; words.div_ceil(64)],
            overlap: false,
            sums: SectionSums::default(),
        }
    }

    /// Marks words `start..start + len` claimed; notes an overlap when
    /// any of them already was.
    fn claim(&mut self, start: usize, len: usize) {
        let mut i = start;
        let end = start + len;
        while i < end {
            let bits = (end - i).min(64 - i % 64);
            let mask = if bits == 64 {
                !0
            } else {
                ((1u64 << bits) - 1) << (i % 64)
            };
            let word = &mut self.claimed[i / 64];
            self.overlap |= *word & mask != 0;
            *word |= mask;
            i += bits;
        }
    }
}

/// One blockarray of the in-place transposition (Fig. 6's
/// `transpose_block`, minus the cycle accounting).
fn transpose_block(
    words: &mut [u32],
    addr: u32,
    len: usize,
    level: u32,
    s: usize,
    scratch: &mut TransposeScratch,
    budget: &mut usize,
) -> Result<(), HostError> {
    if len == 0 {
        return Ok(());
    }
    let footprint = if level > 0 {
        (WPE + 1) * len
    } else {
        WPE * len
    };
    check_block(words.len(), addr, len, footprint, budget)?;
    let base = addr as usize;
    scratch.claim(base, footprint);

    // The STM memory keyed by position: entries re-emerge sorted
    // row-major by their swapped (row, col). Out-of-block positions and
    // collisions are exactly what the coprocessor's v_stcr rejects.
    // Each element packs `(c, r, k)` into one integer — bits 40.. are the
    // swapped coordinates, the low 32 the source index — so ordering
    // compares plain u64s instead of 16-byte tuples.
    let keys = &mut scratch.keys;
    keys.clear();
    keys.reserve(len);
    // Whether the positions strictly increase in (row, col) order — the
    // scatter's precondition — and in (col, row) order, i.e. already
    // drain-ordered (a diagonal block, say). Strictness rules out
    // collisions in both cases.
    let (mut row_major, mut drained) = (true, true);
    let mut prev: Option<(u8, u8)> = None;
    for k in 0..len {
        let (r, c) = unpack_pos(words[base + WPE * k + 1]);
        if s < 256 && ((r as usize) >= s || (c as usize) >= s) {
            return Err(HostError::Corrupt(format!(
                "v_stcr position ({r},{c}) outside the {s}x{s} block"
            )));
        }
        if let Some((pr, pc)) = prev {
            row_major &= (pr, pc) < (r, c);
            drained &= (pc, pr) < (c, r);
        }
        prev = Some((r, c));
        keys.push(((c as u64) << 40) | ((r as u64) << 32) | k as u64);
    }
    let use_scatter = !drained && row_major && len >= s;
    if !drained && !use_scatter {
        // Small or out-of-order blockarrays: a plain sort, O(z log z)
        // instead of the scatter's O(s).
        keys.sort_unstable();
        if let Some(w) = keys.windows(2).find(|w| (w[0] >> 32) == (w[1] >> 32)) {
            return Err(HostError::Corrupt(format!(
                "duplicate position ({},{}) in blockarray at word {addr}",
                (w[0] >> 32) & 0xff,
                w[0] >> 40
            )));
        }
    }

    // The write pass reads the entries (and, above the leaves, the
    // lengths vector, whose pre-transposition order pairs it with the
    // entries) from copies, so slots can be written in any order.
    let TransposeScratch {
        keys,
        counts,
        entries,
        lens,
        sums,
        ..
    } = scratch;
    entries.clear();
    entries.extend_from_slice(&words[base..base + WPE * len]);
    let lens_base = base + WPE * len;
    if level > 0 {
        lens.clear();
        lens.extend_from_slice(&words[lens_base..lens_base + len]);
    }
    // Writes source entry `key` to output slot `j`, summing what it wrote.
    let mut put = |j: usize, key: u64| {
        let k = (key & 0xffff_ffff) as usize;
        let payload = entries[WPE * k];
        let pos = pack_pos((key >> 40) as u8, (key >> 32) as u8);
        words[base + WPE * j] = payload;
        words[base + WPE * j + 1] = pos;
        sums.positions ^= fnv_word(pos);
        if level > 0 {
            sums.pointers ^= fnv_word(payload);
            words[lens_base + j] = lens[k];
            sums.lengths ^= fnv_word(lens[k]);
        } else {
            sums.values ^= fnv_word(payload);
        }
    };
    if use_scatter {
        // The STM's own method (paper §III): a stable counting scatter
        // into the s column buckets. Row-major input reaches each bucket
        // in increasing row order, so every entry lands at its drain slot;
        // a strictly increasing input also rules out collisions.
        counts.fill(0);
        for &key in keys.iter() {
            counts[(key >> 40) as usize + 1] += 1;
        }
        for c in 1..counts.len() {
            counts[c] += counts[c - 1];
        }
        for &key in keys.iter() {
            let slot = &mut counts[(key >> 40) as usize];
            put(*slot, key);
            *slot += 1;
        }
    } else {
        for (j, &key) in keys.iter().enumerate() {
            put(j, key);
        }
    }

    if level > 0 {
        // Recurse through the *rewritten* pointer/length pairs.
        for k in 0..len {
            let ptr = words[base + WPE * k];
            let clen = words[lens_base + k] as usize;
            transpose_block(words, ptr, clen, level - 1, s, scratch, budget)?;
        }
    }
    Ok(())
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
/// `rows.max(1)`. Only the per-strip gather-multiply dispatches to SIMD.
pub fn spmv_hism(
    image: &HismImage,
    x: &[Value],
    section_size: usize,
    isa: HostIsa,
) -> Result<Vec<Value>, HostError> {
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
    image_nnz(image)?;
    let padded = (image.root.rows as usize).max(1);
    let mut y = vec![0.0f32; padded];
    let mut budget = image.words.len() / 2 + 1;
    let mut scratch = Scratch {
        vals: vec![0.0; s],
        idx: vec![0; s],
        rows: vec![0; s],
        prod: vec![0.0; s],
    };
    walk(
        &image.words,
        image.root.addr,
        image.root.len as usize,
        image.root.levels - 1,
        (0, 0),
        x,
        &mut y,
        s,
        isa,
        &mut scratch,
        &mut budget,
    )?;
    if isa == HostIsa::Scalar && crate::diverge_requested("spmv_hism") {
        if let Some(v) = y.first_mut() {
            *v = f32::from_bits(v.to_bits() ^ 0x8000_0000);
        }
    }
    Ok(y)
}

/// Per-strip staging buffers (one `s`-sized set per run, reused).
struct Scratch {
    vals: Vec<f32>,
    idx: Vec<usize>,
    rows: Vec<usize>,
    prod: Vec<f32>,
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
    isa: HostIsa,
    scratch: &mut Scratch,
    budget: &mut usize,
) -> Result<(), HostError> {
    if len == 0 {
        return Ok(());
    }
    let footprint = if level > 0 {
        (WPE + 1) * len
    } else {
        WPE * len
    };
    check_block(words.len(), addr, len, footprint, budget)?;
    let base = addr as usize;
    if level == 0 {
        let mut off = 0usize;
        while off < len {
            let vl = s.min(len - off);
            for j in 0..vl {
                let w = base + WPE * (off + j);
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
                scratch.vals[j] = f32::from_bits(words[w]);
                scratch.idx[j] = col;
                scratch.rows[j] = row;
            }
            crate::simd::gather_products(
                &mut scratch.prod[..vl],
                &scratch.vals[..vl],
                &scratch.idx[..vl],
                x,
                isa,
            );
            for j in 0..vl {
                y[scratch.rows[j]] += scratch.prod[j];
            }
            off += vl;
        }
        return Ok(());
    }
    let step = s.pow(level);
    for k in 0..len {
        let ptr = words[base + WPE * k];
        let pos = words[base + WPE * k + 1];
        let clen = words[base + WPE * len + k] as usize;
        let (br, bc) = unpack_pos(pos);
        let child_origin = (origin.0 + br as usize * step, origin.1 + bc as usize * step);
        walk(
            words,
            ptr,
            clen,
            level - 1,
            child_origin,
            x,
            y,
            s,
            isa,
            scratch,
            budget,
        )?;
    }
    Ok(())
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
            let out = transpose_hism(&img, s).unwrap();
            let expected = HismImage::encode(&href::transpose(&build::from_coo(&coo, s).unwrap()));
            assert_eq!(out.words, expected.words);
            assert_eq!(out.root, expected.root);
        }
    }

    #[test]
    fn out_of_order_blockarrays_still_drain_column_major() {
        // A dense leaf (z ≥ s) with two entries swapped is no longer
        // row-major, so it skips the counting scatter; the drain order,
        // and so the output, must not depend on the input order.
        let coo = gen::blocks::block_dense(8, 8, 1, 0.9, 4);
        let mut img = image_of(&coo, 8);
        assert!(img.root.levels == 1 && img.root.len >= 8);
        let a = img.root.addr as usize;
        img.words.swap(a, a + WPE);
        img.words.swap(a + 1, a + WPE + 1);
        let out = transpose_hism(&img, 8).unwrap();
        let expected = HismImage::encode(&href::transpose(&build::from_coo(&coo, 8).unwrap()));
        assert_eq!(out.words, expected.words);
        assert_eq!(out.integrity, expected.integrity);
    }

    #[test]
    fn overlapping_blockarrays_are_sealed_by_walking_the_output() {
        // Point the root's second child at the first one's blockarray:
        // the transposition visits it twice, so the write pass's sums
        // would not describe the output; the seal must still match it.
        let coo = gen::random::uniform(50, 50, 300, 17);
        let mut img = image_of(&coo, 8);
        let (a, n) = (img.root.addr as usize, img.root.len as usize);
        assert!(img.root.levels == 2 && n >= 2);
        img.words[a + WPE] = img.words[a];
        img.words[a + WPE * n + 1] = img.words[a + WPE * n];
        if let Ok(out) = transpose_hism(&img, 8) {
            assert_eq!(out.integrity, out.compute_integrity().ok());
        }
    }

    #[test]
    fn spmv_is_close_to_csr_oracle_and_isa_independent() {
        for (coo, s) in [
            (gen::random::uniform(8, 8, 30, 3), 8),
            (gen::blocks::block_dense(64, 8, 6, 0.7, 5), 8),
            (gen::structured::grid2d_5pt(12, 12), 64),
        ] {
            let img = image_of(&coo, s);
            let x: Vec<f32> = (0..coo.cols()).map(|i| ((i % 7) as f32) - 3.0).collect();
            let scalar = spmv_hism(&img, &x, s, HostIsa::Scalar).unwrap();
            let best = spmv_hism(&img, &x, s, crate::detect_isa()).unwrap();
            for (a, b) in scalar.iter().zip(&best) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            let oracle = Csr::from_coo(&coo).spmv(&x).unwrap();
            for (a, b) in scalar.iter().zip(&oracle) {
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
        assert!(matches!(
            spmv_hism(&bad, &x, 8, HostIsa::Scalar),
            Err(HostError::Corrupt(_))
        ));
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
        assert!(matches!(
            spmv_hism(&img, &x, 16, HostIsa::Scalar),
            Err(HostError::Config(_))
        ));
    }

    #[test]
    fn double_transposition_restores_the_image() {
        let coo = gen::rmat::rmat(6, 150, gen::rmat::RmatProbs::default(), 3);
        let img = image_of(&coo, 8);
        let once = transpose_hism(&img, 8).unwrap();
        let twice = transpose_hism(&once, 8).unwrap();
        assert_eq!(twice.words, img.words);
        assert_eq!(twice.root, img.root);
    }

    #[test]
    fn nnz_walk_agrees_with_the_matrix() {
        let coo = gen::random::uniform(90, 60, 500, 7);
        assert_eq!(image_nnz(&image_of(&coo, 8)).unwrap(), coo.nnz());
    }
}
