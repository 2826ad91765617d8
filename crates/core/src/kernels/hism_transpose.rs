//! The recursive HiSM transposition kernel (paper Fig. 6, vector code of
//! Fig. 7) on the simulated vector processor.
//!
//! Per `s²`-block at every level (strip-mined into sections of at most
//! `s` elements, `ssvl`-style):
//!
//! ```text
//! icm                     # clear the s x s memory indicators
//! Loop1: v_ldb  → v_stcr  # stream blockarray row-wise into the unit
//! Loop2: v_ldcc → v_stb   # drain column-wise, store transposed in place
//! ```
//!
//! For levels ≥ 1, the paper additionally permutes the *lengths vector*
//! through the unit (Fig. 6 lines 11–18) and then recurses into every
//! child blockarray (lines 19–23). One deviation from the pseudo-code's
//! line order, documented in DESIGN.md §2.3: the lengths pass must run
//! **before** the pointer pass, because it needs the pre-transposition
//! positions to permute the lengths consistently with the pointers. Cost
//! is identical; Fig. 6 elides this detail.
//!
//! The transposition is in place: "the same memory location and amount as
//! the original is needed to store the transposed block and therefore no
//! allocation of memory for the transposed is needed" (Section IV-A).

use super::{simulate, Ran};
use crate::coproc::StmCoprocessor;
use crate::exec::{ExecCtx, KernelError};
use crate::report::TransposeReport;
use stm_hism::image::{HismImage, RootDesc, WORDS_PER_ENTRY};
use stm_hism::ImageError;
use stm_vpsim::{Engine, Memory};

/// Scalar cycles charged per child-block recursion step: loading the
/// pointer and length words (two likely-hit scalar loads) plus call
/// overhead. A model constant in the spirit of `VpConfig::loop_overhead`.
pub const CHILD_CALL_OVERHEAD: u64 = 8;

/// Simulates the HiSM transposition of `image` on the vector processor
/// of `ctx` extended with its STM.
///
/// Returns the transposed image (same layout, blockarrays permuted in
/// place, root descriptor with swapped logical shape) and the report.
///
/// The image is treated as untrusted: corrupt pointers, runaway lengths
/// or out-of-block positions surface as typed [`KernelError`]s (the
/// simulated memory is guarded to the image footprint under
/// `ctx.vp.oob`), never as panics or unbounded recursion.
pub fn transpose_hism(
    ctx: &ExecCtx,
    image: &HismImage,
) -> Result<(HismImage, TransposeReport), KernelError> {
    let stm_cfg = ctx.stm;
    if ctx.vp.section_size != stm_cfg.s {
        return Err(KernelError::Config(format!(
            "engine section size {} != STM section size {}",
            ctx.vp.section_size, stm_cfg.s
        )));
    }
    if image.root.s as usize != stm_cfg.s {
        return Err(KernelError::Config(format!(
            "image section size {} != STM section size {}",
            image.root.s, stm_cfg.s
        )));
    }
    let nnz = image_nnz(image)?;
    let mut mem = Memory::with_capacity(image.words.len());
    mem.write_block(0, &image.words);
    // The transposition is in place: every legitimate access stays inside
    // the image footprint, so anything past it is a corrupt pointer.
    let limit = image.words.len() as u32;
    let body = |e: &mut Engine| {
        let mut stm = StmCoprocessor::new(stm_cfg);
        // Entry budget: a well-formed image has one `[payload, pos]` pair
        // per entry, so total entries across all blockarrays is
        // < words/2 + 1.
        let mut budget = image.words.len() / 2 + 1;
        let walked = transpose_block(
            e,
            &mut stm,
            image.root.addr,
            image.root.len as usize,
            image.root.levels - 1,
            &mut budget,
        );
        // The last block's session closes on every exit path, before
        // the skeleton records the run's `mem.oob` instants.
        stm.close_session(e);
        walked?;
        Ok(Ran {
            stm: Some(*stm.stats()),
            ..Ran::whole(e, "hism-transpose")
        })
    };
    simulate(ctx, mem, limit, nnz, body, |mem| {
        let mut out = HismImage {
            words: mem.read_block(0, image.words.len()),
            root: RootDesc {
                rows: image.root.cols,
                cols: image.root.rows,
                ..image.root
            },
            pointer_sites: image.pointer_sites.clone(),
            integrity: None,
        };
        // Seal the output over the words the engine actually produced. A
        // mid-run soft error is sealed over too — by design: an SDC is
        // silent here and only the cross-backend digest vote can catch it.
        out.seal_integrity();
        Ok(out)
    })
}

/// Leaf entries of an image = the matrix nnz (walks the hierarchy).
///
/// The walk is bounds-checked and budgeted, so a corrupt image yields a
/// typed [`ImageError`] instead of a panic or unbounded recursion.
pub fn image_nnz(image: &HismImage) -> Result<usize, ImageError> {
    fn word(image: &HismImage, addr: u32) -> Result<u32, ImageError> {
        image
            .words
            .get(addr as usize)
            .copied()
            .ok_or(ImageError::OutOfBounds {
                addr,
                len: image.words.len() as u32,
            })
    }
    fn walk(
        image: &HismImage,
        addr: u32,
        len: usize,
        level: u32,
        budget: &mut usize,
    ) -> Result<usize, ImageError> {
        if *budget < len {
            return Err(ImageError::Runaway { addr });
        }
        *budget -= len;
        if level == 0 {
            return Ok(len);
        }
        let mut total = 0;
        for k in 0..len {
            let ptr = word(image, addr + WORDS_PER_ENTRY * k as u32)?;
            let clen = word(image, addr + WORDS_PER_ENTRY * len as u32 + k as u32)?;
            total += walk(image, ptr, clen as usize, level - 1, budget)?;
        }
        Ok(total)
    }
    if image.root.levels == 0 {
        return Err(ImageError::ZeroLevels);
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

/// `transpose_block(BSA, BSL, LVL)` of Fig. 6.
fn transpose_block(
    e: &mut Engine,
    stm: &mut StmCoprocessor,
    addr: u32,
    len: usize,
    level: u32,
    budget: &mut usize,
) -> Result<(), KernelError> {
    if len == 0 {
        return Ok(());
    }
    // Budget before touching anything: a corrupt length word can claim
    // billions of entries, and the guard alone would let the loops spin.
    if *budget < len {
        return Err(KernelError::Corrupt(format!(
            "runaway blockarray of {len} entries at word {addr}"
        )));
    }
    *budget -= len;
    // Address arithmetic below stays in u32 only if the block footprint
    // does; a retargeted pointer near the top of the address space fails
    // here instead of overflowing.
    if addr as u64 + (WORDS_PER_ENTRY as u64 + 1) * len as u64 > u32::MAX as u64 {
        return Err(KernelError::Corrupt(format!(
            "blockarray at word {addr} ({len} entries) exceeds the address space"
        )));
    }
    let s = stm.cfg().s;
    let lens_base = addr + WORDS_PER_ENTRY * len as u32;

    if level > 0 {
        // Lengths pass (Fig. 6 lines 11-18, run first — see module docs):
        // permute the lengths vector through the s x s memory using the
        // pre-transposition positions from the blockarray.
        stm.icm(e);
        let mut off = 0usize;
        while off < len {
            let vl = s.min(len - off); // ssvl
            let (_ptrs, pos) = e.v_ld_pair(addr + WORDS_PER_ENTRY * off as u32, vl);
            let lens = e.v_ld(lens_base + off as u32, vl);
            stm.v_stcr(e, &lens, &pos).map_err(KernelError::Corrupt)?;
            e.loop_overhead();
            off += vl;
        }
        let mut off = 0usize;
        while off < len {
            let vl = s.min(len - off);
            let (lens_t, _pos_t) = stm.v_ldcc(e, vl);
            e.v_st(lens_base + off as u32, &lens_t);
            e.loop_overhead();
            off += vl;
        }
    }

    // Element/pointer pass (Fig. 6 lines 2-9 = the Fig. 7 vector code).
    stm.icm(e);
    let mut off = 0usize;
    while off < len {
        let vl = s.min(len - off);
        let (vals, pos) = e.v_ld_pair(addr + WORDS_PER_ENTRY * off as u32, vl);
        stm.v_stcr(e, &vals, &pos).map_err(KernelError::Corrupt)?;
        e.loop_overhead();
        off += vl;
    }
    let mut off = 0usize;
    while off < len {
        let vl = s.min(len - off);
        let (vals_t, pos_t) = stm.v_ldcc(e, vl);
        e.v_st_pair(addr + WORDS_PER_ENTRY * off as u32, &vals_t, &pos_t);
        e.loop_overhead();
        off += vl;
    }
    // Stop before chasing pointers that were read out of bounds.
    if let Some(f) = e.mem_fault() {
        return Err(f.into());
    }

    if level > 0 {
        // Recurse into every child (Fig. 6 lines 19-23). The pointer and
        // length words were just rewritten in transposed order, so the
        // (pointer, length) pairing read here is consistent.
        for k in 0..len {
            let ptr = e.mem().read(addr + WORDS_PER_ENTRY * k as u32);
            let clen = e.mem().read(lens_base + k as u32) as usize;
            e.scalar_cycles(CHILD_CALL_OVERHEAD);
            transpose_block(e, stm, ptr, clen, level - 1, budget)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::machine;
    use stm_hism::{build, transpose as href, HismImage};
    use stm_sparse::{gen, Coo};

    fn run(coo: &Coo, s: usize) -> (HismImage, TransposeReport) {
        let h = build::from_coo(coo, s).unwrap();
        transpose_hism(&machine(s, 4), &HismImage::encode(&h)).unwrap()
    }

    #[test]
    fn single_block_matrix_transposes_functionally() {
        let coo = Coo::from_triplets(
            8,
            8,
            vec![(0, 3, 1.0), (2, 0, 2.0), (2, 7, 3.0), (7, 7, 4.0)],
        )
        .unwrap();
        let (out, report) = run(&coo, 8);
        let got = build::to_coo(&out.decode().unwrap());
        assert_eq!(got, coo.transpose_canonical());
        assert_eq!(report.nnz, 4);
        assert!(report.cycles > 0);
    }

    #[test]
    fn two_level_matrix_transposes_functionally() {
        let coo = gen::random::uniform(50, 50, 300, 17);
        let (out, report) = run(&coo, 8);
        let got = build::to_coo(&out.decode().unwrap());
        assert_eq!(got, coo.transpose_canonical());
        assert_eq!(report.nnz, coo.nnz());
        let stm = report.stm.unwrap();
        assert!(stm.sessions > 0);
        assert!(stm.entries >= coo.nnz() as u64);
    }

    #[test]
    fn three_level_matrix_transposes_functionally() {
        let coo = gen::random::uniform(200, 70, 400, 23);
        let (out, _) = run(&coo, 4); // 4^3 = 64 < 200 → 4 levels
        let got = build::to_coo(&out.decode().unwrap());
        assert_eq!(got, coo.transpose_canonical());
    }

    #[test]
    fn matches_software_reference_block_for_block() {
        let coo = gen::blocks::block_dense(64, 8, 5, 0.6, 31);
        let h = build::from_coo(&coo, 8).unwrap();
        let (out, _) = transpose_hism(&machine(8, 4), &HismImage::encode(&h)).unwrap();
        let reference = href::transpose(&h);
        let expected = HismImage::encode(&reference);
        // Same layout and in-place property ⇒ identical word images.
        assert_eq!(out.words, expected.words);
        assert_eq!(out.root, expected.root);
    }

    #[test]
    fn double_transposition_restores_the_image() {
        let coo = gen::rmat::rmat(6, 150, gen::rmat::RmatProbs::default(), 3);
        let h = build::from_coo(&coo, 8).unwrap();
        let img = HismImage::encode(&h);
        let (once, _) = transpose_hism(&machine(8, 4), &img).unwrap();
        let (twice, _) = transpose_hism(&machine(8, 4), &once).unwrap();
        assert_eq!(twice.words, img.words);
    }

    #[test]
    fn empty_matrix_costs_almost_nothing() {
        let (out, report) = run(&Coo::new(8, 8), 8);
        assert_eq!(out.decode().unwrap().nnz(), 0);
        assert!(report.cycles < 10, "cycles = {}", report.cycles);
    }

    #[test]
    fn higher_bandwidth_is_not_slower() {
        let coo = gen::blocks::block_dense(64, 16, 8, 0.9, 1);
        let h = build::from_coo(&coo, 16).unwrap();
        let img = HismImage::encode(&h);
        let cyc = |b: u64| transpose_hism(&machine(16, b), &img).unwrap().1.cycles;
        assert!(cyc(4) <= cyc(1));
        assert!(cyc(8) <= cyc(4));
    }

    #[test]
    fn rectangular_matrices_work() {
        let coo = gen::random::uniform(30, 100, 250, 9);
        let (out, _) = run(&coo, 8);
        assert_eq!(out.decode().unwrap().shape(), (100, 30));
        assert_eq!(
            build::to_coo(&out.decode().unwrap()),
            coo.transpose_canonical()
        );
    }

    #[test]
    fn paper_default_section_size_64() {
        let coo = gen::structured::grid2d_5pt(20, 20);
        let (out, report) = run(&coo, 64);
        assert_eq!(
            build::to_coo(&out.decode().unwrap()),
            coo.transpose_canonical()
        );
        // 400x400 at s=64 → 2 levels → lengths sessions exist.
        assert!(report.stm.unwrap().sessions > 1);
    }
}
