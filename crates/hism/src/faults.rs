//! Deterministic fault injection for HiSM memory images.
//!
//! The STM walks raw memory images, so a single corrupted word is all it
//! takes to send a hardware walker out of bounds. This module produces
//! exactly such corruptions on demand — seeded, reproducible, one fault
//! per call — so the decoding and kernel layers can prove they degrade
//! into typed errors ([`crate::ImageError`], kernel-level errors) instead
//! of panicking or silently returning a wrong answer.
//!
//! The paper's hardware has no fault model; this layer is a deliberate
//! deviation for robustness testing (DESIGN.md, "Error taxonomy & fault
//! injection").

use crate::image::{pack_pos, HismImage};
use std::fmt;
use stm_sparse::rng::StdRng;

/// The classes of corruption the injector can apply to an image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// Flip one random bit of one random image word.
    BitFlip,
    /// Retarget a child pointer past the end of the image.
    PointerRetarget,
    /// Replace a lengths-vector word with a runaway entry count.
    LengthCorruption,
    /// Drop words from the end of the image (the root lives there).
    Truncate,
    /// Overwrite a position word with coordinates outside the block.
    PosGarbage,
    /// Flip one bit of one leaf *value* word, then re-seal the integrity
    /// header — modelling corruption at the data's source, before
    /// checksumming. Structure, positions, and checksums all stay valid,
    /// so the fault is type-silent by construction: only comparing output
    /// digests can catch it.
    ValueCorruption,
    /// Flip a seeded bit of a value word in *simulated memory* after a
    /// configured cycle count, mid-run. Not an image mutation — the
    /// vector-processor engine hosts it (`stm_vpsim::MidRunFlip`), so
    /// [`inject`] reports it unsupported; the kernel registry arms it on
    /// the engine instead. Deliberately outside [`FaultClass::ALL`]: the
    /// pre-run sweeps cannot host it.
    MidRunBitFlip,
}

impl FaultClass {
    /// Every *pre-run image* fault class, in canonical order (sweep tests
    /// and chaos draws iterate this). [`FaultClass::MidRunBitFlip`] is
    /// excluded: it corrupts simulated memory mid-run, not the image.
    pub const ALL: [FaultClass; 6] = [
        FaultClass::BitFlip,
        FaultClass::PointerRetarget,
        FaultClass::LengthCorruption,
        FaultClass::Truncate,
        FaultClass::PosGarbage,
        FaultClass::ValueCorruption,
    ];

    /// Stable name, usable on a command line.
    pub fn name(&self) -> &'static str {
        match self {
            FaultClass::BitFlip => "bit_flip",
            FaultClass::PointerRetarget => "pointer_retarget",
            FaultClass::LengthCorruption => "length_corruption",
            FaultClass::Truncate => "truncate",
            FaultClass::PosGarbage => "pos_garbage",
            FaultClass::ValueCorruption => "value_corruption",
            FaultClass::MidRunBitFlip => "mid_run_bit_flip",
        }
    }

    /// Parses a [`FaultClass::name`] back into the class.
    pub fn from_name(name: &str) -> Option<FaultClass> {
        Self::ALL
            .into_iter()
            .chain([FaultClass::MidRunBitFlip])
            .find(|c| c.name() == name)
    }
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What one [`inject`] call actually did to the image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// The class that was applied.
    pub class: FaultClass,
    /// The corrupted word address, when the fault targets one word
    /// (`None` for truncation).
    pub word: Option<u32>,
    /// Human-readable description of the mutation.
    pub detail: String,
}

/// Applies one fault of `class` to `image`, deterministically derived
/// from `seed`. Returns `None` when the image cannot host the fault
/// (e.g. pointer faults on a single-level image, any fault on an empty
/// image) — callers treat that as "fault unsupported here", not an error.
pub fn inject(image: &mut HismImage, class: FaultClass, seed: u64) -> Option<FaultRecord> {
    let mut r = StdRng::seed_from_u64(seed ^ 0x5712_fa17_0000 ^ class.name().len() as u64);
    let n = image.words.len();
    if n == 0 {
        return None;
    }
    match class {
        FaultClass::BitFlip => {
            let w = r.gen_range(0..n) as u32;
            let bit = (r.next_u64() % 32) as u32;
            image.words[w as usize] ^= 1 << bit;
            Some(FaultRecord {
                class,
                word: Some(w),
                detail: format!("flipped bit {bit} of word {w}"),
            })
        }
        FaultClass::PointerRetarget => {
            if image.pointer_sites.is_empty() {
                return None;
            }
            let site = image.pointer_sites[r.gen_range(0..image.pointer_sites.len())];
            let target = n as u32 + 1 + (r.next_u64() % 4096) as u32;
            image.words[site as usize] = target;
            Some(FaultRecord {
                class,
                word: Some(site),
                detail: format!("pointer at word {site} retargeted to {target} (image: {n} words)"),
            })
        }
        FaultClass::LengthCorruption => {
            if image.root.levels < 2 {
                return None;
            }
            // The root is a node blockarray: its lengths vector sits right
            // after its 2*len entry words.
            let k = r.gen_range(0..image.root.len.max(1) as usize) as u32;
            let w = image.root.addr + 2 * image.root.len + k;
            let bogus = n as u32 + 17 + (r.next_u64() % 4096) as u32;
            image.words[w as usize] = bogus;
            Some(FaultRecord {
                class,
                word: Some(w),
                detail: format!("root lengths[{k}] at word {w} set to {bogus}"),
            })
        }
        FaultClass::Truncate => {
            // The root blockarray is last, so any truncation amputates it.
            let cut = 1 + (r.next_u64() as usize % n.min(8));
            image.words.truncate(n - cut);
            Some(FaultRecord {
                class,
                word: None,
                detail: format!("truncated {cut} of {n} words"),
            })
        }
        FaultClass::PosGarbage => {
            if image.root.s >= 256 {
                return None; // every 8-bit coordinate is in range at s=256
            }
            // Post-order layout ⇒ the block at word 0 is a leaf whenever
            // the matrix is non-empty, so word 1 is a position word.
            let w = 1u32;
            image.words[w as usize] = pack_pos(255, 255);
            Some(FaultRecord {
                class,
                word: Some(w),
                detail: format!("position word {w} set to (255,255), s={}", image.root.s),
            })
        }
        FaultClass::ValueCorruption => inject_value_corruption(image, |_, _, v| v.abs() as f64),
        // Mid-run memory corruption is hosted by the simulator engine,
        // not by image mutation.
        FaultClass::MidRunBitFlip => None,
    }
}

/// Weighted [`FaultClass::ValueCorruption`]: flips the *sign* bit of the
/// nonzero value site maximizing `weight(row, col, value)`, then re-seals
/// the integrity header. Sign-negating a dominant term is the one value
/// corruption that can never round away inside an f32 accumulation, so
/// callers pick the weight that models their downstream computation —
/// `|v|` for transposes (any value word lands raw in the output),
/// `|v · x[col]|` for SpMV (the term must actually feed `y`). Returns
/// `None` when no site has positive weight: every candidate is dead for
/// that computation and the class is unsupported there.
pub fn inject_value_corruption(
    image: &mut HismImage,
    weight: impl Fn(u64, u64, f32) -> f64,
) -> Option<FaultRecord> {
    let sites = image.value_sites_detailed().ok()?;
    let (site, _) = sites
        .iter()
        .map(|s| (s, weight(s.row, s.col, s.value)))
        .filter(|&(s, w)| s.value != 0.0 && w > 0.0 && w.is_finite())
        .max_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                // Deterministic tie-break: lowest word address wins.
                .then(b.0.addr.cmp(&a.0.addr))
        })?;
    let site = *site;
    image.words[site.addr as usize] ^= 1 << 31;
    // Re-seal: the corruption happened "before" checksumming, so every
    // structural and integrity check passes — only a digest comparison
    // against an independent execution can see it.
    image.seal_integrity();
    Some(FaultRecord {
        class: FaultClass::ValueCorruption,
        word: Some(site.addr),
        detail: format!(
            "sign-flipped value {} at ({}, {}), word {} (header re-sealed)",
            site.value, site.row, site.col, site.addr
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build;
    use stm_sparse::gen;

    fn image(levels_big: bool) -> HismImage {
        let coo = if levels_big {
            gen::random::uniform(50, 50, 200, 7) // 2 levels at s=8
        } else {
            gen::random::uniform(8, 8, 20, 7) // 1 level at s=8
        };
        HismImage::encode(&build::from_coo(&coo, 8).unwrap())
    }

    #[test]
    fn class_names_round_trip() {
        for c in FaultClass::ALL {
            assert_eq!(FaultClass::from_name(c.name()), Some(c));
        }
        assert_eq!(FaultClass::from_name("nonsense"), None);
    }

    #[test]
    fn injection_is_deterministic() {
        for class in FaultClass::ALL {
            let mut a = image(true);
            let mut b = image(true);
            let ra = inject(&mut a, class, 42);
            let rb = inject(&mut b, class, 42);
            assert_eq!(ra, rb, "{class}");
            assert_eq!(a.words, b.words, "{class}");
        }
    }

    #[test]
    fn different_seeds_differ_for_random_classes() {
        let mut a = image(true);
        let mut b = image(true);
        inject(&mut a, FaultClass::BitFlip, 1).unwrap();
        inject(&mut b, FaultClass::BitFlip, 2).unwrap();
        assert_ne!(a.words, b.words);
    }

    #[test]
    fn every_class_mutates_a_two_level_image() {
        for class in FaultClass::ALL {
            let clean = image(true);
            let mut faulty = clean.clone();
            let rec = inject(&mut faulty, class, 7).unwrap_or_else(|| panic!("{class}"));
            assert_eq!(rec.class, class);
            assert_ne!(clean.words, faulty.words, "{class} left the image intact");
        }
    }

    #[test]
    fn structural_faults_are_unsupported_on_single_level_images() {
        let mut img = image(false);
        assert!(inject(&mut img, FaultClass::PointerRetarget, 3).is_none());
        assert!(inject(&mut img, FaultClass::LengthCorruption, 3).is_none());
        // Value-level faults still apply.
        assert!(inject(&mut img, FaultClass::BitFlip, 3).is_some());
        assert!(inject(&mut img, FaultClass::PosGarbage, 3).is_some());
        assert!(inject(&mut img, FaultClass::Truncate, 3).is_some());
    }

    #[test]
    fn empty_images_host_no_faults() {
        let mut img = HismImage::encode(&build::from_coo(&stm_sparse::Coo::new(8, 8), 8).unwrap());
        for class in FaultClass::ALL {
            assert!(inject(&mut img, class, 1).is_none(), "{class}");
        }
    }

    #[test]
    fn structural_faults_break_decode_with_typed_errors() {
        use crate::error::ImageError;
        for class in [
            FaultClass::PointerRetarget,
            FaultClass::LengthCorruption,
            FaultClass::Truncate,
            FaultClass::PosGarbage,
        ] {
            let mut img = image(true);
            inject(&mut img, class, 11).unwrap();
            let err = img.decode().expect_err(&format!("{class} not detected"));
            // Since images are sealed at encode time, the checksum check
            // may fire before the structural one — both are typed.
            match (class, &err) {
                (_, ImageError::Integrity { .. })
                | (FaultClass::PointerRetarget, ImageError::OutOfBounds { .. })
                | (FaultClass::PointerRetarget, ImageError::BadPosition { .. })
                | (FaultClass::LengthCorruption, ImageError::Runaway { .. })
                | (FaultClass::LengthCorruption, ImageError::OutOfBounds { .. })
                | (FaultClass::Truncate, ImageError::OutOfBounds { .. })
                | (FaultClass::PosGarbage, ImageError::BadPosition { .. }) => {}
                other => panic!("unexpected error for {class}: {other:?}"),
            }
        }
    }

    #[test]
    fn value_corruption_is_type_silent() {
        for big in [false, true] {
            let clean = image(big);
            let mut faulty = clean.clone();
            let rec = inject(&mut faulty, FaultClass::ValueCorruption, 9).unwrap();
            assert_ne!(clean.words, faulty.words);
            // Every typed check passes: checksums were re-sealed and the
            // structure is untouched...
            assert_eq!(faulty.verify_integrity(), Ok(true));
            let decoded = faulty.decode().expect("must decode cleanly");
            decoded.validate().expect("must validate cleanly");
            // ...but the content differs: the flipped value word is live.
            let w = rec.word.unwrap() as usize;
            assert!(clean.value_sites().unwrap().contains(&(w as u32)));
            assert_ne!(
                crate::build::to_coo(&decoded),
                crate::build::to_coo(&clean.decode().unwrap())
            );
        }
    }

    #[test]
    fn mid_run_bit_flip_is_not_an_image_fault() {
        let mut img = image(true);
        let before = img.clone();
        assert!(inject(&mut img, FaultClass::MidRunBitFlip, 5).is_none());
        assert_eq!(img, before);
        // ...but it still round-trips by name for command lines.
        assert_eq!(
            FaultClass::from_name("mid_run_bit_flip"),
            Some(FaultClass::MidRunBitFlip)
        );
    }
}
