//! Property tests for [`HismImage::decode`] as an untrusted-input parser:
//! truncated and bit-corrupted images must come back as `Ok` or a typed
//! [`ImageError`] — never a slice panic — and every error variant must
//! actually be reachable from a corrupted image.

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};

use common::{arb_coo, case_rng};
use hism_stm::hism::{build, HismImage, ImageError};
use hism_stm::sparse::rng::StdRng;

const CASES: u64 = 48;

/// Stable tag for coverage bookkeeping across random cases.
fn variant_tag(e: &ImageError) -> &'static str {
    match e {
        ImageError::ZeroLevels => "zero_levels",
        ImageError::BadSectionSize(_) => "bad_section_size",
        ImageError::OutOfBounds { .. } => "out_of_bounds",
        ImageError::BadPosition { .. } => "bad_position",
        ImageError::OutOfShape { .. } => "out_of_shape",
        ImageError::Runaway { .. } => "runaway",
        ImageError::Integrity { .. } => "integrity",
    }
}

/// Decodes inside `catch_unwind` so an escaped slice panic fails the
/// property with a description of the corrupted image rather than a bare
/// index-out-of-range backtrace.
fn decode_no_panic(img: &HismImage, what: &str) -> Result<(), ImageError> {
    let outcome = catch_unwind(AssertUnwindSafe(|| img.decode().map(|_| ())));
    match outcome {
        Ok(result) => result,
        Err(_) => panic!(
            "decode panicked on {what}: root={:?} words={} pointer_sites={}",
            img.root,
            img.words.len(),
            img.pointer_sites.len()
        ),
    }
}

fn arb_image(r: &mut StdRng, seed_tag: &str) -> HismImage {
    let coo = arb_coo(r, 70, 140);
    let s = common::pick(r, &[2usize, 4, 8, 16]);
    let h = build::from_coo(&coo, s)
        .unwrap_or_else(|e| panic!("{seed_tag}: build failed for a valid matrix: {e}"));
    HismImage::encode(&h)
}

#[test]
fn truncated_images_decode_to_typed_errors() {
    let mut seen_err = 0usize;
    for case in 0..CASES {
        let mut r = case_rng(0xD1, case);
        let img = arb_image(&mut r, "truncation");
        let n = img.words.len();
        // Every truncation point of small images; sampled for larger ones.
        let cuts: Vec<usize> = if n <= 32 {
            (0..n).collect()
        } else {
            (0..32).map(|_| r.gen_range(0..n)).collect()
        };
        for cut in cuts {
            let mut t = img.clone();
            t.words.truncate(cut);
            if decode_no_panic(&t, &format!("truncation to {cut} words (case {case})")).is_err() {
                seen_err += 1;
            }
        }
    }
    // Truncating below the root blockarray must be detected, so errors
    // dominate; a zero count would mean the bounds checks are dead code.
    assert!(seen_err > 0, "no truncation ever produced an error");
}

#[test]
fn word_corruptions_decode_to_typed_errors_and_cover_every_variant() {
    let mut seen: std::collections::BTreeMap<&'static str, usize> = Default::default();
    for case in 0..CASES {
        let mut r = case_rng(0xD2, case);
        let img = arb_image(&mut r, "corruption");
        if img.words.is_empty() {
            continue;
        }
        for _ in 0..24 {
            let mut t = img.clone();
            // The structural variants are only reachable on a headerless
            // image: on a sealed one the checksum check fires first and
            // everything surfaces as `Integrity`. Probe both.
            t.integrity = None;
            let site = r.gen_range(0..t.words.len());
            // Mix single-bit flips with full-word garbage: bit flips probe
            // near-valid values (positions, short lengths), garbage probes
            // far pointers and runaway lengths.
            if r.gen_bool(0.5) {
                t.words[site] ^= 1u32 << r.gen_range(0..32u64) as u32;
            } else {
                t.words[site] = r.next_u64() as u32;
            }
            let what = format!("word {site} corruption (case {case})");
            if let Err(e) = decode_no_panic(&t, &what) {
                *seen.entry(variant_tag(&e)).or_insert(0) += 1;
            }
            let mut sealed = t.clone();
            sealed.integrity = img.integrity;
            if let Err(e) = decode_no_panic(&sealed, &format!("sealed {what}")) {
                *seen.entry(variant_tag(&e)).or_insert(0) += 1;
            }
        }
    }
    // ZeroLevels and BadSectionSize live in the root descriptor, not the
    // word image, so they need direct descriptor corruption.
    for (levels, s) in [(0u32, 8u32), (1, 0), (1, 1), (1, 257), (1, u32::MAX)] {
        let mut r = case_rng(0xD3, u64::from(levels) ^ u64::from(s));
        let mut t = arb_image(&mut r, "descriptor");
        // Headerless: a corrupted root descriptor changes the walk shape,
        // so on a sealed image the checksum fires before the descriptor
        // checks — here the structural variants are the point.
        t.integrity = None;
        t.root.levels = levels;
        t.root.s = s;
        let what = format!("root descriptor levels={levels} s={s}");
        match decode_no_panic(&t, &what) {
            Err(e) => {
                *seen.entry(variant_tag(&e)).or_insert(0) += 1;
            }
            Ok(()) => panic!("corrupt {what} decoded successfully"),
        }
    }
    for tag in [
        "zero_levels",
        "bad_section_size",
        "out_of_bounds",
        "bad_position",
        "out_of_shape",
        "runaway",
        "integrity",
    ] {
        assert!(
            seen.get(tag).copied().unwrap_or(0) > 0,
            "ImageError variant {tag} never reached; coverage: {seen:?}"
        );
    }
}

/// The detection guarantee behind the integrity plane: a sealed image has
/// no word-sized blind spots. Every single-bit corruption of a word that
/// carries matrix content is rejected — at decode or at re-verify — and a
/// flip that *is* accepted provably changed nothing (a dead word outside
/// every checksummed section).
#[test]
fn sealed_images_have_no_single_bit_blind_spots() {
    for case in 0..12u64 {
        let mut r = case_rng(0xD5, case);
        let img = arb_image(&mut r, "blind-spot");
        let clean = img
            .decode()
            .map(|h| build_coo(&h))
            .expect("sealed image must decode");
        let n = img.words.len();
        if n == 0 {
            continue;
        }
        // Exhaustive over words; exhaustive over bits for small images,
        // seeded-sampled bits for larger ones.
        for site in 0..n {
            let bits: Vec<u32> = if n <= 24 {
                (0..32).collect()
            } else {
                (0..4).map(|_| r.gen_range(0..32u64) as u32).collect()
            };
            for bit in bits {
                let mut t = img.clone();
                t.words[site] ^= 1u32 << bit;
                let what = format!("bit {bit} of word {site} (case {case})");
                let verdict = decode_no_panic(&t, &what);
                let reverify = t.verify_integrity();
                match (verdict, &reverify) {
                    (Err(_), _) | (_, Err(_)) => {} // detected
                    (Ok(()), Ok(_)) => {
                        // Accepted: the flip must have been content-free.
                        let got = build_coo(&t.decode().unwrap());
                        assert_eq!(
                            got, clean,
                            "{what}: accepted by decode + re-verify yet changed the matrix"
                        );
                    }
                }
            }
        }
        // And the value words specifically — the classic SDC target — are
        // always *live*: every flip there must be detected.
        for &site in img.value_sites().unwrap().iter() {
            let mut t = img.clone();
            t.words[site as usize] ^= 1 << (r.next_u64() % 32);
            assert!(
                t.decode().is_err() && t.verify_integrity().is_err(),
                "value word {site} flip survived decode + re-verify (case {case})"
            );
        }
    }
}

fn build_coo(h: &hism_stm::hism::HismMatrix) -> hism_stm::sparse::Coo {
    build::to_coo(h)
}

#[test]
fn root_descriptor_fuzzing_never_panics() {
    for case in 0..CASES {
        let mut r = case_rng(0xD4, case);
        let img = arb_image(&mut r, "root");
        for _ in 0..16 {
            let mut t = img.clone();
            // Random root descriptor over the full u32 range, biased
            // toward small values so the happy path stays reachable.
            let small = |r: &mut StdRng| {
                if r.gen_bool(0.7) {
                    r.gen_range(0..64u64) as u32
                } else {
                    r.next_u64() as u32
                }
            };
            t.root.addr = small(&mut r);
            t.root.len = small(&mut r);
            t.root.levels = r.gen_range(0..5u64) as u32;
            t.root.s = small(&mut r);
            let what = format!("fuzzed root {:?} (case {case})", t.root);
            let _ = decode_no_panic(&t, &what);
        }
    }
}

/// The route `resilient::verify_primary` takes with an untrusted output
/// image: its canonical digest, read in one walk without the seal. It
/// must never panic, and must equal the digest through decode (decode,
/// rebuild the COO, digest it), which must not panic either.
#[test]
fn decoded_unverified_images_reach_a_canonical_digest_without_panicking() {
    let mut decoded = 0usize;
    for case in 0..CASES {
        let mut r = case_rng(0xD6, case);
        let img = arb_image(&mut r, "digest route");
        for _ in 0..24 {
            let mut t = img.clone();
            t.integrity = None;
            match r.gen_range(0..3usize) {
                0 if !t.words.is_empty() => {
                    let site = r.gen_range(0..t.words.len());
                    t.words[site] ^= 1u32 << r.gen_range(0..32u64) as u32;
                }
                1 if !t.words.is_empty() => {
                    let site = r.gen_range(0..t.words.len());
                    t.words[site] = r.next_u64() as u32;
                }
                _ => {
                    t.root.levels = r.gen_range(1..12u64) as u32;
                    t.root.s = common::pick(&mut r, &[2u32, 4, 16, 255, 256]);
                }
            }
            let what = format!("root {:?} (case {case})", t.root);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let through_decode = t.decode().ok().map(|h| {
                    let coo = build::to_coo(&h);
                    hism_stm::sparse::format::canonical_digest(&coo)
                });
                (t.canonical_digest(), through_decode)
            }));
            match outcome {
                Ok((got, want)) => {
                    assert_eq!(got, want, "{what}");
                    decoded += want.is_some() as usize;
                }
                Err(_) => panic!("a canonical digest panicked on {what}"),
            }
        }
    }
    assert!(decoded > 0, "no corrupted image ever decoded");
}
