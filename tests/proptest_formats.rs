//! Property tests over the storage formats: round trips, transpose
//! involutions, and cross-format agreement on arbitrary random matrices.
//!
//! Each property runs over seeded random cases (see `common`); a failing
//! case is replayed exactly by its `(property seed, case)` pair.

mod common;

use common::{arb_coo, case_rng};
use hism_stm::hism::{build, spmv, transpose as hism_sw, HismImage, StorageStats};
use hism_stm::sparse::{mm, Coo, Csc, Csr, Dense};

const CASES: u64 = 64;

fn canon(coo: &Coo) -> Coo {
    let mut c = coo.clone();
    c.canonicalize();
    c
}

#[test]
fn csr_round_trip() {
    for case in 0..CASES {
        let mut r = case_rng(0xF1, case);
        let coo = arb_coo(&mut r, 90, 160);
        // A failing case is shrunk to a minimal counterexample before the
        // panic (see `common::check_coo_property`).
        common::check_coo_property("csr_round_trip", 0xF1, case, &coo, |m| {
            let mut back = Csr::from_coo(m).to_coo();
            back.canonicalize();
            back == canon(m)
        });
    }
}

#[test]
fn csc_round_trip() {
    for case in 0..CASES {
        let mut r = case_rng(0xF2, case);
        let coo = arb_coo(&mut r, 90, 160);
        let mut back = Csc::from_coo(&coo).to_coo();
        back.canonicalize();
        assert_eq!(back, canon(&coo), "case {case}");
    }
}

#[test]
fn dense_round_trip() {
    for case in 0..CASES {
        let mut r = case_rng(0xF3, case);
        let coo = arb_coo(&mut r, 90, 160);
        assert_eq!(Dense::from_coo(&coo).to_coo(), canon(&coo), "case {case}");
    }
}

#[test]
fn hism_round_trip_at_several_section_sizes() {
    for case in 0..CASES {
        let mut r = case_rng(0xF4, case);
        let coo = arb_coo(&mut r, 90, 160);
        let s = common::pick(&mut r, &[2usize, 4, 8, 64]);
        common::check_coo_property("hism_round_trip", 0xF4, case, &coo, |m| {
            let h = build::from_coo(m, s).unwrap();
            h.validate().unwrap();
            build::to_coo(&h) == canon(m)
        });
    }
}

#[test]
fn hism_image_round_trip() {
    for case in 0..CASES {
        let mut r = case_rng(0xF5, case);
        let coo = arb_coo(&mut r, 90, 160);
        let h = build::from_coo(&coo, 8).unwrap();
        let img = HismImage::encode(&h);
        let back = img.decode().unwrap();
        back.validate().unwrap();
        assert_eq!(build::to_coo(&back), build::to_coo(&h), "case {case}");
    }
}

#[test]
fn transpose_is_involution_everywhere() {
    for case in 0..CASES {
        let mut r = case_rng(0xF6, case);
        let coo = arb_coo(&mut r, 90, 160);
        assert_eq!(
            coo.transpose_canonical().transpose_canonical(),
            canon(&coo),
            "case {case}"
        );
        let csr = Csr::from_coo(&coo);
        assert_eq!(
            csr.transpose_pissanetsky().transpose_pissanetsky(),
            csr,
            "case {case}"
        );
        let h = build::from_coo(&coo, 8).unwrap();
        assert_eq!(
            hism_sw::transpose(&hism_sw::transpose(&h)),
            h,
            "case {case}"
        );
    }
}

#[test]
fn all_transposes_agree() {
    for case in 0..CASES {
        let mut r = case_rng(0xF7, case);
        let coo = arb_coo(&mut r, 90, 160);
        common::check_coo_property("all_transposes_agree", 0xF7, case, &coo, |m| {
            let oracle = m.transpose_canonical();
            let mut a = Csr::from_coo(m).transpose_pissanetsky().to_coo();
            a.canonicalize();
            let h = build::from_coo(m, 8).unwrap();
            let b = build::to_coo(&hism_sw::transpose(&h));
            let mut c = Csc::from_coo(m).into_csr_of_transpose().unwrap().to_coo();
            c.canonicalize();
            a == oracle && b == oracle && c == oracle
        });
    }
}

#[test]
fn spmv_agrees_between_formats() {
    for case in 0..CASES {
        let mut r = case_rng(0xF8, case);
        let coo = arb_coo(&mut r, 90, 160);
        let seed = r.gen_range(0..1000usize) as u64;
        let x: Vec<f32> = (0..coo.cols())
            .map(|i| ((i as u64 * 31 + seed) % 13) as f32 - 6.0)
            .collect();
        let y_coo = coo.spmv(&x).unwrap();
        let y_csr = Csr::from_coo(&coo).spmv(&x).unwrap();
        let h = build::from_coo(&coo, 8).unwrap();
        let y_hism = spmv::spmv(&h, &x).unwrap();
        for ((a, b), c) in y_coo.iter().zip(&y_csr).zip(&y_hism) {
            assert!((a - b).abs() <= 1e-3 * (1.0 + a.abs()), "case {case}");
            assert!((a - c).abs() <= 1e-3 * (1.0 + a.abs()), "case {case}");
        }
    }
}

#[test]
fn matrix_market_round_trip() {
    for case in 0..CASES {
        let mut r = case_rng(0xF9, case);
        let coo = canon(&arb_coo(&mut r, 90, 160));
        let mut buf = Vec::new();
        mm::write_coo(&mut buf, &coo).unwrap();
        let back = mm::read_coo(&buf[..]).unwrap();
        assert_eq!(back, coo, "case {case}");
    }
}

#[test]
fn storage_stats_are_consistent() {
    for case in 0..CASES {
        let mut r = case_rng(0xFA, case);
        let coo = arb_coo(&mut r, 90, 160);
        let h = build::from_coo(&coo, 8).unwrap();
        let st = StorageStats::compute(&h);
        assert_eq!(st.leaf_bits, 48 * h.nnz() as u64, "case {case}");
        assert!(
            st.upper_fraction() >= 0.0 && st.upper_fraction() <= 1.0,
            "case {case}"
        );
    }
}

#[test]
fn try_decode_never_panics_on_corruption() {
    for case in 0..CASES {
        let mut r = case_rng(0xFB, case);
        let coo = arb_coo(&mut r, 90, 160);
        // Arbitrary word corruption must yield Ok(decoded) or Err(_),
        // never a panic or a runaway walk.
        let h = build::from_coo(&coo, 8).unwrap();
        let mut img = HismImage::encode(&h);
        if img.words.is_empty() {
            continue;
        }
        let mutations = r.gen_range(1..8usize);
        for _ in 0..mutations {
            let at = r.gen_range(0..img.words.len());
            img.words[at] = r.next_u64() as u32;
        }
        let _ = img.decode(); // must not panic
    }
}

#[test]
fn shrinker_minimizes_a_planted_failure() {
    // A synthetic property that fails exactly when a marker value is
    // present: the minimizer must strip everything else away and trim the
    // shape down to the marker's bounding box.
    for case in 0..8 {
        let mut r = case_rng(0xFD, case);
        let mut coo = arb_coo(&mut r, 60, 80);
        let (pi, pj) = (
            r.gen_range(0..coo.rows().max(1)),
            r.gen_range(0..coo.cols().max(1)),
        );
        coo.push(pi, pj, 42.5);
        let ok = |m: &Coo| !m.entries().iter().any(|e| e.2 == 42.5);
        assert!(!ok(&coo));
        let min = common::shrink_coo(&coo, &ok);
        assert_eq!(
            min.entries().len(),
            1,
            "case {case}: {}",
            common::describe_coo(&min)
        );
        assert_eq!(min.entries()[0].2, 42.5, "case {case}");
        // Bounding-box trim: the shape is exactly what the entry needs.
        assert_eq!((min.rows(), min.cols()), (pi + 1, pj + 1), "case {case}");
    }
}

#[test]
fn shrinker_handles_panicking_properties() {
    // Properties that fail by panicking (unwrap-style) shrink too.
    let coo = Coo::from_triplets(16, 16, vec![(3, 4, 1.0), (9, 2, 2.0)]).unwrap();
    let ok = |m: &Coo| {
        assert!(m.entries().iter().all(|e| e.0 != 9), "planted panic");
        true
    };
    let min = common::shrink_coo(&coo, &ok);
    assert_eq!(min.entries().len(), 1);
    assert_eq!(min.entries()[0].0, 9);
}

#[test]
fn get_matches_dense() {
    for case in 0..CASES {
        let mut r = case_rng(0xFC, case);
        let coo = arb_coo(&mut r, 90, 160);
        let h = build::from_coo(&coo, 8).unwrap();
        let d = Dense::from_coo(&coo);
        // Sample a diagonal-ish set of probes.
        for k in 0..coo.rows().min(coo.cols()) {
            let expect = d.get(k, k);
            let got = h.get(k, k).unwrap_or(0.0);
            assert!((expect - got).abs() < 1e-6, "case {case} at ({k}, {k})");
        }
    }
}

/// Asserts the one-recursion image of `coo` is the image the arena
/// builder and the encoder make, field by field.
fn assert_image_matches_encode(coo: &Coo, s: usize, case: &str) {
    let img = build::image_from_coo(coo, s).unwrap();
    let want = HismImage::encode(&build::from_coo(coo, s).unwrap());
    assert_eq!(img.words, want.words, "{case}: words");
    assert_eq!(img.root, want.root, "{case}: root");
    assert_eq!(
        img.pointer_sites, want.pointer_sites,
        "{case}: pointer sites"
    );
    assert_eq!(img.integrity, want.integrity, "{case}: integrity header");
    assert!(img.integrity.is_some(), "{case}: unsealed");
}

#[test]
fn one_recursion_image_equals_encoded_arena() {
    use hism_stm::sparse::gen::{blocks, random, rmat, structured};
    let families: Vec<(&str, Coo)> = vec![
        ("diagonal", structured::diagonal(70)),
        ("tridiagonal", structured::tridiagonal(90)),
        ("banded", structured::banded(80, 4, 0.6, 1)),
        ("grid2d_5pt", structured::grid2d_5pt(9, 11)),
        ("grid2d_9pt", structured::grid2d_9pt(8, 7)),
        ("grid3d_7pt", structured::grid3d_7pt(4, 5, 3)),
        ("arrowhead", structured::arrowhead(60)),
        ("uniform", random::uniform(120, 75, 500, 2)),
        ("power_law", random::power_law(90, 90, 5.0, 1.1, 3)),
        ("jittered_diagonal", random::jittered_diagonal(100, 3, 6, 4)),
        ("block_dense", blocks::block_dense(96, 8, 5, 0.7, 5)),
        ("block_band", blocks::block_band(96, 8, 1, 0.8, 6)),
        ("kronecker_fractal", blocks::kronecker_fractal(3)),
        ("rmat", rmat::rmat(7, 400, rmat::RmatProbs::default(), 7)),
        ("rectangular", random::uniform(13, 300, 200, 8)),
        ("empty", Coo::new(40, 25)),
        (
            "one level",
            Coo::from_triplets(2, 2, vec![(1, 0, 2.5)]).unwrap(),
        ),
    ];
    for (name, coo) in &families {
        for s in [2usize, 3, 4, 8, 64, 255, 256] {
            assert_image_matches_encode(coo, s, &format!("{name}, s = {s}"));
        }
    }
    // Non-canonical input: duplicates, unsorted entries, explicit zeros.
    for case in 0..CASES {
        let mut r = case_rng(0xFE, case);
        let mut coo = arb_coo(&mut r, 90, 160);
        let (i, j) = (r.gen_range(0..coo.rows()), r.gen_range(0..coo.cols()));
        coo.push(i, j, 0.0);
        let s = common::pick(&mut r, &[2usize, 3, 4, 8, 64, 255, 256]);
        assert_image_matches_encode(&coo, s, &format!("case {case}, s = {s}"));
    }
    // Both builders reject what the other rejects.
    assert!(build::image_from_coo(&Coo::new(2, 2), 1).is_err());
    assert!(build::image_from_coo(&Coo::new(2, 2), 257).is_err());
}
