//! End-to-end integration: COO → HiSM image → simulated STM transpose →
//! decode, cross-checked against the simulated CRS baseline and every
//! host-side oracle, across all generator families.

use hism_stm::hism::{build, transpose as hism_sw, HismImage};
use hism_stm::sparse::{gen, Coo, Csc, Csr, Dense};
use hism_stm::stm::kernels::{transpose_crs, transpose_hism};
use hism_stm::stm::{ExecCtx, StmConfig};
use hism_stm::vpsim::VpConfig;

fn family_matrices() -> Vec<(&'static str, Coo)> {
    vec![
        ("diagonal", gen::structured::diagonal(200)),
        ("tridiagonal", gen::structured::tridiagonal(150)),
        ("banded", gen::structured::banded(128, 6, 0.7, 1)),
        ("grid2d", gen::structured::grid2d_5pt(14, 14)),
        ("grid3d", gen::structured::grid3d_7pt(6, 6, 6)),
        ("grid9", gen::structured::grid2d_9pt(11, 11)),
        ("uniform", gen::random::uniform(180, 140, 900, 2)),
        ("powerlaw", gen::random::power_law(160, 160, 12.0, 1.1, 3)),
        ("jittered", gen::random::jittered_diagonal(220, 4, 9, 4)),
        (
            "rmat",
            gen::rmat::rmat(8, 1200, gen::rmat::RmatProbs::default(), 5),
        ),
        ("blockdense", gen::blocks::block_dense(192, 32, 7, 0.8, 6)),
        ("blockband", gen::blocks::block_band(160, 16, 1, 0.75, 7)),
        ("kron", gen::blocks::kronecker_fractal(4)),
        ("empty", Coo::new(50, 70)),
        (
            "single",
            Coo::from_triplets(100, 100, vec![(37, 93, 5.0)]).unwrap(),
        ),
    ]
}

/// The central equivalence: six independent transposition paths agree.
#[test]
fn all_transpose_paths_agree_across_families() {
    let ctx = ExecCtx::paper();
    for (name, coo) in family_matrices() {
        let oracle = coo.transpose_canonical();

        // 1. Simulated HiSM + STM.
        let h = build::from_coo(&coo, ctx.stm.s).unwrap();
        let image = HismImage::encode(&h);
        let (out, _) = transpose_hism(&ctx, &image).unwrap();
        assert_eq!(
            build::to_coo(&out.decode().unwrap()),
            oracle,
            "sim HiSM vs oracle: {name}"
        );

        // 2. Simulated CRS baseline.
        let csr = Csr::from_coo(&coo);
        let (t_csr, _) = transpose_crs(&ctx, &csr).unwrap();
        let mut from_crs = t_csr.to_coo();
        from_crs.canonicalize();
        assert_eq!(from_crs, oracle, "sim CRS vs oracle: {name}");

        // 3. Host Pissanetsky.
        let mut host = csr.transpose_pissanetsky().to_coo();
        host.canonicalize();
        assert_eq!(host, oracle, "host CRS vs oracle: {name}");

        // 4. HiSM software reference.
        assert_eq!(
            build::to_coo(&hism_sw::transpose(&h)),
            oracle,
            "sw HiSM: {name}"
        );

        // 5. CSC reinterpretation.
        let mut via_csc = Csc::from_coo(&coo)
            .into_csr_of_transpose()
            .unwrap()
            .to_coo();
        via_csc.canonicalize();
        assert_eq!(via_csc, oracle, "CSC vs oracle: {name}");

        // 6. Dense strided copy (small matrices only).
        if coo.rows() * coo.cols() <= 100_000 {
            assert_eq!(
                Dense::from_coo(&coo).transpose().to_coo(),
                oracle,
                "dense: {name}"
            );
        }
    }
}

#[test]
fn simulated_double_transpose_is_identity() {
    let ctx = ExecCtx::paper();
    for (name, coo) in family_matrices() {
        let h = build::from_coo(&coo, ctx.stm.s).unwrap();
        let image = HismImage::encode(&h);
        let (once, _) = transpose_hism(&ctx, &image).unwrap();
        let (twice, _) = transpose_hism(&ctx, &once).unwrap();
        assert_eq!(twice.words, image.words, "double transpose image: {name}");

        let csr = Csr::from_coo(&coo);
        let (t, _) = transpose_crs(&ctx, &csr).unwrap();
        let (tt, _) = transpose_crs(&ctx, &t).unwrap();
        assert_eq!(tt, csr, "double transpose CRS: {name}");
    }
}

#[test]
fn hism_wins_on_every_family_matrix() {
    // The paper: "for all matrices HiSM consistently outperforms CRS."
    let ctx = ExecCtx::paper();
    for (name, coo) in family_matrices() {
        if coo.nnz() == 0 {
            continue;
        }
        let h = build::from_coo(&coo, ctx.stm.s).unwrap();
        let (_, hr) = transpose_hism(&ctx, &HismImage::encode(&h)).unwrap();
        let (_, cr) = transpose_crs(&ctx, &Csr::from_coo(&coo)).unwrap();
        assert!(
            cr.cycles > hr.cycles,
            "{name}: CRS {} cycles vs HiSM {} cycles",
            cr.cycles,
            hr.cycles
        );
    }
}

#[test]
fn in_place_property_image_length_is_preserved() {
    // Section IV-A: HiSM transposition needs no extra memory.
    let ctx = ExecCtx::paper();
    for (name, coo) in family_matrices() {
        let h = build::from_coo(&coo, 64).unwrap();
        let image = HismImage::encode(&h);
        let (out, _) = transpose_hism(&ctx, &image).unwrap();
        assert_eq!(out.words.len(), image.words.len(), "image grew: {name}");
    }
}

#[test]
fn rectangular_shapes_swap() {
    let ctx = ExecCtx::paper();
    let coo = gen::random::uniform(50, 300, 700, 8);
    let h = build::from_coo(&coo, 64).unwrap();
    let (out, _) = transpose_hism(&ctx, &HismImage::encode(&h)).unwrap();
    assert_eq!(out.decode().unwrap().shape(), (300, 50));
    let (t, _) = transpose_crs(&ctx, &Csr::from_coo(&coo)).unwrap();
    assert_eq!(t.shape(), (300, 50));
}

#[test]
fn values_survive_bit_exactly() {
    // Transposition moves values without touching them: bit patterns
    // (including negative zero and subnormals) must survive.
    // Note: ±0.0 values are excluded — canonicalization prunes explicit
    // zeros from the format, by design.
    let tricky = vec![
        (0usize, 1usize, f32::MIN_POSITIVE / 2.0), // subnormal
        (1, 0, -f32::MIN_POSITIVE / 4.0),          // negative subnormal
        (2, 2, f32::MAX),
        (3, 4, -f32::MIN_POSITIVE),
        (4, 3, 1.0e-38),
    ];
    let coo = Coo::from_triplets(8, 8, tricky.clone()).unwrap();
    let h = build::from_coo(&coo, 8).unwrap();
    let ctx = ExecCtx {
        vp: VpConfig {
            section_size: 8,
            ..VpConfig::paper()
        },
        stm: StmConfig { s: 8, b: 4, l: 4 },
        ..ExecCtx::paper()
    };
    let (out, _) = transpose_hism(&ctx, &HismImage::encode(&h)).unwrap();
    let decoded = out.decode().unwrap();
    for (r, c, v) in tricky {
        let got = decoded.get(c, r).expect("entry present");
        assert_eq!(got.to_bits(), v.to_bits(), "bits changed at ({r},{c})");
    }
}
