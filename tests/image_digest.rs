//! `HismImage::canonical_digest`, which reads an image's canonical
//! digest in one walk, against the digest through decode it replaced:
//! `canonical_digest(&to_coo(&decode()?))`, `None` included.
//!
//! Every single-bit flip of the words and of the root descriptor of six
//! small transposed images (s ∈ {2, 4, 8}, 1–4 levels, rectangular and
//! empty ones among them), sealed and unsealed, enumerated rather than
//! sampled; then hand-built images that canonical form has to repair:
//! unsorted leaves, positions stored twice, explicit zeros of either
//! sign, NaNs, and entries in the padding past the declared shape.

use hism_stm::hism::image::pack_pos;
use hism_stm::hism::{build, HismImage, RootDesc};
use hism_stm::sparse::format::canonical_digest;
use hism_stm::sparse::{gen, Coo, Value};
use hism_stm::stm::kernels::registry::{self, ExecCtx, KernelOutput};
use hism_stm::stm::unit::StmConfig;
use hism_stm::vpsim::VpConfig;

/// The digest through decode, as `KernelOutput::canonical_digest` took
/// it before images were digested in one walk.
fn through_decode(img: &HismImage) -> Option<u64> {
    Some(canonical_digest(&build::to_coo(&img.decode().ok()?)))
}

/// Demands the one-walk digest equal the digest through decode, and
/// returns it.
fn same_digest(img: &HismImage, case: &str) -> Option<u64> {
    let got = img.canonical_digest();
    assert_eq!(got, through_decode(img), "{case}");
    got
}

/// The paper machine at section size `s`.
fn machine(s: usize) -> ExecCtx {
    ExecCtx {
        vp: VpConfig {
            section_size: s,
            ..VpConfig::paper()
        },
        stm: StmConfig { s, b: 4, l: 4 },
        ..ExecCtx::paper()
    }
}

/// Small matrices, with the section size and the level count of their
/// transposes' images.
fn small_matrices() -> [(Coo, usize, u32); 6] {
    [
        (gen::random::uniform(20, 14, 40, 3), 4, 3),
        (gen::structured::tridiagonal(12), 2, 4),
        (gen::blocks::block_dense(24, 4, 3, 0.7, 5), 8, 2),
        (
            Coo::from_triplets(
                9,
                30,
                vec![(0, 29, 1.5), (8, 0, -2.0), (4, 4, 3.0), (4, 5, 0.5)],
            )
            .unwrap(),
            4,
            3,
        ),
        (
            Coo::from_triplets(5, 7, vec![(0, 6, 1.0), (4, 0, 2.0), (2, 3, -3.5)]).unwrap(),
            8,
            1,
        ),
        (Coo::new(6, 9), 4, 2),
    ]
}

#[test]
fn every_single_bit_flip_of_a_transposed_image_digests_as_through_decode() {
    let fields: [fn(&mut RootDesc) -> &mut u32; 6] = [
        |r| &mut r.addr,
        |r| &mut r.len,
        |r| &mut r.levels,
        |r| &mut r.rows,
        |r| &mut r.cols,
        |r| &mut r.s,
    ];
    for (i, (coo, s, levels)) in small_matrices().into_iter().enumerate() {
        let ctx = machine(s);
        let mut kernel = registry::create("transpose_hism").unwrap();
        kernel.prepare(&coo, &ctx).unwrap();
        let KernelOutput::Hism(image) = kernel.run(&ctx).unwrap().output else {
            unreachable!("transpose_hism produces Hism outputs")
        };
        assert_eq!(image.root.levels, levels, "matrix {i}");
        let want = canonical_digest(&coo.transpose_canonical());
        assert_eq!(
            same_digest(&image, &format!("matrix {i}")),
            Some(want),
            "matrix {i}"
        );
        let mut unsealed = image.clone();
        unsealed.integrity = None;
        for (seal, image) in [("sealed", &image), ("unsealed", &unsealed)] {
            let mut decoded = 0;
            for word in 0..image.words.len() {
                for bit in 0..32 {
                    let mut flipped = image.clone();
                    flipped.words[word] ^= 1 << bit;
                    let case = format!("matrix {i}, {seal}, word {word}, bit {bit}");
                    decoded += same_digest(&flipped, &case).is_some() as usize;
                }
            }
            // A sealed image rejects every flip; an unsealed one digests
            // at least its flipped values.
            match seal {
                "sealed" => assert_eq!(decoded, 0, "matrix {i}"),
                _ => assert!(decoded >= 32 * coo.nnz(), "matrix {i}: {decoded}"),
            }
            for (f, field) in fields.iter().enumerate() {
                for bit in 0..32 {
                    let mut flipped = image.clone();
                    *field(&mut flipped.root) ^= 1 << bit;
                    same_digest(
                        &flipped,
                        &format!("matrix {i}, {seal}, root {f}, bit {bit}"),
                    );
                }
            }
        }
    }
}

/// A one-leaf image of `entries` (`s` = 8) over a `rows × cols` shape,
/// in the given order, sealed.
fn leaf(rows: u32, cols: u32, entries: &[(u8, u8, u32)]) -> HismImage {
    let words = entries
        .iter()
        .flat_map(|&(r, c, bits)| [bits, pack_pos(r, c)])
        .collect();
    let mut img = HismImage {
        words,
        root: RootDesc {
            addr: 0,
            len: entries.len() as u32,
            levels: 1,
            rows,
            cols,
            s: 8,
        },
        pointer_sites: Vec::new(),
        integrity: None,
    };
    img.seal_integrity();
    img
}

/// The bits of `v`.
fn b(v: Value) -> u32 {
    v.to_bits()
}

#[test]
fn hand_built_images_digest_as_through_decode() {
    let signalling_nan = 0x7fa0_0000;
    let cases: [(&str, HismImage); 9] = [
        (
            "unsorted leaf",
            leaf(4, 4, &[(1, 2, b(1.0)), (0, 3, b(2.0)), (1, 0, b(3.0))]),
        ),
        (
            "duplicate summing to non-zero",
            leaf(3, 3, &[(0, 1, b(1.5)), (2, 2, b(3.0)), (0, 1, b(2.25))]),
        ),
        (
            "duplicate summing to zero",
            leaf(3, 3, &[(0, 1, b(1.5)), (2, 2, b(3.0)), (0, 1, b(-1.5))]),
        ),
        (
            "explicit zeros of either sign",
            leaf(3, 3, &[(0, 0, b(0.0)), (1, 1, b(-0.0)), (2, 0, b(4.0))]),
        ),
        (
            "NaNs",
            leaf(3, 3, &[(0, 0, b(Value::NAN)), (1, 2, signalling_nan)]),
        ),
        (
            "a NaN stored twice over a zero",
            leaf(3, 3, &[(1, 1, b(0.0)), (1, 1, signalling_nan)]),
        ),
        (
            "an entry in the row padding",
            leaf(3, 5, &[(0, 0, b(1.0)), (4, 1, b(2.0))]),
        ),
        (
            "an entry in the column padding",
            leaf(5, 3, &[(1, 3, b(1.0))]),
        ),
        ("an empty leaf", leaf(2, 2, &[])),
    ];
    for (case, sealed) in cases {
        let mut unsealed = sealed.clone();
        unsealed.integrity = None;
        for img in [&sealed, &unsealed] {
            let got = same_digest(img, case);
            // Only entries past the shape make the image undecodable.
            assert_eq!(got.is_none(), case.contains("padding"), "{case}");
        }
    }
}

#[test]
fn a_two_level_image_with_an_unsorted_node_digests_as_through_decode() {
    // Swapping two entries of the root blockarray (with their lengths)
    // keeps the image valid but puts block column 1 before 0 in layout
    // order.
    let coo = Coo::from_triplets(8, 8, vec![(0, 1, 1.0), (1, 5, 2.0), (1, 2, 3.0)]).unwrap();
    let mut img = build::image_from_coo(&coo, 4).unwrap();
    let root = img.root.addr as usize;
    assert_eq!(img.root.len, 2);
    img.words.swap(root, root + 2);
    img.words.swap(root + 1, root + 3);
    img.words.swap(root + 4, root + 5);
    assert_eq!(
        same_digest(&img, "permuted root"),
        Some(canonical_digest(&coo))
    );
}
