//! The one-walk HiSM transpose verify against the decode-then-compare
//! reference it replaced: on every output, clean or faulted, both must
//! return the same `Result` — the same `KernelError` variant and the same
//! message.
//!
//! Two sweeps: the quick catalogue under every fault class (input faults
//! and the mid-run bit flip) at four seeds, and every single-bit flip of
//! the transposed output image (words and root descriptor) of four small
//! multi-level matrices, enumerated rather than sampled.

use hism_stm::hism::FaultClass;
use hism_stm::sparse::{gen, Coo, Value};
use hism_stm::stm::kernels::registry::{self, ExecCtx, KernelError, KernelOutput, Oracle};
use hism_stm::stm::unit::StmConfig;
use hism_stm::vpsim::VpConfig;
use stm_dsab::quick_catalogue;

/// The verify as it was before the one-walk verify: decode the output
/// image into a `HismMatrix`, then match its triplets (in `iter` order)
/// against the oracle as a bijection.
fn reference_verify(oracle: &Oracle, out: &KernelOutput) -> Result<(), KernelError> {
    let img = out
        .as_hism()
        .ok_or_else(|| KernelError::Mismatch("transpose_hism produces Hism outputs".into()))?;
    let got = img.decode()?;
    let want = oracle.transpose();
    let mismatch = |what: String| {
        Err(KernelError::Mismatch(format!(
            "decoded HiSM transpose differs from host oracle: {what}"
        )))
    };
    if got.shape() != want.shape() || got.nnz() != want.nnz() {
        return mismatch(format!(
            "{:?} with {} entries, expected {:?} with {}",
            got.shape(),
            got.nnz(),
            want.shape(),
            want.nnz()
        ));
    }
    let mut claimed = vec![0u64; want.nnz().div_ceil(64)];
    for (r, c, v) in got.iter() {
        let slot = (r < want.rows())
            .then(|| {
                let (cols, vals) = want.row(r);
                let k = cols.binary_search(&c).ok()?;
                (vals[k].to_bits() == v.to_bits()).then(|| want.row_ptr()[r] + k)
            })
            .flatten();
        let Some(slot) = slot else {
            return mismatch(format!("entry ({r}, {c}) = {v} is not in the oracle"));
        };
        let (word, bit) = (slot / 64, 1u64 << (slot % 64));
        if claimed[word] & bit != 0 {
            return mismatch(format!("entry ({r}, {c}) appears twice"));
        }
        claimed[word] |= bit;
    }
    Ok(())
}

/// Runs the one-walk verify and the reference on `out` and demands the
/// same result; returns whether it was a failure.
fn same_verdict(oracle: &Oracle, out: &KernelOutput, case: &str) -> bool {
    let kernel = registry::create("transpose_hism").unwrap();
    let got = kernel.verify_with(oracle, out);
    assert_eq!(got, reference_verify(oracle, out), "{case}");
    got.is_err()
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

#[test]
fn faulted_catalogue_outputs_verify_as_the_reference_does() {
    let ctx = ExecCtx::paper();
    let classes = FaultClass::ALL
        .into_iter()
        .chain([FaultClass::MidRunBitFlip]);
    let (mut verified, mut rejected) = (0, 0);
    for spec in quick_catalogue() {
        let coo = spec.build();
        let oracle = Oracle::new(&coo);
        for class in classes.clone() {
            for seed in 0..4u64 {
                let case = format!("{} / {class} / seed {seed}", spec.name);
                let mut kernel = registry::create("transpose_hism").unwrap();
                kernel.prepare(&coo, &ctx).unwrap();
                let mut run_ctx = ctx.clone();
                if class == FaultClass::MidRunBitFlip {
                    run_ctx.vp.mid_run_flip = kernel.arm_sdc(seed);
                } else if kernel.inject_fault(class, seed).is_err() {
                    continue;
                }
                // A fault the run itself catches never reaches a verify.
                let Ok(report) = kernel.run(&run_ctx) else {
                    continue;
                };
                verified += 1;
                rejected += same_verdict(&oracle, &report.output, &case) as usize;
            }
        }
    }
    // Value corruptions and manifesting mid-run flips reach the verify
    // and fail there.
    assert!(
        verified > 16 && rejected > 16,
        "{verified} verified, {rejected} rejected"
    );
}

/// Small matrices whose images have two to four levels.
fn small_matrices() -> [(Coo, usize); 4] {
    [
        (gen::random::uniform(20, 14, 40, 3), 4),
        (gen::structured::tridiagonal(18), 2),
        (gen::blocks::block_dense(24, 4, 3, 0.7, 5), 8),
        (
            Coo::from_triplets(
                9,
                30,
                vec![(0, 29, 1.5), (8, 0, -2.0), (4, 4, 3.0), (4, 5, 0.5)],
            )
            .unwrap(),
            3,
        ),
    ]
}

#[test]
fn every_single_bit_flip_of_an_output_verifies_as_the_reference_does() {
    for (i, (coo, s)) in small_matrices().into_iter().enumerate() {
        let ctx = machine(s);
        let oracle = Oracle::new(&coo);
        let mut kernel = registry::create("transpose_hism").unwrap();
        kernel.prepare(&coo, &ctx).unwrap();
        let clean = kernel.run(&ctx).unwrap().output;
        assert!(!same_verdict(&oracle, &clean, &format!("matrix {i} clean")));
        let KernelOutput::Hism(image) = clean else {
            unreachable!("transpose_hism produces Hism outputs")
        };
        assert!(image.root.levels >= 2, "matrix {i}");
        let mut rejected = 0;
        for word in 0..image.words.len() {
            for bit in 0..32 {
                let mut flipped = image.clone();
                flipped.words[word] ^= 1 << bit;
                let case = format!("matrix {i}, word {word}, bit {bit}");
                rejected += same_verdict(&oracle, &KernelOutput::Hism(flipped), &case) as usize;
            }
        }
        // Every flip of a sealed image is rejected: it breaks the
        // structure or changes a section sum.
        assert_eq!(rejected, 32 * image.words.len(), "matrix {i}");
        let fields: [fn(&mut hism_stm::hism::RootDesc) -> &mut u32; 6] = [
            |r| &mut r.addr,
            |r| &mut r.len,
            |r| &mut r.levels,
            |r| &mut r.rows,
            |r| &mut r.cols,
            |r| &mut r.s,
        ];
        for (f, field) in fields.iter().enumerate() {
            for bit in 0..32 {
                let mut flipped = image.clone();
                *field(&mut flipped.root) ^= 1 << bit;
                let case = format!("matrix {i}, root field {f}, bit {bit}");
                same_verdict(&oracle, &KernelOutput::Hism(flipped), &case);
            }
        }
        // Unsealed, the same flips reach the position and shape checks
        // and the oracle instead of the sums.
        for word in 0..image.words.len() {
            for bit in 0..32 {
                let mut flipped = image.clone();
                flipped.integrity = None;
                flipped.words[word] ^= 1 << bit;
                let case = format!("matrix {i}, unsealed, word {word}, bit {bit}");
                same_verdict(&oracle, &KernelOutput::Hism(flipped), &case);
            }
        }
    }
}

#[test]
fn the_first_failure_is_reported_in_decoded_order() {
    // Two wrong entries in one leaf, the later one in layout order first
    // in row-major order: the message names the row-major first.
    let coo = Coo::from_triplets(4, 4, vec![(0, 1, 1.0), (2, 3, 2.0)]).unwrap();
    let oracle = Oracle::new(&coo);
    let value: Value = 7.0;
    let words = [(3, 2, value), (1, 0, value)]
        .iter()
        .flat_map(|&(r, c, v): &(u8, u8, Value)| {
            [v.to_bits(), hism_stm::hism::image::pack_pos(r, c)]
        })
        .collect();
    let mut img = hism_stm::hism::HismImage {
        words,
        root: hism_stm::hism::RootDesc {
            addr: 0,
            len: 2,
            levels: 1,
            rows: 4,
            cols: 4,
            s: 4,
        },
        pointer_sites: Vec::new(),
        integrity: None,
    };
    img.seal_integrity();
    let out = KernelOutput::Hism(img);
    assert!(same_verdict(&oracle, &out, "two wrong entries"));
    let err = registry::create("transpose_hism")
        .unwrap()
        .verify_with(&oracle, &out)
        .unwrap_err();
    assert!(err.to_string().contains("entry (1, 0) = 7"), "{err}");
}
