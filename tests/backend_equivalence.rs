//! Three-leg differential validation of the execution backends: for
//! every registry kernel the cycle-accurate simulator and the scalar
//! host tier must produce byte-identical output digests, and for every
//! host-capable kernel both must match the digest the `stm-sparse`
//! reference leg computes from the input alone — over the quick
//! catalogue, over seeded property-test matrices (with shrinking) at
//! two section sizes, on degenerate shapes, and with fault injection
//! confined to the leg it was aimed at.

mod common;

use common::{arb_coo, case_rng};
use stm_bench::resilient::reference;
use stm_core::kernels::registry::{self, Backend, ExecCtx};
use stm_dsab::{experiment_sets, quick_catalogue, SuiteEntry};
use stm_hism::FaultClass;
use stm_sparse::Coo;

/// The deduplicated quick catalogue, in catalogue order.
fn entries() -> Vec<SuiteEntry> {
    let sets = experiment_sets(&quick_catalogue(), 6);
    let mut seen = std::collections::HashSet::new();
    sets.all()
        .filter(|e| seen.insert(e.name.clone()))
        .map(|e| SuiteEntry {
            name: e.name.clone(),
            coo: e.coo.clone(),
            metrics: e.metrics,
        })
        .collect()
}

/// The paper machine at section size `s` on `backend`.
fn ctx_with(backend: Backend, s: usize) -> ExecCtx {
    let mut ctx = ExecCtx::paper();
    ctx.backend = backend;
    ctx.vp.section_size = s;
    ctx.stm.s = s;
    ctx
}

/// The verified digest of `kernel` on `coo` under `backend`.
fn digest(kernel: &str, coo: &Coo, backend: Backend) -> Result<u64, String> {
    registry::run_verified(kernel, coo, &ctx_with(backend, 64))
        .map(|r| r.output_digest)
        .map_err(|f| f.to_string())
}

/// Checks the three legs of `kernel` on `coo` at section size `s`: the
/// simulator and the scalar host are byte-identical, and their canonical
/// digest is the reference's.
fn three_legs(kernel: &str, coo: &Coo, s: usize) -> Result<(), String> {
    let run = |backend: Backend| {
        registry::run_verified(kernel, coo, &ctx_with(backend, s))
            .map_err(|f| format!("{} leg: {f}", backend.name()))
    };
    let (sim, scalar) = (run(Backend::Sim)?, run(Backend::Scalar)?);
    if sim.output_digest != scalar.output_digest {
        return Err("scalar leg diverged from the simulator".into());
    }
    let want = reference::digest(kernel, coo, &ctx_with(Backend::Sim, s));
    if sim.output.canonical_digest() != want {
        return Err(format!(
            "reference {want:x?} disagrees with both executed legs"
        ));
    }
    Ok(())
}

#[test]
fn every_kernel_digests_identically_on_all_three_legs_over_the_quick_catalogue() {
    let entries = entries();
    assert!(entries.len() >= 6, "quick catalogue present");
    for entry in &entries {
        for &kernel in &registry::NAMES {
            if registry::host_capable(kernel) {
                three_legs(kernel, &entry.coo, 64)
                    .unwrap_or_else(|e| panic!("{}/{kernel}: {e}", entry.name));
                continue;
            }
            // The rest must be backend-transparent, with no reference.
            let sim = digest(kernel, &entry.coo, Backend::Sim)
                .unwrap_or_else(|e| panic!("{}/{kernel} sim leg: {e}", entry.name));
            let host = digest(kernel, &entry.coo, Backend::Scalar)
                .unwrap_or_else(|e| panic!("{}/{kernel} scalar leg: {e}", entry.name));
            assert_eq!(
                host, sim,
                "{}/{kernel}: backend changed the result",
                entry.name
            );
            let ctx = ExecCtx::paper();
            assert_eq!(reference::digest(kernel, &entry.coo, &ctx), None);
        }
    }
}

/// Shapes the arbitrary generator never draws: no rows or no columns
/// (the simulator pads an SpMV result to `rows.max(1)`), no entries, very
/// tall and very wide, and a row whose products are all `-0.0`.
fn degenerate_shapes() -> Vec<(&'static str, Coo)> {
    // x[4] = 0.0, so negative values in columns 4 and 13 give -0.0
    // products: every leg must serve the +0.0 that a row sum starting
    // from +0.0 produces for row 1.
    let signed_zero_row = vec![(1, 4, -2.0), (1, 13, -0.5), (2, 0, 1.5), (2, 13, -3.0)];
    let tall = (0..300).map(|r| (r, r % 3, 1.0 + r as f32)).collect();
    let wide = (0..300).map(|c| (c % 2, c, c as f32 / 7.0 - 9.0)).collect();
    vec![
        ("empty 0x5", Coo::new(0, 5)),
        ("empty 5x0", Coo::new(5, 0)),
        ("empty 9x4", Coo::new(9, 4)),
        (
            "signed-zero row",
            Coo::from_triplets(3, 20, signed_zero_row).unwrap(),
        ),
        ("tall 300x3", Coo::from_triplets(300, 3, tall).unwrap()),
        ("wide 2x300", Coo::from_triplets(2, 300, wide).unwrap()),
    ]
}

#[test]
fn three_leg_equality_holds_on_arbitrary_matrices() {
    for (name, coo) in degenerate_shapes() {
        for &kernel in &registry::HOST_CAPABLE {
            for s in [8, 64] {
                three_legs(kernel, &coo, s)
                    .unwrap_or_else(|e| panic!("{name}/{kernel} s={s}: {e}"));
            }
        }
    }
    for case in 0..24 {
        let mut r = case_rng(0xB4C8, case);
        let coo = arb_coo(&mut r, 60, 150);
        for &kernel in &registry::HOST_CAPABLE {
            for s in [8, 64] {
                common::check_coo_property("three_leg_equality", 0xB4C8, case, &coo, |m| {
                    three_legs(kernel, m, s).is_ok()
                });
            }
        }
    }
}

#[test]
fn a_fault_injected_into_one_leg_never_poisons_the_others() {
    let coo = stm_sparse::gen::random::uniform(128, 128, 2048, 0xFA57);
    for kernel in ["transpose_hism", "spmv_hism"] {
        let clean = digest(kernel, &coo, Backend::Sim).unwrap();
        for (i, &class) in FaultClass::ALL.iter().enumerate() {
            for (poisoned, other) in [
                (Backend::Sim, Backend::Scalar),
                (Backend::Scalar, Backend::Sim),
            ] {
                // The poisoned leg: its own kernel instance, its own
                // prepared image, a fault injected only here. It may fail
                // typed or produce a divergent digest — both are fine.
                let ctx = ctx_with(poisoned, 64);
                let mut k = registry::create(kernel).unwrap();
                k.prepare(&coo, &ctx).unwrap();
                let injected = k.inject_fault(class, 0xBAD0 + i as u64).is_ok();
                let _ = k.run(&mut ctx.clone());

                // The other leg, run after the faulted one, must still
                // produce the clean simulator digest.
                let got = digest(kernel, &coo, other).unwrap_or_else(|e| {
                    panic!(
                        "{kernel}: clean {} leg failed after {class:?} on {} \
                         (injected={injected}): {e}",
                        other.name(),
                        poisoned.name()
                    )
                });
                assert_eq!(
                    got,
                    clean,
                    "{kernel}: {class:?} on the {} leg leaked into the {} leg",
                    poisoned.name(),
                    other.name()
                );
            }
        }
    }
}
