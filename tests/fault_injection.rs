//! Fault-matrix sweep: every fault class crossed with every registry
//! kernel must surface as a *typed* failure (wrong stage is tolerable,
//! a panic or a silently wrong answer is not), and a clean re-run after
//! the faulted one must still produce the baseline digest — corruption
//! must not leak between runs.

use hism_stm::sparse::gen;
use hism_stm::stm::kernels::registry::{self, ExecCtx, KernelError};
use stm_bench::{run_kernel, run_set, FaultSpec, RunConfig, RunStatus};
use stm_dsab::{experiment_sets, quick_catalogue, SuiteEntry};
use stm_hism::FaultClass;
use stm_sparse::MatrixMetrics;

fn test_coo() -> hism_stm::sparse::Coo {
    gen::blocks::block_dense(128, 16, 6, 0.8, 21)
}

fn baseline_digest(name: &str, coo: &hism_stm::sparse::Coo, ctx: &ExecCtx) -> u64 {
    registry::run_verified(name, coo, ctx)
        .unwrap_or_else(|e| panic!("clean baseline: {e}"))
        .output_digest
}

#[test]
fn every_fault_class_on_every_kernel_fails_typed_then_recovers() {
    let coo = test_coo();
    let ctx = ExecCtx::paper();
    let mut injected = 0usize;
    for &name in registry::names() {
        let baseline = baseline_digest(name, &coo, &ctx);
        for class in FaultClass::ALL {
            let mut kernel = registry::create(name).unwrap();
            kernel.prepare(&coo, &ctx).unwrap();
            match kernel.inject_fault(class, 0x5eed) {
                Err(KernelError::FaultUnsupported { .. }) => continue,
                Err(e) => panic!("{name}/{class}: injection itself errored: {e}"),
                Ok(record) => {
                    assert_eq!(record.class, class, "{name}");
                    injected += 1;
                }
            }
            if class == FaultClass::ValueCorruption {
                // The SDC class: guaranteed type-silent. The run must
                // SUCCEED — no typed error may fire, because structure,
                // checksums, and every validation invariant are intact —
                // yet the bit-exact output digest must differ from the
                // clean baseline: only digest comparison can see it.
                let report = kernel.run(&ctx).unwrap_or_else(|e| {
                    panic!("{name}/{class}: a type-silent fault raised a typed error: {e}")
                });
                assert_ne!(
                    report.output_digest, baseline,
                    "{name}/{class}: corrupted value survived with the baseline digest"
                );
            } else {
                // Every structural class must fail in run or verify —
                // with a typed error, not a panic (this test is not
                // wrapped in catch_unwind, so any panic fails it
                // outright).
                let failed = match kernel.run(&ctx) {
                    Err(e) => {
                        assert!(
                            !matches!(e, KernelError::Panicked(_)),
                            "{name}/{class}: {e}"
                        );
                        true
                    }
                    Ok(report) => kernel.verify(&coo, &report.output).is_err(),
                };
                assert!(failed, "{name}/{class}: fault survived run + verify");
            }
            // A fresh kernel on the same input still reproduces the
            // baseline bit-for-bit.
            assert_eq!(
                baseline_digest(name, &coo, &ctx),
                baseline,
                "{name}/{class}: clean re-run diverged after a faulted run"
            );
        }
    }
    assert!(
        injected >= 20,
        "only {injected} class/kernel pairs injected"
    );
}

#[test]
fn harness_isolates_a_corrupted_matrix_from_the_batch() {
    let set = experiment_sets(&quick_catalogue(), 6).by_locality;
    let clean = run_set(
        &RunConfig {
            jobs: Some(1),
            ..RunConfig::default()
        },
        &set,
    );
    for class in FaultClass::ALL {
        let cfg = RunConfig {
            jobs: Some(4),
            fault: Some(FaultSpec {
                index: 1,
                class,
                seed: 7,
            }),
            ..RunConfig::default()
        };
        let faulted = run_set(&cfg, &set);
        assert_eq!(faulted.len(), set.len());
        for (i, (c, f)) in clean.iter().zip(&faulted).enumerate() {
            if i == 1 {
                let failure = f
                    .status
                    .failure()
                    .unwrap_or_else(|| panic!("{class}: matrix 1 must fail"));
                assert!(
                    !matches!(failure.error, KernelError::Panicked(_)),
                    "{class}: panic leaked through: {failure}"
                );
                continue;
            }
            assert!(matches!(f.status, RunStatus::Ok), "{class}: [{i}] failed");
            assert_eq!(
                c.hism.as_ref().unwrap().cycles,
                f.hism.as_ref().unwrap().cycles,
                "{class}: [{i}] HiSM diverged from the clean serial run"
            );
            assert_eq!(
                c.crs.as_ref().unwrap().cycles,
                f.crs.as_ref().unwrap().cycles,
                "{class}: [{i}] CRS diverged from the clean serial run"
            );
        }
    }
}

#[test]
fn run_kernel_retries_and_reports_the_failure_stage() {
    // An impossible geometry fails in prepare, retries included.
    let coo = test_coo();
    let entry = SuiteEntry {
        name: "m".into(),
        metrics: MatrixMetrics::compute(&coo),
        coo,
    };
    let mut cfg = RunConfig::default();
    cfg.stm.s = 32; // != vp.section_size → typed Config error in prepare
    let failure = run_kernel(&cfg, "transpose_hism", &entry).unwrap_err();
    assert_eq!(failure.stage.to_string(), "prepare");
    assert!(matches!(failure.error, KernelError::Config(_)), "{failure}");
}
