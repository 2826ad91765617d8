//! Pinned soak report digests and the soak/harness equivalence.
//!
//! [`SoakReport::digest`] hashes the canonical entry stream: every
//! slot's decision, outcome, attempts, cycles, typed error, served
//! digest, verification verdict and fallback. Three fixed configurations
//! over the quick locality set pin it: 100% chaos under a tight breaker
//! (retries, breaker trips, fallbacks), the 2-of-3 vote under 100%
//! mid-run bit flips (detection and recovery), and the `auto` format
//! slot. A change to the execution pipeline that moves any of these
//! digests changed what the soak computes or records.
//!
//! A clean soak and the batch harness run the same legs, so the soak's
//! live rows must equal [`run_set`]'s rows leg for leg.

use hism_stm::dsab::{experiment_sets, quick_catalogue, FormatSel, SuiteEntry};
use stm_bench::resilient::{self, SdcSpec, VerifyMode, PRIMARY_KERNELS};
use stm_bench::{run_kernel, run_set, ChaosSpec, RunConfig, SoakConfig};

/// The quick locality set `stmsoak --quick` soaks.
fn suite() -> Vec<SuiteEntry> {
    experiment_sets(&quick_catalogue(), 6).by_locality
}

fn base(jobs: usize) -> SoakConfig {
    SoakConfig {
        run: RunConfig {
            jobs: Some(jobs),
            ..RunConfig::default()
        },
        ..SoakConfig::default()
    }
}

/// `stmsoak --fault-rate 100 --seed 7 --breaker-threshold 2
/// --breaker-cooldown 1`.
fn full_chaos(jobs: usize) -> SoakConfig {
    let mut cfg = base(jobs);
    cfg.chaos = Some(ChaosSpec {
        rate_pct: 100,
        seed: 7,
    });
    cfg.breaker.threshold = 2;
    cfg.breaker.cooldown = 1;
    cfg
}

/// `stmsoak --verify-mode vote --sdc-rate 100 --sdc-seed 5` (which
/// turns the oracle off so the flips stay silent).
fn vote_sdc(jobs: usize) -> SoakConfig {
    let mut cfg = base(jobs);
    cfg.verify_mode = VerifyMode::Vote;
    cfg.sdc = Some(SdcSpec {
        rate_pct: 100,
        seed: 5,
    });
    cfg.run.verify = false;
    cfg
}

/// `stmsoak --format auto`, otherwise clean.
fn format_auto(jobs: usize) -> SoakConfig {
    let mut cfg = base(jobs);
    cfg.run.format = Some(FormatSel::Auto);
    cfg
}

#[test]
fn soak_digests_match_their_goldens() {
    let set = suite();
    let cases = [
        (
            "full chaos",
            full_chaos as fn(usize) -> SoakConfig,
            0xad00_5e1f_12f4_d785,
        ),
        ("vote sdc", vote_sdc, 0x707a_2640_5bb4_10fd),
        ("format auto", format_auto, 0xe435_0e32_c4d9_d05e),
    ];
    for (what, cfg, want) in cases {
        for jobs in [1, 3] {
            let report = resilient::run_soak(&cfg(jobs), &set).unwrap();
            assert_eq!(report.entries.len(), set.len(), "{what}");
            assert_eq!(
                report.digest, want,
                "{what} at {jobs} jobs: 0x{:016x}",
                report.digest
            );
        }
    }
}

#[test]
fn a_clean_soak_equals_the_harness_leg_for_leg() {
    let set = suite();
    let cfg = format_auto(2);
    let soak = resilient::run_soak(&cfg, &set).unwrap();
    let harness = run_set(&cfg.run, &set);
    assert_eq!(soak.live.len(), harness.len());
    for ((i, live), row) in soak.live.iter().zip(&harness) {
        let what = &row.name;
        assert_eq!(live.name, row.name);
        assert!(row.status.is_ok(), "{what}: {:?}", row.status);
        assert_eq!(format!("{:?}", live.status), format!("{:?}", row.status));
        // Cycles, engine and STM stats, phases and stall breakdowns.
        assert_eq!(
            format!("{:?}", live.hism),
            format!("{:?}", row.hism),
            "{what}"
        );
        assert_eq!(
            format!("{:?}", live.crs),
            format!("{:?}", row.crs),
            "{what}"
        );
        // The format leg: selection, resolved kind, kernel, decision
        // and report.
        let leg = row.format.as_ref().expect("the harness ran the format leg");
        assert_eq!(
            format!("{:?}", live.format),
            format!("{:?}", row.format),
            "{what}"
        );
        // The digests the soak recorded are those of the kernels' outputs.
        let kernels = PRIMARY_KERNELS.into_iter().chain([leg.kernel]);
        for (slot, kernel) in soak.entries[*i].slots.iter().zip(kernels) {
            let out = run_kernel(&cfg.run, kernel, &set[*i]).unwrap().output;
            assert_eq!(slot.kernel, kernel, "{what}");
            assert_eq!(Some(slot.digest), out.canonical_digest(), "{what} {kernel}");
        }
    }
}
