//! Fault-injection smoke run for CI: corrupts exactly one matrix of a
//! small suite, runs the batch in parallel, and checks that
//!
//! * the run completes (no panic takes down the pool),
//! * exactly the corrupted matrix reports `Failed` with a typed error,
//! * every other matrix is bit-identical to a clean serial run.
//!
//! Flags: `--jobs N` sizes the pool, `--class <name>` picks the fault
//! class (default `pointer_retarget`), `--index N` the victim (default
//! 2), `--strict` panics on the failure instead (CI asserts the nonzero
//! exit).
//!
//! Exits 0 when all checks hold, 1 otherwise.

use stm_bench::{arg_value, parsed, run_set, FaultSpec, RunConfig};
use stm_dsab::{experiment_sets, quick_catalogue};
use stm_hism::FaultClass;

fn main() {
    stm_bench::handle_help(
        "faultsmoke",
        "Fault-injection smoke: corrupt one matrix, check containment.",
        &[
            (
                "--class NAME",
                "fault class to inject (default pointer_retarget)",
            ),
            ("--index N", "set position of the victim matrix (default 2)"),
        ],
    );
    let class = match arg_value("--class") {
        Some(name) => FaultClass::from_name(&name)
            .unwrap_or_else(|| panic!("unknown fault class {name:?}; see `FaultClass::ALL`")),
        None => FaultClass::PointerRetarget,
    };
    let set = experiment_sets(&quick_catalogue(), 6).by_locality;
    let index: usize = parsed("--index").unwrap_or(2.min(set.len() - 1));
    assert!(
        index < set.len(),
        "--index {index} outside the {} matrices",
        set.len()
    );

    let clean_cfg = RunConfig {
        jobs: Some(1),
        ..RunConfig::from_env()
    };
    let clean = run_set(&clean_cfg, &set);

    let cfg = RunConfig {
        fault: Some(FaultSpec {
            index,
            class,
            seed: 0xf0_57a7,
        }),
        ..RunConfig::from_env()
    };
    // Under --strict this panics (nonzero exit) — which is the behavior
    // CI asserts for the strict leg.
    let faulted = run_set(&cfg, &set);

    let mut bad = 0usize;
    for (i, (c, f)) in clean.iter().zip(&faulted).enumerate() {
        if i == index {
            match f.status.failure() {
                Some(failure) => {
                    println!("[{i}] {}: failed as intended: {failure}", f.name);
                }
                None => {
                    eprintln!("[{i}] {}: fault {class} did not fail the matrix", f.name);
                    bad += 1;
                }
            }
            continue;
        }
        if !f.status.is_ok() {
            eprintln!(
                "[{i}] {}: unexpected failure: {}",
                f.name,
                f.status.failure().unwrap()
            );
            bad += 1;
            continue;
        }
        let same = c.hism.as_ref().map(|r| r.cycles) == f.hism.as_ref().map(|r| r.cycles)
            && c.crs.as_ref().map(|r| r.cycles) == f.crs.as_ref().map(|r| r.cycles);
        if !same {
            eprintln!("[{i}] {}: diverged from the clean serial run", f.name);
            bad += 1;
        }
    }
    let failed_rows = faulted.iter().filter(|r| !r.status.is_ok()).count();
    if failed_rows != 1 {
        eprintln!("expected exactly 1 failed row, found {failed_rows}");
        bad += 1;
    }
    if bad == 0 {
        println!(
            "fault smoke ok: {} matrices, fault {class} at index {index}, 1 failed row, rest clean",
            set.len()
        );
    } else {
        eprintln!("fault smoke FAILED: {bad} problem(s)");
        std::process::exit(1);
    }
}
