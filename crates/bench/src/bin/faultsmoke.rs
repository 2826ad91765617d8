//! Fault-injection smoke run for CI: corrupts exactly one matrix of a
//! small suite, runs the batch in parallel, and checks that
//!
//! * the run completes (no panic takes down the pool),
//! * exactly the corrupted matrix reports `Failed` with a typed error,
//! * every other matrix is bit-identical to a clean serial run.
//!
//! `--help` lists the flags: the victim (`--index`), the fault class
//! (`--class`, default `pointer_retarget`) and the run flags; under
//! `--strict` the failure panics instead (CI asserts the nonzero exit).
//!
//! Exits 0 when all checks hold, 1 otherwise.

use stm_bench::{run_set, FaultSpec, RunConfig};
use stm_bench::{BACKEND, FORMAT, JOBS, STRICT, TRACE};
use stm_dsab::{experiment_sets, quick_catalogue};
use stm_hism::FaultClass;
use stm_obs::cli::{Cli, Flag};

const CLI: Cli = Cli {
    bin: "faultsmoke",
    about: "Fault-injection smoke: corrupt one matrix, check containment.",
    operands: "",
    flags: &[
        JOBS,
        FORMAT,
        TRACE,
        BACKEND,
        STRICT,
        Flag::value(
            "--class",
            "NAME",
            "fault class to inject (default pointer_retarget)",
        ),
        Flag::value(
            "--index",
            "N",
            "set position of the victim matrix (default 2)",
        ),
    ],
};

fn main() {
    let args = CLI.parse(std::env::args().skip(1));
    let run = RunConfig::from_args(&args);
    let class = args
        .value_with("--class", FaultClass::from_name)
        .unwrap_or(FaultClass::PointerRetarget);
    let index: Option<usize> = args.value("--index");
    let set = experiment_sets(&quick_catalogue(), 6).by_locality;
    let index = index.unwrap_or(2.min(set.len() - 1));
    if index >= set.len() {
        args.fail(&format!(
            "--index {index} outside the {} matrices",
            set.len()
        ));
    }

    let clean_cfg = RunConfig {
        jobs: Some(1),
        ..run.clone()
    };
    let clean = run_set(&clean_cfg, &set);

    let cfg = RunConfig {
        fault: Some(FaultSpec {
            index,
            class,
            seed: 0xf0_57a7,
        }),
        ..run
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
