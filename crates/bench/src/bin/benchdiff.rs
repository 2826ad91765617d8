//! Compare two `stm-bench-baseline/v1` files (as written by a figure
//! binary's `--bench-json FILE`) and fail on cycle drift.
//!
//! ```text
//! benchdiff [--tolerance T] <base.json> <new.json>
//! benchdiff --write-scaled FACTOR <in.json> <out.json>
//! ```
//!
//! The default tolerance is 0.02 (2% relative drift, either direction).
//! `--write-scaled` multiplies every cycle count by FACTOR and writes a
//! new baseline — CI uses it to manufacture a deliberate regression and
//! prove the gate actually fails. Exits 0 when the baselines agree
//! within tolerance, 1 on any regression/mismatch, 2 on usage or I/O
//! errors.

use std::process::ExitCode;

use stm_bench::baseline::{diff, Baseline};
use stm_obs::cli::{Cli, Flag};

const CLI: Cli = Cli {
    bin: "benchdiff",
    about: "Compares two stm-bench-baseline/v1 files and fails on cycle drift; \
            with --write-scaled, writes <in.json> scaled to <out.json> instead.",
    operands: "<base.json> <new.json>",
    flags: &[
        Flag::value(
            "--tolerance",
            "T",
            "relative cycle drift allowed (default 0.02)",
        ),
        Flag::value(
            "--write-scaled",
            "FACTOR",
            "scale every cycle count of <in.json> by FACTOR into <out.json>",
        ),
    ],
};

fn load(path: &str) -> Result<Baseline, ExitCode> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("benchdiff: {path}: {e}");
        ExitCode::from(2)
    })?;
    Baseline::parse(&text).map_err(|e| {
        eprintln!("benchdiff: {path}: {e}");
        ExitCode::from(2)
    })
}

fn main() -> ExitCode {
    let args = CLI.parse(std::env::args().skip(1));
    let tolerance: f64 = args.value("--tolerance").unwrap_or(0.02);
    let scale: Option<f64> = args.value("--write-scaled");
    let [base_path, new_path] = args.operands() else {
        args.fail("want two baseline files")
    };

    if let Some(factor) = scale {
        let (input, output) = (base_path, new_path);
        let mut base = match load(input) {
            Ok(b) => b,
            Err(code) => return code,
        };
        base.scale_cycles(factor);
        if let Err(e) = std::fs::write(output, base.to_json()) {
            eprintln!("benchdiff: {output}: {e}");
            return ExitCode::from(2);
        }
        println!("benchdiff: wrote {output} with cycles scaled by {factor}");
        return ExitCode::SUCCESS;
    }

    let (base, new) = match (load(base_path), load(new_path)) {
        (Ok(b), Ok(n)) => (b, n),
        (Err(code), _) | (_, Err(code)) => return code,
    };

    let report = diff(&base, &new, tolerance);
    for line in &report.lines {
        println!("{line}");
    }
    if report.regressions == 0 {
        println!(
            "benchdiff: {} vs {}: within ±{:.2}% on every kernel",
            base_path,
            new_path,
            100.0 * tolerance
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "benchdiff: {} regression(s)/mismatch(es) beyond ±{:.2}%",
            report.regressions,
            100.0 * tolerance
        );
        ExitCode::FAILURE
    }
}
