//! Profile exported JSONL traces: per-kernel phase attribution, per-FU
//! stall tables, and folded-stack (flamegraph) export.
//!
//! Usage:
//!
//! ```text
//! stmprof <file.jsonl | dir> ... [--top N] [--csv FILE] [--folded FILE]
//! ```
//!
//! Directories are scanned (non-recursively) for `*.jsonl` files as
//! written by the bench harness's `--trace DIR` (one file per
//! matrix/kernel pair, named `<matrix>.<kernel>.jsonl`). The human table
//! goes to stdout; `--csv` and `--folded` additionally write the
//! machine-readable report and the merged folded stacks. Exits 0 on
//! success, 1 when any profile violates cycle conservation (the per-FU
//! buckets must sum to the engine total) or an input cannot be read,
//! 2 on usage errors.

use std::process::ExitCode;

use stm_obs::cli::{Cli, Flag};
use stm_obs::profile::{KernelProfile, ProfileSet};

const CLI: Cli = Cli {
    bin: "stmprof",
    about: "Profile exported JSONL traces: phase attribution, per-FU stalls, folded stacks.",
    operands: "<file.jsonl | dir> ...",
    flags: &[
        Flag::value("--top", "N", "phases listed per kernel (default 10)"),
        Flag::value("--csv", "FILE", "also write the machine-readable report"),
        Flag::value("--folded", "FILE", "also write the merged folded stacks"),
    ],
};

fn main() -> ExitCode {
    let args = CLI.parse(std::env::args().skip(1));
    let top: usize = args.value("--top").unwrap_or(10);
    if args.operands().is_empty() {
        args.fail("no inputs");
    }
    let files = match args.operand_files(&["jsonl"]) {
        Ok(files) => files,
        Err(e) => {
            eprintln!("stmprof: {e}");
            return ExitCode::FAILURE;
        }
    };
    if files.is_empty() {
        eprintln!("stmprof: no .jsonl files found");
        return ExitCode::FAILURE;
    }

    let mut set = ProfileSet::default();
    for file in &files {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("stmprof: {}: {e}", file.display());
                return ExitCode::FAILURE;
            }
        };
        // Kernel identity: the trace file stem (`<matrix>.<kernel>`).
        let kernel = file
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.strip_suffix(".jsonl"))
            .unwrap_or("trace");
        match KernelProfile::from_jsonl(kernel, &text) {
            Ok(p) => set.kernels.push(p),
            Err(e) => {
                eprintln!("stmprof: {}: {e}", file.display());
                return ExitCode::FAILURE;
            }
        }
    }

    print!("{}", set.render_table(top));
    let mut ok = true;
    if let Err(e) = set.check_conservation() {
        eprintln!("stmprof: CONSERVATION VIOLATION: {e}");
        ok = false;
    } else {
        println!(
            "stmprof: {} profile(s), cycle conservation holds on every unit",
            set.kernels.len()
        );
    }
    if let Some(path) = args.get("--csv") {
        if let Err(e) = std::fs::write(path, set.to_csv()) {
            eprintln!("stmprof: writing {path}: {e}");
            ok = false;
        }
    }
    if let Some(path) = args.get("--folded") {
        if let Err(e) = std::fs::write(path, set.folded()) {
            eprintln!("stmprof: writing {path}: {e}");
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
