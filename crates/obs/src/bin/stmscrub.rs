//! Durable-file scrubber: walks checkpoint, results-log, and flight-
//! recorder files verifying every record's checksum seal at rest.
//!
//! Usage: `stmscrub [--truncate] <file | dir> ...` — directories are
//! scanned (non-recursively) for `*.jsonl`, `*.ckpt`, and `*.log`
//! files. Every non-blank line must parse as JSON and any `crc` seal
//! it carries must verify ([`stm_obs::journal::scrub_text`]).
//!
//! A *torn tail* — a final, unterminated line left by an interrupted
//! append — is expected damage with a defined repair: `--truncate`
//! trims the file to its intact prefix in place. Corrupt *interior*
//! lines (bit rot, a buggy writer) are never repaired; they are
//! evidence, reported per line.
//!
//! Exit codes: 0 = every file clean (torn tails count as clean once
//! reported, repaired or not); 1 = at least one corrupt line found;
//! 2 = usage or I/O error.

use std::process::ExitCode;

use stm_obs::cli::{Cli, Flag};
use stm_obs::journal::scrub_file;

const CLI: Cli = Cli {
    bin: "stmscrub",
    about: "Verify the checksum seal of every record in journal files at rest.",
    operands: "<file | dir> ...",
    flags: &[Flag::switch(
        "--truncate",
        "trim a torn tail to the file's intact prefix in place",
    )],
};

const EXTENSIONS: [&str; 3] = ["jsonl", "ckpt", "log"];

fn main() -> ExitCode {
    let args = CLI.parse(std::env::args().skip(1));
    let truncate = args.on("--truncate");
    if args.operands().is_empty() {
        args.fail("no inputs");
    }
    let files = match args.operand_files(&EXTENSIONS) {
        Ok(files) => files,
        Err(e) => {
            eprintln!("stmscrub: {e}");
            return ExitCode::from(2);
        }
    };
    if files.is_empty() {
        eprintln!("stmscrub: no journal files found");
        return ExitCode::from(2);
    }

    let mut corrupt_files = 0usize;
    let mut torn_files = 0usize;
    for file in &files {
        let report = match scrub_file(file, truncate) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("stmscrub: {e}");
                return ExitCode::from(2);
            }
        };
        let verdict = if !report.is_clean() {
            corrupt_files += 1;
            "CORRUPT"
        } else if report.torn.is_some() {
            torn_files += 1;
            if truncate {
                "repaired"
            } else {
                "torn"
            }
        } else {
            "clean"
        };
        println!(
            "{}: {verdict} ({} line(s), {} sealed)",
            file.display(),
            report.lines,
            report.sealed
        );
        for finding in &report.bad {
            eprintln!("  line {}: {}", finding.line, finding.reason);
        }
        if let Some(torn) = &report.torn {
            let action = if truncate {
                format!("truncated to {} bytes", report.keep_len)
            } else {
                format!("run with --truncate to trim to {} bytes", report.keep_len)
            };
            eprintln!("  torn tail: {torn} — {action}");
        }
    }

    if corrupt_files > 0 {
        eprintln!(
            "stmscrub: {corrupt_files} of {} file(s) corrupt",
            files.len()
        );
        ExitCode::FAILURE
    } else {
        println!(
            "stmscrub: {} file(s) clean ({torn_files} torn tail(s))",
            files.len()
        );
        ExitCode::SUCCESS
    }
}
