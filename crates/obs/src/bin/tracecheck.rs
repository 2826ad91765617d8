//! Validate exported JSONL traces: structural invariants (per-lane
//! timestamp monotonicity, proper LIFO span nesting, every span closed)
//! plus kernel accounting (one `run` stage span, phase cycles partition
//! it, fault instants match the `mem.oob_events` counter).
//!
//! Usage: `tracecheck [--join] <file.jsonl | dir> ...` — directories
//! are scanned (non-recursively) for `*.jsonl`. Exits 0 when every
//! file validates losslessly, 1 when any file is invalid, and 3 when
//! every file is structurally valid but at least one trace is
//! truncated (the ring buffer dropped events, so span-level checks
//! were degraded).
//!
//! `--join` additionally reassembles every request's span tree across
//! lanes (serve → resil → kernel) via
//! [`stm_obs::jsonl::join_requests`]: one `req=` line per request, a
//! `joined:` summary per file, and exit 1 when any tree violates the
//! join invariants — or when no request-correlated events exist at all
//! (asking for `--join` on an uncorrelated trace is an error).

use std::process::ExitCode;

use stm_obs::cli::{Cli, Flag};
use stm_obs::jsonl::{join_requests, validate_jsonl};

const CLI: Cli = Cli {
    bin: "tracecheck",
    about: "Validate exported JSONL traces: structural invariants and kernel accounting.",
    operands: "<file.jsonl | dir> ...",
    flags: &[Flag::switch(
        "--join",
        "also reassemble every request's span tree across lanes",
    )],
};

fn main() -> ExitCode {
    let args = CLI.parse(std::env::args().skip(1));
    let join = args.on("--join");
    if args.operands().is_empty() {
        eprintln!("tracecheck: no inputs\n{}", CLI.usage_line());
        return ExitCode::FAILURE;
    }
    let files = match args.operand_files(&["jsonl"]) {
        Ok(files) => files,
        Err(e) => {
            eprintln!("tracecheck: {e}");
            return ExitCode::FAILURE;
        }
    };
    if files.is_empty() {
        eprintln!("tracecheck: no .jsonl files found");
        return ExitCode::FAILURE;
    }
    let mut bad = 0usize;
    let mut truncated = 0usize;
    let mut joined_total = 0usize;
    for file in &files {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("tracecheck: {}: {e}", file.display());
                bad += 1;
                continue;
            }
        };
        if join {
            match join_requests(&text) {
                Ok(trees) => {
                    for t in &trees {
                        println!(
                            "  req={} status={} events={} spans={} depth={} lanes={} root={}..{}",
                            t.request_id,
                            t.status.as_deref().unwrap_or("-"),
                            t.events,
                            t.spans,
                            t.depth,
                            t.lanes.join(","),
                            t.root.0,
                            t.root.1,
                        );
                    }
                    println!(
                        "joined: {}: {} request tree(s)",
                        file.display(),
                        trees.len()
                    );
                    joined_total += trees.len();
                }
                Err(errors) => {
                    bad += 1;
                    eprintln!(
                        "{}: JOIN INVALID ({} problem(s))",
                        file.display(),
                        errors.len()
                    );
                    for e in errors.iter().take(20) {
                        eprintln!("  {e}");
                    }
                    if errors.len() > 20 {
                        eprintln!("  ... and {} more", errors.len() - 20);
                    }
                }
            }
        }
        match validate_jsonl(&text) {
            Ok(s) => {
                println!(
                    "{}: ok ({} events, {} dropped, {} counters)",
                    file.display(),
                    s.events,
                    s.dropped,
                    s.counters.len()
                );
                if s.dropped > 0 {
                    truncated += 1;
                    eprintln!(
                        "tracecheck: WARNING: {}: trace truncated — the ring buffer \
                         dropped {} event(s); span nesting and kernel accounting were \
                         not fully checked (counters remain exact)",
                        file.display(),
                        s.dropped
                    );
                }
            }
            Err(errors) => {
                bad += 1;
                eprintln!("{}: INVALID ({} problem(s))", file.display(), errors.len());
                for e in errors.iter().take(20) {
                    eprintln!("  {e}");
                }
                if errors.len() > 20 {
                    eprintln!("  ... and {} more", errors.len() - 20);
                }
            }
        }
    }
    if join && bad == 0 && joined_total == 0 {
        eprintln!("tracecheck: --join found no request-correlated events in any file");
        bad += 1;
    }
    if bad > 0 {
        eprintln!("tracecheck: {bad} of {} file(s) invalid", files.len());
        ExitCode::FAILURE
    } else if truncated > 0 {
        eprintln!(
            "tracecheck: WARNING: {truncated} of {} file(s) truncated (valid but lossy)",
            files.len()
        );
        ExitCode::from(3)
    } else {
        println!("tracecheck: {} file(s) ok", files.len());
        ExitCode::SUCCESS
    }
}
