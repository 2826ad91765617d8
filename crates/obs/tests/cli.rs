//! The observability tools' command lines against their flag tables:
//! `--help` is help (never a path to open), unknown flags and bad values
//! exit 2 naming the flag.

mod cli_check;

use cli_check::{check_help, check_usage_error};

#[test]
fn tracecheck_reads_its_table() {
    let exe = env!("CARGO_BIN_EXE_tracecheck");
    check_help(exe, &["--join"]);
    check_usage_error(exe, &["--join=yes", "t.jsonl"], &[], "--join");
}

#[test]
fn stmprof_reads_its_table() {
    let exe = env!("CARGO_BIN_EXE_stmprof");
    check_help(exe, &["--top", "--csv", "--folded"]);
    check_usage_error(exe, &["--top", "two", "t.jsonl"], &[], "--top");
    check_usage_error(exe, &["t.jsonl", "--csv"], &[], "--csv");
}

#[test]
fn stmscrub_reads_its_table() {
    let exe = env!("CARGO_BIN_EXE_stmscrub");
    check_help(exe, &["--truncate"]);
    check_usage_error(exe, &[], &[], "no inputs");
}
