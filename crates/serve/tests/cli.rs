//! The service binaries' command lines against their flag tables: a
//! misspelt flag exits 2 instead of serving with a default.

#[path = "../../obs/tests/cli_check/mod.rs"]
mod cli_check;

use cli_check::{check_help, check_usage_error};

#[test]
fn stmserve_reads_its_table() {
    let exe = env!("CARGO_BIN_EXE_stmserve");
    check_help(
        exe,
        &[
            "--addr",
            "--queue-depth",
            "--quota",
            "--workers",
            "--deadline",
            "--breaker-threshold",
            "--breaker-cooldown",
            "--max-attempts",
            "--max-frame",
            "--io-timeout-ms",
            "--results-log",
            "--trace",
            "--verify-mode",
            "--backend",
            "--metrics-addr",
            "--flight-dir",
            "--flight-window",
            "--flight-every",
        ],
    );
    check_usage_error(exe, &["--verfy-mode", "vote"], &[], "--verfy-mode");
    check_usage_error(exe, &["--workers", "two"], &[], "--workers");
    check_usage_error(exe, &["--verify-mode", "majority"], &[], "--verify-mode");
    check_usage_error(exe, &[], &[("STM_BACKEND", "gpu")], "STM_BACKEND");
}

#[test]
fn stmload_reads_its_table() {
    let exe = env!("CARGO_BIN_EXE_stmload");
    check_help(
        exe,
        &[
            "--addr",
            "--clients",
            "--requests",
            "--chaos",
            "--seed",
            "--matrices",
            "--timeout-ms",
            "--csv",
            "--metrics-addr",
            "--shutdown",
        ],
    );
    check_usage_error(exe, &["--clients", "two"], &[], "--clients");
    check_usage_error(exe, &["--clients", "2"], &[], "--addr");
}

#[test]
fn stmtop_reads_its_table() {
    let exe = env!("CARGO_BIN_EXE_stmtop");
    check_help(exe, &["--addr", "--interval", "--count", "--once", "--raw"]);
    check_usage_error(exe, &["--interval", "two"], &[], "--interval");
}

#[test]
fn sdcsmoke_reads_its_table() {
    let exe = env!("CARGO_BIN_EXE_sdcsmoke");
    check_help(exe, &["--requests", "--seed", "--keep"]);
    check_usage_error(exe, &["--requests", "two"], &[], "--requests");
}
