//! Every bench binary's command line against its flag table: `--help`
//! prints exactly the flags the binary reads and runs nothing, and an
//! unknown flag or a bad value exits 2 naming it instead of running a
//! different experiment than the one asked for.

#[path = "../../obs/tests/cli_check/mod.rs"]
mod cli_check;

use cli_check::{check_help, check_usage_error};

/// The rows `RunConfig::from_args` reads.
const RUN: [&str; 5] = ["--jobs", "--format", "--trace", "--backend", "--strict"];

fn with(head: &[&'static str], tail: &[&'static str]) -> Vec<&'static str> {
    head.iter().chain(tail).copied().collect()
}

/// A binary whose table is `flags`: help, an unknown flag, and a bad
/// `--jobs` from the command line and from `STM_JOBS`.
fn check_run_binary(exe: &str, flags: &[&str]) {
    check_help(exe, flags);
    check_usage_error(exe, &["--jobs", "two"], &[], "--jobs");
    check_usage_error(exe, &[], &[("STM_JOBS", "two")], "STM_JOBS");
    check_usage_error(exe, &["--backend=gpu"], &[], "--backend");
}

#[test]
fn the_figure_binaries_read_the_run_rows() {
    let figure = with(&["--quick"], &with(&RUN, &["--bench-json"]));
    for exe in [
        env!("CARGO_BIN_EXE_fig11"),
        env!("CARGO_BIN_EXE_fig12"),
        env!("CARGO_BIN_EXE_fig13"),
    ] {
        check_run_binary(exe, &figure);
    }
    let quick_run = with(&["--quick"], &RUN);
    for exe in [
        env!("CARGO_BIN_EXE_summary"),
        env!("CARGO_BIN_EXE_ablate"),
        env!("CARGO_BIN_EXE_baselines"),
        env!("CARGO_BIN_EXE_paramgrid"),
        env!("CARGO_BIN_EXE_reorder"),
        env!("CARGO_BIN_EXE_spmv"),
    ] {
        check_run_binary(exe, &quick_run);
    }
    check_run_binary(env!("CARGO_BIN_EXE_crossover"), &RUN);
    let fig10 = env!("CARGO_BIN_EXE_fig10");
    check_help(fig10, &["--quick"]);
    check_usage_error(fig10, &["--quick=yes"], &[], "--quick");
    check_usage_error(fig10, &["--quick", "--jobs", "2"], &[], "--jobs");
}

#[test]
fn the_smoke_binaries_read_their_tables() {
    let faultsmoke = env!("CARGO_BIN_EXE_faultsmoke");
    check_run_binary(faultsmoke, &with(&RUN, &["--class", "--index"]));
    check_usage_error(faultsmoke, &["--class", "bogus"], &[], "--class");
    check_usage_error(faultsmoke, &["--index", "99"], &[], "--index");

    let formatsmoke = env!("CARGO_BIN_EXE_formatsmoke");
    check_run_binary(formatsmoke, &["--jobs", "--backend"]);

    let simcorr = env!("CARGO_BIN_EXE_simcorr");
    check_help(simcorr, &["--reps"]);
    check_usage_error(simcorr, &["--reps", "two"], &[], "--reps");
    check_usage_error(
        simcorr,
        &[],
        &[("STM_SIMCORR_REPS", "x")],
        "STM_SIMCORR_REPS",
    );

    let stmsoak = env!("CARGO_BIN_EXE_stmsoak");
    let soak = [
        "--deadline",
        "--queue-depth",
        "--breaker-threshold",
        "--breaker-cooldown",
        "--max-attempts",
        "--retry-delay-ms",
        "--fault-rate",
        "--seed",
        "--verify-mode",
        "--sdc-rate",
        "--sdc-seed",
        "--checkpoint",
        "--stop-after",
        "--metrics",
    ];
    check_run_binary(stmsoak, &with(&["--quick"], &with(&RUN, &soak)));
    check_usage_error(stmsoak, &["--seed", "x"], &[], "--seed");
    check_usage_error(stmsoak, &["--verify-mode", "all"], &[], "--verify-mode");
}

#[test]
fn benchdiff_reads_its_table() {
    let exe = env!("CARGO_BIN_EXE_benchdiff");
    check_help(exe, &["--tolerance", "--write-scaled"]);
    check_usage_error(
        exe,
        &["a.json", "b.json", "--tolerance", "x"],
        &[],
        "--tolerance",
    );
    check_usage_error(
        exe,
        &["--write-scaled", "x", "a", "b"],
        &[],
        "--write-scaled",
    );
    check_usage_error(exe, &["a.json"], &[], "two baseline files");
}
