//! The experiment harness: everything needed to regenerate the paper's
//! evaluation (Figs. 10–13 and the headline speedup summary) plus the
//! ablation studies.
//!
//! Figure binaries (run with `--release`; add `--quick` or set
//! `STM_SUITE=quick` for a fast smoke suite, `--jobs N` or `STM_JOBS=N`
//! to size the worker pool — results are identical for every job count):
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig10` | buffer bandwidth utilization vs `B` for `L ∈ {1,2,4,8}` |
//! | `fig11` | cycles/nnz + speedup over the locality-sorted set |
//! | `fig12` | same over the ANZ-sorted set |
//! | `fig13` | same over the size-sorted set |
//! | `summary` | per-set and overall speedup min/avg/max |
//! | `ablate` | chaining / entry-width / memory-startup / L×B ablations |
//!
//! Each binary prints an aligned table and writes a CSV under `results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod fig10;
pub mod harness;
pub mod output;
pub mod resilient;
pub mod trace;

pub use harness::{
    run_batch, run_kernel, run_matrix, run_set, FaultSpec, FormatLeg, MatrixResult, RunConfig,
    RunStatus, SpeedupSummary,
};
pub use resilient::{run_soak, ChaosSpec, SoakConfig, SoakReport};
pub use trace::TraceRollup;

use stm_dsab::{experiment_sets, full_catalogue, quick_catalogue, ExperimentSets};

/// Chooses the suite from the CLI args / environment: `--quick` or
/// `STM_SUITE=quick` selects the reduced catalogue (6 matrices per set),
/// anything else runs the full 132-matrix catalogue with the paper's 10
/// matrices per set.
pub fn sets_from_env() -> (ExperimentSets, &'static str) {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var("STM_SUITE")
            .map(|v| v == "quick")
            .unwrap_or(false);
    if quick {
        (experiment_sets(&quick_catalogue(), 6), "quick")
    } else {
        (experiment_sets(&full_catalogue(), 10), "full")
    }
}

/// The value of `flag` on the command line, given as `flag V` or
/// `flag=V`; the first occurrence wins.
pub fn arg_value(flag: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return args.next();
        }
        if let Some(v) = a.strip_prefix(flag).and_then(|v| v.strip_prefix('=')) {
            return Some(v.to_string());
        }
    }
    None
}

/// `raw`, the value given for `flag` (a command-line flag or an
/// environment variable), parsed as `T`. A value that does not parse
/// names the flag and exits with status 2: a silently dropped flag would
/// run a different experiment than the one asked for.
fn parse_or_exit<T: std::str::FromStr>(flag: &str, raw: &str) -> T {
    raw.parse().unwrap_or_else(|_| {
        let arg0 = std::env::args().next().unwrap_or_default();
        let bin = std::path::Path::new(&arg0).file_stem().unwrap_or_default();
        eprintln!("{}: bad value {raw:?} for {flag}", bin.to_string_lossy());
        std::process::exit(2)
    })
}

/// [`arg_value`] parsed as `T`; `None` when the flag is absent. An
/// unparsable value exits with status 2, naming the flag.
pub fn parsed<T: std::str::FromStr>(flag: &str) -> Option<T> {
    arg_value(flag).map(|v| parse_or_exit(flag, &v))
}

/// `flag` from the command line, else the environment variable `var`.
fn flag_or_env(flag: &str, var: &str) -> Option<String> {
    arg_value(flag).or_else(|| std::env::var(var).ok())
}

/// [`parsed`] `flag`, else the environment variable `var` parsed as `T`;
/// `None` when neither is set. An unparsable value exits with status 2,
/// naming the flag or variable it came from.
pub fn parsed_or_env<T: std::str::FromStr>(flag: &str, var: &str) -> Option<T> {
    parsed(flag).or_else(|| std::env::var(var).ok().map(|raw| parse_or_exit(var, &raw)))
}

/// Parses the worker-thread count from the CLI args / environment:
/// `--jobs N`, `--jobs=N` or `STM_JOBS=N`. `None` (no flag) lets the
/// harness use the machine's parallelism; `--jobs 1` forces serial runs.
/// A value that is not a count exits with status 2.
pub fn jobs_from_env() -> Option<usize> {
    parsed_or_env("--jobs", "STM_JOBS")
}

/// Parses the trace output directory from the CLI args / environment:
/// `--trace DIR`, `--trace=DIR` or `STM_TRACE=DIR`. When set, the harness
/// records a structured event trace for every kernel run and writes
/// per-matrix `.jsonl` / `.csv` / `.trace.json` files under the directory
/// (see [`trace`]). `None` (no flag) leaves tracing compiled out.
pub fn trace_dir_from_env() -> Option<std::path::PathBuf> {
    flag_or_env("--trace", "STM_TRACE").map(std::path::PathBuf::from)
}

/// Parses the baseline output path from the CLI args / environment:
/// `--bench-json FILE`, `--bench-json=FILE` or `STM_BENCH_JSON=FILE`.
/// When set, the figure binaries additionally write a machine-readable
/// performance baseline (see [`baseline`]) that `benchdiff` can compare
/// against a committed copy.
pub fn bench_json_from_env() -> Option<std::path::PathBuf> {
    flag_or_env("--bench-json", "STM_BENCH_JSON").map(std::path::PathBuf::from)
}

/// Parses the storage-format selection from the CLI args / environment:
/// `--format X`, `--format=X` or `STM_FORMAT=X` with
/// `X ∈ {coo,csr,csc,jd,sell,auto}`. When set, the harness runs a third,
/// format-driven transpose leg per matrix (`auto` lets the cost-model
/// autotuner pick per matrix — see `stm_dsab::autotune`); `None` (no
/// flag) keeps the classic two-leg experiment shape. An unrecognized
/// value aborts with exit code 2: a silently dropped format flag would
/// invalidate a whole campaign.
pub fn format_from_env() -> Option<stm_dsab::FormatSel> {
    let raw = flag_or_env("--format", "STM_FORMAT")?;
    match stm_dsab::FormatSel::parse(&raw) {
        Some(sel) => Some(sel),
        None => {
            eprintln!("bad --format value {raw:?} (want coo|csr|csc|jd|sell|auto)");
            std::process::exit(2);
        }
    }
}

/// Parses the execution backend from the CLI args / environment:
/// `--backend B`, `--backend=B` or `STM_BACKEND=B` with
/// `B ∈ {sim,scalar}`. `sim` (the default) runs every kernel on the
/// cycle-accurate simulator; `scalar` sends host-capable kernels through
/// the `stm-host` native tier. An unrecognized value aborts with
/// exit code 2 — a silently dropped backend flag would mislabel a whole
/// campaign's numbers.
pub fn backend_from_env() -> stm_core::kernels::registry::Backend {
    use stm_core::kernels::registry::Backend;
    let Some(raw) = flag_or_env("--backend", "STM_BACKEND") else {
        return Backend::Sim;
    };
    match Backend::parse(&raw) {
        Some(b) => b,
        None => {
            eprintln!("bad --backend value {raw:?} (want sim|scalar)");
            std::process::exit(2);
        }
    }
}

/// The harness flags shared by every figure/soak binary, as
/// `(flag, description)` pairs — the single source the binaries render
/// their `--help` text from, so the flag list cannot drift per binary
/// again.
pub const COMMON_FLAGS: &[(&str, &str)] = &[
    ("--quick", "reduced 6-matrix suite (or STM_SUITE=quick)"),
    ("--jobs N", "worker-pool size (or STM_JOBS=N)"),
    (
        "--format F",
        "extra format leg, F in {coo,csr,csc,jd,sell,auto} (or STM_FORMAT=F)",
    ),
    (
        "--trace DIR",
        "export structured event traces under DIR (or STM_TRACE=DIR)",
    ),
    (
        "--backend B",
        "execution backend, B in {sim,scalar} (or STM_BACKEND=B)",
    ),
    (
        "--strict",
        "fail fast on the first failed matrix (or STM_STRICT=1)",
    ),
    (
        "--bench-json FILE",
        "write a machine-readable perf baseline (or STM_BENCH_JSON=FILE)",
    ),
];

/// Renders the uniform usage text for one binary: the shared
/// [`COMMON_FLAGS`] plus any binary-specific `extra` flags, aligned.
pub fn usage_text(bin: &str, about: &str, extra: &[(&str, &str)]) -> String {
    let mut out = format!("usage: {bin} [flags]\n{about}\n\nflags:\n");
    let rows: Vec<(&str, &str)> = COMMON_FLAGS.iter().chain(extra).copied().collect();
    let width = rows.iter().map(|(f, _)| f.len()).max().unwrap_or(0);
    for (flag, desc) in rows {
        out.push_str(&format!("  {flag:width$}  {desc}\n"));
    }
    out
}

/// Standard `--help`/`-h` handling for the figure/soak binaries: when
/// either flag is present, print the uniform usage text (see
/// [`usage_text`]) and exit 0. Call first thing in `main`.
pub fn handle_help(bin: &str, about: &str, extra: &[(&str, &str)]) {
    if std::env::args().any(|a| a == "--help" || a == "-h") {
        print!("{}", usage_text(bin, about, extra));
        std::process::exit(0);
    }
}

/// `true` when `--strict` is on the command line or `STM_STRICT=1` is in
/// the environment: the harness then panics on the first failed matrix
/// (nonzero exit) instead of recording it as a `Failed` row.
pub fn strict_from_env() -> bool {
    std::env::args().any(|a| a == "--strict")
        || std::env::var("STM_STRICT")
            .map(|v| v == "1")
            .unwrap_or(false)
}
