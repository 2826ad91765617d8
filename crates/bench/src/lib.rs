//! The experiment harness: everything needed to regenerate the paper's
//! evaluation (Figs. 10–13 and the headline speedup summary) plus the
//! ablation studies.
//!
//! Figure binaries (run with `--release`; add `--quick` or set
//! `STM_SUITE=quick` for a fast smoke suite, `--jobs N` or `STM_JOBS=N`
//! to size the worker pool — results are identical for every job count;
//! `--help` lists the flags each one reads):
//!
//! | binary | artifact |
//! |---|---|
//! | `fig10` | Fig. 10: buffer bandwidth utilization vs `B` for `L ∈ {1,2,4,8}` |
//! | `fig11` | Fig. 11: cycles/nnz + speedup over the locality-sorted set |
//! | `fig12` | Fig. 12: same over the ANZ-sorted set |
//! | `fig13` | Fig. 13: same over the size-sorted set |
//! | `summary` | per-set and overall speedup min/avg/max, HiSM storage overhead |
//! | `ablate` | chaining / entry-width / memory-startup / B×L / section-size ablations |
//! | `baselines` | HiSM+STM vs vectorized CRS vs scalar CRS |
//! | `crossover` | the row length at which vectorized CRS overtakes scalar CRS |
//! | `paramgrid` | end-to-end HiSM cost over the full `B × L` grid |
//! | `reorder` | locality, HiSM cost and speedup before and after RCM |
//! | `spmv` | HiSM vs CRS sparse matrix–vector multiplication |
//!
//! Each binary prints an aligned table and writes a CSV under `results/`.
//! Figs. 11–13 are one [`figure::Figure`] row each, run by one function.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod fig10;
pub mod figure;
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

use stm_core::kernels::registry::Backend;
use stm_dsab::{experiment_sets, full_catalogue, quick_catalogue, ExperimentSets};
use stm_obs::cli::{Args, Flag};

/// `--quick` / `STM_SUITE=quick`: the reduced suite (see [`sets`]).
pub const QUICK: Flag = Flag::switch("--quick", "reduced 6-matrix suite").env("STM_SUITE=quick");
/// `--jobs N` / `STM_JOBS`: [`RunConfig::jobs`].
pub const JOBS: Flag = Flag::value("--jobs", "N", "worker-pool size").env("STM_JOBS");
/// `--format F` / `STM_FORMAT`: [`RunConfig::format`].
pub const FORMAT: Flag = Flag::value(
    "--format",
    "F",
    "extra format leg, F in {coo,csr,csc,jd,sell,auto}",
)
.env("STM_FORMAT");
/// `--trace DIR` / `STM_TRACE`: [`RunConfig::trace`].
pub const TRACE: Flag =
    Flag::value("--trace", "DIR", "export structured event traces under DIR").env("STM_TRACE");
/// `--backend B` / `STM_BACKEND`: [`RunConfig::backend`] (see [`backend`]).
pub const BACKEND: Flag =
    Flag::value("--backend", "B", "execution backend, B in {sim,scalar}").env("STM_BACKEND");
/// `--strict` / `STM_STRICT=1`: [`RunConfig::strict`].
pub const STRICT: Flag =
    Flag::switch("--strict", "fail fast on the first failed matrix").env("STM_STRICT=1");
/// `--bench-json FILE` / `STM_BENCH_JSON`: also write the run's
/// machine-readable performance baseline (see [`baseline`]).
pub const BENCH_JSON: Flag = Flag::value(
    "--bench-json",
    "FILE",
    "write a machine-readable perf baseline",
)
.env("STM_BENCH_JSON");

/// The experiment sets the [`QUICK`] row selects: the reduced catalogue
/// (6 matrices per set) when it is on, else the full 132-matrix
/// catalogue with the paper's 10 matrices per set; plus the suite tag.
pub fn sets(args: &Args) -> (ExperimentSets, &'static str) {
    if args.on(QUICK.name) {
        (experiment_sets(&quick_catalogue(), 6), "quick")
    } else {
        (experiment_sets(&full_catalogue(), 10), "full")
    }
}

/// The [`BACKEND`] row: the simulator when absent.
pub fn backend(args: &Args) -> Backend {
    args.value_with(BACKEND.name, Backend::parse)
        .unwrap_or(Backend::Sim)
}
