//! Three-way transposition comparison: the STM+HiSM mechanism vs the
//! *vectorized* CRS baseline (the paper's comparison) vs a *fully scalar*
//! CRS implementation (the "traditional scalar architecture" of the
//! paper's introduction). Shows how much of the win comes from
//! vectorization alone and how much from the format + functional unit.

use stm_bench::output::{format_table, write_csv};
use stm_bench::{run_batch, run_kernel, RunConfig};
use stm_bench::{BACKEND, FORMAT, JOBS, QUICK, STRICT, TRACE};
use stm_obs::cli::Cli;

const CLI: Cli = Cli {
    bin: "baselines",
    about: "HiSM+STM vs vectorized CRS vs scalar CRS over the locality set.",
    operands: "",
    flags: &[QUICK, JOBS, FORMAT, TRACE, BACKEND, STRICT],
};

fn main() {
    let args = CLI.parse(std::env::args().skip(1));
    let cfg = RunConfig::from_args(&args);
    let (sets, tag) = stm_bench::sets(&args);
    let rows = run_batch(
        cfg.worker_count(sets.by_locality.len()),
        &sets.by_locality,
        |_, entry| {
            // The generated suite is trusted input — a failure here is a
            // harness bug, so abort loudly.
            let run = |kernel| {
                run_kernel(&cfg, kernel, entry)
                    .unwrap_or_else(|e| panic!("{}: {e}", entry.name))
                    .report
            };
            let hism = run("transpose_hism");
            let vec_crs = run("transpose_crs");
            let sc_crs = run("transpose_crs_scalar");
            vec![
                entry.name.clone(),
                format!("{:.2}", hism.cycles_per_nnz()),
                format!("{:.2}", vec_crs.cycles_per_nnz()),
                format!("{:.2}", sc_crs.cycles_per_nnz()),
                format!("{:.1}", vec_crs.cycles as f64 / hism.cycles.max(1) as f64),
                format!("{:.1}", sc_crs.cycles as f64 / hism.cycles.max(1) as f64),
            ]
        },
    );
    println!("Transposition baselines over the locality set (suite: {tag}, cycles/nnz)");
    println!(
        "{}",
        format_table(
            &[
                "matrix",
                "hism+stm",
                "crs(vector)",
                "crs(scalar)",
                "vs vec",
                "vs scalar"
            ],
            &rows
        )
    );
    write_csv(
        "results/baselines.csv",
        &[
            "matrix",
            "hism_stm",
            "crs_vector",
            "crs_scalar",
            "speedup_vs_vector",
            "speedup_vs_scalar",
        ],
        &rows,
    )
    .expect("write results/baselines.csv");
    eprintln!("wrote results/baselines.csv");
}
