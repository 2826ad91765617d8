//! Extension experiment: HiSM vs CRS sparse matrix–vector multiplication
//! on the same simulated machine.
//!
//! This is not a figure of the STM paper itself — it validates the claim
//! the paper leans on ("in \[5\] the authors report for multiplication of a
//! sparse matrix with a vector a speedup of up to 5 times (depending on
//! the sparsity pattern) using the novel HiSM storage format"): the HiSM
//! SpMV kernel should win most clearly on high-locality matrices, with a
//! pattern-dependent speedup in the low single digits.

use stm_bench::output::{format_table, write_csv};
use stm_bench::{run_batch, run_kernel, RunConfig};
use stm_bench::{BACKEND, FORMAT, JOBS, QUICK, STRICT, TRACE};
use stm_obs::cli::Cli;

const CLI: Cli = Cli {
    bin: "spmv",
    about: "HiSM vs CRS sparse matrix-vector multiplication over the locality set.",
    operands: "",
    flags: &[QUICK, JOBS, FORMAT, TRACE, BACKEND, STRICT],
};

fn main() {
    let args = CLI.parse(std::env::args().skip(1));
    let cfg = RunConfig::from_args(&args);
    let (sets, tag) = stm_bench::sets(&args);
    let per_matrix = run_batch(
        cfg.worker_count(sets.by_locality.len()),
        &sets.by_locality,
        |_, entry| {
            let run = |kernel| {
                run_kernel(&cfg, kernel, entry).unwrap_or_else(|e| panic!("{}: {e}", entry.name))
            };
            let hism = run("spmv_hism");
            let crs = run("spmv_crs");
            // Functional agreement between the two simulated kernels (both
            // already verified against the host oracle by the harness).
            let yh = hism.output.as_vector().expect("spmv output");
            let yc = crs.output.as_vector().expect("spmv output");
            for (a, b) in yh.iter().zip(yc) {
                assert!(
                    (a - b).abs() <= 1e-2 * (1.0 + b.abs()),
                    "{}: SpMV kernels disagree ({a} vs {b})",
                    entry.name
                );
            }
            let speedup = crs.report.cycles as f64 / hism.report.cycles.max(1) as f64;
            let row = vec![
                entry.name.clone(),
                format!("{:.3}", entry.metrics.locality),
                format!("{:.2}", hism.report.cycles_per_nnz()),
                format!("{:.2}", crs.report.cycles_per_nnz()),
                format!("{speedup:.2}"),
            ];
            (row, speedup)
        },
    );
    let (rows, speedups): (Vec<_>, Vec<_>) = per_matrix.into_iter().unzip();
    println!("Extension — SpMV: HiSM vs CRS on the locality set (suite: {tag})");
    println!(
        "{}",
        format_table(
            &[
                "matrix",
                "locality",
                "hism_cyc/nnz",
                "crs_cyc/nnz",
                "speedup"
            ],
            &rows
        )
    );
    let avg = speedups.iter().sum::<f64>() / speedups.len().max(1) as f64;
    let max = speedups.iter().copied().fold(0.0, f64::max);
    println!(
        "average {avg:.2}x, max {max:.2}x   (reference [5] reports up to 5x, pattern-dependent)"
    );
    write_csv(
        "results/spmv.csv",
        &[
            "matrix",
            "locality",
            "hism_cyc_per_nnz",
            "crs_cyc_per_nnz",
            "speedup",
        ],
        &rows,
    )
    .expect("write results/spmv.csv");
    eprintln!("wrote results/spmv.csv");
}
