//! Crossover study: at what average row length does the *vectorized* CRS
//! transposition overtake the *scalar* one?
//!
//! The paper vectorizes the CRS baseline per row, paying six vector
//! memory startups (20 cycles each) per row; below a certain ANZ the
//! startups outweigh the 4-elements/cycle throughput and plain scalar
//! code wins. This sweep holds everything fixed except the row length
//! (n = 256 rows, uniformly filled) and locates the crossover — the
//! quantitative backing for the baselines study and for the diagonal
//! outlier analysis in EXPERIMENTS.md. The STM column is shown for scale:
//! it beats both at every point.

use stm_bench::output::{format_table, write_csv};
use stm_bench::{run_batch, run_kernel, RunConfig};
use stm_bench::{BACKEND, FORMAT, JOBS, STRICT, TRACE};
use stm_dsab::SuiteEntry;
use stm_obs::cli::Cli;
use stm_sparse::{Coo, MatrixMetrics};

const CLI: Cli = Cli {
    bin: "crossover",
    about: "The row length at which vectorized CRS overtakes scalar CRS.",
    operands: "",
    flags: &[JOBS, FORMAT, TRACE, BACKEND, STRICT],
};

/// A 256-row matrix with exactly `anz` non-zeros per row, columns spread
/// deterministically over 4096.
fn fixed_anz_matrix(anz: usize) -> Coo {
    let rows = 256usize;
    let cols = 4096usize;
    let mut coo = Coo::new(rows, cols);
    for r in 0..rows {
        for k in 0..anz {
            let c = (r * 37 + k * 131 + (k * k) % 17) % cols;
            coo.push(r, c, (r + k) as f32 + 1.0);
        }
    }
    coo.canonicalize();
    coo
}

fn main() {
    let args = CLI.parse(std::env::args().skip(1));
    let cfg = RunConfig::from_args(&args);
    let anz_values = [1usize, 2, 4, 8, 16, 32, 64, 128];
    let entries: Vec<SuiteEntry> = anz_values
        .iter()
        .map(|&anz| {
            let coo = fixed_anz_matrix(anz);
            let metrics = MatrixMetrics::compute(&coo);
            SuiteEntry {
                name: format!("anz{anz}"),
                coo,
                metrics,
            }
        })
        .collect();
    let measured = run_batch(cfg.worker_count(entries.len()), &entries, |i, entry| {
        let run = |kernel| {
            run_kernel(&cfg, kernel, entry)
                .unwrap_or_else(|e| panic!("{}: {e}", entry.name))
                .report
        };
        let vec_r = run("transpose_crs");
        let sc_r = run("transpose_crs_scalar");
        let hism_r = run("transpose_hism");
        (anz_values[i], hism_r, vec_r, sc_r)
    });
    let mut rows_out = Vec::new();
    let mut crossover: Option<usize> = None;
    for (anz, hism_r, vec_r, sc_r) in &measured {
        if crossover.is_none() && vec_r.cycles < sc_r.cycles {
            crossover = Some(*anz);
        }
        rows_out.push(vec![
            anz.to_string(),
            format!("{:.2}", hism_r.cycles_per_nnz()),
            format!("{:.2}", vec_r.cycles_per_nnz()),
            format!("{:.2}", sc_r.cycles_per_nnz()),
            (if vec_r.cycles < sc_r.cycles {
                "vector"
            } else {
                "scalar"
            })
            .into(),
        ]);
    }
    println!("Vector-vs-scalar CRS crossover (256 rows, ANZ swept; cycles/nnz)");
    println!(
        "{}",
        format_table(
            &["anz", "hism+stm", "crs(vector)", "crs(scalar)", "best crs"],
            &rows_out
        )
    );
    match crossover {
        Some(a) => println!(
            "crossover: vectorized CRS overtakes scalar CRS at ANZ ≈ {a} \
             (six 20-cycle startups per row amortized)"
        ),
        None => println!("no crossover in the swept range"),
    }
    write_csv(
        "results/crossover.csv",
        &["anz", "hism_stm", "crs_vector", "crs_scalar", "best_crs"],
        &rows_out,
    )
    .expect("write results/crossover.csv");
    eprintln!("wrote results/crossover.csv");
}
