//! The paper's headline numbers: per-set and overall HiSM-vs-CRS speedup
//! ranges over the 30 benchmark matrices, plus the HiSM storage-overhead
//! check ("the number of high level s²-blocks amount typically to about
//! 2-5% of the total matrix storage for s = 64").

use stm_bench::figure::{FIGURES, PAPER_OVERALL};
use stm_bench::output::{format_table, print_trace_rollup, write_csv};
use stm_bench::{run_set, MatrixResult, RunConfig, SpeedupSummary};
use stm_bench::{BACKEND, FORMAT, JOBS, QUICK, STRICT, TRACE};
use stm_hism::{build, StorageStats};
use stm_obs::cli::Cli;

const CLI: Cli = Cli {
    bin: "summary",
    about: "Per-set and overall HiSM-vs-CRS speedup summary.",
    operands: "",
    flags: &[QUICK, JOBS, FORMAT, TRACE, BACKEND, STRICT],
};

fn main() {
    let args = CLI.parse(std::env::args().skip(1));
    let cfg = RunConfig::from_args(&args);
    let (sets, tag) = stm_bench::sets(&args);

    let per_set: Vec<Vec<MatrixResult>> = FIGURES
        .iter()
        .map(|f| run_set(&cfg, (f.select)(&sets)))
        .collect();
    let all = per_set.concat();

    let row = |name: String, results: &[MatrixResult], paper: SpeedupSummary| -> Vec<String> {
        let s = SpeedupSummary::of(results);
        vec![
            name,
            format!("{:.1}", s.min),
            format!("{:.1}", s.avg),
            format!("{:.1}", s.max),
            format!("{:.1} / {:.1} / {:.1}", paper.min, paper.avg, paper.max),
        ]
    };
    let mut rows: Vec<Vec<String>> = FIGURES
        .iter()
        .zip(&per_set)
        .map(|(f, results)| {
            let name = format!("{:<12} ({})", format!("{} set", f.set), f.fig);
            row(name, results, f.paper)
        })
        .collect();
    rows.push(row("all 30 matrices".into(), &all, PAPER_OVERALL));
    println!("HiSM vs CRS transposition speedup (suite: {tag}, s=64 B=4 L=4 p=4)");
    println!(
        "{}",
        format_table(&["set", "min", "avg", "max", "paper min/avg/max"], &rows)
    );
    print_trace_rollup(&all);
    write_csv(
        "results/summary.csv",
        &["set", "min", "avg", "max", "paper"],
        &rows,
    )
    .expect("write results/summary.csv");

    // Storage-overhead claim (Section IV-A).
    let mut fracs: Vec<f64> = Vec::new();
    for entry in sets.all() {
        let h = build::from_coo(&entry.coo, 64).expect("suite matrix");
        if h.levels() > 1 && h.nnz() > 0 {
            fracs.push(StorageStats::compute(&h).upper_fraction());
        }
    }
    if !fracs.is_empty() {
        let avg = fracs.iter().sum::<f64>() / fracs.len() as f64;
        let max = fracs.iter().copied().fold(0.0, f64::max);
        println!(
            "HiSM upper-level storage overhead over {} multi-level matrices: \
             avg {:.1}%, max {:.1}%   (paper: \"typically about 2-5%\")",
            fracs.len(),
            100.0 * avg,
            100.0 * max
        );
    }
    eprintln!("wrote results/summary.csv");
}
