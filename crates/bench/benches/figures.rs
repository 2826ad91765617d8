//! `cargo bench` entry point that regenerates every figure of the paper's
//! evaluation (Figs. 10–13 + the overall speedup) in one pass, through
//! the same code as the `fig10`–`fig13` binaries.
//!
//! This is a custom harness (`harness = false`): the "benchmark" is the
//! simulation campaign itself, and its output is the paper's tables. It
//! runs the full 132-matrix suite by default; set `STM_SUITE=quick` for a
//! fast smoke pass.

use stm_bench::figure::{FIGURES, PAPER_OVERALL};
use stm_bench::{RunConfig, SpeedupSummary};
use stm_bench::{BACKEND, FORMAT, JOBS, QUICK, STRICT, TRACE};
use stm_obs::cli::{Cli, Flag};

const CLI: Cli = Cli {
    bin: "figures",
    about: "Regenerates Figs. 10-13 and the overall speedup in one pass.",
    operands: "",
    flags: &[
        QUICK,
        JOBS,
        FORMAT,
        TRACE,
        BACKEND,
        STRICT,
        Flag::switch("--bench", "passed by `cargo bench`; ignored"),
    ],
};

fn main() {
    let args = CLI.parse(std::env::args().skip(1));
    let cfg = RunConfig::from_args(&args);
    let (sets, tag) = stm_bench::sets(&args);
    println!("=== Regenerating the paper's evaluation (suite: {tag}) ===\n");
    stm_bench::fig10::report(&sets, tag);
    let mut all = Vec::new();
    for fig in &FIGURES {
        println!();
        all.extend(fig.run(&sets, tag, &cfg, None));
    }
    let (s, p) = (SpeedupSummary::of(&all), PAPER_OVERALL);
    println!(
        "\nOverall: speedup {:.1} .. {:.1}, average {:.1}  (paper: {:.1} .. {:.1}, avg {:.1})",
        s.min, s.max, s.avg, p.min, p.max, p.avg
    );
}
