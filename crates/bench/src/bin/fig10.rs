//! Regenerates **Fig. 10** (Section IV-C): buffer bandwidth utilization
//! vs buffer bandwidth `B`, one series per accessible-lines count `L`,
//! averaged over the 30 benchmark matrices. This is the study from which
//! the paper picks `L = 4`.

use stm_obs::cli::Cli;

const CLI: Cli = Cli {
    bin: "fig10",
    about: "Fig. 10: buffer bandwidth utilization vs B for L in {1,2,4,8}.",
    operands: "",
    flags: &[stm_bench::QUICK],
};

fn main() {
    let args = CLI.parse(std::env::args().skip(1));
    let (sets, tag) = stm_bench::sets(&args);
    stm_bench::fig10::report(&sets, tag);
}
