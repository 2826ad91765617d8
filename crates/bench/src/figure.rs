//! Figs. 11–13: transposition performance (cycles per non-zero for HiSM
//! and CRS, plus the HiSM-vs-CRS speedup) over one experiment set each.
//!
//! The three figures differ only in their row of [`FIGURES`]: the set,
//! the axis it is sorted by and the paper's speedup reading. One
//! function ([`Figure::run`]) prints and writes every figure for the
//! `fig11`–`fig13` binaries and the `figures` bench; `summary` takes its
//! sets and paper readings from the same rows.

use crate::baseline::Baseline;
use crate::output::{
    figure_rows, format_table, print_format_decisions, print_trace_rollup, write_csv,
    FIGURE_HEADERS,
};
use crate::{run_set, MatrixResult, RunConfig, SpeedupSummary};
use crate::{BACKEND, BENCH_JSON, FORMAT, JOBS, QUICK, STRICT, TRACE};
use stm_dsab::{ExperimentSets, SuiteEntry};
use stm_obs::cli::{Cli, Flag};

/// One of Figs. 11–13.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// The binary's name and the stem of its CSV under `results/`.
    pub stem: &'static str,
    /// The paper's label, e.g. `Fig. 11`.
    pub fig: &'static str,
    /// The quantity the set is sorted by, as the title names it.
    pub axis: &'static str,
    /// The set's short name, as `summary` and the help name it.
    pub set: &'static str,
    /// The figure's experiment set.
    pub select: fn(&ExperimentSets) -> &[SuiteEntry],
    /// The paper's speedup reading for the set.
    pub paper: SpeedupSummary,
}

/// Fig. 11. The paper: the speedup "grows monotonically with the growth
/// of the matrix locality".
pub const FIG11: Figure = Figure {
    stem: "fig11",
    fig: "Fig. 11",
    axis: "matrix locality",
    set: "locality",
    select: |s| &s.by_locality,
    paper: SpeedupSummary {
        min: 1.8,
        avg: 16.5,
        max: 32.0,
    },
};

/// Fig. 12. The paper: CRS improves as ANZ grows (its per-row startup
/// amortizes).
pub const FIG12: Figure = Figure {
    stem: "fig12",
    fig: "Fig. 12",
    axis: "average non-zeros per row",
    set: "ANZ",
    select: |s| &s.by_anz,
    paper: SpeedupSummary {
        min: 11.9,
        avg: 20.0,
        max: 28.9,
    },
};

/// Fig. 13. The paper: neither method's cycles/nnz depends much on size.
pub const FIG13: Figure = Figure {
    stem: "fig13",
    fig: "Fig. 13",
    axis: "matrix size",
    set: "size",
    select: |s| &s.by_size,
    paper: SpeedupSummary {
        min: 3.4,
        avg: 15.5,
        max: 28.2,
    },
};

/// Figs. 11–13 in paper order.
pub const FIGURES: [Figure; 3] = [FIG11, FIG12, FIG13];

/// The paper's speedup over all 30 matrices.
pub const PAPER_OVERALL: SpeedupSummary = SpeedupSummary {
    min: 1.8,
    avg: 17.6,
    max: 32.0,
};

/// The flag table of the figure binaries.
const FLAGS: &[Flag] = &[QUICK, JOBS, FORMAT, TRACE, BACKEND, STRICT, BENCH_JSON];

impl Figure {
    /// Runs the figure's set under `cfg`, prints its table, speedup line,
    /// format decisions and trace roll-up, writes `results/<stem>.csv`
    /// and, given `bench_json`, the run's baseline (see [`Baseline`]).
    pub fn run(
        &self,
        sets: &ExperimentSets,
        tag: &str,
        cfg: &RunConfig,
        bench_json: Option<&str>,
    ) -> Vec<MatrixResult> {
        let results = run_set(cfg, (self.select)(sets));
        let rows = figure_rows(&results, cfg.backend.name());
        println!(
            "{} — Performance w.r.t. {} (suite: {tag})",
            self.fig, self.axis
        );
        println!("{}", format_table(&FIGURE_HEADERS, &rows));
        let (s, p) = (SpeedupSummary::of(&results), self.paper);
        println!(
            "speedup range {:.1} .. {:.1}, average {:.1}   (paper: {:.1} .. {:.1}, avg {:.1})",
            s.min, s.max, s.avg, p.min, p.max, p.avg
        );
        print_format_decisions(&results);
        print_trace_rollup(&results);
        let csv = format!("results/{}.csv", self.stem);
        write_csv(&csv, &FIGURE_HEADERS, &rows).unwrap_or_else(|e| panic!("write {csv}: {e}"));
        eprintln!("wrote {csv}");
        if let Some(path) = bench_json {
            let timing = cfg.timing.name();
            let baseline =
                Baseline::from_results(self.stem, tag, timing, cfg.backend.name(), &results);
            std::fs::write(path, baseline.to_json())
                .unwrap_or_else(|e| panic!("write {path}: {e}"));
            eprintln!("wrote {path}");
        }
        results
    }

    /// The whole `main` of the figure's binary, given its `argv`
    /// (without the program name).
    pub fn main(&self, argv: impl IntoIterator<Item = String>) {
        let about = format!(
            "{}: transposition performance over the {}-sorted set.",
            self.fig, self.set
        );
        let cli = Cli {
            bin: self.stem,
            about: &about,
            operands: "",
            flags: FLAGS,
        };
        let args = cli.parse(argv);
        let cfg = RunConfig::from_args(&args);
        let (sets, tag) = crate::sets(&args);
        self.run(&sets, tag, &cfg, args.get(BENCH_JSON.name));
    }
}
