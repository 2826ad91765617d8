//! Format-layer CI gate: runs the quick catalogue under `--format auto`
//! and every fixed format, then enforces the format layer's two
//! contracts:
//!
//! 1. **correctness** — every format's transpose kernel produces a
//!    byte-identical output digest to the CRS reference on every matrix;
//! 2. **bounded regret** — the autotuner's chosen format is never more
//!    than 10% slower (measured cycles) than the best fixed format.
//!
//! Prints the per-matrix decision table and writes the full artifact —
//! decisions, predictions, measured cycles per format, regret — to
//! `results/format-decisions.csv`.
//!
//! Flags: `--jobs N` / `STM_JOBS` (worker pool) and `--backend B` /
//! `STM_BACKEND`. The suite is always the quick catalogue — the gate
//! must stay CI-cheap.
//!
//! Exit codes: 0 = both contracts hold; 1 = a digest mismatch or a
//! regret violation; 2 = a kernel failed outright.

use stm_bench::output::{format_table, write_csv, FORMAT_DECISION_HEADERS};
use stm_bench::{run_kernel, run_set, RunConfig};
use stm_dsab::{build_by_name, quick_catalogue, FormatKind, FormatSel, SuiteEntry};
use stm_obs::cli::Cli;

/// Chosen-vs-best-fixed regret the autotuner may not exceed.
const MAX_REGRET: f64 = 0.10;

const CLI: Cli = Cli {
    bin: "formatsmoke",
    about: "Format gate: cross-format digest equality + autotuner regret bound.",
    operands: "",
    flags: &[stm_bench::JOBS, stm_bench::BACKEND],
};

fn main() {
    let args = CLI.parse(std::env::args().skip(1));
    let specs = quick_catalogue();
    let set: Vec<SuiteEntry> = specs
        .iter()
        .map(|s| build_by_name(&specs, &s.name).expect("catalogue name resolves"))
        .collect();
    let cfg = RunConfig {
        jobs: args.value(stm_bench::JOBS.name),
        format: Some(FormatSel::Auto),
        backend: stm_bench::backend(&args),
        ..RunConfig::default()
    };

    // The auto campaign: every matrix runs hism, crs and the tuner's
    // chosen format, fully verified.
    let results = run_set(&cfg, &set);
    let mut bad = 0usize;

    // Fixed-format legs: measured cycles + output digest per format.
    struct Fixed {
        cycles: Vec<(FormatKind, u64)>,
    }
    let fixed: Vec<Fixed> = stm_bench::run_batch(cfg.worker_count(set.len()), &set, |_, entry| {
        let mut cycles = Vec::new();
        let mut digests = Vec::new();
        for kind in FormatKind::ALL {
            match run_kernel(&cfg, kind.transpose_kernel(), entry) {
                Ok(r) => {
                    cycles.push((kind, r.report.cycles));
                    digests.push((kind, r.output_digest));
                }
                Err(f) => {
                    eprintln!("formatsmoke: {}: {f}", entry.name);
                    std::process::exit(2);
                }
            }
        }
        // Contract 1: byte-identical digests against each kernel's CSR
        // reference. COO/JD/SELL emit CSR(Aᵀ), exactly like
        // transpose_crs; the CSC kernel transposes by duality and emits
        // CSR(A) (its verify oracle), so it digests against that.
        let csr = digests
            .iter()
            .find(|(k, _)| *k == FormatKind::Csr)
            .expect("csr ran")
            .1;
        let csr_of_a =
            stm_core::kernels::registry::KernelOutput::Csr(stm_sparse::Csr::from_coo(&entry.coo))
                .digest();
        for (kind, d) in &digests {
            let want = if *kind == FormatKind::Csc {
                csr_of_a
            } else {
                csr
            };
            assert_eq!(
                *d,
                want,
                "{}: {} digest diverged from its CSR reference",
                entry.name,
                kind.name()
            );
        }
        Fixed { cycles }
    });

    // Contract 2: bounded regret, plus the artifact rows.
    let mut rows = Vec::new();
    for (r, f) in results.iter().zip(&fixed) {
        let leg = r.format.as_ref().expect("auto leg present");
        let Some(report) = &leg.report else {
            eprintln!("formatsmoke: {}: auto leg failed: {:?}", r.name, r.status);
            std::process::exit(2);
        };
        let chosen_cycles = report.cycles;
        let (best_kind, best_cycles) = f
            .cycles
            .iter()
            .min_by_key(|(_, c)| *c)
            .copied()
            .expect("five formats measured");
        let regret = chosen_cycles as f64 / best_cycles.max(1) as f64 - 1.0;
        let verdict = if regret > MAX_REGRET {
            bad += 1;
            "FAIL"
        } else {
            "ok"
        };
        if verdict == "FAIL" {
            eprintln!(
                "formatsmoke: {}: auto chose {} ({chosen_cycles} cyc) but {} costs {best_cycles} \
                 cyc — {:.1}% regret > {:.0}%",
                r.name,
                leg.kind.name(),
                best_kind.name(),
                100.0 * regret,
                100.0 * MAX_REGRET
            );
        }
        let mut row = stm_bench::output::format_decision_rows(std::slice::from_ref(r))
            .pop()
            .expect("leg present");
        for (_, c) in &f.cycles {
            row.push(c.to_string());
        }
        row.push(best_kind.name().to_string());
        row.push(format!("{:.2}", 100.0 * regret));
        row.push(verdict.to_string());
        rows.push(row);
    }

    let mut headers: Vec<&str> = FORMAT_DECISION_HEADERS.to_vec();
    headers.extend([
        "meas_coo",
        "meas_csr",
        "meas_csc",
        "meas_jd",
        "meas_sell",
        "best_fixed",
        "regret_pct",
        "verdict",
    ]);
    println!("{}", format_table(&headers, &rows));
    let csv = "results/format-decisions.csv";
    write_csv(csv, &headers, &rows).unwrap_or_else(|e| {
        eprintln!("formatsmoke: writing {csv}: {e}");
        std::process::exit(2);
    });
    println!(
        "status: n={} digests=byte-identical max_regret<={:.0}% violations={bad} ({csv})",
        rows.len(),
        100.0 * MAX_REGRET
    );
    if bad > 0 {
        eprintln!("formatsmoke FAILED: {bad} matrix(es) over the regret bound");
        std::process::exit(1);
    }
}
