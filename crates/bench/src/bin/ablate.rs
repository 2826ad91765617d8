//! Ablation studies over the design choices DESIGN.md calls out:
//! vector chaining, the entry streaming width, the memory startup
//! latency, the STM's B/L geometry at kernel level (not just the Fig. 10
//! unit level), and the section size `s`.
//!
//! Each variant runs the locality-sorted experiment set; reported are the
//! average HiSM cycles/nnz, the average CRS cycles/nnz, and the average
//! speedup, so both sides of every trade-off stay visible.

use stm_bench::output::{format_table, write_csv};
use stm_bench::{run_set, RunConfig, SpeedupSummary};
use stm_bench::{BACKEND, FORMAT, JOBS, QUICK, STRICT, TRACE};
use stm_core::StmConfig;
use stm_obs::cli::Cli;
use stm_vpsim::VpConfig;

const CLI: Cli = Cli {
    bin: "ablate",
    about: "Ablations of the design choices over the locality set.",
    operands: "",
    flags: &[QUICK, JOBS, FORMAT, TRACE, BACKEND, STRICT],
};

struct Variant {
    name: &'static str,
    cfg: RunConfig,
}

fn main() {
    let args = CLI.parse(std::env::args().skip(1));
    let paper = RunConfig::from_args(&args);
    let (sets, tag) = stm_bench::sets(&args);
    let set = &sets.by_locality;

    let mut variants: Vec<Variant> = vec![Variant {
        name: "paper (s=64 B=4 L=4, chained)",
        cfg: paper.clone(),
    }];

    let mut v = paper.clone();
    v.vp.chaining = false;
    variants.push(Variant {
        name: "chaining off",
        cfg: v,
    });

    let mut v = paper.clone();
    v.vp.words_per_entry = 2;
    variants.push(Variant {
        name: "charge [value,pos] pair (2 words/entry)",
        cfg: v,
    });

    for startup in [5u64, 50] {
        let mut v = paper.clone();
        v.vp.mem_startup = startup;
        variants.push(Variant {
            name: if startup == 5 {
                "memory startup 5"
            } else {
                "memory startup 50"
            },
            cfg: v,
        });
    }

    for (b, l) in [(1u64, 1usize), (4, 1), (1, 4), (8, 4), (8, 8)] {
        let mut v = paper.clone();
        v.stm = StmConfig { s: 64, b, l };
        let name: &'static str = match (b, l) {
            (1, 1) => "STM B=1 L=1 (baseline unit)",
            (4, 1) => "STM B=4 L=1 (no multi-line)",
            (1, 4) => "STM B=1 L=4",
            (8, 4) => "STM B=8 L=4",
            _ => "STM B=8 L=8",
        };
        variants.push(Variant { name, cfg: v });
    }

    let mut v = paper.clone();
    v.vp.mem_ports = 2;
    variants.push(Variant {
        name: "dual-ported memory",
        cfg: v,
    });

    let mut v = paper.clone();
    v.vp.scalar_out_of_order = true;
    variants.push(Variant {
        name: "out-of-order scalar core",
        cfg: v,
    });

    for s in [32usize, 128] {
        let mut v = paper.clone();
        v.vp = VpConfig {
            section_size: s,
            ..v.vp
        };
        v.stm = StmConfig { s, b: 4, l: 4 };
        variants.push(Variant {
            name: if s == 32 {
                "section size 32"
            } else {
                "section size 128"
            },
            cfg: v,
        });
    }

    let mut rows = Vec::new();
    for variant in &variants {
        let results = run_set(&variant.cfg, set);
        let expect = |r: &Option<stm_core::TransposeReport>| {
            r.as_ref()
                .expect("ablation suite is trusted")
                .cycles_per_nnz()
        };
        let hism_avg = results.iter().map(|r| expect(&r.hism)).sum::<f64>() / results.len() as f64;
        let crs_avg = results.iter().map(|r| expect(&r.crs)).sum::<f64>() / results.len() as f64;
        let s = SpeedupSummary::of(&results);
        rows.push(vec![
            variant.name.to_string(),
            format!("{hism_avg:.2}"),
            format!("{crs_avg:.2}"),
            format!("{:.1}", s.avg),
        ]);
    }

    println!("Ablations over the locality set (suite: {tag})");
    println!(
        "{}",
        format_table(
            &["variant", "hism_cyc/nnz", "crs_cyc/nnz", "avg speedup"],
            &rows
        )
    );
    write_csv(
        "results/ablate.csv",
        &[
            "variant",
            "hism_cyc_per_nnz",
            "crs_cyc_per_nnz",
            "avg_speedup",
        ],
        &rows,
    )
    .expect("write results/ablate.csv");
    eprintln!("wrote results/ablate.csv");
}
