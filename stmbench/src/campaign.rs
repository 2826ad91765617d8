//! `campaign`: the paper's Figs. 11–13. An op is one pass: the three
//! experiment sets of `experiment_sets(full_catalogue(), 10)` (30 runs,
//! 4.19 M non-zeros) through the batch harness with verification on,
//! on the simulator, with two workers.
//!
//! The op is the pass, not the matrix: matrix latencies span 0.1 ms to
//! 2.7 s with gaps, so a median over them jumps between neighbouring
//! matrices, and a small matrix's time depends on which large one
//! shares the machine with it. The harness's `run_set` is `run_batch`
//! over `run_matrix`; the loop calls those two so it can also time each
//! matrix (the busy time behind `bench.parallel_efficiency`). The
//! matrix order is the paper's: the seed does not permute it, because
//! with two workers the order decides which matrices overlap, and a
//! seeded order moved the pass time by up to 13% on the two largest
//! matrices alone.

use crate::trace::Tracer;
use crate::{units, LoopStats, Options, Outcome, Runner, Scale};
use std::path::Path;
use std::time::{Duration, Instant};
use stm_bench::{run_batch, run_matrix, RunConfig};
use stm_core::kernels::registry::Backend;
use stm_dsab::{experiment_sets, full_catalogue, quick_catalogue, ExperimentSets, SuiteEntry};
use stm_serve::ServeConfig;

/// Simulated cycles (HiSM + CRS, every matrix) of one full pass. A
/// change to simulator speed must not move them.
pub const FULL_PASS_CYCLES: u64 = 158_968_331;

/// The same for the smoke-size pass over the quick catalogue.
pub const SMOKE_PASS_CYCLES: u64 = 2_565_403;

/// Passes per nominal second: two at `--seconds 5` (a pass takes about
/// 5 s on two cores).
const PASSES_PER_SECOND: f64 = 0.4;

/// See the module docs.
pub struct Campaign;

/// The experiment sets plus their distinct matrices.
pub struct State {
    sets: ExperimentSets,
    distinct: Vec<SuiteEntry>,
}

/// Builds the experiment sets and a copy of the distinct matrices they
/// contain (the three sets share some matrices).
pub fn catalogue(scale: Scale) -> (ExperimentSets, Vec<SuiteEntry>) {
    let sets = match scale {
        Scale::Full => experiment_sets(&full_catalogue(), 10),
        Scale::Smoke => experiment_sets(&quick_catalogue(), 6),
    };
    let mut seen = std::collections::HashSet::new();
    let distinct = sets
        .all()
        .filter(|e| seen.insert(e.name.clone()))
        .map(|e| SuiteEntry {
            name: e.name.clone(),
            coo: e.coo.clone(),
            metrics: e.metrics,
        })
        .collect();
    (sets, distinct)
}

impl Runner for Campaign {
    type State = State;

    fn setup(&self, opts: &Options, _scratch: &Path) -> Result<(State, Duration), String> {
        let t0 = Instant::now();
        let (sets, distinct) = catalogue(opts.scale);
        Ok((State { sets, distinct }, t0.elapsed()))
    }

    fn run_loop(
        &self,
        state: &mut State,
        opts: &Options,
        seconds: f64,
        tracer: &Tracer,
        out: &mut Outcome,
    ) -> LoopStats {
        let jobs = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
        let cfg = RunConfig {
            jobs: Some(jobs),
            verify: true,
            backend: Backend::Sim,
            ..RunConfig::default()
        };
        let (passes, want) = match opts.scale {
            Scale::Full => (units(seconds, PASSES_PER_SECOND), FULL_PASS_CYCLES),
            Scale::Smoke => (1, SMOKE_PASS_CYCLES),
        };
        let mut stats = LoopStats {
            threads: jobs,
            ..LoopStats::default()
        };
        let t0 = Instant::now();
        for p in 0..passes {
            let pass = tracer.open("campaign.pass", 0, p as u64);
            let mut cycles = 0;
            for (name, set) in [
                ("campaign.fig11", &state.sets.by_locality),
                ("campaign.fig12", &state.sets.by_anz),
                ("campaign.fig13", &state.sets.by_size),
            ] {
                let fig = tracer.open(name, pass.id(), p as u64);
                let parent = fig.id();
                let timed = run_batch(jobs, set, |i, entry| {
                    tracer.time("bench.run_matrix", parent, i as u64, || {
                        run_matrix(&cfg, entry)
                    })
                });
                tracer.close(fig);
                for (r, took) in timed {
                    out.check(r.status.is_ok(), || format!("{}: {:?}", r.name, r.status));
                    cycles += r.hism.as_ref().map_or(0, |h| h.cycles);
                    cycles += r.crs.as_ref().map_or(0, |c| c.cycles);
                    stats.busy += took;
                }
            }
            stats.lat_ns.push(tracer.close(pass).as_nanos() as u64);
            stats.ops += 1;
            if cycles != want {
                out.error(format!(
                    "pass {p}: {cycles} simulated cycles, expected {want}"
                ));
            }
        }
        stats.wall = t0.elapsed();
        stats
    }

    fn inputs<'a>(&self, state: &'a State) -> &'a [SuiteEntry] {
        &state.distinct
    }

    fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            backend: Backend::Sim,
            ..ServeConfig::default()
        }
    }

    fn teardown(&self, _state: State) -> Result<(), String> {
        Ok(())
    }
}
