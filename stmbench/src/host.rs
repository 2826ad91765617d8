//! `host-kernels`: every host-capable kernel on both host ISAs (the
//! portable scalar code and whichever SIMD tier the CPU offers) over
//! the distinct matrices of the full experiment sets, in a seeded
//! order. An op is one `Kernel::run` call; each leg (matrix, kernel,
//! ISA) is prepared, run once untimed (that output is the one checked
//! against the oracle), then run `seconds` times. Legs are prepared one
//! at a time: preparing every leg up front peaks near 1 GB. Preparation
//! is charged to `setup_s`, not to the ops.

use crate::campaign::catalogue;
use crate::trace::Tracer;
use crate::{oracle, units, LoopStats, Options, Outcome, Runner, Scale};
use std::path::Path;
use std::time::{Duration, Instant};
use stm_core::kernels::registry::{self, Backend, ExecCtx, KernelOutput};
use stm_dsab::SuiteEntry;
use stm_serve::ServeConfig;
use stm_sparse::rng::StdRng;

/// See the module docs.
pub struct HostKernels;

/// The matrices, in this run's order.
pub struct State {
    matrices: Vec<SuiteEntry>,
}

/// Permutes `v` with a Fisher–Yates shuffle seeded by `seed`.
pub fn shuffle<T>(v: &mut [T], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..i + 1));
    }
}

/// One matrix's expected outputs.
struct Expected {
    transpose: u64,
    spmv: Vec<f32>,
}

impl Expected {
    fn of(entry: &SuiteEntry) -> Expected {
        Expected {
            transpose: oracle::transpose_digest(&entry.coo),
            spmv: oracle::spmv(&entry.coo),
        }
    }

    /// Checks a leg's output.
    fn matches(&self, kernel: &str, out: &KernelOutput) -> bool {
        if kernel.starts_with("spmv") {
            out.as_vector()
                .is_some_and(|y| oracle::spmv_matches(y, &self.spmv))
        } else {
            out.canonical_digest() == Some(self.transpose)
        }
    }
}

impl Runner for HostKernels {
    type State = State;

    fn setup(&self, opts: &Options, _scratch: &Path) -> Result<(State, Duration), String> {
        let t0 = Instant::now();
        let (_, mut matrices) = catalogue(opts.scale);
        let took = t0.elapsed();
        shuffle(&mut matrices, opts.seed);
        Ok((State { matrices }, took))
    }

    fn run_loop(
        &self,
        state: &mut State,
        opts: &Options,
        seconds: f64,
        tracer: &Tracer,
        out: &mut Outcome,
    ) -> LoopStats {
        let reps = match opts.scale {
            Scale::Full => units(seconds, 1.0),
            Scale::Smoke => 1,
        };
        let mut stats = LoopStats {
            threads: 1,
            ..LoopStats::default()
        };
        let root = tracer.open("host.loop", 0, 0);
        for (m, entry) in state.matrices.iter().enumerate() {
            let expected = Expected::of(entry);
            for kernel in registry::HOST_CAPABLE {
                for backend in [Backend::Scalar, Backend::Simd] {
                    let leg = tracer.open(
                        format!("host.{kernel}.{}", backend.name()),
                        root.id(),
                        m as u64,
                    );
                    let mut ctx = ExecCtx {
                        backend,
                        ..ExecCtx::paper()
                    };
                    let mut k =
                        registry::create(kernel).expect("host-capable kernels are registered");
                    let (prepared, took) = tracer.time("core.prepare", leg.id(), m as u64, || {
                        k.prepare(&entry.coo, &ctx)
                    });
                    stats.prepare_s += took.as_secs_f64();
                    if let Err(e) = prepared {
                        out.check(false, || format!("{}/{kernel}: prepare: {e}", entry.name));
                        tracer.close(leg);
                        continue;
                    }
                    let warm = k.run(&mut ctx);
                    let digest = warm.as_ref().ok().map(|r| r.output_digest);
                    out.check(
                        warm.is_ok_and(|r| expected.matches(kernel, &r.output)),
                        || {
                            format!(
                                "{}/{kernel}/{}: output differs from the oracle",
                                entry.name,
                                backend.name()
                            )
                        },
                    );
                    let phase = Instant::now();
                    for _ in 0..reps {
                        let (r, took) =
                            tracer.time("core.run", leg.id(), m as u64, || k.run(&mut ctx));
                        stats.lat_ns.push(took.as_nanos() as u64);
                        stats.busy += took;
                        stats.ops += 1;
                        out.check(
                            r.as_ref().ok().map(|r| r.output_digest) == digest,
                            || match &r {
                                Err(e) => {
                                    format!("{}/{kernel}/{}: run: {e}", entry.name, backend.name())
                                }
                                Ok(_) => format!(
                                    "{}/{kernel}/{}: output changed between runs",
                                    entry.name,
                                    backend.name()
                                ),
                            },
                        );
                    }
                    stats.wall += phase.elapsed();
                    tracer.close(leg);
                }
            }
        }
        tracer.close(root);
        stats
    }

    fn inputs<'a>(&self, state: &'a State) -> &'a [SuiteEntry] {
        &state.matrices
    }

    fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            backend: Backend::Scalar,
            ..ServeConfig::default()
        }
    }

    fn teardown(&self, _state: State) -> Result<(), String> {
        Ok(())
    }
}
