//! The serial decomposition pass of a traced run: each layer's public
//! functions called on the workload's own distinct matrices, one layer
//! after another, each call inside a span.
//!
//! Cheap per-matrix functions repeat until they have touched about
//! [`REP_NNZ`] non-zeros, so tiny matrices still give a timing well
//! above the clock's resolution; costs are reported per non-zero
//! touched. The pass ends with the conservation check: the top-level
//! layer spans must cover at least 95% of the pass's wall time, i.e.
//! no untraced work hides between them.

use crate::spec::{CAMPAIGN_KERNELS, SIM_KERNELS, SLOT_BACKENDS, SLOT_MODES};
use crate::trace::{coverage_pct, Tracer};
use crate::{oracle, serve, Outcome, Scale};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};
use stm_bench::resilient::{execute_slot, Decision, RetryPolicy, VerifyMode};
use stm_bench::RunConfig;
use stm_core::kernels::registry::{self, Backend, ExecCtx};
use stm_dsab::SuiteEntry;
use stm_hism::{build, HismImage};
use stm_obs::{journal, Recorder};
use stm_serve::protocol::{self, Request, RequestBody, Response, ResponseBody, Status};
use stm_serve::{Client, ResultRecord, ResultsLog, ServeConfig};
use stm_sparse::format::canonical_digest;
use stm_sparse::Csr;

/// Non-zeros a cheap per-matrix function is repeated to reach.
const REP_NNZ: usize = 100_000;

/// Smallest repetition count of a host kernel leg.
const HOST_MIN_REPS: usize = 3;

/// Non-zeros the serial service pass and slot replays repeat to reach;
/// lower than [`REP_NNZ`] because each repetition runs whole kernels.
const SLOT_NNZ: usize = 20_000;

/// Iterations of the fixed-size serve and obs functions.
const FIXED_ITERS: usize = 20_000;

/// Sizes of a pass: the constants above at full size, a hundredth of
/// the repetitions and service-sized matrices of at most 2,048
/// non-zeros at smoke size (which only checks that every metric is
/// produced).
#[derive(Clone, Copy)]
struct Targets {
    rep_nnz: usize,
    host_min: usize,
    slot_nnz: usize,
    fixed: usize,
    service_nnz: usize,
}

impl Targets {
    fn of(scale: Scale) -> Targets {
        let (div, service_nnz) = match scale {
            Scale::Full => (1, SERVICE_NNZ),
            Scale::Smoke => (100, 2048),
        };
        Targets {
            rep_nnz: REP_NNZ / div,
            host_min: HOST_MIN_REPS / div,
            slot_nnz: SLOT_NNZ / div,
            fixed: FIXED_ITERS / div,
            service_nnz,
        }
    }
}

/// The largest matrix the slot replays and the serial service pass take.
/// Service requests are small (a SUBMIT frame is capped at 1 MiB), and
/// replaying the vote on the campaign's 1.8 M-non-zero matrices alone
/// would take 40 s. Every matrix of the service workloads is below it.
const SERVICE_NNZ: usize = 1 << 16;

fn reps(nnz: usize, target: usize, max: usize) -> usize {
    target.div_ceil(nnz.max(1)).clamp(1, max)
}

/// Accumulated time and work per function.
#[derive(Default)]
struct Costs(BTreeMap<String, (Duration, f64)>);

impl Costs {
    fn add(&mut self, name: impl Into<String>, took: Duration, work: f64) {
        let e = self.0.entry(name.into()).or_default();
        e.0 += took;
        e.1 += work;
    }

    fn secs(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |e| e.0.as_secs_f64())
    }

    /// Nanoseconds per unit of work.
    fn per(&self, name: &str) -> f64 {
        self.0
            .get(name)
            .map_or(f64::NAN, |e| e.0.as_nanos() as f64 / e.1)
    }
}

/// Runs `f` `n` times inside one span; returns the last result.
fn repeat<T>(
    tracer: &Tracer,
    name: &'static str,
    parent: u64,
    m: usize,
    n: usize,
    mut f: impl FnMut() -> T,
) -> (T, Duration) {
    tracer.time(name, parent, m as u64, || {
        let mut last = black_box(f());
        for _ in 1..n {
            last = black_box(f());
        }
        last
    })
}

/// Runs the decomposition pass over `inputs` and records every
/// per-layer metric it measures into `out`.
pub fn decompose(
    inputs: &[SuiteEntry],
    serve_cfg: ServeConfig,
    scale: Scale,
    scratch: &Path,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let tg = Targets::of(scale);
    let small: Vec<&SuiteEntry> = inputs
        .iter()
        .filter(|e| e.coo.nnz() <= tg.service_nnz)
        .collect();
    let root = tracer.open("decompose", 0, 0);
    let mut c = Costs::default();
    let layer = |name: &'static str, f: &mut dyn FnMut(u64)| {
        let open = tracer.open(name, root.id(), 0);
        f(open.id());
        tracer.close(open);
    };
    layer("layer.sparse", &mut |p| {
        sparse(inputs, tg, tracer, p, &mut c)
    });
    layer("layer.hism", &mut |p| {
        hism(inputs, tg, tracer, p, &mut c, out)
    });
    layer("layer.sim", &mut |p| sim(inputs, tracer, p, &mut c, out));
    layer("layer.host", &mut |p| {
        host(inputs, tg, tracer, p, &mut c, out)
    });
    layer("layer.resil", &mut |p| {
        resil(&small, tg, tracer, p, &mut c, out)
    });
    let mut served = Ok(());
    layer("layer.serve", &mut |p| {
        served = serve_layer(
            &small,
            tg,
            serve_cfg.clone(),
            scratch,
            tracer,
            p,
            &mut c,
            out,
        )
    });
    layer("layer.obs", &mut |p| obs(tg, tracer, p, &mut c));
    let root_id = root.id();
    tracer.close(root);
    served?;

    for f in [
        "csr_from_coo",
        "transpose_canonical",
        "canonical_digest",
        "spmv",
    ] {
        out.set(
            format!("sparse.{f}_ns_per_nnz"),
            c.per(&format!("sparse.{f}")),
        );
    }
    for f in ["build", "encode", "decode"] {
        out.set(format!("hism.{f}_ns_per_nnz"), c.per(&format!("hism.{f}")));
    }
    for k in SIM_KERNELS {
        let run_s = c.secs(&format!("sim.{k}.run"));
        let cycles = c.0.get(&format!("sim.{k}.cycles")).map_or(0.0, |e| e.1);
        out.set(format!("sim.{k}.run_s"), run_s);
        out.set(format!("sim.{k}.cycles"), cycles);
        out.set(format!("sim.{k}.mcycles_per_s"), cycles / run_s / 1e6);
    }
    for k in CAMPAIGN_KERNELS {
        out.set(
            format!("core.{k}.prepare_s"),
            c.secs(&format!("core.{k}.prepare")),
        );
        out.set(
            format!("core.{k}.verify_s"),
            c.secs(&format!("core.{k}.verify")),
        );
    }
    out.set("core.output_digest_ns_per_nnz", c.per("core.output_digest"));
    out.set("core.run_overhead_ns_per_nnz", c.per("core.run_overhead"));
    for k in registry::HOST_CAPABLE {
        let scalar = c.per(&format!("host.{k}.scalar"));
        let simd = c.per(&format!("host.{k}.simd"));
        out.set(format!("host.{k}.scalar.ns_per_nnz"), scalar);
        out.set(format!("host.{k}.simd.ns_per_nnz"), simd);
        out.set(format!("host.{k}.simd_over_scalar"), scalar / simd);
    }
    for mode in SLOT_MODES {
        for backend in SLOT_BACKENDS {
            let name = format!("resil.slot_us.{mode}.{backend}");
            out.set(&name, c.per(&name) / 1e3);
        }
    }
    out.set("obs.journal_seal_ns", c.per("obs.journal_seal"));
    out.set("serve.frame_codec_ns", c.per("serve.frame_codec"));
    out.set(
        "serve.results_log_append_us",
        c.per("serve.results_log_append") / 1e3,
    );

    let pct = coverage_pct(&tracer.spans(), root_id).ok_or("the decomposition span is missing")?;
    out.set("obs.conservation_pct", pct);
    if pct < 95.0 {
        out.error(format!(
            "conservation: layer spans cover {pct:.2}% of the decomposition pass"
        ));
    }
    Ok(())
}

fn sparse(inputs: &[SuiteEntry], tg: Targets, tracer: &Tracer, p: u64, c: &mut Costs) {
    for (m, e) in inputs.iter().enumerate() {
        let nnz = e.coo.nnz();
        let n = reps(nnz, tg.rep_nnz, 1000);
        let work = (n * nnz) as f64;
        let x = stm_core::exec::spmv_input(e.coo.cols());
        let (_, t) = repeat(tracer, "sparse.csr_from_coo", p, m, n, || {
            Csr::from_coo(&e.coo)
        });
        c.add("sparse.csr_from_coo", t, work);
        let (tr, t) = repeat(tracer, "sparse.transpose_canonical", p, m, n, || {
            e.coo.transpose_canonical()
        });
        c.add("sparse.transpose_canonical", t, work);
        let (_, t) = repeat(tracer, "sparse.canonical_digest", p, m, n, || {
            canonical_digest(&tr)
        });
        c.add("sparse.canonical_digest", t, work);
        let (_, t) = repeat(tracer, "sparse.spmv", p, m, n, || e.coo.spmv(&x));
        c.add("sparse.spmv", t, work);
    }
}

fn hism(
    inputs: &[SuiteEntry],
    tg: Targets,
    tracer: &Tracer,
    p: u64,
    c: &mut Costs,
    out: &mut Outcome,
) {
    let s = ExecCtx::paper().stm.s;
    for (m, e) in inputs.iter().enumerate() {
        let nnz = e.coo.nnz();
        let n = reps(nnz, tg.rep_nnz, 1000);
        let work = (n * nnz) as f64;
        let (h, t) = repeat(tracer, "hism.build", p, m, n, || build::from_coo(&e.coo, s));
        c.add("hism.build", t, work);
        let Ok(h) = h else {
            out.check(false, || format!("{}: HiSM build failed", e.name));
            continue;
        };
        let (img, t) = repeat(tracer, "hism.encode", p, m, n, || HismImage::encode(&h));
        c.add("hism.encode", t, work);
        let (back, t) = repeat(tracer, "hism.decode", p, m, n, || img.decode());
        c.add("hism.decode", t, work);
        out.check(back.is_ok_and(|b| b == h), || {
            format!("{}: HiSM image does not decode to its matrix", e.name)
        });
    }
}

fn sim(inputs: &[SuiteEntry], tracer: &Tracer, p: u64, c: &mut Costs, out: &mut Outcome) {
    for k in SIM_KERNELS {
        for (m, e) in inputs.iter().enumerate() {
            let mut ctx = ExecCtx::paper();
            let mut kernel = registry::create(k).expect("simulated kernels are registered");
            let (prepared, t) = tracer.time(format!("core.{k}.prepare"), p, m as u64, || {
                kernel.prepare(&e.coo, &ctx)
            });
            c.add(format!("core.{k}.prepare"), t, e.coo.nnz() as f64);
            let (report, t) = match prepared {
                Ok(()) => tracer.time(format!("sim.{k}.run"), p, m as u64, || kernel.run(&mut ctx)),
                Err(err) => (Err(err), Duration::ZERO),
            };
            let report = match report {
                Ok(r) => r,
                Err(err) => {
                    out.check(false, || format!("{}/{k}: {err}", e.name));
                    continue;
                }
            };
            c.add(format!("sim.{k}.run"), t, e.coo.nnz() as f64);
            c.add(
                format!("sim.{k}.cycles"),
                Duration::ZERO,
                report.report.cycles as f64,
            );
            let (verified, t) = tracer.time(format!("core.{k}.verify"), p, m as u64, || {
                kernel.verify(&e.coo, &report.output)
            });
            c.add(format!("core.{k}.verify"), t, e.coo.nnz() as f64);
            out.check(verified.is_ok(), || {
                format!("{}/{k}: verify: {verified:?}", e.name)
            });
        }
    }
}

fn host(
    inputs: &[SuiteEntry],
    tg: Targets,
    tracer: &Tracer,
    p: u64,
    c: &mut Costs,
    out: &mut Outcome,
) {
    for k in registry::HOST_CAPABLE {
        for (m, e) in inputs.iter().enumerate() {
            let nnz = e.coo.nnz();
            let n = reps(nnz, tg.rep_nnz, 1000).max(tg.host_min);
            let mut digests = Vec::new();
            for backend in [Backend::Scalar, Backend::Simd] {
                let name = format!("host.{k}.{}", backend.name());
                let mut ctx = ExecCtx {
                    backend,
                    ..ExecCtx::paper()
                };
                let mut kernel = registry::create(k).expect("host-capable kernels are registered");
                if let Err(err) = kernel.prepare(&e.coo, &ctx) {
                    out.check(false, || format!("{}/{name}: prepare: {err}", e.name));
                    continue;
                }
                let leg = tracer.open(name.clone(), p, m as u64);
                let mut kernel_ns = 0u64;
                let mut last = None;
                for _ in 0..n {
                    let t0 = Instant::now();
                    let r = kernel.run(&mut ctx);
                    let call = t0.elapsed();
                    match r {
                        Ok(r) => {
                            let own = r.report.wall_ns.unwrap_or(0);
                            kernel_ns += own;
                            c.add(
                                "core.run_overhead",
                                call.saturating_sub(Duration::from_nanos(own)),
                                nnz as f64,
                            );
                            last = Some(r);
                        }
                        Err(err) => {
                            out.check(false, || format!("{}/{name}: run: {err}", e.name));
                            break;
                        }
                    }
                }
                tracer.close(leg);
                c.add(&name, Duration::from_nanos(kernel_ns), (n * nnz) as f64);
                if let Some(r) = last {
                    let (d, t) =
                        tracer.time("core.output_digest", p, m as u64, || r.output.digest());
                    c.add("core.output_digest", t, nnz as f64);
                    digests.push(d);
                }
            }
            out.check(digests.len() == 2 && digests[0] == digests[1], || {
                format!("{}/{k}: scalar and SIMD outputs differ", e.name)
            });
        }
    }
}

fn resil(
    inputs: &[&SuiteEntry],
    tg: Targets,
    tracer: &Tracer,
    p: u64,
    c: &mut Costs,
    out: &mut Outcome,
) {
    let retry = RetryPolicy::default();
    for mode_name in SLOT_MODES {
        let mode = VerifyMode::from_name(mode_name).expect("listed modes parse");
        for backend_name in SLOT_BACKENDS {
            // The service's own choice: cross-backend legs replace the
            // single-backend oracle recompute under dual and vote.
            let run = RunConfig {
                jobs: Some(1),
                backend: Backend::parse(backend_name).expect("listed backends parse"),
                verify: !matches!(mode, VerifyMode::Dual | VerifyMode::Vote),
                ..RunConfig::default()
            };
            let name = format!("resil.slot_us.{mode_name}.{backend_name}");
            for (m, e) in inputs.iter().enumerate() {
                for _ in 0..reps(e.coo.nnz(), tg.slot_nnz, 20) {
                    let (slot, t) = tracer.time(name.clone(), p, m as u64, || {
                        execute_slot(
                            &run,
                            &retry,
                            e,
                            m,
                            "transpose_hism",
                            Decision::Run,
                            None,
                            mode,
                            &Recorder::disabled(),
                        )
                    });
                    c.add(&name, t, 1.0);
                    out.check(
                        slot.report.is_some() && !slot.degraded && !slot.corrupted,
                        || {
                            format!(
                                "{}/{name}: slot did not serve its primary: {:?}",
                                e.name, slot.failure
                            )
                        },
                    );
                }
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn serve_layer(
    inputs: &[&SuiteEntry],
    tg: Targets,
    cfg: ServeConfig,
    scratch: &Path,
    tracer: &Tracer,
    p: u64,
    c: &mut Costs,
    out: &mut Outcome,
) -> Result<(), String> {
    // The frame codec: a request and its reply, encoded and decoded.
    let req = Request {
        request_id: 7,
        client_id: 1,
        body: RequestBody::Transpose {
            matrix_id: 3,
            fault: None,
        },
    };
    let resp = Response {
        status: Status::Ok,
        degraded: false,
        request_id: 7,
        body: ResponseBody::Digest(0x0123_4567_89ab_cdef),
    };
    let ((q, r), t) = repeat(tracer, "serve.frame_codec", p, 0, tg.fixed, || {
        let q = protocol::decode_request(&protocol::encode_request(black_box(&req)));
        let r = protocol::decode_response(&protocol::encode_response(black_box(&resp)));
        (q, r)
    });
    c.add("serve.frame_codec", t, tg.fixed as f64);
    out.check(q.ok() == Some(req) && r.ok() == Some(resp), || {
        "frame codec does not round-trip".into()
    });

    // The durable append, to a log of its own.
    let path = scratch.join("decompose").join("results.log");
    let (mut log, _) =
        ResultsLog::open(&path).map_err(|e| format!("opening {}: {e}", path.display()))?;
    let mut rec = ResultRecord {
        request_id: 0,
        client_id: 1,
        op: protocol::Op::Transpose,
        matrix_id: 0,
        status: Status::Ok,
        degraded: false,
        corrupted: false,
        digest: 0x0123_4567_89ab_cdef,
    };
    let appends = tg.fixed / 4;
    let (appended, t) = tracer.time("serve.results_log_append", p, 0, || {
        (0..appends as u64).try_for_each(|i| {
            rec.request_id = i;
            log.append(&rec)
        })
    });
    c.add("serve.results_log_append", t, appends as f64);
    out.check(appended.is_ok(), || {
        format!("results log append: {appended:?}")
    });
    drop(log);

    // A serial pass over the inputs: one client, one request in
    // flight, the server's own execution time read from its metrics.
    let cfg = ServeConfig {
        results_log: Some(scratch.join("decompose").join("serial.log")),
        ..cfg
    };
    let (server, submit) = tracer
        .time("serve.start", p, 0, || {
            serve::start(cfg, inputs.iter().copied())
        })
        .0?;
    out.set("serve.submit_ms", submit.as_secs_f64() * 1e3);
    let mut client = Client::connect(&server.addr().to_string(), 1, 30_000)
        .map_err(|e| format!("connecting: {e}"))?;
    let (mut client_ns, mut requests, mut id) = (0u128, 0u64, 0u64);
    for (m, e) in inputs.iter().enumerate() {
        let transpose = oracle::transpose_digest(&e.coo);
        let spmv = oracle::vector_digest(&oracle::spmv(&e.coo));
        for _ in 0..reps(e.coo.nnz(), tg.slot_nnz, 20) {
            for (body, want) in [
                (
                    RequestBody::Transpose {
                        matrix_id: m as u64,
                        fault: None,
                    },
                    transpose,
                ),
                (
                    RequestBody::Spmv {
                        matrix_id: m as u64,
                        fault: None,
                    },
                    spmv,
                ),
            ] {
                id += 1;
                let (reply, t) = tracer.time("serve.request", p, id, || client.request(id, body));
                client_ns += t.as_nanos();
                requests += 1;
                let ok = matches!(&reply, Ok(r) if r.status == Status::Ok && r.body == ResponseBody::Digest(want));
                out.check(ok, || format!("{}: serial request {id}: {reply:?}", e.name));
            }
        }
    }
    drop(client);
    let text = server.metrics_text();
    let sample = |name: &str| {
        text.lines()
            .find_map(|l| {
                l.strip_prefix(name)?
                    .strip_prefix(' ')?
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .ok_or_else(|| format!("no {name} sample in the server's metrics"))
    };
    let exec_us = sample("stm_serve_latency_us_sum")? / sample("stm_serve_latency_us_count")?;
    let client_us = client_ns as f64 / 1e3 / requests as f64;
    out.set("serve.exec_mean_us", exec_us);
    out.set("serve.outside_exec_mean_us", client_us - exec_us);
    tracer.time("serve.stop", p, 0, || serve::stop(server)).0
}

fn obs(tg: Targets, tracer: &Tracer, p: u64, c: &mut Costs) {
    let line = ResultRecord {
        request_id: 0x51,
        client_id: 1,
        op: protocol::Op::Spmv,
        matrix_id: 2,
        status: Status::Ok,
        degraded: false,
        corrupted: false,
        digest: 0x0123_4567_89ab_cdef,
    }
    .canonical_line();
    let (_, t) = repeat(tracer, "obs.journal_seal", p, 0, tg.fixed, || {
        journal::seal(black_box(&line))
    });
    c.add("obs.journal_seal", t, tg.fixed as f64);
}
