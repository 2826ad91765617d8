//! The service workloads: an in-process `stm_serve::Server` driven over
//! TCP by closed-loop clients (at most two, each on its own connection
//! and thread), plus a control connection used only to submit the
//! matrices and to shut the server down. Every reply is checked against
//! the oracle digest of its (matrix, op).
//!
//! * `serve-small` — two workers, queue depth 8, scalar host backend,
//!   no cross-backend verification, results log on; four seeded
//!   `load::workload_matrix` matrices of 30–90 non-zeros. Requests are
//!   50% TRANSPOSE, 25% SPMV and 25% FETCH of an id the client already
//!   completed, so reads sit beside the log appends. Kernels take
//!   microseconds: framing, admission, hand-off and the durable append
//!   dominate.
//! * `serve-vote` — `stmserve`'s defaults with the simulator backend and
//!   the 2-of-3 vote, results log on; the 12 distinct quick-catalogue
//!   matrices (48–13.7k non-zeros). Each client sends rounds holding
//!   every matrix twice as TRANSPOSE and once as SPMV, shuffled by the
//!   seed, so every complete round costs the same. Three prepares, a
//!   simulated primary and two host legs per request dominate.

use crate::trace::Tracer;
use crate::{oracle, units, LoopStats, Options, Outcome, Runner, Scale};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use stm_bench::resilient::VerifyMode;
use stm_core::kernels::registry::Backend;
use stm_dsab::SuiteEntry;
use stm_serve::protocol::{RequestBody, ResponseBody, Status};
use stm_serve::{Client, ServeConfig, Server};
use stm_sparse::rng::StdRng;
use stm_sparse::MatrixMetrics;

/// Socket timeout for every benchmark connection.
const TIMEOUT_MS: u64 = 30_000;

/// Requests per nominal second of `serve-small` (≈ its throughput on two
/// cores).
const SMALL_PER_SECOND: f64 = 30_000.0;

/// Requests per nominal second of `serve-vote`.
const VOTE_PER_SECOND: f64 = 800.0;

/// Requests per nominal second of a smoke-size loop.
const SMOKE_PER_SECOND: f64 = 200.0;

/// Which service workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Serve {
    /// `serve-small`.
    Small,
    /// `serve-vote`.
    Vote,
}

/// A running server with its matrices submitted.
pub struct State {
    server: Server,
    matrices: Vec<SuiteEntry>,
    /// Oracle digests per matrix: (TRANSPOSE, SPMV).
    expected: Vec<(u64, u64)>,
    log_dir: PathBuf,
    seed: u64,
    /// Loops run so far; keeps request ids unique per server.
    loops: u64,
}

/// What one client thread saw.
#[derive(Default)]
struct ClientRun {
    lat_ns: Vec<u64>,
    out: Outcome,
}

/// The kind of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Transpose,
    Spmv,
    Fetch,
}

impl Op {
    fn span(self) -> &'static str {
        match self {
            Op::Transpose => "serve.transpose",
            Op::Spmv => "serve.spmv",
            Op::Fetch => "serve.fetch",
        }
    }
}

impl Serve {
    /// The server configuration of the workload (results log unset).
    pub fn config(self) -> ServeConfig {
        match self {
            Serve::Small => ServeConfig {
                workers: 2,
                queue_depth: 8,
                backend: Backend::Scalar,
                verify_mode: VerifyMode::Off,
                ..ServeConfig::default()
            },
            Serve::Vote => ServeConfig {
                backend: Backend::Sim,
                verify_mode: VerifyMode::Vote,
                ..ServeConfig::default()
            },
        }
    }

    fn matrices(self, opts: &Options) -> Vec<SuiteEntry> {
        match self {
            Serve::Small => (0..4)
                .map(|m| {
                    let coo = stm_serve::load::workload_matrix(opts.seed, m);
                    let metrics = MatrixMetrics::compute(&coo);
                    SuiteEntry {
                        name: format!("load-{m}"),
                        coo,
                        metrics,
                    }
                })
                .collect(),
            // The quick catalogue is small already; smoke size keeps it.
            Serve::Vote => crate::campaign::catalogue(Scale::Smoke).1,
        }
    }

    fn requests(self, opts: &Options, seconds: f64) -> usize {
        match (opts.scale, self) {
            (Scale::Smoke, _) => units(seconds, SMOKE_PER_SECOND),
            (Scale::Full, Serve::Small) => units(seconds, SMALL_PER_SECOND),
            (Scale::Full, Serve::Vote) => units(seconds, VOTE_PER_SECOND),
        }
    }
}

/// Opens a control connection (client id 0).
fn control(server: &Server) -> Result<Client, String> {
    let addr = server.addr().to_string();
    Client::connect(&addr, 0, TIMEOUT_MS).map_err(|e| format!("connecting to {addr}: {e}"))
}

/// Starts a server on `cfg` and submits `matrices` under ids `0..` over
/// a control connection. Returns the server and the time the
/// submissions took.
pub fn start<'a>(
    cfg: ServeConfig,
    matrices: impl IntoIterator<Item = &'a SuiteEntry>,
) -> Result<(Server, Duration), String> {
    let server = Server::start(cfg).map_err(|e| format!("starting the server: {e}"))?;
    let mut control = control(&server)?;
    let t0 = Instant::now();
    for (m, e) in matrices.into_iter().enumerate() {
        let resp = control
            .submit(u64::MAX - m as u64, m as u64, &e.coo)
            .map_err(|err| format!("submitting {}: {err}", e.name))?;
        if resp.status != Status::Ok {
            return Err(format!("submitting {}: {}", e.name, resp.status.name()));
        }
    }
    Ok((server, t0.elapsed()))
}

/// Drains and stops a server started by [`start`]. The shutdown goes
/// over a fresh control connection: the server drops connections idle
/// for longer than its I/O timeout, as the set-up one is by now.
pub fn stop(server: Server) -> Result<(), String> {
    let resp = control(&server)?
        .shutdown(u64::MAX / 2)
        .map_err(|e| format!("shutting the server down: {e}"))?;
    if resp.status != Status::Ok {
        return Err(format!("shutdown: {}", resp.status.name()));
    }
    server.join();
    Ok(())
}

/// Sends one request until it gets a terminal reply: `RETRY_AFTER`
/// sheds are waited out and resent under the same id.
fn send(client: &mut Client, id: u64, body: RequestBody) -> Result<(Status, Option<u64>), String> {
    loop {
        let resp = client.request(id, body.clone())?;
        match resp.body {
            ResponseBody::RetryAfterMs(ms) if resp.status == Status::RetryAfter => {
                std::thread::sleep(Duration::from_millis(u64::from(ms).clamp(1, 50)));
            }
            ResponseBody::Digest(d) => return Ok((resp.status, Some(d))),
            _ => return Ok((resp.status, None)),
        }
    }
}

/// Unique per-log-directory counter within the process.
static SETUPS: AtomicU64 = AtomicU64::new(0);

impl Runner for Serve {
    type State = State;

    fn setup(&self, opts: &Options, scratch: &Path) -> Result<(State, Duration), String> {
        let t0 = Instant::now();
        let matrices = self.matrices(opts);
        let catalogue = t0.elapsed();
        let expected = matrices
            .iter()
            .map(|e| {
                let y = oracle::spmv(&e.coo);
                (oracle::transpose_digest(&e.coo), oracle::vector_digest(&y))
            })
            .collect();
        let log_dir = scratch.join(format!("serve-{}", SETUPS.fetch_add(1, Ordering::Relaxed)));
        let cfg = ServeConfig {
            results_log: Some(log_dir.join("results.log")),
            ..self.config()
        };
        let (server, _) = start(cfg, &matrices)?;
        Ok((
            State {
                server,
                matrices,
                expected,
                log_dir,
                seed: opts.seed,
                loops: 0,
            },
            catalogue,
        ))
    }

    fn run_loop(
        &self,
        state: &mut State,
        opts: &Options,
        seconds: f64,
        tracer: &Tracer,
        out: &mut Outcome,
    ) -> LoopStats {
        let clients = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
        let total = self.requests(opts, seconds);
        state.loops += 1;
        let addr = state.server.addr().to_string();
        let mut conns = Vec::new();
        for c in 0..clients {
            match Client::connect(&addr, c as u64 + 1, TIMEOUT_MS) {
                Ok(cl) => conns.push(cl),
                Err(e) => out.check(false, || format!("client {c}: connecting to {addr}: {e}")),
            }
        }
        let root = tracer.open("serve.loop", 0, 0);
        let t0 = Instant::now();
        let runs: Vec<ClientRun> = std::thread::scope(|scope| {
            let handles: Vec<_> = conns
                .into_iter()
                .enumerate()
                .map(|(c, conn)| {
                    let n = total / clients + usize::from(c < total % clients);
                    let (addr, state, root) = (&addr, &*state, root.id());
                    scope.spawn(move || self.client(c, conn, n, addr, state, tracer, root))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a client thread panicked"))
                .collect()
        });
        let wall = t0.elapsed();
        tracer.close(root);
        let mut stats = LoopStats {
            wall,
            threads: clients,
            ..LoopStats::default()
        };
        for r in runs {
            stats.ops += r.lat_ns.len() as u64;
            stats.busy += Duration::from_nanos(r.lat_ns.iter().sum());
            stats.lat_ns.extend(r.lat_ns);
            out.merge(r.out);
        }
        stats
    }

    fn inputs<'a>(&self, state: &'a State) -> &'a [SuiteEntry] {
        &state.matrices
    }

    fn serve_config(&self) -> ServeConfig {
        self.config()
    }

    fn teardown(&self, state: State) -> Result<(), String> {
        stop(state.server)?;
        std::fs::remove_dir_all(&state.log_dir).ok();
        Ok(())
    }
}

impl Serve {
    /// One closed-loop client on connection `client`: `n` requests, each
    /// sent after the previous reply arrived. A transport error counts
    /// as a failed request and reconnects.
    #[allow(clippy::too_many_arguments)]
    fn client(
        self,
        c: usize,
        mut client: Client,
        n: usize,
        addr: &str,
        state: &State,
        tracer: &Tracer,
        root: u64,
    ) -> ClientRun {
        let mut run = ClientRun::default();
        let mut rng = StdRng::seed_from_u64(
            state.seed ^ (c as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ state.loops,
        );
        let matrices = state.matrices.len();
        // Completed (request id, expected digest) pairs FETCH draws from.
        let mut done: Vec<(u64, u64)> = Vec::with_capacity(n);
        let mut round: Vec<(usize, Op)> = Vec::new();
        for seq in 0..n as u64 {
            let (m, op) = match self {
                Serve::Small => {
                    let m = rng.gen_range(0..matrices);
                    match rng.next_u64() % 4 {
                        3 if !done.is_empty() => (m, Op::Fetch),
                        2 => (m, Op::Spmv),
                        _ => (m, Op::Transpose),
                    }
                }
                Serve::Vote => {
                    if round.is_empty() {
                        round = (0..matrices)
                            .flat_map(|m| [(m, Op::Transpose), (m, Op::Transpose), (m, Op::Spmv)])
                            .collect();
                        crate::host::shuffle(&mut round, rng.next_u64());
                    }
                    round.pop().expect("a round is never empty")
                }
            };
            let id = state.loops << 48 | (c as u64 + 1) << 40 | seq;
            let (body, want) = match op {
                Op::Transpose => (
                    RequestBody::Transpose {
                        matrix_id: m as u64,
                        fault: None,
                    },
                    state.expected[m].0,
                ),
                Op::Spmv => (
                    RequestBody::Spmv {
                        matrix_id: m as u64,
                        fault: None,
                    },
                    state.expected[m].1,
                ),
                Op::Fetch => {
                    let (target, want) = done[rng.gen_range(0..done.len())];
                    (RequestBody::Fetch { target }, want)
                }
            };
            let (reply, took) = tracer.time(op.span(), root, id, || send(&mut client, id, body));
            run.lat_ns.push(took.as_nanos() as u64);
            let ok = matches!(reply, Ok((Status::Ok, Some(d))) if d == want);
            run.out.check(ok, || {
                format!("request {id:#x} ({op:?}): {reply:?}, expected digest {want:#018x}")
            });
            if ok && op != Op::Fetch {
                done.push((id, want));
            }
            if reply.is_err() {
                match Client::connect(addr, c as u64 + 1, TIMEOUT_MS) {
                    Ok(cl) => client = cl,
                    Err(_) => return run,
                }
            }
        }
        run
    }
}
