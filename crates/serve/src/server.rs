//! The `stmserve` TCP server: a fault-tolerant front-end over the
//! resilient pipeline.
//!
//! ## Architecture
//!
//! ```text
//! accept loop ──► one connection thread per client, which runs its own requests:
//!  (blocking       read frame ─► admit ──┬─ a permit is free ──────────────────┐
//!   accept, woken  (codec,       (idem-  ├─ none free: wait in the FIFO line   │
//!   at shutdown)    guards,       potency,│  (≤ queue_depth ids) for a permit ─┤
//!                   timeouts)     quota,  └─ line full: RETRY_AFTER            ▼
//!                                 drain)          breaker decide → execute_slot
//!                                                                              │
//!                  write frame ◄─ commit; hand the permit ◄─ log append ◄──────┘
//!                  (one write)    to the line's head, or      + flush
//!                                 free it
//! ```
//!
//! Every execution request flows through
//! [`stm_bench::resilient::execute_slot`] — the same breaker-decided
//! primary-attempt loop with seeded backoff and registry fallback the
//! soak pipeline uses — so the service inherits the whole resilience
//! stack rather than reimplementing it.
//!
//! ## Invariants
//!
//! * **Bounded concurrency** — at most `workers` requests execute at
//!   once, each on the connection thread that read it, while holding
//!   one of `workers` permits. Permit `i` writes metrics and flight
//!   events to shard `1 + i`; shard 0 belongs to admission.
//! * **Bounded memory** — a request that finds no free permit waits in
//!   a FIFO line that never holds more than `queue_depth` ids; excess
//!   load is shed with `RETRY_AFTER` and the line's high-water mark is
//!   exported in `STATS` for CI to assert. A finishing request hands its
//!   permit straight to the head of the line, so a permit is free only
//!   while the line is empty.
//! * **At-most-once execution** — `request_id` is the idempotency key: a
//!   re-sent in-flight id joins the original execution (no re-admit), a
//!   re-sent completed id replays the recorded result.
//! * **Breakers only where a fallback exists** — the transpose path
//!   degrades onto `transpose_ref`; SpMV has no registry fallback, so it
//!   gets no breaker (an open breaker would turn healthy requests into
//!   failures) and every SpMV runs. See DESIGN.md §13.
//! * **Durability** — the executing connection thread appends and
//!   flushes each completed request to the results log *before* it
//!   sends the response; a `kill -9` loses at most responses, never
//!   recorded results, and a restarted server re-serves `FETCH`es for
//!   every completed id. The log is not fsynced: an OS crash or power
//!   loss can lose its tail (DESIGN.md §13).
//! * **Clean drain** — `SHUTDOWN` stops admission (`SHUTTING_DOWN` to
//!   new work), lets waiting and executing requests finish (each one
//!   checkpointed to the log as it lands), exports the server trace, and
//!   only then acknowledges.

use crate::flight::FlightRecorder;
use crate::protocol::{
    decode_request, encode_response, read_frame, write_frame, FrameError, Op, Request, RequestBody,
    Response, ResponseBody, Status,
};
use crate::store::{ResultRecord, ResultsLog};
use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use stm_bench::resilient::{
    execute_slot, Breaker, BreakerConfig, BreakerState, Decision, RetryPolicy,
};
use stm_bench::{FaultSpec, RunConfig};
use stm_core::kernels::registry;
use stm_dsab::SuiteEntry;
use stm_obs::{telemetry, Category, Lane, MetricsRegistry, Recorder, SpanCtx};
use stm_sparse::{Coo, MatrixMetrics};

/// `DEADLINE_EXCEEDED` completions within one flight window that count
/// as a storm and trigger a flight dump.
const DEADLINE_STORM: usize = 3;

/// Per-request trace ring capacity. A request's structural story (serve
/// root, resil slot, stage/phase/fault events per attempt) is a few
/// dozen events; 4096 leaves room for pathological retry chains without
/// ever dropping (dropped events would mark the merged trace lossy).
const REQUEST_TRACE_CAPACITY: usize = 4096;

/// Source of [`SERVER_ID`] values; 0 means "no server".
static NEXT_SERVER_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The server this thread works for (0 for every other thread), so
    /// a server's panic hook dumps its flight ring only for panics on
    /// its own connection, accept and metrics threads.
    static SERVER_ID: Cell<u64> = const { Cell::new(0) };
}

/// Spawns a thread of server `id`, tagged as such for its panic hook.
fn spawn_server_thread<T: Send + 'static>(
    id: u64,
    f: impl FnOnce() -> T + Send + 'static,
) -> JoinHandle<T> {
    std::thread::spawn(move || {
        SERVER_ID.with(|s| s.set(id));
        f()
    })
}

/// The kernel each execution op dispatches to.
fn kernel_for(op: Op) -> &'static str {
    match op {
        Op::Spmv => "spmv_hism",
        _ => "transpose_hism",
    }
}

/// Server tuning. `Default` is sized for tests and local runs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (see [`Server::addr`]).
    pub addr: String,
    /// Length limit of the line of requests waiting for a permit — the
    /// bounded-memory knob.
    pub queue_depth: usize,
    /// Max in-flight (admitted, not yet completed) requests per client.
    pub quota: usize,
    /// Execution permits: how many requests may execute at once. Each
    /// request executes on the connection thread that read it.
    pub workers: usize,
    /// Frame payload cap in bytes (oversized-frame guard).
    pub max_frame: usize,
    /// Socket read/write timeout (slow-loris guard).
    pub io_timeout_ms: u64,
    /// Backoff hint sent with `RETRY_AFTER`.
    pub retry_after_ms: u32,
    /// Per-request cycle budget; exceeding it is a typed
    /// `DEADLINE_EXCEEDED`.
    pub deadline: Option<u64>,
    /// Circuit-breaker tuning for the transpose path.
    pub breaker: BreakerConfig,
    /// Bounded-retry tuning for primary kernel attempts.
    pub retry: RetryPolicy,
    /// Durable results log; `None` disables durability (tests).
    pub results_log: Option<std::path::PathBuf>,
    /// Directory for the server event trace, exported at shutdown.
    pub trace: Option<std::path::PathBuf>,
    /// Execution backend for the primary kernels (`--backend`). Host
    /// backends serve requests from the native tier; the breaker
    /// fallback always runs on the simulator regardless.
    pub backend: registry::Backend,
    /// Optional bind address for the plain-text metrics exposition
    /// listener (`--metrics-addr`); `None` disables the listener. The
    /// registry itself is always live — `METRICS` works regardless.
    pub metrics_addr: Option<String>,
    /// Directory for crash flight-recorder dumps (`--flight-dir`);
    /// `None` disables dumps (the ring still records).
    pub flight_dir: Option<std::path::PathBuf>,
    /// Flight-recorder dump window in milliseconds (`--flight-window`).
    pub flight_window_ms: u64,
    /// Test hook (`--flight-every`): also dump the flight ring after
    /// every N completed requests.
    pub flight_every: Option<u64>,
    /// Output-integrity verification tier for every execution request
    /// (`--verify-mode`). Under `dual`/`vote` a silent wrong answer is
    /// caught by cross-backend re-execution *before* the reply: the
    /// majority digest is served transparently, and only an
    /// unrecoverable disagreement surfaces as `DATA_CORRUPT`.
    pub verify_mode: stm_bench::resilient::VerifyMode,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            queue_depth: 8,
            quota: 4,
            workers: 4,
            max_frame: crate::protocol::DEFAULT_MAX_FRAME,
            io_timeout_ms: 10_000,
            retry_after_ms: 2,
            deadline: None,
            breaker: BreakerConfig::default(),
            retry: RetryPolicy::default(),
            results_log: None,
            trace: None,
            backend: registry::Backend::Sim,
            metrics_addr: None,
            flight_dir: None,
            flight_window_ms: 10_000,
            flight_every: None,
            verify_mode: stm_bench::resilient::VerifyMode::Off,
        }
    }
}

/// Stable wire index for the configured backend (the `STATS` payload
/// cannot carry a string). Index 3 was the retired `auto` backend and is
/// never reused.
fn backend_index(b: registry::Backend) -> u64 {
    match b {
        registry::Backend::Sim => 0,
        registry::Backend::Scalar => 1,
        registry::Backend::Simd => 2,
    }
}

/// A point-in-time snapshot of the service counters — the `STATS`
/// payload, in wire order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Execution requests admitted (executing at once or after a wait
    /// in the line).
    pub accepted: u64,
    /// Execution requests completed (any terminal status).
    pub completed: u64,
    /// Requests shed with `RETRY_AFTER` because no permit was free and
    /// the waiting line was full.
    pub shed: u64,
    /// Completed requests whose result came from the fallback kernel.
    pub degraded: u64,
    /// High-water mark of the waiting line.
    pub queue_depth_max: u64,
    /// The configured queue depth (the bound `queue_depth_max` must
    /// respect).
    pub queue_depth_limit: u64,
    /// Matrices currently stored.
    pub matrices: u64,
    /// Frames rejected by the magic/size/parse guards.
    pub bad_frames: u64,
    /// Requests waiting for a permit *right now* (live, not a
    /// high-water mark).
    pub queue_depth: u64,
    /// Admitted-but-not-completed requests right now.
    pub in_flight: u64,
    /// Completed requests whose terminal status was not `OK`.
    pub failed: u64,
    /// The serving backend as a stable wire index (`0` = sim, `1` =
    /// scalar host, `2` = `simd`, which runs the scalar host code; `3`,
    /// the retired `auto`, is never sent).
    pub backend: u64,
}

impl StatsSnapshot {
    /// Wire encoding: the fields as a `u64` list, in declaration order.
    pub fn to_vec(self) -> Vec<u64> {
        vec![
            self.accepted,
            self.completed,
            self.shed,
            self.degraded,
            self.queue_depth_max,
            self.queue_depth_limit,
            self.matrices,
            self.bad_frames,
            self.queue_depth,
            self.in_flight,
            self.failed,
            self.backend,
        ]
    }

    /// Decodes [`StatsSnapshot::to_vec`] output. Tolerates short
    /// payloads down to the original eight fields (a newer client
    /// reading an older server sees zeros for the live fields), so the
    /// wire format stays forward- and backward-compatible.
    pub fn from_vec(v: &[u64]) -> Option<StatsSnapshot> {
        if v.len() < 8 {
            return None;
        }
        let get = |i: usize| v.get(i).copied().unwrap_or(0);
        Some(StatsSnapshot {
            accepted: v[0],
            completed: v[1],
            shed: v[2],
            degraded: v[3],
            queue_depth_max: v[4],
            queue_depth_limit: v[5],
            matrices: v[6],
            bad_frames: v[7],
            queue_depth: get(8),
            in_flight: get(9),
            failed: get(10),
            backend: get(11),
        })
    }
}

/// One admitted execution request.
struct Job {
    request_id: u64,
    client_id: u64,
    op: Op,
    matrix_id: u64,
    entry: Arc<SuiteEntry>,
    fault: Option<FaultSpec>,
}

#[derive(Default)]
struct State {
    matrices: HashMap<u64, Arc<SuiteEntry>>,
    /// Permits no request holds; non-empty only while `line` is empty.
    free: Vec<usize>,
    /// Admitted request ids waiting for a permit, oldest first; never
    /// longer than `queue_depth`.
    line: VecDeque<u64>,
    /// Permits handed to former heads of `line` whose threads have not
    /// woken yet, keyed by request id.
    granted: HashMap<u64, usize>,
    /// Admitted-but-not-completed request ids, with the owning client.
    pending: HashMap<u64, u64>,
    pending_by_client: HashMap<u64, usize>,
    completed: HashMap<u64, ResultRecord>,
    stats: StatsSnapshot,
    /// No new work admitted; drain in progress.
    draining: bool,
    /// The accept and metrics loops should exit.
    stopped: bool,
}

impl State {
    /// The counters with the live fields filled in.
    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            queue_depth: self.line.len() as u64,
            in_flight: self.pending.len() as u64,
            ..self.stats
        }
    }
}

struct Shared {
    cfg: ServeConfig,
    /// This server's thread tag (see [`SERVER_ID`]).
    id: u64,
    /// The bound address, which [`finish_shutdown`] connects to.
    addr: SocketAddr,
    state: Mutex<State>,
    /// Wakes waiters on completion: joiners of an in-flight id, requests
    /// in the line (a permit was handed over) and the drain.
    done: Condvar,
    /// One breaker per kernel *with a registry fallback*, with its
    /// monotone decision sequence.
    breakers: Mutex<HashMap<&'static str, (Breaker, u64)>>,
    run: RunConfig,
    log: Mutex<Option<ResultsLog>>,
    rec: Recorder,
    /// Global event sequence — the `Lane::Serve` timestamp domain. A
    /// mutex (not an atomic) so the sequence draw and the ring append
    /// happen as one step: `check::validate` requires per-lane monotone
    /// timestamps in record order.
    seq: Mutex<u64>,
    /// The live telemetry plane: shard 0 belongs to admission, shard
    /// `1 + i` to the request holding permit `i`. Always on — updates
    /// are a striped mutex and a map insert, far off the execution
    /// path's clock.
    metrics: MetricsRegistry,
    /// The crash flight recorder's event ring (same shard layout), kept
    /// only when a dump directory is configured: nothing else reads it.
    flight: Option<FlightRecorder>,
    /// Server start, the epoch for wall-clock metric windows and flight
    /// timestamps.
    start: Instant,
    /// Wall-ms timestamps of recent `DEADLINE_EXCEEDED` completions,
    /// for storm detection.
    deadlines: Mutex<VecDeque<u64>>,
}

impl Shared {
    fn tick(&self, name: &'static str) {
        if !self.rec.is_enabled() {
            return;
        }
        let mut seq = self.seq.lock().unwrap();
        self.rec.instant(Lane::Serve, Category::Serve, name, *seq);
        *seq += 1;
    }

    /// Milliseconds since server start (flight-recorder clock).
    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    /// Seconds since server start (metrics-window clock).
    fn now_secs(&self) -> u64 {
        self.start.elapsed().as_secs()
    }

    /// The current metrics exposition text. Never empty: every family
    /// is declared at startup.
    fn metrics_text(&self) -> String {
        telemetry::render_prometheus(&self.metrics.snapshot(self.now_secs()))
    }

    /// Note an event in the flight ring, if there is one.
    fn flight_note(&self, shard: usize, name: &'static str, req: u64) {
        if let Some(flight) = &self.flight {
            flight.record(shard, name, self.now_ms(), req);
        }
    }

    /// Dump the flight ring, if a dump directory is configured.
    fn flight_dump(&self, reason: &'static str) {
        let (Some(flight), Some(dir)) = (&self.flight, &self.cfg.flight_dir) else {
            return;
        };
        match flight.dump(dir, reason, self.now_ms()) {
            Ok(path) => eprintln!("stmserve: flight dump ({reason}): {}", path.display()),
            Err(e) => eprintln!("stmserve: flight dump ({reason}) failed: {e}"),
        }
    }

    /// Record a `DEADLINE_EXCEEDED` completion and dump the flight ring
    /// when [`DEADLINE_STORM`] of them land within one flight window.
    fn note_deadline(&self, now_ms: u64) {
        let storm = {
            let mut d = self.deadlines.lock().unwrap();
            d.push_back(now_ms);
            let cutoff = now_ms.saturating_sub(self.cfg.flight_window_ms.max(1));
            while d.front().is_some_and(|&t| t <= cutoff) {
                d.pop_front();
            }
            if d.len() >= DEADLINE_STORM {
                d.clear();
                true
            } else {
                false
            }
        };
        if storm {
            self.flight_dump("deadline-storm");
        }
    }
}

/// A running server. Dropping the handle does not stop it; send
/// `SHUTDOWN` (or use `stmload --shutdown`) and call [`Server::join`].
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    accept: std::thread::JoinHandle<()>,
    metrics_thread: Option<std::thread::JoinHandle<()>>,
}

/// Counter and gauge families, declared at startup so the set of
/// exposed metric names is byte-stable from the very first scrape.
const COUNTER_FAMILIES: &[&str] = &[
    "serve.requests.accepted",
    "serve.requests.completed",
    "serve.requests.degraded",
    "serve.requests.failed",
    "serve.requests.shed",
    "serve.frames.bad",
    "serve.breaker.trips",
    "integrity.sdc.detected",
    "integrity.sdc.recovered",
    "integrity.sdc.unrecovered",
    "integrity.verify.legs",
];
const GAUGE_FAMILIES: &[&str] = &["serve.queue.depth", "serve.inflight"];
const WINDOW_FAMILIES: &[&str] = &["serve.latency.us", "serve.kernel.cycles"];

impl Server {
    /// Binds, recovers the results log, and spawns the accept loop and
    /// (when configured) the metrics exposition listener.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let metrics_listener = match &cfg.metrics_addr {
            Some(maddr) => {
                let l = TcpListener::bind(maddr)?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        let metrics_addr = match &metrics_listener {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };

        let permits = cfg.workers.max(1);
        let mut state = State {
            // Reversed, so that `pop` hands out permit 0 first.
            free: (0..permits).rev().collect(),
            stats: StatsSnapshot {
                queue_depth_limit: cfg.queue_depth as u64,
                backend: backend_index(cfg.backend),
                ..StatsSnapshot::default()
            },
            ..State::default()
        };
        let log = match &cfg.results_log {
            Some(path) => {
                let (log, records) = ResultsLog::open(path)?;
                for rec in records {
                    state.stats.completed += 1;
                    if rec.degraded {
                        state.stats.degraded += 1;
                    }
                    state.completed.insert(rec.request_id, rec);
                }
                Some(log)
            }
            None => None,
        };

        // Under `dual`/`vote` the cross-backend legs replace the
        // single-backend oracle recompute: running both would double
        // the verification cost, and the oracle would intercept every
        // injected SDC as a typed mismatch before the legs ever voted.
        let verify_oracle = !matches!(
            cfg.verify_mode,
            stm_bench::resilient::VerifyMode::Dual | stm_bench::resilient::VerifyMode::Vote
        );
        let mut run = RunConfig {
            jobs: Some(1),
            verify: verify_oracle,
            backend: cfg.backend,
            ..RunConfig::default()
        };
        run.vp.cycle_budget = cfg.deadline;

        // Shard 0 is admission's stripe; permit i owns stripe 1 + i.
        let metrics = MetricsRegistry::new(permits + 1, 10);
        for name in COUNTER_FAMILIES {
            metrics.add(0, name, 0);
        }
        for name in GAUGE_FAMILIES {
            metrics.gauge(0, name, 0);
        }
        for name in WINDOW_FAMILIES {
            metrics.declare_window(0, name);
        }
        let flight = cfg
            .flight_dir
            .as_ref()
            .map(|_| FlightRecorder::new(permits + 1, cfg.flight_window_ms));
        let install_panic_hook = flight.is_some();
        let shared = Arc::new(Shared {
            state: Mutex::new(state),
            done: Condvar::new(),
            breakers: Mutex::new(HashMap::new()),
            run,
            log: Mutex::new(log),
            rec: if cfg.trace.is_some() {
                Recorder::enabled(1 << 20)
            } else {
                Recorder::disabled()
            },
            seq: Mutex::new(0),
            metrics,
            flight,
            start: Instant::now(),
            deadlines: Mutex::new(VecDeque::new()),
            id: NEXT_SERVER_ID.fetch_add(1, Ordering::Relaxed),
            addr,
            cfg,
        });
        let id = shared.id;

        // Last-breath flight dump on a panic in one of this server's own
        // threads; a panic elsewhere in the process (another server, a
        // test thread) is not this server's to record. The hook chains
        // the previous one and holds only a weak reference, so a dropped
        // server never keeps dumping (or leaks).
        if install_panic_hook {
            let weak = Arc::downgrade(&shared);
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                if SERVER_ID.try_with(Cell::get) == Ok(id) {
                    if let Some(sh) = weak.upgrade() {
                        sh.flight_dump("panic");
                    }
                }
                prev(info);
            }));
        }

        let metrics_thread = metrics_listener.map(|l| {
            let sh = Arc::clone(&shared);
            spawn_server_thread(id, move || metrics_loop(&sh, &l))
        });
        let sh = Arc::clone(&shared);
        let accept = spawn_server_thread(id, move || accept_loop(&sh, &listener));
        Ok(Server {
            shared,
            addr,
            metrics_addr,
            accept,
            metrics_thread,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound metrics exposition address, when the listener is
    /// configured (resolves port 0).
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Waits for a clean `SHUTDOWN`-initiated stop.
    pub fn join(self) {
        self.accept.join().ok();
        if let Some(m) = self.metrics_thread {
            m.join().ok();
        }
    }

    /// A stats snapshot, for in-process tests. Live fields
    /// (`queue_depth`, `in_flight`) reflect this instant.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.state.lock().unwrap().snapshot()
    }

    /// The current metrics exposition text (what a scrape returns).
    pub fn metrics_text(&self) -> String {
        self.shared.metrics_text()
    }

    /// Dump the flight ring now (the `stmserve` bin's `SIGTERM` path).
    /// No-op unless a flight directory is configured.
    pub fn dump_flight(&self, reason: &'static str) {
        self.shared.flight_dump(reason);
    }

    /// A cheap handle that can trigger flight dumps after the `Server`
    /// itself has been moved (e.g. into [`Server::join`]) — the signal
    /// watcher's lifeline.
    pub fn flight_dumper(&self) -> FlightDumper {
        FlightDumper(Arc::clone(&self.shared))
    }
}

/// See [`Server::flight_dumper`].
#[derive(Clone)]
pub struct FlightDumper(Arc<Shared>);

impl FlightDumper {
    /// Dump the flight ring now. No-op unless a flight directory is
    /// configured.
    pub fn dump(&self, reason: &'static str) {
        self.0.flight_dump(reason);
    }
}

/// Serves the metrics exposition endpoint: one tiny HTTP/1.1 200 per
/// connection, then close. Accepts any request bytes (it never parses
/// the path), so `curl`, `stmtop`, and a bare TCP read all work.
fn metrics_loop(sh: &Arc<Shared>, listener: &TcpListener) {
    loop {
        if sh.state.lock().unwrap().stopped {
            return;
        }
        match listener.accept() {
            Ok((mut stream, _)) => {
                stream
                    .set_read_timeout(Some(Duration::from_millis(500)))
                    .ok();
                stream
                    .set_write_timeout(Some(Duration::from_millis(2_000)))
                    .ok();
                // Best-effort drain of the request line; the response
                // is the same whatever was asked.
                let mut buf = [0u8; 1024];
                let _ = std::io::Read::read(&mut stream, &mut buf);
                let body = sh.metrics_text();
                let resp = format!(
                    "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
                    body.len(),
                    body
                );
                let _ = std::io::Write::write_all(&mut stream, resp.as_bytes());
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Blocks in `accept`; [`finish_shutdown`] wakes it with a connection
/// of its own once the stop flag is set.
fn accept_loop(sh: &Arc<Shared>, listener: &TcpListener) {
    loop {
        let accepted = listener.accept();
        if sh.state.lock().unwrap().stopped {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                sh.tick("serve.accept");
                let sh = Arc::clone(sh);
                spawn_server_thread(sh.id, move || handle_connection(&sh, stream));
            }
            // Out of descriptors and the like: back off, then retry.
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn handle_connection(sh: &Arc<Shared>, stream: TcpStream) {
    let timeout = Some(Duration::from_millis(sh.cfg.io_timeout_ms.max(1)));
    if stream.set_read_timeout(timeout).is_err() || stream.set_write_timeout(timeout).is_err() {
        return;
    }
    let mut reader = std::io::BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    // `write_frame` sends each frame in one write: no buffer needed.
    let mut writer = stream;
    loop {
        let payload = match read_frame(&mut reader, sh.cfg.max_frame) {
            Ok(p) => p,
            Err(FrameError::Io(_)) => return, // EOF, timeout (slow loris), reset
            Err(FrameError::BadMagic(_)) => {
                count_bad_frame(sh);
                respond(&mut writer, &Response::empty(Status::BadFrame, 0));
                return; // framing is lost; drop the connection
            }
            Err(FrameError::TooLarge(_)) => {
                count_bad_frame(sh);
                respond(&mut writer, &Response::empty(Status::TooLarge, 0));
                return;
            }
        };
        let req = match decode_request(&payload) {
            Ok(r) => r,
            Err(None) => {
                count_bad_frame(sh);
                respond(&mut writer, &Response::empty(Status::UnknownOp, 0));
                continue;
            }
            Err(Some(_)) => {
                count_bad_frame(sh);
                respond(&mut writer, &Response::empty(Status::BadFrame, 0));
                return;
            }
        };
        let shutdown = matches!(req.body, RequestBody::Shutdown);
        let resp = handle_request(sh, req);
        let sent = respond(&mut writer, &resp);
        if shutdown && resp.status == Status::Ok {
            finish_shutdown(sh);
            return;
        }
        if !sent {
            return;
        }
    }
}

fn respond(w: &mut impl std::io::Write, resp: &Response) -> bool {
    write_frame(w, &encode_response(resp)).is_ok()
}

fn count_bad_frame(sh: &Shared) {
    sh.tick("serve.frame.bad");
    sh.rec.add("serve.frames.bad", 1);
    sh.metrics.add(0, "serve.frames.bad", 1);
    sh.flight_note(0, "flight.frame.bad", 0);
    sh.state.lock().unwrap().stats.bad_frames += 1;
}

fn handle_request(sh: &Arc<Shared>, req: Request) -> Response {
    match req.body {
        RequestBody::Submit {
            matrix_id,
            rows,
            cols,
            entries,
        } => handle_submit(sh, req.request_id, matrix_id, rows, cols, &entries),
        RequestBody::Transpose { matrix_id, fault } | RequestBody::Spmv { matrix_id, fault } => {
            let op = if matches!(req.body, RequestBody::Spmv { .. }) {
                Op::Spmv
            } else {
                Op::Transpose
            };
            handle_execute(sh, &req, op, matrix_id, fault)
        }
        RequestBody::Fetch { target } => handle_fetch(sh, req.request_id, target),
        RequestBody::Stats => {
            sh.tick("serve.stats");
            let stats = sh.state.lock().unwrap().snapshot();
            Response {
                status: Status::Ok,
                degraded: false,
                request_id: req.request_id,
                body: ResponseBody::Stats(stats.to_vec()),
            }
        }
        RequestBody::Metrics => {
            sh.tick("serve.metrics");
            Response {
                status: Status::Ok,
                degraded: false,
                request_id: req.request_id,
                body: ResponseBody::Metrics(sh.metrics_text()),
            }
        }
        RequestBody::Shutdown => handle_shutdown(sh, req.request_id),
    }
}

fn handle_submit(
    sh: &Arc<Shared>,
    request_id: u64,
    matrix_id: u64,
    rows: u32,
    cols: u32,
    entries: &[(u32, u32, f32)],
) -> Response {
    let triplets: Vec<(usize, usize, f32)> = entries
        .iter()
        .map(|&(r, c, v)| (r as usize, c as usize, v))
        .collect();
    let coo = match Coo::from_triplets(rows as usize, cols as usize, triplets) {
        Ok(c) => c,
        Err(_) => return Response::empty(Status::BadFrame, request_id),
    };
    let mut state = sh.state.lock().unwrap();
    if state.draining {
        return Response::empty(Status::ShuttingDown, request_id);
    }
    // Idempotent: re-submitting an id keeps the first copy.
    state.matrices.entry(matrix_id).or_insert_with(|| {
        let metrics = MatrixMetrics::compute(&coo);
        Arc::new(SuiteEntry {
            name: format!("m{matrix_id:x}"),
            coo,
            metrics,
        })
    });
    state.stats.matrices = state.matrices.len() as u64;
    drop(state);
    sh.tick("serve.submit");
    Response::empty(Status::Ok, request_id)
}

fn record_to_response(rec: &ResultRecord) -> Response {
    Response {
        status: rec.status,
        degraded: rec.degraded,
        request_id: rec.request_id,
        body: if rec.status == Status::Ok {
            ResponseBody::Digest(rec.digest)
        } else {
            ResponseBody::Empty
        },
    }
}

fn handle_execute(
    sh: &Arc<Shared>,
    req: &Request,
    op: Op,
    matrix_id: u64,
    fault: Option<crate::protocol::FaultRequest>,
) -> Response {
    let mut state = sh.state.lock().unwrap();
    // Idempotency, completed side: replay the recorded result.
    if let Some(rec) = state.completed.get(&req.request_id) {
        return record_to_response(rec);
    }
    // Idempotency, in-flight side: join the original execution.
    if state.pending.contains_key(&req.request_id) {
        loop {
            state = sh.done.wait(state).unwrap();
            if let Some(rec) = state.completed.get(&req.request_id) {
                return record_to_response(rec);
            }
            if !state.pending.contains_key(&req.request_id) {
                // Evaporated without completing (cannot happen today);
                // fail typed rather than hanging.
                return Response::empty(Status::KernelFailed, req.request_id);
            }
        }
    }
    if state.draining {
        return Response::empty(Status::ShuttingDown, req.request_id);
    }
    let entry = match state.matrices.get(&matrix_id) {
        Some(e) => Arc::clone(e),
        None => return Response::empty(Status::UnknownMatrix, req.request_id),
    };
    let in_flight = state
        .pending_by_client
        .get(&req.client_id)
        .copied()
        .unwrap_or(0);
    if in_flight >= sh.cfg.quota.max(1) {
        return Response::empty(Status::QuotaExceeded, req.request_id);
    }
    // Run now on a free permit; else wait in the bounded line; else
    // shed rather than grow.
    let permit = state.free.pop();
    if permit.is_none() && state.line.len() >= sh.cfg.queue_depth.max(1) {
        state.stats.shed += 1;
        drop(state);
        sh.tick("serve.shed");
        sh.rec.add("serve.shed", 1);
        sh.metrics.add(0, "serve.requests.shed", 1);
        sh.flight_note(0, "flight.shed", req.request_id);
        return Response {
            status: Status::RetryAfter,
            degraded: false,
            request_id: req.request_id,
            body: ResponseBody::RetryAfterMs(sh.cfg.retry_after_ms),
        };
    }
    state.pending.insert(req.request_id, req.client_id);
    *state.pending_by_client.entry(req.client_id).or_insert(0) += 1;
    if permit.is_none() {
        state.line.push_back(req.request_id);
    }
    state.stats.accepted += 1;
    let depth = state.line.len() as u64;
    let in_flight = state.pending.len() as u64;
    state.stats.queue_depth_max = state.stats.queue_depth_max.max(depth);
    drop(state);
    sh.rec.observe("serve.queue.depth", depth);
    sh.metrics.add(0, "serve.requests.accepted", 1);
    sh.metrics.gauge(0, "serve.queue.depth", depth);
    sh.metrics.gauge(0, "serve.inflight", in_flight);
    sh.flight_note(0, "flight.enqueue", req.request_id);
    sh.tick("serve.enqueue");

    // Without a permit, wait until a finishing request hands one over.
    let permit = match permit {
        Some(p) => p,
        None => {
            let mut state = sh.state.lock().unwrap();
            loop {
                if let Some(p) = state.granted.remove(&req.request_id) {
                    break p;
                }
                state = sh.done.wait(state).unwrap();
            }
        }
    };
    let job = Job {
        request_id: req.request_id,
        client_id: req.client_id,
        op,
        matrix_id,
        entry,
        fault: fault.map(|f| FaultSpec {
            index: 0,
            class: f.class,
            seed: f.seed,
        }),
    };
    execute_job(sh, permit, &job)
}

fn handle_fetch(sh: &Arc<Shared>, request_id: u64, target: u64) -> Response {
    sh.tick("serve.fetch");
    let state = sh.state.lock().unwrap();
    match state.completed.get(&target) {
        Some(rec) => {
            let mut resp = record_to_response(rec);
            resp.request_id = request_id;
            resp
        }
        None => Response::empty(Status::NotFound, request_id),
    }
}

fn handle_shutdown(sh: &Arc<Shared>, request_id: u64) -> Response {
    sh.tick("serve.drain");
    let mut state = sh.state.lock().unwrap();
    state.draining = true;
    // Clean drain: every admitted request, waiting or executing,
    // completes and is checkpointed to the results log before we
    // acknowledge.
    while !state.pending.is_empty() {
        state = sh.done.wait(state).unwrap();
    }
    drop(state);
    sh.tick("serve.shutdown");
    if let Some(dir) = &sh.cfg.trace {
        let data = sh.rec.snapshot();
        if let Err(e) = stm_bench::trace::export_trace(dir, "serve", "serve", &data) {
            eprintln!("stmserve: trace export failed: {e}");
        }
    }
    Response::empty(Status::Ok, request_id)
}

/// Flips the stop flag after the shutdown ack went out, releasing the
/// metrics loop and, through one last connection, the accept loop.
fn finish_shutdown(sh: &Arc<Shared>) {
    sh.state.lock().unwrap().stopped = true;
    let mut wake = sh.addr;
    if wake.ip().is_unspecified() {
        wake.set_ip(match wake {
            SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
        });
    }
    if let Err(e) = TcpStream::connect(wake) {
        eprintln!("stmserve: waking the accept loop at {wake} failed: {e}");
    }
}

/// Executes an admitted request on the calling connection thread, which
/// holds `permit`; commits the result, passes the permit on and returns
/// the response.
fn execute_job(sh: &Arc<Shared>, permit: usize, job: &Job) -> Response {
    // This permit's metrics/flight stripe (shard 0 is admission's).
    let shard = permit + 1;
    sh.tick("serve.execute");
    sh.flight_note(shard, "flight.execute", job.request_id);
    let kernel = kernel_for(job.op);

    // The request-scoped trace: its own ring, its own cycle clock
    // starting at 0, every event stamped with the request id. The
    // `serve.request` root span brackets the whole execution so the
    // joiner can check containment.
    let req_rec = if sh.rec.is_enabled() {
        Recorder::enabled(REQUEST_TRACE_CAPACITY).with_ctx(SpanCtx::request(job.request_id))
    } else {
        Recorder::disabled()
    };
    let root = req_rec
        .is_enabled()
        .then(|| req_rec.begin(Lane::Serve, Category::Serve, "serve.request", 0));

    // Breakers guard only kernels with a registry fallback: skipping a
    // fallback-less kernel would fail healthy requests (DESIGN.md §13).
    let decision = if registry::fallback_for(kernel).is_some() {
        let mut breakers = sh.breakers.lock().unwrap();
        let (breaker, seq) = breakers
            .entry(kernel)
            .or_insert_with(|| (Breaker::new(sh.cfg.breaker), 0));
        let d = breaker.decide(*seq);
        *seq += 1;
        d
    } else {
        Decision::Run
    };

    // The expensive part runs outside every lock. `index` keys the
    // retry-jitter stream only.
    let wall = Instant::now();
    let outcome = execute_slot(
        &sh.run,
        &sh.cfg.retry,
        &job.entry,
        job.request_id as usize,
        kernel,
        decision,
        job.fault.as_ref(),
        sh.cfg.verify_mode,
        &req_rec,
    );
    let wall_us = wall.elapsed().as_micros() as u64;

    // Every SDC detection — recovered or not — is a flight-recorder
    // event: the quarantined digest and the forensic window around it
    // are exactly what a post-mortem needs.
    if outcome.corrupted {
        sh.metrics.add(shard, "integrity.sdc.detected", 1);
        sh.flight_note(shard, "flight.sdc.detected", job.request_id);
        if outcome.report.is_some() {
            sh.metrics.add(shard, "integrity.sdc.recovered", 1);
        } else {
            sh.metrics.add(shard, "integrity.sdc.unrecovered", 1);
        }
        sh.flight_dump("sdc-detected");
    }
    if outcome.verify_legs > 0 {
        sh.metrics
            .add(shard, "integrity.verify.legs", outcome.verify_legs);
    }

    if registry::fallback_for(kernel).is_some() {
        let mut breakers = sh.breakers.lock().unwrap();
        let transitions = match breakers.get_mut(kernel) {
            Some((breaker, seq)) => {
                breaker.commit(decision, outcome.outcome, *seq);
                breaker.drain_transitions()
            }
            None => Vec::new(),
        };
        drop(breakers);
        for (_, _, to) in transitions {
            if to == BreakerState::Open {
                sh.metrics.add(shard, "serve.breaker.trips", 1);
                sh.flight_note(shard, "flight.breaker.open", job.request_id);
                sh.flight_dump("breaker-open");
            }
        }
    }

    // A corrupted-but-recovered request is served `OK` — the client
    // gets the majority digest, transparently. Only an unrecoverable
    // disagreement (no majority, no fallback) refuses with
    // `DATA_CORRUPT`.
    let status = match (&outcome.report, &outcome.failure) {
        (Some(_), _) => Status::Ok,
        (None, _) if outcome.corrupted => Status::DataCorrupt,
        (None, Some(f)) => match f.error {
            stm_core::kernels::registry::KernelError::DeadlineExceeded(_) => {
                Status::DeadlineExceeded
            }
            _ => Status::KernelFailed,
        },
        (None, None) => Status::KernelFailed,
    };

    // Close the request trace — status instant, then the root span —
    // and fold it into the server recording as one atomic block. The
    // request timeline keeps its own clock (offset 0): per-lane
    // invariants hold per `(lane, request)`, so shifted request
    // timelines coexist with the server's sequence-stamped events.
    if let Some(root) = root {
        let end_ts = req_rec.max_ts();
        let status_name = if status == Status::DataCorrupt {
            "serve.request.data_corrupt"
        } else if outcome.corrupted {
            // Recovered in-flight: the reply is OK, but the detection
            // must stay visible on the request timeline.
            "serve.request.recovered"
        } else if outcome.degraded {
            "serve.request.degraded"
        } else if status == Status::Ok {
            "serve.request.ok"
        } else {
            "serve.request.failed"
        };
        req_rec.instant(Lane::Serve, Category::Serve, status_name, end_ts);
        req_rec.end(Lane::Serve, Category::Serve, "serve.request", end_ts, root);
        sh.rec.absorb(&req_rec.snapshot(), 0);
    }
    // Canonical digest: format-independent, so a degraded transpose
    // (fallback emits a different encoding than the primary) digests
    // identically to the primary result. Verification's, when it took
    // one of the served report.
    let digest = outcome.served_digest().unwrap_or(0);
    let rec = ResultRecord {
        request_id: job.request_id,
        client_id: job.client_id,
        op: job.op,
        matrix_id: job.matrix_id,
        status,
        degraded: outcome.degraded,
        corrupted: outcome.corrupted,
        digest,
    };

    // Durability before visibility: the record hits the flushed log
    // before any response can be built from it.
    if let Some(log) = sh.log.lock().unwrap().as_mut() {
        if let Err(e) = log.append(&rec) {
            eprintln!("stmserve: results log append failed: {e}");
        }
    }

    let mut state = sh.state.lock().unwrap();
    state.pending.remove(&job.request_id);
    if let Some(n) = state.pending_by_client.get_mut(&job.client_id) {
        *n = n.saturating_sub(1);
    }
    state.stats.completed += 1;
    if rec.degraded {
        state.stats.degraded += 1;
        sh.rec.add("serve.degraded", 1);
    }
    if rec.status != Status::Ok {
        state.stats.failed += 1;
    }
    let resp = record_to_response(&rec);
    let (rstatus, rdegraded) = (rec.status, rec.degraded);
    state.completed.insert(job.request_id, rec);
    // Hand the permit to the head of the line, or free it.
    match state.line.pop_front() {
        Some(next) => {
            state.granted.insert(next, permit);
        }
        None => state.free.push(permit),
    }
    let completed_total = state.stats.completed;
    let depth = state.line.len() as u64;
    let in_flight = state.pending.len() as u64;
    drop(state);
    sh.rec.add("serve.completed", 1);
    sh.tick("serve.commit");

    let now_ms = sh.now_ms();
    let now_secs = sh.now_secs();
    sh.metrics.add(shard, "serve.requests.completed", 1);
    sh.metrics
        .observe(shard, "serve.latency.us", wall_us, now_secs);
    if let Some(r) = &outcome.report {
        sh.metrics
            .observe(shard, "serve.kernel.cycles", r.report.cycles, now_secs);
    }
    sh.metrics.gauge(0, "serve.queue.depth", depth);
    sh.metrics.gauge(0, "serve.inflight", in_flight);
    let flight_name = if rdegraded {
        sh.metrics.add(shard, "serve.requests.degraded", 1);
        "flight.commit.degraded"
    } else if rstatus == Status::Ok {
        "flight.commit.ok"
    } else {
        sh.metrics.add(shard, "serve.requests.failed", 1);
        "flight.commit.failed"
    };
    sh.flight_note(shard, flight_name, job.request_id);
    if rstatus == Status::DeadlineExceeded {
        sh.flight_note(shard, "flight.deadline", job.request_id);
        sh.note_deadline(now_ms);
    }
    if let Some(n) = sh.cfg.flight_every {
        if n > 0 && completed_total.is_multiple_of(n) {
            sh.flight_dump("interval");
        }
    }
    sh.done.notify_all();
    resp
}
