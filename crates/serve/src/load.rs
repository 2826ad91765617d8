//! The `stmload` synthetic-client harness: sustains many concurrent
//! clients against a running `stmserve`, injects chaos, and verifies
//! every returned digest against host-computed oracles.
//!
//! ## Chaos model
//!
//! Each request draws its chaos deterministically from
//! `(seed, request_id)` — pure, so two runs with the same configuration
//! aim the same chaos at the same requests:
//!
//! * **kill** — send the request, then drop the connection without
//!   reading the response; reconnect and re-send the *same* request id.
//!   Exercises the server's idempotency path (the re-send must join or
//!   replay the original execution, never run the kernel twice into
//!   conflicting results).
//! * **corrupt** — send a garbage frame first; the server must answer
//!   `BAD_FRAME` and close, after which the client reconnects and sends
//!   the real request.
//! * **fault** — carry a deterministic kernel fault in the request
//!   (transpose only: the transpose path has a registry fallback, so
//!   the request still completes — as `Degraded` — with a verified
//!   digest). An SpMV drawn for fault chaos downgrades to **kill**.
//!
//! `RETRY_AFTER` shedding is handled with bounded retries and the
//! server-hinted backoff.
//!
//! ## Determinism
//!
//! The report's `digest` is FNV-1a over the per-request terminal lines
//! `(request_id, op, status, result digest)`, sorted by request id. It
//! is byte-stable under a fixed configuration regardless of worker
//! interleaving, because every terminal outcome is deterministic; the
//! *degraded* flag and the shed/latency numbers are interleaving- and
//! timing-dependent and deliberately excluded.

use crate::client::Client;
use crate::protocol::{FaultRequest, RequestBody, ResponseBody, Status};
use crate::server::StatsSnapshot;
use std::time::{Duration, Instant};
use stm_hism::FaultClass;
use stm_obs::Histogram;
use stm_sparse::hash::Fnv1a;
use stm_sparse::rng::StdRng;
use stm_sparse::{gen, Coo};

/// Load-run tuning.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Concurrent client threads.
    pub clients: usize,
    /// Requests per client.
    pub requests_per_client: usize,
    /// Percent of requests that draw chaos (0–100).
    pub chaos_pct: u32,
    /// Chaos + workload seed.
    pub seed: u64,
    /// Distinct synthetic matrices in the workload.
    pub matrices: usize,
    /// Client socket timeout.
    pub timeout_ms: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: String::new(),
            clients: 8,
            requests_per_client: 8,
            chaos_pct: 20,
            seed: 0x10ad,
            matrices: 4,
            timeout_ms: 30_000,
        }
    }
}

/// What one finished load run measured.
#[derive(Debug)]
pub struct LoadReport {
    /// Total requests issued (clients × requests-per-client).
    pub requests: u64,
    /// Requests that completed `Ok`.
    pub ok: u64,
    /// Requests with a terminal failure status.
    pub failed: u64,
    /// `Ok` responses flagged degraded (fallback-produced).
    pub degraded: u64,
    /// `Ok` responses whose digest disagreed with the host oracle —
    /// must be zero.
    pub mismatches: u64,
    /// Requests that hit transport errors and were re-sent.
    pub transport_retries: u64,
    /// Killed-connection chaos events injected.
    pub kills: u64,
    /// Corrupt-frame chaos events injected.
    pub corrupts: u64,
    /// Kernel-fault chaos events injected.
    pub faults: u64,
    /// `RETRY_AFTER` responses absorbed.
    pub shed_retries: u64,
    /// End-to-end per-request latency (µs), chaos retries included.
    pub latency_us: Histogram,
    /// Wall-clock of the whole run.
    pub elapsed: Duration,
    /// Deterministic digest over the sorted terminal lines.
    pub digest: u64,
    /// Server stats snapshot taken after the run.
    pub server_stats: Option<StatsSnapshot>,
}

impl LoadReport {
    /// The byte-deterministic summary line: everything here is stable
    /// under a fixed configuration (counts of *terminal* outcomes and
    /// the sorted-line digest); timing, shedding and degradation live on
    /// the other report lines.
    pub fn deterministic_line(&self) -> String {
        format!(
            "result: requests={} ok={} failed={} mismatches={} digest=0x{:016x}",
            self.requests, self.ok, self.failed, self.mismatches, self.digest
        )
    }
}

/// The deterministic workload matrix `m` of a run seeded with `seed` —
/// tiny uniform-random matrices; the service is being load-tested, not
/// the kernels.
pub fn workload_matrix(seed: u64, m: usize) -> Coo {
    let mut rng =
        StdRng::seed_from_u64(seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(m as u64 + 1)));
    let rows = rng.gen_range(12..28usize);
    let cols = rng.gen_range(12..28usize);
    let nnz = rng.gen_range(30..90usize);
    gen::random::uniform(rows, cols, nnz, rng.next_u64())
}

/// Per-request chaos draw, pure in `(seed, request_id)`:
/// `0` = none, `1` = kill, `2` = corrupt, `3` = fault.
fn chaos_mode(cfg: &LoadConfig, request_id: u64) -> u8 {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ request_id.wrapping_mul(0xa076_1d64_78bd_642f));
    if !rng.gen_bool(f64::from(cfg.chaos_pct.min(100)) / 100.0) {
        return 0;
    }
    1 + (rng.next_u64() % 3) as u8
}

fn fault_for(cfg: &LoadConfig, request_id: u64) -> FaultRequest {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ request_id.wrapping_mul(0xe703_7ed1_a0b4_28db));
    let class = FaultClass::ALL[(rng.next_u64() % FaultClass::ALL.len() as u64) as usize];
    FaultRequest {
        class,
        seed: rng.next_u64(),
    }
}

/// The op a request id maps to: one SpMV for every two transposes.
fn op_for(request_id: u64) -> RequestOp {
    if request_id % 3 == 2 {
        RequestOp::Spmv
    } else {
        RequestOp::Transpose
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RequestOp {
    Transpose,
    Spmv,
}

struct ClientOutcome {
    lines: Vec<(u64, String)>,
    latencies: Vec<u64>,
    ok: u64,
    failed: u64,
    degraded: u64,
    mismatches: u64,
    transport_retries: u64,
    kills: u64,
    corrupts: u64,
    faults: u64,
    shed_retries: u64,
}

/// Host-side oracles: the expected canonical digest per (matrix, op).
fn expected_digests(cfg: &LoadConfig) -> Result<Vec<(u64, u64)>, String> {
    use stm_core::exec::spmv_input;
    use stm_core::KernelOutput;
    (0..cfg.matrices)
        .map(|m| {
            let coo = workload_matrix(cfg.seed, m);
            let t = stm_sparse::format::canonical_digest(&coo.transpose_canonical());
            let y = coo
                .spmv(&spmv_input(coo.cols()))
                .map_err(|e| format!("oracle spmv for matrix {m}: {e:?}"))?;
            let s = KernelOutput::Vector(y)
                .canonical_digest()
                .expect("vector digest is total");
            Ok((t, s))
        })
        .collect()
}

fn connect(cfg: &LoadConfig, client_id: u64) -> Result<Client, String> {
    let mut last = String::new();
    for _ in 0..50 {
        match Client::connect(&cfg.addr, client_id, cfg.timeout_ms) {
            Ok(c) => return Ok(c),
            Err(e) => {
                last = e.to_string();
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
    Err(format!("connect {}: {last}", cfg.addr))
}

#[allow(clippy::too_many_lines)]
fn run_client(
    cfg: &LoadConfig,
    client_idx: usize,
    expected: &[(u64, u64)],
) -> Result<ClientOutcome, String> {
    let client_id = client_idx as u64 + 1;
    let mut conn = connect(cfg, client_id)?;
    let mut out = ClientOutcome {
        lines: Vec::with_capacity(cfg.requests_per_client),
        latencies: Vec::with_capacity(cfg.requests_per_client),
        ok: 0,
        failed: 0,
        degraded: 0,
        mismatches: 0,
        transport_retries: 0,
        kills: 0,
        corrupts: 0,
        faults: 0,
        shed_retries: 0,
    };
    for r in 0..cfg.requests_per_client {
        let request_id = (client_idx * cfg.requests_per_client + r) as u64 + 1;
        let matrix_id = request_id % cfg.matrices as u64;
        let op = op_for(request_id);
        let mut mode = chaos_mode(cfg, request_id);
        // SpMV has no fallback: aiming a kernel fault at it would turn
        // the request into a (deterministic) failure; the harness keeps
        // every terminal outcome Ok so a failure means a real bug.
        if mode == 3 && op == RequestOp::Spmv {
            mode = 1;
        }
        let fault = (mode == 3).then(|| fault_for(cfg, request_id));
        if mode == 3 {
            out.faults += 1;
        }
        let body = || -> RequestBody {
            match op {
                RequestOp::Transpose => RequestBody::Transpose { matrix_id, fault },
                RequestOp::Spmv => RequestBody::Spmv { matrix_id, fault },
            }
        };
        let started = Instant::now();

        if mode == 1 {
            // Kill: fire the request, drop the socket, reconnect. The
            // server may or may not have started it — the re-send below
            // must converge on exactly one execution either way.
            out.kills += 1;
            conn.send_and_abandon(request_id, body()).ok();
            conn = connect(cfg, client_id)?;
        } else if mode == 2 {
            // Corrupt: garbage magic; the server answers BAD_FRAME and
            // hangs up, so reconnect before the real request.
            out.corrupts += 1;
            conn.send_raw(b"XXXX\x04\x00\x00\x00beef").ok();
            let _ = conn.request(request_id, RequestBody::Stats);
            conn = connect(cfg, client_id)?;
        }

        // Send (or re-send) until a terminal response arrives: absorb
        // RETRY_AFTER shedding and transport drops with bounded retries.
        let mut resp = None;
        for _attempt in 0..10_000 {
            match conn.request(request_id, body()) {
                Ok(r) if r.status == Status::RetryAfter => {
                    out.shed_retries += 1;
                    let hint = match r.body {
                        ResponseBody::RetryAfterMs(ms) => u64::from(ms),
                        _ => 1,
                    };
                    std::thread::sleep(Duration::from_millis(hint.clamp(1, 50)));
                }
                Ok(r) => {
                    resp = Some(r);
                    break;
                }
                Err(_) => {
                    out.transport_retries += 1;
                    conn = connect(cfg, client_id)?;
                }
            }
        }
        let resp = resp.ok_or_else(|| format!("request {request_id}: no terminal response"))?;
        out.latencies
            .push(started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);

        let op_name = match op {
            RequestOp::Transpose => "transpose",
            RequestOp::Spmv => "spmv",
        };
        let line = match (resp.status, &resp.body) {
            (Status::Ok, ResponseBody::Digest(d)) => {
                out.ok += 1;
                if resp.degraded {
                    out.degraded += 1;
                }
                let want = match op {
                    RequestOp::Transpose => expected[matrix_id as usize].0,
                    RequestOp::Spmv => expected[matrix_id as usize].1,
                };
                if *d != want {
                    out.mismatches += 1;
                    eprintln!(
                        "stmload: request {request_id} ({op_name} m{matrix_id}): digest \
                         0x{d:016x} != expected 0x{want:016x}"
                    );
                }
                format!("{request_id}:{op_name}:ok:0x{d:016x}")
            }
            (Status::Ok, body) => {
                out.failed += 1;
                out.mismatches += 1;
                eprintln!("stmload: request {request_id}: ok with unexpected body {body:?}");
                format!("{request_id}:{op_name}:bad-body")
            }
            (status, _) => {
                out.failed += 1;
                format!("{request_id}:{op_name}:{}", status.name())
            }
        };
        out.lines.push((request_id, line));
    }
    Ok(out)
}

/// FNV-1a over the newline-terminated lines.
fn fnv_lines(lines: &[(u64, String)]) -> u64 {
    let mut h = Fnv1a::new();
    for (_, line) in lines {
        h.bytes(line.as_bytes());
        h.byte(b'\n');
    }
    h.finish()
}

/// Runs the full load campaign: submits the workload matrices, fans out
/// the client threads, and folds their outcomes into one report.
pub fn run_load(cfg: &LoadConfig) -> Result<LoadReport, String> {
    let cfg = LoadConfig {
        matrices: cfg.matrices.max(1),
        clients: cfg.clients.max(1),
        ..cfg.clone()
    };
    let expected = expected_digests(&cfg)?;

    // Submit the workload under client 0 (dedicated control client).
    let mut control = connect(&cfg, 0)?;
    for m in 0..cfg.matrices {
        let coo = workload_matrix(cfg.seed, m);
        let resp = control
            .submit(u64::MAX - m as u64, m as u64, &coo)
            .map_err(|e| format!("submit matrix {m}: {e}"))?;
        if resp.status != Status::Ok {
            return Err(format!("submit matrix {m}: {}", resp.status.name()));
        }
    }

    let started = Instant::now();
    let outcomes: Vec<Result<ClientOutcome, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|i| {
                let cfg = &cfg;
                let expected = &expected;
                scope.spawn(move || run_client(cfg, i, expected))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed = started.elapsed();

    let mut lines = Vec::new();
    let mut latency_us = Histogram::default();
    let mut report = LoadReport {
        requests: (cfg.clients * cfg.requests_per_client) as u64,
        ok: 0,
        failed: 0,
        degraded: 0,
        mismatches: 0,
        transport_retries: 0,
        kills: 0,
        corrupts: 0,
        faults: 0,
        shed_retries: 0,
        latency_us: Histogram::default(),
        elapsed,
        digest: 0,
        server_stats: None,
    };
    for out in outcomes {
        let out = out?;
        report.ok += out.ok;
        report.failed += out.failed;
        report.degraded += out.degraded;
        report.mismatches += out.mismatches;
        report.transport_retries += out.transport_retries;
        report.kills += out.kills;
        report.corrupts += out.corrupts;
        report.faults += out.faults;
        report.shed_retries += out.shed_retries;
        for us in out.latencies {
            latency_us.observe(us);
        }
        lines.extend(out.lines);
    }
    lines.sort();
    report.digest = fnv_lines(&lines);
    report.latency_us = latency_us;

    if let Ok(resp) = control.stats(u64::MAX) {
        if let ResponseBody::Stats(v) = resp.body {
            report.server_stats = StatsSnapshot::from_vec(&v);
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_and_workload_draws_are_pure() {
        let cfg = LoadConfig {
            chaos_pct: 50,
            ..LoadConfig::default()
        };
        for id in 0..64u64 {
            assert_eq!(chaos_mode(&cfg, id), chaos_mode(&cfg, id));
            assert_eq!(fault_for(&cfg, id), fault_for(&cfg, id));
        }
        let modes: std::collections::HashSet<u8> =
            (0..256).map(|id| chaos_mode(&cfg, id)).collect();
        assert!(modes.contains(&0) && modes.len() >= 3, "{modes:?}");
        assert_eq!(workload_matrix(7, 3), workload_matrix(7, 3));
        assert_ne!(workload_matrix(7, 3), workload_matrix(7, 4));
    }

    #[test]
    fn zero_chaos_means_no_chaos() {
        let cfg = LoadConfig {
            chaos_pct: 0,
            ..LoadConfig::default()
        };
        assert!((0..512).all(|id| chaos_mode(&cfg, id) == 0));
    }
}
