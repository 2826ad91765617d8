//! Telemetry-plane integration tests: zero-perturbation (telemetry off
//! vs on must be bit-identical in digests and simulated reports), the
//! `METRICS` op and HTTP exposition listener, live `STATS` fields, the
//! request-correlated trace join, and the in-process flight recorder.

use stm_bench::resilient::{execute_slot, Decision, RetryPolicy};
use stm_bench::RunConfig;
use stm_obs::jsonl::{join_requests, validate_jsonl};
use stm_obs::{Recorder, SpanCtx};
use stm_serve::client::Client;
use stm_serve::load::workload_matrix;
use stm_serve::protocol::{FaultRequest, ResponseBody, Status};
use stm_serve::server::{ServeConfig, Server, StatsSnapshot};

fn entry(seed: u64) -> stm_dsab::SuiteEntry {
    let coo = stm_sparse::gen::random::uniform(64, 64, 600, seed);
    let metrics = stm_sparse::MatrixMetrics::compute(&coo);
    stm_dsab::SuiteEntry {
        name: "telemetry".into(),
        coo,
        metrics,
    }
}

fn start(cfg: ServeConfig) -> (Server, String) {
    let server = Server::start(cfg).expect("start server");
    let addr = server.addr().to_string();
    (server, addr)
}

fn client(addr: &str, client_id: u64) -> Client {
    Client::connect(addr, client_id, 30_000).expect("connect")
}

fn shutdown_and_join(server: Server, addr: &str) {
    let mut c = client(addr, 0);
    assert_eq!(c.shutdown(u64::MAX).expect("shutdown").status, Status::Ok);
    server.join();
}

fn digest_of(resp: &stm_serve::protocol::Response) -> u64 {
    match resp.body {
        ResponseBody::Digest(d) => d,
        ref other => panic!("expected digest, got {other:?}"),
    }
}

/// The acceptance criterion: recording must observe, never perturb.
/// The same slot through a disabled recorder and a request-scoped
/// enabled one must agree on the output digest AND the whole report.
#[test]
fn telemetry_off_and_on_are_bit_identical_through_execute_slot() {
    let run = RunConfig::default();
    let retry = RetryPolicy::default();
    for kernel in ["transpose_hism", "transpose_crs"] {
        let off = execute_slot(
            &run,
            &retry,
            &entry(0x7E1E),
            0,
            kernel,
            Decision::Run,
            None,
            stm_bench::resilient::VerifyMode::Off,
            &Recorder::disabled(),
        );
        let rec = Recorder::enabled(4096).with_ctx(SpanCtx::request(42));
        let on = execute_slot(
            &run,
            &retry,
            &entry(0x7E1E),
            0,
            kernel,
            Decision::Run,
            None,
            stm_bench::resilient::VerifyMode::Off,
            &rec,
        );
        let off_r = off.report.as_ref().expect("off report");
        let on_r = on.report.as_ref().expect("on report");
        assert_eq!(
            off_r.output_digest, on_r.output_digest,
            "{kernel}: digest perturbed by tracing"
        );
        // The whole simulated report, not just its cycle total: stats,
        // phases, unit busy time and the stall breakdown.
        assert_eq!(
            format!("{:?}", off_r.report),
            format!("{:?}", on_r.report),
            "{kernel}: report perturbed by tracing"
        );
        // And the enabled run really did record request-stamped events.
        let data = rec.snapshot();
        assert!(!data.events.is_empty(), "{kernel}: no events recorded");
        assert!(
            data.events.iter().all(|e| e.req == 42),
            "{kernel}: events must carry the request id"
        );
    }
}

/// The same criterion one layer up: a tracing+metrics server and a
/// bare server must serve identical digests for identical requests.
#[test]
fn a_traced_server_serves_the_same_digests_as_a_bare_one() {
    let dir = std::env::temp_dir().join("stm-telemetry-equal");
    std::fs::remove_dir_all(&dir).ok();
    let run = |traced: bool| -> Vec<u64> {
        let cfg = if traced {
            ServeConfig {
                trace: Some(dir.clone()),
                metrics_addr: Some("127.0.0.1:0".to_string()),
                ..ServeConfig::default()
            }
        } else {
            ServeConfig::default()
        };
        let (server, addr) = start(cfg);
        let mut c = client(&addr, 3);
        let mut digests = Vec::new();
        for m in 0..2u64 {
            let coo = workload_matrix(0xE0_0E, m as usize);
            assert_eq!(
                c.submit(500 + m, m, &coo).expect("submit").status,
                Status::Ok
            );
            let resp = c.transpose(600 + m, m, None).expect("transpose");
            assert_eq!(resp.status, Status::Ok);
            digests.push(digest_of(&resp));
        }
        drop(c);
        shutdown_and_join(server, &addr);
        digests
    };
    assert_eq!(run(false), run(true), "tracing must not change results");
    std::fs::remove_dir_all(&dir).ok();
}

/// S2: the live `STATS` fields — queue depth, in-flight, failed,
/// backend — and the wire round-trip with short-payload tolerance.
#[test]
fn stats_snapshot_live_fields_and_wire_round_trip() {
    // Wire round-trip: full, truncated-to-legacy, and too-short.
    let snap = StatsSnapshot {
        accepted: 1,
        completed: 2,
        shed: 3,
        degraded: 4,
        queue_depth_max: 5,
        queue_depth_limit: 6,
        matrices: 7,
        bad_frames: 8,
        queue_depth: 9,
        in_flight: 10,
        failed: 11,
        backend: 3,
    };
    let v = snap.to_vec();
    assert_eq!(v.len(), 12);
    assert_eq!(StatsSnapshot::from_vec(&v), Some(snap));
    let legacy = StatsSnapshot::from_vec(&v[..8]).expect("legacy payload");
    assert_eq!(legacy.accepted, 1);
    assert_eq!(legacy.bad_frames, 8);
    assert_eq!(legacy.queue_depth, 0, "live fields default to zero");
    assert_eq!(legacy.backend, 0);
    assert_eq!(StatsSnapshot::from_vec(&v[..7]), None);

    // Live values over the wire: an idle server reports empty queue and
    // nothing in flight; a blown deadline lands in `failed`.
    let (server, addr) = start(ServeConfig {
        deadline: Some(1),
        ..ServeConfig::default()
    });
    let mut c = client(&addr, 5);
    let coo = workload_matrix(0x57A7, 0);
    assert_eq!(c.submit(1, 0, &coo).expect("submit").status, Status::Ok);
    let resp = c.spmv(2, 0, None).expect("spmv");
    assert_eq!(resp.status, Status::DeadlineExceeded);
    let resp = c.stats(3).expect("stats");
    assert_eq!(resp.status, Status::Ok);
    let stats = match resp.body {
        ResponseBody::Stats(ref v) => StatsSnapshot::from_vec(v).expect("decode stats"),
        ref other => panic!("expected stats, got {other:?}"),
    };
    assert_eq!(
        stats.queue_depth, 0,
        "idle server must report an empty queue"
    );
    assert_eq!(stats.in_flight, 0);
    assert!(stats.failed >= 1, "the blown deadline must be counted");
    assert_eq!(stats.backend, 0, "default backend is the simulator");
    shutdown_and_join(server, &addr);
}

/// The `METRICS` op and the HTTP exposition listener must serve the
/// same sorted, parseable Prometheus text, with monotone counters.
#[test]
fn metrics_op_and_http_listener_agree_and_counters_are_monotone() {
    let (server, addr) = start(ServeConfig {
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ServeConfig::default()
    });
    let maddr = server.metrics_addr().expect("metrics listener").to_string();
    let mut c = client(&addr, 9);
    let coo = workload_matrix(0x3E7, 0);
    assert_eq!(c.submit(1, 0, &coo).expect("submit").status, Status::Ok);
    assert_eq!(
        c.transpose(2, 0, None).expect("transpose").status,
        Status::Ok
    );

    // In-band op.
    let resp = c.metrics(3).expect("metrics op");
    assert_eq!(resp.status, Status::Ok);
    let op_text = match resp.body {
        ResponseBody::Metrics(ref t) => t.clone(),
        ref other => panic!("expected metrics text, got {other:?}"),
    };
    // Out-of-band scrape.
    let http_text = stm_serve::scrape::fetch(&maddr, 5_000).expect("scrape");

    for (which, text) in [("op", &op_text), ("http", &http_text)] {
        let samples = stm_serve::scrape::parse(text);
        assert!(!samples.is_empty(), "{which}: empty exposition");
        let completed =
            stm_serve::scrape::value(&samples, "stm_serve_requests_completed_total", "");
        assert_eq!(completed, Some(1), "{which}: completed counter");
        assert_eq!(
            stm_serve::scrape::value(&samples, "stm_serve_requests_accepted_total", ""),
            Some(1),
            "{which}: accepted counter"
        );
        // The exposition is sorted by family name (byte-stable order).
        let names: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "{which}: families must be sorted");
    }

    // Same family set on both surfaces, and counters monotone across
    // more work.
    let fam = |t: &str| -> Vec<String> {
        t.lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .filter_map(|l| l.split_whitespace().next())
            .map(String::from)
            .collect()
    };
    assert_eq!(fam(&op_text), fam(&http_text));
    assert_eq!(
        c.transpose(4, 0, None).expect("transpose").status,
        Status::Ok
    );
    let later = stm_serve::scrape::fetch(&maddr, 5_000).expect("second scrape");
    let s2 = stm_serve::scrape::parse(&later);
    assert_eq!(fam(&http_text), fam(&later), "names must stay byte-stable");
    let completed2 = stm_serve::scrape::value(&s2, "stm_serve_requests_completed_total", "");
    assert_eq!(completed2, Some(2), "counters must be monotone");
    shutdown_and_join(server, &addr);
}

/// `--join` acceptance: the exported serve trace must reassemble into
/// one complete span tree per executed request, spanning the serve,
/// resil, and kernel lanes.
#[test]
fn the_serve_trace_joins_into_complete_request_trees() {
    let dir = std::env::temp_dir().join("stm-telemetry-join");
    std::fs::remove_dir_all(&dir).ok();
    let (server, addr) = start(ServeConfig {
        trace: Some(dir.clone()),
        breaker: stm_bench::resilient::BreakerConfig {
            threshold: 1,
            cooldown: 2,
        },
        ..ServeConfig::default()
    });
    let mut c = client(&addr, 7);
    let coo = stm_sparse::gen::random::uniform(128, 128, 2048, 0x10_1D);
    assert_eq!(c.submit(1, 0, &coo).expect("submit").status, Status::Ok);
    // Three clean requests and one degraded one.
    for id in 10..13u64 {
        assert_eq!(
            c.transpose(id, 0, None).expect("transpose").status,
            Status::Ok
        );
    }
    let fault = FaultRequest {
        class: stm_hism::FaultClass::LengthCorruption,
        seed: 0xBAD_5EED,
    };
    let resp = c.transpose(13, 0, Some(fault)).expect("faulted");
    assert_eq!(resp.status, Status::Ok);
    assert!(resp.degraded);
    drop(c);
    shutdown_and_join(server, &addr);

    let text = std::fs::read_to_string(dir.join("serve.serve.jsonl")).expect("trace export");
    validate_jsonl(&text).expect("trace must validate");
    let trees = join_requests(&text).expect("join must succeed");
    assert_eq!(trees.len(), 4, "one tree per executed request");
    for t in &trees {
        assert!(
            (10..=13).contains(&t.request_id),
            "unexpected request id {}",
            t.request_id
        );
        let status = t.status.as_deref().expect("terminal status instant");
        if t.request_id == 13 {
            assert_eq!(status, "degraded");
        } else {
            assert_eq!(status, "ok");
        }
        assert!(
            t.lanes.iter().any(|l| l == "serve"),
            "req {}: missing serve lane",
            t.request_id
        );
        assert!(
            t.spans >= 2,
            "req {}: serve root + resil slot",
            t.request_id
        );
        assert!(t.depth >= 2, "req {}: nested tree expected", t.request_id);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A flight-enabled server records panics on its own threads only. A
/// panic caught anywhere else in the process (here: a plain thread and
/// this test's own thread, as other tests' panics would be) must leave
/// no `panic` dump behind.
#[test]
fn a_panic_outside_the_servers_threads_leaves_no_flight_dump() {
    let dir = std::env::temp_dir().join("stm-telemetry-flight-foreign-panic");
    std::fs::remove_dir_all(&dir).ok();
    let (server, addr) = start(ServeConfig {
        flight_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let joined = std::thread::spawn(|| panic!("unrelated thread panics")).join();
    assert!(joined.is_err(), "the spawned thread must have panicked");
    let caught = std::panic::catch_unwind(|| panic!("unrelated test panics"));
    assert!(caught.is_err());
    server.dump_flight("test-manual");
    shutdown_and_join(server, &addr);

    let reasons: Vec<String> = std::fs::read_dir(&dir)
        .expect("flight dir")
        .filter_map(|e| e.ok())
        .map(|e| std::fs::read_to_string(e.path()).expect("read dump"))
        .map(|text| {
            let at = text.find("flight.reason.").expect("dump names its reason");
            text[at..].split(['"', '\\']).next().unwrap().to_string()
        })
        .collect();
    assert_eq!(reasons, vec!["flight.reason.test-manual".to_string()]);
    std::fs::remove_dir_all(&dir).ok();
}

/// In-process flight recorder: the `--flight-every` hook must leave a
/// complete, structurally valid dump behind after a completed request.
#[test]
fn the_flight_every_hook_dumps_a_valid_flight_recording() {
    let dir = std::env::temp_dir().join("stm-telemetry-flight");
    std::fs::remove_dir_all(&dir).ok();
    let (server, addr) = start(ServeConfig {
        flight_dir: Some(dir.clone()),
        flight_every: Some(1),
        ..ServeConfig::default()
    });
    let mut c = client(&addr, 4);
    let coo = workload_matrix(0xF11E, 0);
    assert_eq!(c.submit(1, 0, &coo).expect("submit").status, Status::Ok);
    assert_eq!(
        c.transpose(2, 0, None).expect("transpose").status,
        Status::Ok
    );
    // A manual dump from the handle as well (the SIGTERM path's API).
    server.dump_flight("test-manual");
    drop(c);
    shutdown_and_join(server, &addr);

    let mut dumps: Vec<_> = std::fs::read_dir(&dir)
        .expect("flight dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("flight-") && n.ends_with(".jsonl"))
        })
        .collect();
    dumps.sort();
    assert!(dumps.len() >= 2, "interval + manual dumps expected");
    for dump in &dumps {
        let text = std::fs::read_to_string(dump).expect("read dump");
        let summary = validate_jsonl(&text).expect("dump must validate");
        assert!(summary.events > 0, "{}: empty dump", dump.display());
        // Flight dumps load as (trivially conserved) profiles too.
        stm_obs::profile::KernelProfile::from_jsonl("flight", &text).expect("profile load");
    }
    std::fs::remove_dir_all(&dir).ok();
}
