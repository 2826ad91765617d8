//! In-process integration tests for the transpose-as-a-service front
//! end: idempotency, quotas, shedding, typed guard errors, forced
//! degradation, and the large-fan-out determinism criterion.

use stm_hism::FaultClass;
use stm_serve::client::Client;
use stm_serve::load::{run_load, workload_matrix, LoadConfig};
use stm_serve::protocol::{FaultRequest, ResponseBody, Status};
use stm_serve::server::{ServeConfig, Server};

fn start(cfg: ServeConfig) -> (Server, String) {
    let server = Server::start(cfg).expect("start server");
    let addr = server.addr().to_string();
    (server, addr)
}

fn client(addr: &str, client_id: u64) -> Client {
    Client::connect(addr, client_id, 30_000).expect("connect")
}

/// Submits `workload_matrix(seed, m)` under matrix id `m`.
fn submit(c: &mut Client, seed: u64, m: u64) {
    let coo = workload_matrix(seed, m as usize);
    let resp = c.submit(u64::MAX - m, m, &coo).expect("submit");
    assert_eq!(resp.status, Status::Ok);
}

#[test]
fn duplicate_request_ids_execute_at_most_once() {
    let (server, addr) = start(ServeConfig::default());
    let mut c = client(&addr, 7);
    submit(&mut c, 0xA11CE, 0);

    let first = c.transpose(42, 0, None).expect("first");
    assert_eq!(first.status, Status::Ok);
    let digest = match first.body {
        ResponseBody::Digest(d) => d,
        other => panic!("expected digest, got {other:?}"),
    };

    // Same id again — replayed from the completed map, not re-executed.
    for _ in 0..3 {
        let replay = c.transpose(42, 0, None).expect("replay");
        assert_eq!(replay.status, Status::Ok);
        assert_eq!(replay.body, ResponseBody::Digest(digest));
    }
    let stats = server.stats();
    assert_eq!(stats.accepted, 1, "duplicates must not be re-admitted");
    assert_eq!(stats.completed, 1);
    drop(c);
    shutdown_and_join(server, &addr);
}

#[test]
fn concurrent_duplicate_ids_join_the_in_flight_request() {
    let (server, addr) = start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let mut c = client(&addr, 7);
    submit(&mut c, 0xA11CE, 0);
    drop(c);

    // Race four connections on the SAME request id. Exactly one
    // execution; everyone sees the same digest.
    let digests: Vec<u64> = std::thread::scope(|s| {
        let addr = &addr;
        let handles: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(move || {
                    let mut c = client(addr, 7);
                    let resp = c.transpose(99, 0, None).expect("transpose");
                    assert_eq!(resp.status, Status::Ok);
                    match resp.body {
                        ResponseBody::Digest(d) => d,
                        other => panic!("expected digest, got {other:?}"),
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(digests.windows(2).all(|w| w[0] == w[1]));
    let stats = server.stats();
    assert_eq!(stats.accepted, 1, "the duplicates must join, not re-run");
    shutdown_and_join(server, &addr);
}

#[test]
fn guards_return_typed_errors() {
    let (server, addr) = start(ServeConfig {
        max_frame: 512,
        ..ServeConfig::default()
    });

    // Unknown matrix.
    let mut c = client(&addr, 1);
    let resp = c.transpose(1, 0xDEAD, None).expect("transpose");
    assert_eq!(resp.status, Status::UnknownMatrix);

    // Fetch of a never-completed id.
    let resp = c.fetch(2, 12345).expect("fetch");
    assert_eq!(resp.status, Status::NotFound);

    // Oversized frame: a declared length over the cap is refused
    // before any allocation, with a typed response.
    let mut big = Vec::from(*b"STM1");
    big.extend_from_slice(&(10_000u32).to_le_bytes());
    c.send_raw(&big).expect("send oversized header");
    // The server answers TOO_LARGE and closes; the read may also see
    // the close first depending on timing.
    if let Ok(resp) = c.transpose(3, 0, None) {
        assert_eq!(resp.status, Status::TooLarge);
    }

    // Bad magic: typed BAD_FRAME, then the connection is dropped.
    let mut c = client(&addr, 1);
    c.send_raw(b"XXXX\x04\x00\x00\x00beef")
        .expect("send bad magic");
    if let Ok(resp) = c.transpose(4, 0, None) {
        assert_eq!(resp.status, Status::BadFrame);
    }

    let stats = server.stats();
    assert!(stats.bad_frames >= 2, "both guard hits must be counted");
    shutdown_and_join(server, &addr);
}

#[test]
fn injected_faults_degrade_onto_the_fallback_with_the_canonical_digest() {
    let (server, addr) = start(ServeConfig {
        // threshold 1: the first fault trips the transpose breaker.
        breaker: stm_bench::resilient::BreakerConfig {
            threshold: 1,
            cooldown: 2,
        },
        ..ServeConfig::default()
    });
    let mut c = client(&addr, 3);
    // Large enough for a multi-level HiSM image: every fault class in
    // `FaultClass::ALL` must be hostable (a single-level image cannot
    // host pointer faults, and an un-hostable fault runs clean).
    let coo = stm_sparse::gen::random::uniform(128, 128, 2048, 0xFA017);
    let resp = c.submit(u64::MAX - 50, 0, &coo).expect("submit");
    assert_eq!(resp.status, Status::Ok);

    let clean = c.transpose(1, 0, None).expect("clean transpose");
    assert_eq!(clean.status, Status::Ok);
    assert!(!clean.degraded);
    let clean_digest = match clean.body {
        ResponseBody::Digest(d) => d,
        other => panic!("expected digest, got {other:?}"),
    };

    // Every injected fault class must still complete Ok with the SAME
    // canonical digest. The structural classes always corrupt the image
    // and so must be rescued by the fallback (degraded); a BitFlip can
    // land on a bit the decoder never reads, so for it either path is
    // legal — only the digest is non-negotiable.
    let mut degraded = 0u64;
    for (i, class) in FaultClass::ALL.iter().enumerate() {
        let fault = FaultRequest {
            class: *class,
            seed: 0xBAD_5EED + i as u64,
        };
        let resp = c
            .transpose(100 + i as u64, 0, Some(fault))
            .expect("faulted transpose");
        assert_eq!(resp.status, Status::Ok, "fault {class:?} must be rescued");
        if *class != FaultClass::BitFlip {
            assert!(resp.degraded, "fault {class:?} must be marked degraded");
        }
        degraded += u64::from(resp.degraded);
        assert_eq!(
            resp.body,
            ResponseBody::Digest(clean_digest),
            "the result must digest identically under {class:?}"
        );
    }
    let stats = server.stats();
    assert!(stats.degraded >= degraded.min(4));
    shutdown_and_join(server, &addr);
}

#[test]
fn a_host_backend_server_serves_the_simulator_digest_and_degrades_onto_it() {
    use stm_core::kernels::registry::Backend;
    let coo = stm_sparse::gen::random::uniform(128, 128, 2048, 0x505D);

    // The simulator's canonical digest for this matrix.
    let (sim_server, sim_addr) = start(ServeConfig::default());
    let mut c = client(&sim_addr, 9);
    let resp = c.submit(u64::MAX - 60, 0, &coo).expect("submit");
    assert_eq!(resp.status, Status::Ok);
    let resp = c.transpose(1, 0, None).expect("sim transpose");
    assert_eq!(resp.status, Status::Ok);
    let sim_digest = match resp.body {
        ResponseBody::Digest(d) => d,
        other => panic!("expected digest, got {other:?}"),
    };
    drop(c);
    shutdown_and_join(sim_server, &sim_addr);

    // A host-tier server must serve the same digest natively…
    let (server, addr) = start(ServeConfig {
        backend: Backend::Scalar,
        ..ServeConfig::default()
    });
    let mut c = client(&addr, 9);
    let resp = c.submit(u64::MAX - 60, 0, &coo).expect("submit");
    assert_eq!(resp.status, Status::Ok);
    let resp = c.transpose(1, 0, None).expect("host transpose");
    assert_eq!(resp.status, Status::Ok);
    assert!(!resp.degraded, "a clean host leg must not degrade");
    assert_eq!(resp.body, ResponseBody::Digest(sim_digest));

    // …and a corrupted host leg must be rescued by the simulator-side
    // fallback, still with the canonical digest.
    let fault = FaultRequest {
        class: FaultClass::LengthCorruption,
        seed: 0xBAD_5EED,
    };
    let resp = c.transpose(2, 0, Some(fault)).expect("faulted transpose");
    assert_eq!(resp.status, Status::Ok);
    assert!(resp.degraded, "the fault must degrade onto the fallback");
    assert_eq!(resp.body, ResponseBody::Digest(sim_digest));
    shutdown_and_join(server, &addr);
}

#[test]
fn vote_mode_never_serves_a_silent_wrong_answer_under_midrun_flips() {
    let (server, addr) = start(ServeConfig {
        verify_mode: stm_bench::resilient::VerifyMode::Vote,
        ..ServeConfig::default()
    });
    let mut c = client(&addr, 4);
    submit(&mut c, 0x5DC_A11CE, 0);

    let clean = c.transpose(1, 0, None).expect("clean transpose");
    assert_eq!(clean.status, Status::Ok);
    let clean_digest = match clean.body {
        ResponseBody::Digest(d) => d,
        other => panic!("expected digest, got {other:?}"),
    };

    // A stream of silent mid-run engine flips. The integrity contract:
    // every reply is either the clean digest (harmless flip, or a
    // detection transparently recovered from the majority / fallback)
    // or a typed DATA_CORRUPT refusal — never a wrong digest.
    for i in 0..8u64 {
        let fault = FaultRequest {
            class: FaultClass::MidRunBitFlip,
            seed: 0x5DC ^ (i.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        };
        let resp = c
            .transpose(100 + i, 0, Some(fault))
            .expect("faulted transpose");
        match resp.status {
            Status::Ok => assert_eq!(
                resp.body,
                ResponseBody::Digest(clean_digest),
                "flip {i}: a wrong digest was served as OK"
            ),
            Status::DataCorrupt => {}
            other => panic!("flip {i}: unexpected status {other:?}"),
        }
    }

    // Detections are counted coherently on the metrics plane.
    let text = server.metrics_text();
    let counter = |name: &str| -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or(0)
    };
    let detected = counter("stm_integrity_sdc_detected_total");
    let recovered = counter("stm_integrity_sdc_recovered_total");
    let unrecovered = counter("stm_integrity_sdc_unrecovered_total");
    assert_eq!(detected, recovered + unrecovered);
    assert!(detected > 0, "no injected flip ever manifested");
    shutdown_and_join(server, &addr);
}

#[test]
fn spmv_under_an_impossible_deadline_is_a_typed_deadline_error() {
    // SpMV has no registered fallback, so a blown cycle budget cannot be
    // rescued — it must surface as DEADLINE_EXCEEDED, not a hang or a
    // generic failure.
    let (server, addr) = start(ServeConfig {
        deadline: Some(1),
        ..ServeConfig::default()
    });
    let mut c = client(&addr, 5);
    submit(&mut c, 0xDEAD11, 0);
    let resp = c.spmv(1, 0, None).expect("spmv");
    assert_eq!(resp.status, Status::DeadlineExceeded);
    // Transposes still succeed: the fallback runs host-side, outside the
    // simulated cycle budget.
    let resp = c.transpose(2, 0, None).expect("transpose");
    assert_eq!(resp.status, Status::Ok);
    assert!(resp.degraded);
    shutdown_and_join(server, &addr);
}

#[test]
fn chaos_load_is_clean_bounded_and_deterministic() {
    // Two fresh same-seed servers + load runs must agree byte-for-byte
    // on the deterministic summary line, with zero digest mismatches and
    // the queue bound respected — the acceptance-criterion fan-out
    // (256 clients, >=20% chaos) shrunk only in per-client volume.
    let run_once = || {
        let (server, addr) = start(ServeConfig {
            queue_depth: 6,
            quota: 3,
            workers: 4,
            ..ServeConfig::default()
        });
        let report = run_load(&LoadConfig {
            addr: addr.clone(),
            clients: 256,
            requests_per_client: 2,
            chaos_pct: 25,
            seed: 0x0D15_EA5E,
            matrices: 4,
            timeout_ms: 60_000,
        })
        .expect("load");
        assert_eq!(report.requests, 512);
        assert_eq!(report.mismatches, 0, "digest mismatches");
        assert_eq!(report.failed, 0, "unexpected failure statuses");
        assert_eq!(report.ok, 512);
        let stats = report.server_stats.expect("stats");
        assert!(
            stats.queue_depth_max <= stats.queue_depth_limit,
            "bounded queue overflowed: {} > {}",
            stats.queue_depth_max,
            stats.queue_depth_limit
        );
        let line = report.deterministic_line();
        shutdown_and_join(server, &addr);
        line
    };
    let first = run_once();
    let second = run_once();
    assert_eq!(first, second, "summary must be byte-deterministic");
}

#[test]
fn a_full_waiting_line_sheds_while_the_waiting_request_completes() {
    // One permit, a line of one. A long transpose holds the permit, a
    // second request waits in the line, a third is shed. The held
    // transpose (300k nnz, three vote legs) outlasts the few round
    // trips the test makes while it runs by two orders of magnitude.
    let (server, addr) = start(ServeConfig {
        workers: 1,
        queue_depth: 1,
        verify_mode: stm_bench::resilient::VerifyMode::Vote,
        max_frame: 8 << 20,
        ..ServeConfig::default()
    });
    let mut c = client(&addr, 1);
    let long = stm_sparse::gen::random::uniform(2048, 2048, 300_000, 0x1106);
    let resp = c.submit(u64::MAX - 70, 0, &long).expect("submit");
    assert_eq!(resp.status, Status::Ok);
    submit(&mut c, 0x11E, 1);
    let small = workload_matrix(0x11E, 1);
    let want = stm_sparse::format::canonical_digest(&small.transpose_canonical());

    std::thread::scope(|s| {
        let addr = &addr;
        let in_flight = |n: u64| {
            let t0 = std::time::Instant::now();
            while server.stats().in_flight != n {
                assert!(t0.elapsed().as_secs() < 60, "never saw {n} in flight");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        };
        let holder = s.spawn(move || client(addr, 2).transpose(1, 0, None));
        in_flight(1);
        let waiter = s.spawn(move || client(addr, 3).transpose(2, 1, None));
        in_flight(2);

        // STATS over the wire reads the one waiting request...
        let resp = c.stats(10).expect("stats");
        let stats = match resp.body {
            ResponseBody::Stats(v) => stm_serve::server::StatsSnapshot::from_vec(&v).unwrap(),
            other => panic!("expected stats, got {other:?}"),
        };
        assert_eq!(stats.queue_depth, 1, "the second request must wait");
        // ...and a third request finds the line full.
        let shed = client(addr, 4).transpose(3, 1, None).expect("shed");
        assert_eq!(shed.status, Status::RetryAfter);
        assert!(matches!(shed.body, ResponseBody::RetryAfterMs(_)));

        let held = holder.join().unwrap().expect("holder");
        assert_eq!(held.status, Status::Ok);
        let waited = waiter.join().unwrap().expect("waiter");
        assert_eq!(waited.status, Status::Ok);
        assert_eq!(waited.body, ResponseBody::Digest(want));
    });
    let stats = server.stats();
    assert_eq!(stats.accepted, 2, "holder and waiter admitted");
    assert_eq!(stats.shed, 1, "the third request shed");
    assert_eq!(stats.queue_depth_max, 1);
    assert_eq!(stats.completed, 2);
    assert_eq!((stats.queue_depth, stats.in_flight), (0, 0));
    drop(c);
    shutdown_and_join(server, &addr);
}

#[test]
fn every_verify_mode_serves_and_logs_the_canonical_digest_of_its_result() {
    // The reply and the results log carry one digest per request: the
    // one verification computed when it vouched for the result, else
    // one taken from the result. Either way it must be the transpose's.
    use stm_bench::resilient::VerifyMode;
    let coo = stm_sparse::gen::random::uniform(128, 128, 2048, 0xFA017);
    let want = stm_sparse::format::canonical_digest(&coo.transpose_canonical());
    for mode in [
        VerifyMode::Off,
        VerifyMode::Checksum,
        VerifyMode::Dual,
        VerifyMode::Vote,
    ] {
        let log = std::env::temp_dir().join(format!(
            "stm-service-{}-digest-{}.log",
            std::process::id(),
            mode.name()
        ));
        let _ = std::fs::remove_file(&log);
        let (server, addr) = start(ServeConfig {
            verify_mode: mode,
            results_log: Some(log.clone()),
            ..ServeConfig::default()
        });
        let mut c = client(&addr, 5);
        let resp = c.submit(u64::MAX - 60, 0, &coo).expect("submit");
        assert_eq!(resp.status, Status::Ok);

        let clean = c.transpose(1, 0, None).expect("clean transpose");
        assert_eq!((clean.status, clean.degraded), (Status::Ok, false));
        assert_eq!(clean.body, ResponseBody::Digest(want), "{}", mode.name());
        // A structural fault degrades onto the fallback.
        let truncate = FaultRequest {
            class: FaultClass::Truncate,
            seed: 3,
        };
        let degraded = c.transpose(2, 0, Some(truncate)).expect("degraded");
        assert_eq!((degraded.status, degraded.degraded), (Status::Ok, true));
        assert_eq!(degraded.body, ResponseBody::Digest(want), "{}", mode.name());
        // Mid-run flips: the vote recovers the manifesting ones.
        if mode == VerifyMode::Vote {
            for i in 0..8u64 {
                let flip = FaultRequest {
                    class: FaultClass::MidRunBitFlip,
                    seed: i,
                };
                let resp = c.transpose(10 + i, 0, Some(flip)).expect("flip");
                assert_eq!(resp.status, Status::Ok, "flip {i}");
                assert_eq!(resp.body, ResponseBody::Digest(want), "flip {i}");
            }
            let recovered = server
                .metrics_text()
                .lines()
                .find_map(|l| {
                    l.strip_prefix("stm_integrity_sdc_recovered_total ")?
                        .parse::<u64>()
                        .ok()
                })
                .unwrap_or(0);
            assert!(recovered > 0, "no flip was outvoted and recovered");
        }
        drop(c);
        shutdown_and_join(server, &addr);
        let (_, records) = stm_serve::store::ResultsLog::open(&log).expect("results log");
        assert!(records.len() >= 2, "{}", mode.name());
        for r in &records {
            assert_eq!(r.digest, want, "{}: logged {r:?}", mode.name());
        }
        let _ = std::fs::remove_file(&log);
    }
}

fn shutdown_and_join(server: Server, addr: &str) {
    let mut c = client(addr, 0);
    let resp = c.shutdown(u64::MAX).expect("shutdown");
    assert_eq!(resp.status, Status::Ok);
    server.join();
}
