//! `sdcsmoke` — end-to-end silent-data-corruption smoke for the serve
//! integrity plane.
//!
//! Starts an in-process `stmserve` with `--verify-mode vote`, a durable
//! results log, and a flight-recorder directory; submits workload
//! matrices; then issues transpose requests carrying a deterministic
//! `MidRunBitFlip` fault — a single bit flipped in simulated memory
//! mid-run, invisible to every typed error path. The smoke asserts the
//! contract of the integrity plane from the outside:
//!
//! 1. **no silent wrong answer** — every `OK` reply's digest equals the
//!    fault-free digest for that matrix; a flip that manifested either
//!    came back recovered (`OK`, majority digest) or was refused with
//!    `DATA_CORRUPT`, never served wrong;
//! 2. **detection is counted** — `stm_integrity_sdc_detected_total`
//!    matches the number of manifesting flips observed by the client;
//! 3. **every detection left forensics** — at least one flight dump
//!    exists when anything was detected, and every durable artifact
//!    (results log + flight dumps) scrubs clean under
//!    [`stm_obs::journal::scrub_text`].
//!
//! Exit codes: 0 = contract holds; 1 = violation; 2 = setup error.

use stm_hism::FaultClass;
use stm_obs::cli::{Cli, Flag};
use stm_serve::client::Client;
use stm_serve::load::workload_matrix;
use stm_serve::protocol::{FaultRequest, ResponseBody, Status};
use stm_serve::server::{ServeConfig, Server};

const CLI: Cli = Cli {
    bin: "sdcsmoke",
    about: "End-to-end silent-data-corruption smoke of the serve integrity plane.",
    operands: "",
    flags: &[
        Flag::value(
            "--requests",
            "N",
            "mid-run bit flips to inject (default 24)",
        ),
        Flag::value("--seed", "N", "base flip seed (default 0x5DC)"),
        Flag::switch(
            "--keep",
            "leave the scratch directory behind for inspection",
        ),
    ],
};

fn prom_counter(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or(0)
}

fn main() {
    let args = CLI.parse(std::env::args().skip(1));
    let requests: u64 = args.value("--requests").unwrap_or(24);
    let seed: u64 = args.value("--seed").unwrap_or(0x5DC);
    let keep = args.on("--keep");

    let scratch = std::env::temp_dir().join(format!("stm-sdcsmoke-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("sdcsmoke: create {}: {e}", scratch.display());
        std::process::exit(2);
    }
    let flight_dir = scratch.join("flight");
    let results_log = scratch.join("results.log");

    let server = match Server::start(ServeConfig {
        workers: 2,
        verify_mode: stm_bench::resilient::VerifyMode::Vote,
        results_log: Some(results_log.clone()),
        flight_dir: Some(flight_dir.clone()),
        ..ServeConfig::default()
    }) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sdcsmoke: start server: {e}");
            std::process::exit(2);
        }
    };
    let addr = server.addr().to_string();
    let mut c = match Client::connect(&addr, 1, 30_000) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("sdcsmoke: connect: {e}");
            std::process::exit(2);
        }
    };

    // Workload pool + fault-free reference digests.
    const MATRICES: u64 = 3;
    let mut clean = Vec::new();
    let mut next_id = 1u64;
    for m in 0..MATRICES {
        let coo = workload_matrix(seed, m as usize);
        let resp = c.submit(next_id, m, &coo).expect("submit");
        assert_eq!(resp.status, Status::Ok, "submit failed");
        next_id += 1;
        let resp = c.transpose(next_id, m, None).expect("clean transpose");
        next_id += 1;
        assert_eq!(resp.status, Status::Ok, "clean transpose failed");
        match resp.body {
            ResponseBody::Digest(d) => clean.push(d),
            ref other => panic!("expected digest, got {other:?}"),
        }
    }

    // The flips. Each request aims MidRunBitFlip at a rotating matrix
    // with a distinct seed; the client tallies what came back.
    let mut served_ok = 0u64;
    let mut served_recovered = 0u64;
    let mut refused = 0u64;
    let mut wrong = 0u64;
    for i in 0..requests {
        let m = i % MATRICES;
        let fault = FaultRequest {
            class: FaultClass::MidRunBitFlip,
            seed: seed ^ (i.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        };
        let resp = c
            .transpose(next_id, m, Some(fault))
            .expect("faulted transpose");
        next_id += 1;
        match (resp.status, &resp.body) {
            (Status::Ok, ResponseBody::Digest(d)) => {
                if *d == clean[m as usize] {
                    served_ok += 1;
                } else {
                    wrong += 1;
                    eprintln!(
                        "sdcsmoke: request {i}: OK with WRONG digest 0x{d:016x} \
                         (clean 0x{:016x})",
                        clean[m as usize]
                    );
                }
            }
            (Status::DataCorrupt, _) => refused += 1,
            (status, body) => {
                wrong += 1;
                eprintln!(
                    "sdcsmoke: request {i}: unexpected {}: {body:?}",
                    status.name()
                );
            }
        }
    }

    let metrics = server.metrics_text();
    let detected = prom_counter(&metrics, "stm_integrity_sdc_detected_total");
    let recovered = prom_counter(&metrics, "stm_integrity_sdc_recovered_total");
    let unrecovered = prom_counter(&metrics, "stm_integrity_sdc_unrecovered_total");
    let legs = prom_counter(&metrics, "stm_integrity_verify_legs_total");
    served_recovered += recovered;

    // Shut down cleanly so the results log's final append completes.
    let resp = c.shutdown(u64::MAX).expect("shutdown");
    assert_eq!(resp.status, Status::Ok);
    server.join();

    let mut bad = 0usize;
    if wrong > 0 {
        eprintln!("sdcsmoke: {wrong} silent wrong answer(s) served");
        bad += 1;
    }
    // Every manifesting flip the client saw (recovered or refused) must
    // be a counted detection, and vice versa.
    let manifested = recovered + refused;
    if detected != manifested {
        eprintln!(
            "sdcsmoke: detected counter {detected} != manifested flips {manifested} \
             (recovered {recovered} + refused {refused})"
        );
        bad += 1;
    }
    if detected != recovered + unrecovered {
        eprintln!(
            "sdcsmoke: detected {detected} != recovered {recovered} + unrecovered {unrecovered}"
        );
        bad += 1;
    }
    // Detections must leave flight-recorder forensics behind.
    let flights: Vec<_> = std::fs::read_dir(&flight_dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
                .collect()
        })
        .unwrap_or_default();
    if detected > 0 && flights.is_empty() {
        eprintln!("sdcsmoke: {detected} detection(s) but no flight dump written");
        bad += 1;
    }
    // Every durable artifact scrubs clean.
    for path in flights.iter().chain(std::iter::once(&results_log)) {
        match stm_obs::journal::scrub_file(path, false) {
            Ok(r) if r.is_clean() => {}
            Ok(r) => {
                eprintln!(
                    "sdcsmoke: {} fails the scrub ({} bad line(s))",
                    path.display(),
                    r.bad.len()
                );
                bad += 1;
            }
            Err(e) => {
                eprintln!("sdcsmoke: {e}");
                bad += 1;
            }
        }
    }

    println!(
        "sdcsmoke: requests={requests} harmless={} recovered={served_recovered} \
         refused={refused} detected={detected} verify_legs={legs} flights={}",
        served_ok.saturating_sub(recovered),
        flights.len()
    );
    if !keep {
        std::fs::remove_dir_all(&scratch).ok();
    } else {
        println!("sdcsmoke: scratch kept at {}", scratch.display());
    }
    if bad > 0 {
        eprintln!("sdcsmoke: FAILED ({bad} violation(s))");
        std::process::exit(1);
    }
    println!("sdcsmoke: integrity contract holds");
}
