//! `stmload` — the chaos-injecting synthetic-client harness for
//! `stmserve`.
//!
//! Sustains `--clients` concurrent clients, each issuing `--requests`
//! requests over a shared pool of synthetic matrices, with `--chaos`
//! percent of requests drawing a deterministic chaos event (killed
//! connection, corrupt frame, or kernel fault). Every `Ok` digest is
//! verified against a host-computed oracle.
//!
//! Output: a byte-deterministic `result:` line (counts of terminal
//! outcomes and the sorted-line digest — stable under a fixed seed and
//! shape), then timing/chaos/server lines that legitimately vary run to
//! run.
//!
//! Exit codes: 0 = zero mismatches and zero unexpected failures;
//! 1 = a digest mismatch, failure, or queue-bound violation; 2 = usage
//! or connection error.

use stm_serve::load::{run_load, LoadConfig};
use stm_serve::protocol::Status;

const FLAGS: &[(&str, &str)] = &[
    ("--addr A", "server address (required, host:port)"),
    ("--clients N", "concurrent client threads (default 8)"),
    ("--requests N", "requests per client (default 8)"),
    (
        "--chaos PCT",
        "percent of requests drawing chaos (default 20)",
    ),
    ("--seed N", "workload + chaos seed (default 0x10ad)"),
    ("--matrices N", "distinct workload matrices (default 4)"),
    ("--timeout-ms MS", "client socket timeout (default 30000)"),
    ("--csv FILE", "write the latency histogram as CSV"),
    (
        "--metrics-addr A",
        "scrape the server metrics endpoint and print its p99 next to the client-measured one",
    ),
    ("--shutdown", "drain and stop the server after the run"),
];

fn usage() -> String {
    let width = FLAGS.iter().map(|(f, _)| f.len()).max().unwrap_or(0);
    let mut out = String::from(
        "usage: stmload [flags]\nChaos-injecting load harness for stmserve, with digest verification.\n\nflags:\n",
    );
    for (flag, desc) in FLAGS {
        out.push_str(&format!("  {flag:width$}  {desc}\n"));
    }
    out
}

fn arg_value(flag: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return args.next();
        }
        if let Some(v) = a.strip_prefix(&format!("{flag}=")) {
            return Some(v.to_string());
        }
    }
    None
}

fn parsed<T: std::str::FromStr>(flag: &str) -> Option<T> {
    arg_value(flag).map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("stmload: bad value {v:?} for {flag}");
            std::process::exit(2);
        })
    })
}

fn main() {
    if std::env::args().any(|a| a == "--help" || a == "-h") {
        print!("{}", usage());
        return;
    }
    let Some(addr) = arg_value("--addr") else {
        eprint!("stmload: --addr is required\n\n{}", usage());
        std::process::exit(2);
    };
    let mut cfg = LoadConfig {
        addr,
        ..LoadConfig::default()
    };
    if let Some(n) = parsed("--clients") {
        cfg.clients = n;
    }
    if let Some(n) = parsed("--requests") {
        cfg.requests_per_client = n;
    }
    if let Some(n) = parsed("--chaos") {
        cfg.chaos_pct = n;
    }
    if let Some(n) = parsed("--seed") {
        cfg.seed = n;
    }
    if let Some(n) = parsed("--matrices") {
        cfg.matrices = n;
    }
    if let Some(n) = parsed("--timeout-ms") {
        cfg.timeout_ms = n;
    }

    let report = match run_load(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("stmload: {e}");
            std::process::exit(2);
        }
    };

    // Deterministic summary first (CI diffs this line across runs).
    println!("{}", report.deterministic_line());
    println!(
        "chaos: kills={} corrupts={} faults={} shed_retries={} transport_retries={}",
        report.kills, report.corrupts, report.faults, report.shed_retries, report.transport_retries
    );
    println!("degraded: {}", report.degraded);
    let p = |q: u64| report.latency_us.percentile(q).unwrap_or(0);
    // Server-side view of the same tail, scraped from the metrics
    // endpoint: client p99 includes waiting for a permit + transport,
    // server p99 starts once the request holds its permit — the gap is
    // where the latency lives.
    let scraped = arg_value("--metrics-addr").map(|maddr| {
        stm_serve::scrape::fetch(&maddr, cfg.timeout_ms)
            .map(|text| stm_serve::scrape::parse(&text))
            .unwrap_or_else(|e| {
                eprintln!("stmload: metrics scrape: {e}");
                Vec::new()
            })
    });
    let server_p99 = scraped.as_ref().map(|samples| {
        stm_serve::scrape::value(samples, "stm_serve_latency_us", "quantile=\"0.99\"").unwrap_or(0)
    });
    match server_p99 {
        Some(sp99) => println!(
            "latency_us: p50={} p95={} p99={} max={} server_p99={sp99}",
            p(50),
            p(95),
            p(99),
            report.latency_us.max()
        ),
        None => println!(
            "latency_us: p50={} p95={} p99={} max={}",
            p(50),
            p(95),
            p(99),
            report.latency_us.max()
        ),
    }
    // Server-side integrity plane, from the same scrape: how many
    // silent corruptions the verify legs caught and what became of
    // them.
    if let Some(samples) = &scraped {
        let c = |n: &str| stm_serve::scrape::value(samples, n, "").unwrap_or(0);
        println!(
            "integrity: sdc_detected={} recovered={} unrecovered={} verify_legs={}",
            c("stm_integrity_sdc_detected_total"),
            c("stm_integrity_sdc_recovered_total"),
            c("stm_integrity_sdc_unrecovered_total"),
            c("stm_integrity_verify_legs_total"),
        );
    }
    let secs = report.elapsed.as_secs_f64();
    println!(
        "throughput: {:.0} req/s over {:.2}s",
        if secs > 0.0 {
            report.requests as f64 / secs
        } else {
            0.0
        },
        secs
    );

    let mut bad = 0usize;
    if report.mismatches > 0 {
        eprintln!("stmload: {} digest mismatch(es)", report.mismatches);
        bad += 1;
    }
    if report.failed > 0 {
        eprintln!(
            "stmload: {} request(s) ended in a failure status",
            report.failed
        );
        bad += 1;
    }
    if let Some(stats) = report.server_stats {
        println!(
            "server: accepted={} completed={} shed={} degraded={} queue_max={}/{} bad_frames={}",
            stats.accepted,
            stats.completed,
            stats.shed,
            stats.degraded,
            stats.queue_depth_max,
            stats.queue_depth_limit,
            stats.bad_frames
        );
        // The bounded-memory invariant, asserted from the outside.
        if stats.queue_depth_max > stats.queue_depth_limit {
            eprintln!(
                "stmload: queue high-water {} exceeded the configured depth {}",
                stats.queue_depth_max, stats.queue_depth_limit
            );
            bad += 1;
        }
    }

    if let Some(csv) = arg_value("--csv") {
        let mut text = String::from("bucket_upper_us,count\n");
        for (upper, count) in report.latency_us.nonzero_buckets() {
            text.push_str(&format!("{upper},{count}\n"));
        }
        text.push_str(&format!(
            "p50,{}\np95,{}\np99,{}\nmax,{}\n",
            p(50),
            p(95),
            p(99),
            report.latency_us.max()
        ));
        if let Err(e) = std::fs::write(&csv, text) {
            eprintln!("stmload: writing {csv}: {e}");
            std::process::exit(2);
        }
        println!("csv: {csv}");
    }

    if std::env::args().any(|a| a == "--shutdown") {
        match stm_serve::client::Client::connect(&cfg.addr, 0, cfg.timeout_ms)
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.shutdown(u64::MAX - 1))
        {
            Ok(resp) if resp.status == Status::Ok => println!("shutdown: acknowledged"),
            Ok(resp) => {
                eprintln!("stmload: shutdown refused: {}", resp.status.name());
                bad += 1;
            }
            Err(e) => {
                eprintln!("stmload: shutdown: {e}");
                bad += 1;
            }
        }
    }

    if bad > 0 {
        std::process::exit(1);
    }
}
