//! `stmtop` — a live one-screen view of an `stmserve` metrics endpoint.
//!
//! Polls the `--metrics-addr` exposition listener and renders the
//! request counters, live gauges, and latency/cycle quantiles as a
//! compact table, with request throughput derived from counter deltas
//! between scrapes. `--once` takes a single scrape (no screen
//! clearing), `--raw` prints the exposition text verbatim — the CI
//! smoke job uses `--once --raw` as a scrape client.
//!
//! Exit codes: 0 = clean; 1 = a scrape failed after the first; 2 =
//! usage error or the first scrape failed.

use std::io::{IsTerminal, Write};
use stm_bench::{arg_value, parsed};
use stm_serve::scrape::{self, Sample};

const FLAGS: &[(&str, &str)] = &[
    ("--addr A", "metrics endpoint address (required, host:port)"),
    (
        "--interval MS",
        "poll interval in milliseconds (default 1000)",
    ),
    (
        "--count N",
        "stop after N scrapes (default 0 = run forever)",
    ),
    (
        "--once",
        "single scrape, no screen clearing (same as --count 1)",
    ),
    (
        "--raw",
        "print the exposition text verbatim instead of the table",
    ),
];

fn usage() -> String {
    let width = FLAGS.iter().map(|(f, _)| f.len()).max().unwrap_or(0);
    let mut out = String::from(
        "usage: stmtop --addr HOST:PORT [flags]\nLive terminal view of an stmserve metrics endpoint.\n\nflags:\n",
    );
    for (flag, desc) in FLAGS {
        out.push_str(&format!("  {flag:width$}  {desc}\n"));
    }
    out
}

fn val(samples: &[Sample], name: &str) -> u64 {
    scrape::value(samples, name, "").unwrap_or(0)
}

fn quantiles(samples: &[Sample], name: &str) -> (u64, u64, u64) {
    let q = |frag: &str| scrape::value(samples, name, frag).unwrap_or(0);
    (
        q("quantile=\"0.5\""),
        q("quantile=\"0.95\""),
        q("quantile=\"0.99\""),
    )
}

fn render(samples: &[Sample], addr: &str, scrape_n: u64, req_per_s: f64) -> String {
    let c = |n: &str| val(samples, &format!("stm_serve_requests_{n}_total"));
    let (lp50, lp95, lp99) = quantiles(samples, "stm_serve_latency_us");
    let (kp50, kp95, kp99) = quantiles(samples, "stm_serve_kernel_cycles");
    let mut out = String::new();
    out.push_str(&format!("stmtop — {addr}  (scrape #{scrape_n})\n\n"));
    out.push_str(&format!(
        "  requests   accepted={} completed={} degraded={} failed={} shed={}\n",
        c("accepted"),
        c("completed"),
        c("degraded"),
        c("failed"),
        c("shed"),
    ));
    out.push_str(&format!(
        "  health     bad_frames={} breaker_trips={}  throughput={req_per_s:.1} req/s\n",
        val(samples, "stm_serve_frames_bad_total"),
        val(samples, "stm_serve_breaker_trips_total"),
    ));
    out.push_str(&format!(
        "  integrity  sdc_detected={} recovered={} unrecovered={} verify_legs={}\n",
        val(samples, "stm_integrity_sdc_detected_total"),
        val(samples, "stm_integrity_sdc_recovered_total"),
        val(samples, "stm_integrity_sdc_unrecovered_total"),
        val(samples, "stm_integrity_verify_legs_total"),
    ));
    out.push_str(&format!(
        "  live       queue_depth={} inflight={}\n",
        val(samples, "stm_serve_queue_depth"),
        val(samples, "stm_serve_inflight"),
    ));
    out.push_str(&format!(
        "  latency_us p50={lp50} p95={lp95} p99={lp99}  (window; {} total obs)\n",
        val(samples, "stm_serve_latency_us_count"),
    ));
    out.push_str(&format!(
        "  kernel_cyc p50={kp50} p95={kp95} p99={kp99}  (window; {} total obs)\n",
        val(samples, "stm_serve_kernel_cycles_count"),
    ));
    out
}

fn main() {
    if std::env::args().any(|a| a == "--help" || a == "-h") {
        print!("{}", usage());
        return;
    }
    let Some(addr) = arg_value("--addr") else {
        eprint!("stmtop: --addr is required\n\n{}", usage());
        std::process::exit(2);
    };
    let interval_ms: u64 = parsed("--interval").unwrap_or(1000);
    let once = std::env::args().any(|a| a == "--once");
    let raw = std::env::args().any(|a| a == "--raw");
    let count: u64 = if once {
        1
    } else {
        parsed("--count").unwrap_or(0)
    };
    let clear = !once && !raw && std::io::stdout().is_terminal();

    let mut prev_completed: Option<u64> = None;
    let mut scrape_n: u64 = 0;
    loop {
        let text = match scrape::fetch(&addr, interval_ms.max(1000)) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("stmtop: {e}");
                std::process::exit(if scrape_n == 0 { 2 } else { 1 });
            }
        };
        scrape_n += 1;
        if raw {
            print!("{text}");
        } else {
            let samples = scrape::parse(&text);
            let completed = val(&samples, "stm_serve_requests_completed_total");
            let req_per_s = match prev_completed {
                Some(prev) if interval_ms > 0 => {
                    completed.saturating_sub(prev) as f64 * 1000.0 / interval_ms as f64
                }
                _ => 0.0,
            };
            prev_completed = Some(completed);
            if clear {
                // ANSI: clear screen, home cursor.
                print!("\x1b[2J\x1b[H");
            }
            print!("{}", render(&samples, &addr, scrape_n, req_per_s));
        }
        std::io::stdout().flush().ok();
        if count > 0 && scrape_n >= count {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(1)));
    }
}
