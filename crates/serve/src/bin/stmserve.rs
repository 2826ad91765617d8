//! `stmserve` — the transpose-as-a-service TCP server.
//!
//! Prints `listening: <addr>` once the socket is bound (the line the
//! harnesses parse to find an ephemeral port), serves until a `SHUTDOWN`
//! request drains it, then prints `shutdown: clean`.
//!
//! Exit codes: 0 = clean drain; 2 = configuration/bind/log error.

use stm_bench::resilient::VerifyMode;
use stm_obs::cli::{Cli, Flag};
use stm_serve::server::{ServeConfig, Server};

const CLI: Cli = Cli {
    bin: "stmserve",
    about: "Fault-tolerant transpose/SpMV service over the resilient pipeline.",
    operands: "",
    flags: &[
        Flag::value(
            "--addr",
            "A",
            "bind address (default 127.0.0.1:0 = free port)",
        ),
        Flag::value(
            "--queue-depth",
            "N",
            "requests that may wait for a permit before shedding (default 8)",
        ),
        Flag::value(
            "--quota",
            "N",
            "max in-flight requests per client (default 4)",
        ),
        Flag::value(
            "--workers",
            "N",
            "requests that may execute at once, each on its connection thread (default 4)",
        ),
        Flag::value(
            "--deadline",
            "CYCLES",
            "per-request cycle budget (typed abort)",
        ),
        Flag::value("--breaker-threshold", "N", "consecutive failures to trip"),
        Flag::value(
            "--breaker-cooldown",
            "N",
            "skipped decisions before a probe",
        ),
        Flag::value("--max-attempts", "N", "bounded retry attempts per request"),
        Flag::value("--max-frame", "BYTES", "frame payload cap (default 1 MiB)"),
        Flag::value(
            "--io-timeout-ms",
            "MS",
            "socket read/write timeout (default 10000)",
        ),
        Flag::value(
            "--results-log",
            "FILE",
            "durable results log (resume FETCHes after restart)",
        ),
        Flag::value(
            "--trace",
            "DIR",
            "export the server event trace at shutdown",
        ),
        Flag::value(
            "--verify-mode",
            "M",
            "output verification tier, M in {off,checksum,dual,vote} (default off)",
        ),
        stm_bench::BACKEND,
        Flag::value(
            "--metrics-addr",
            "A",
            "bind the Prometheus text exposition listener (port 0 = free port)",
        ),
        Flag::value(
            "--flight-dir",
            "DIR",
            "write crash flight-recorder dumps here (panic, breaker-open, deadline storm, SIGTERM)",
        ),
        Flag::value(
            "--flight-window",
            "MS",
            "flight-recorder dump window in milliseconds (default 10000)",
        ),
        Flag::value(
            "--flight-every",
            "N",
            "test hook: also dump the flight ring every N completed requests",
        ),
    ],
};

fn main() {
    let args = CLI.parse(std::env::args().skip(1));
    let mut cfg = ServeConfig {
        addr: args.get("--addr").unwrap_or("127.0.0.1:0").to_string(),
        deadline: args.value("--deadline"),
        results_log: args.get("--results-log").map(Into::into),
        trace: args.get("--trace").map(Into::into),
        backend: stm_bench::backend(&args),
        metrics_addr: args.get("--metrics-addr").map(Into::into),
        flight_dir: args.get("--flight-dir").map(Into::into),
        flight_every: args.value("--flight-every"),
        ..ServeConfig::default()
    };
    if let Some(n) = args.value("--queue-depth") {
        cfg.queue_depth = n;
    }
    if let Some(n) = args.value("--quota") {
        cfg.quota = n;
    }
    if let Some(n) = args.value("--workers") {
        cfg.workers = n;
    }
    if let Some(t) = args.value("--breaker-threshold") {
        cfg.breaker.threshold = t;
    }
    if let Some(c) = args.value("--breaker-cooldown") {
        cfg.breaker.cooldown = c;
    }
    if let Some(n) = args.value("--max-attempts") {
        cfg.retry.max_attempts = n;
    }
    if let Some(n) = args.value("--max-frame") {
        cfg.max_frame = n;
    }
    if let Some(n) = args.value("--io-timeout-ms") {
        cfg.io_timeout_ms = n;
    }
    if let Some(m) = args.value_with("--verify-mode", VerifyMode::from_name) {
        cfg.verify_mode = m;
    }
    if let Some(ms) = args.value("--flight-window") {
        cfg.flight_window_ms = ms;
    }

    let server = match Server::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("stmserve: {e}");
            std::process::exit(2);
        }
    };
    // The harnesses parse these lines to find the ephemeral ports —
    // print and flush before serving.
    println!("listening: {}", server.addr());
    if let Some(maddr) = server.metrics_addr() {
        println!("metrics: {maddr}");
    }
    use std::io::Write;
    std::io::stdout().flush().ok();

    // SIGTERM: flush a last flight dump, then exit. The watcher holds
    // only a FlightDumper, so the server itself can move into join().
    #[cfg(unix)]
    {
        sig::install();
        let dumper = server.flight_dumper();
        std::thread::spawn(move || loop {
            if sig::term_seen() {
                dumper.dump("sigterm");
                println!("shutdown: sigterm");
                std::io::stdout().flush().ok();
                std::process::exit(0);
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        });
    }

    server.join();
    println!("shutdown: clean");
}

/// Raw `signal(2)` registration — the workspace is dependency-free, so
/// no `libc` crate; the handler only flips an atomic flag (async-signal
/// safe) and a watcher thread does the actual dump.
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERM: AtomicBool = AtomicBool::new(false);
    const SIGTERM: i32 = 15;

    extern "C" fn on_term(_sig: i32) {
        TERM.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    pub fn install() {
        unsafe {
            signal(SIGTERM, on_term);
        }
    }

    pub fn term_seen() -> bool {
        TERM.load(Ordering::SeqCst)
    }
}
