//! `stmserve` — the transpose-as-a-service TCP server.
//!
//! Prints `listening: <addr>` once the socket is bound (the line the
//! harnesses parse to find an ephemeral port), serves until a `SHUTDOWN`
//! request drains it, then prints `shutdown: clean`.
//!
//! Exit codes: 0 = clean drain; 2 = configuration/bind/log error.

use stm_bench::resilient::{BreakerConfig, RetryPolicy, VerifyMode};
use stm_serve::server::{ServeConfig, Server};

const FLAGS: &[(&str, &str)] = &[
    ("--addr A", "bind address (default 127.0.0.1:0 = free port)"),
    (
        "--queue-depth N",
        "requests that may wait for a permit before shedding (default 8)",
    ),
    ("--quota N", "max in-flight requests per client (default 4)"),
    (
        "--workers N",
        "requests that may execute at once, each on its connection thread (default 4)",
    ),
    (
        "--deadline CYCLES",
        "per-request cycle budget (typed abort)",
    ),
    ("--breaker-threshold N", "consecutive failures to trip"),
    ("--breaker-cooldown N", "skipped decisions before a probe"),
    ("--max-attempts N", "bounded retry attempts per request"),
    ("--max-frame BYTES", "frame payload cap (default 1 MiB)"),
    (
        "--io-timeout-ms MS",
        "socket read/write timeout (default 10000)",
    ),
    (
        "--results-log FILE",
        "durable results log (resume FETCHes after restart)",
    ),
    ("--trace DIR", "export the server event trace at shutdown"),
    (
        "--verify-mode M",
        "output verification tier, M in {off,checksum,dual,vote} (default off)",
    ),
    (
        "--backend B",
        "execution backend, B in {sim,scalar} (or STM_BACKEND=B)",
    ),
    (
        "--metrics-addr A",
        "bind the Prometheus text exposition listener (port 0 = free port)",
    ),
    (
        "--flight-dir DIR",
        "write crash flight-recorder dumps here (panic, breaker-open, deadline storm, SIGTERM)",
    ),
    (
        "--flight-window MS",
        "flight-recorder dump window in milliseconds (default 10000)",
    ),
    (
        "--flight-every N",
        "test hook: also dump the flight ring every N completed requests",
    ),
];

fn usage() -> String {
    let width = FLAGS.iter().map(|(f, _)| f.len()).max().unwrap_or(0);
    let mut out = String::from(
        "usage: stmserve [flags]\nFault-tolerant transpose/SpMV service over the resilient pipeline.\n\nflags:\n",
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
            eprintln!("stmserve: bad value {v:?} for {flag}");
            std::process::exit(2);
        })
    })
}

fn main() {
    if std::env::args().any(|a| a == "--help" || a == "-h") {
        print!("{}", usage());
        return;
    }
    let mut cfg = ServeConfig {
        addr: arg_value("--addr").unwrap_or_else(|| "127.0.0.1:0".to_string()),
        ..ServeConfig::default()
    };
    if let Some(n) = parsed("--queue-depth") {
        cfg.queue_depth = n;
    }
    if let Some(n) = parsed("--quota") {
        cfg.quota = n;
    }
    if let Some(n) = parsed("--workers") {
        cfg.workers = n;
    }
    cfg.deadline = parsed("--deadline");
    let mut breaker = BreakerConfig::default();
    if let Some(t) = parsed("--breaker-threshold") {
        breaker.threshold = t;
    }
    if let Some(c) = parsed("--breaker-cooldown") {
        breaker.cooldown = c;
    }
    cfg.breaker = breaker;
    let mut retry = RetryPolicy::default();
    if let Some(n) = parsed("--max-attempts") {
        retry.max_attempts = n;
    }
    cfg.retry = retry;
    if let Some(n) = parsed("--max-frame") {
        cfg.max_frame = n;
    }
    if let Some(n) = parsed("--io-timeout-ms") {
        cfg.io_timeout_ms = n;
    }
    if let Some(m) = arg_value("--verify-mode") {
        cfg.verify_mode = VerifyMode::from_name(&m).unwrap_or_else(|| {
            eprintln!("stmserve: unknown --verify-mode {m:?} (off|checksum|dual|vote)");
            std::process::exit(2);
        });
    }
    cfg.results_log = arg_value("--results-log").map(Into::into);
    cfg.trace = arg_value("--trace").map(Into::into);
    cfg.backend = stm_bench::backend_from_env();
    cfg.metrics_addr = arg_value("--metrics-addr");
    cfg.flight_dir = arg_value("--flight-dir").map(Into::into);
    if let Some(ms) = parsed("--flight-window") {
        cfg.flight_window_ms = ms;
    }
    cfg.flight_every = parsed("--flight-every");

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
