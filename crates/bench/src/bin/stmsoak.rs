//! Resilient chaos-soak driver: runs a suite through the soak pipeline
//! (bounded queue, deadlines, circuit-breaker fallback, checkpoint/
//! resume) and prints the per-entry table, breaker activity, `resil.*`
//! counters and the deterministic report digest.
//!
//! Flags (all also accept `--flag=value`):
//!
//! * `--quick` / `STM_SUITE=quick` — reduced suite (6 matrices);
//! * `--jobs N` / `STM_JOBS` — worker pool size;
//! * `--trace DIR` / `STM_TRACE` — export the pipeline's `resil` trace;
//! * `--checkpoint FILE` — resume from `FILE` if present, checkpoint
//!   every commit (atomic rewrite);
//! * `--fault-rate PCT` — chaos injection probability per item;
//! * `--seed N` — chaos seed (default `0xC0FFEE`);
//! * `--verify-mode {off,checksum,dual,vote}` — output integrity
//!   verification: `checksum` re-verifies the HiSM section checksums,
//!   `dual` re-executes on one alternate backend (escalating to a
//!   third on disagreement), `vote` runs 2-of-3 across
//!   sim/scalar/reference and recovers the majority answer;
//! * `--sdc-rate PCT` / `--sdc-seed N` — silent-data-corruption
//!   injection: flips one seeded bit in simulated memory mid-run
//!   (implies oracle `verify=false` so the flip stays *silent*);
//! * `--deadline CYCLES` — per-run cycle budget (typed abort);
//! * `--queue-depth N` — bounded window / breaker decision lag
//!   (default 8);
//! * `--breaker-threshold N` / `--breaker-cooldown N` — breaker tuning;
//! * `--max-attempts N` / `--retry-delay-ms N` — retry tuning;
//! * `--stop-after N` — commit N items then stop cleanly (simulated
//!   kill; resume with the same `--checkpoint`);
//! * `--metrics FILE` — write the pipeline's counters and cycle
//!   histograms as a one-shot Prometheus text snapshot (the same
//!   grammar `stmserve --metrics-addr` exposes live);
//! * `--format {coo,csr,csc,jd,sell,auto}` / `STM_FORMAT` — soak a
//!   third slot per item: the selected format's transpose kernel
//!   (`auto` = cost-model autotuner per matrix). The slot shares
//!   chaos/deadline/retry/fallback handling but has no breaker.
//!
//! Exit codes: 0 = pipeline completed and every failure was contained
//! as `degraded`/`failed`/`corrupted` rows; 1 = a containment
//! invariant broke; 2 = configuration/checkpoint/IO error.
//!
//! The `digest: 0x…` line is byte-stable across `--jobs` values and
//! kill/resume boundaries — CI compares it between an uninterrupted run
//! and a `--stop-after` + resume pair.

use stm_bench::output::format_table;
use stm_bench::resilient::{
    self, ChaosSpec, EntryStatus, Outcome, SdcSpec, SlotRecord, SoakConfig, VerifyMode,
};
use stm_bench::{arg_value, parsed, RunConfig};

fn slot_cell(s: &SlotRecord) -> String {
    match s.outcome {
        Outcome::Success => s.cycles.to_string(),
        _ => match &s.fallback {
            Some(f) if f.ok => format!("{}:{}", f.kernel, f.cycles),
            _ => "-".to_string(),
        },
    }
}

fn main() {
    stm_bench::handle_help(
        "stmsoak",
        "Resilient chaos soak: bounded queue, deadlines, breaker fallback, checkpoint/resume.",
        &[
            ("--deadline CYCLES", "per-run cycle budget (typed abort)"),
            (
                "--queue-depth N",
                "bounded window / breaker decision lag (default 8)",
            ),
            ("--breaker-threshold N", "consecutive failures to trip"),
            ("--breaker-cooldown N", "skipped decisions before a probe"),
            ("--max-attempts N", "bounded retry attempts per slot"),
            ("--retry-delay-ms N", "retry backoff base delay"),
            ("--fault-rate PCT", "chaos injection probability per item"),
            ("--seed N", "chaos seed (default 0xC0FFEE)"),
            (
                "--verify-mode M",
                "off|checksum|dual|vote — output integrity verification",
            ),
            (
                "--sdc-rate PCT",
                "silent mid-run bit-flip probability per item",
            ),
            ("--sdc-seed N", "SDC injection seed (default 0x5DC)"),
            (
                "--checkpoint FILE",
                "resume from FILE if present, checkpoint every commit",
            ),
            ("--stop-after N", "commit N items then stop cleanly"),
            (
                "--metrics FILE",
                "write the pipeline counters/histograms as a Prometheus text snapshot",
            ),
        ],
    );
    let (sets, suite) = stm_bench::sets_from_env();
    let set = sets.by_locality;
    let mut cfg = SoakConfig {
        run: RunConfig::from_env(),
        ..SoakConfig::default()
    };
    cfg.deadline = parsed("--deadline");
    if let Some(w) = parsed("--queue-depth") {
        cfg.queue_depth = w;
    }
    if let Some(t) = parsed("--breaker-threshold") {
        cfg.breaker.threshold = t;
    }
    if let Some(c) = parsed("--breaker-cooldown") {
        cfg.breaker.cooldown = c;
    }
    if let Some(n) = parsed("--max-attempts") {
        cfg.retry.max_attempts = n;
    }
    if let Some(d) = parsed("--retry-delay-ms") {
        cfg.retry.base_delay_ms = d;
    }
    if let Some(rate) = parsed::<u32>("--fault-rate") {
        cfg.chaos = Some(ChaosSpec {
            rate_pct: rate,
            seed: parsed("--seed").unwrap_or(0xC0FFEE),
        });
    }
    if let Some(m) = arg_value("--verify-mode") {
        cfg.verify_mode = VerifyMode::from_name(&m).unwrap_or_else(|| {
            eprintln!("stmsoak: bad value {m:?} for --verify-mode (off|checksum|dual|vote)");
            std::process::exit(2);
        });
    }
    if let Some(rate) = parsed::<u32>("--sdc-rate") {
        cfg.sdc = Some(SdcSpec {
            rate_pct: rate,
            seed: parsed("--sdc-seed").unwrap_or(0x5DC),
        });
        // An SDC is only *silent* if the oracle check is off; otherwise
        // the flip surfaces as a typed Mismatch and the verify legs
        // never get to vote. Campaigns measure the verify plane, not
        // the oracle.
        cfg.run.verify = false;
    }
    cfg.checkpoint = arg_value("--checkpoint").map(Into::into);
    cfg.stop_after = parsed("--stop-after");

    let report = match resilient::run_soak(&cfg, &set) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("stmsoak: {e}");
            std::process::exit(2);
        }
    };

    let has_format = cfg.run.format.is_some();
    let rows: Vec<Vec<String>> = report
        .entries
        .iter()
        .map(|e| {
            let mut row = vec![
                e.name.clone(),
                slot_cell(&e.slots[0]),
                slot_cell(&e.slots[1]),
            ];
            if has_format {
                row.push(match e.slots.get(2) {
                    Some(s) => format!("{}:{}", s.kernel, slot_cell(s)),
                    None => "-".to_string(),
                });
            }
            row.push(e.slots.iter().map(|s| s.attempts).sum::<u64>().to_string());
            row.push(e.status.name().to_string());
            row
        })
        .collect();
    let mut headers = vec!["matrix", "hism_cyc", "crs_cyc"];
    if has_format {
        headers.push("format");
    }
    headers.extend(["attempts", "status"]);
    println!("{}", format_table(&headers, &rows));
    for (seq, kernel, from, to) in &report.transitions {
        println!("breaker[{kernel}] @{seq}: {} -> {}", from.name(), to.name());
    }
    let c = |name: &str| report.trace.counter(name);
    println!(
        "status: suite={suite} n={} ok={} degraded={} failed={} corrupted={} chaos_hits={} deadline_exceeded={}",
        report.entries.len(),
        report.count(EntryStatus::Ok),
        report.count(EntryStatus::Degraded),
        report.count(EntryStatus::Failed),
        report.count(EntryStatus::Corrupted),
        c("resil.chaos.injected"),
        c("resil.deadline.exceeded"),
    );
    if cfg.verify_mode != VerifyMode::Off || cfg.sdc.is_some() {
        println!(
            "integrity: mode={} verify_slots={} verify_legs={} sdc_injected={} detected={} recovered={} unrecovered={}",
            cfg.verify_mode.name(),
            c("integrity.verify.slots"),
            c("integrity.verify.legs"),
            c("resil.sdc.injected"),
            c("integrity.sdc.detected"),
            c("integrity.sdc.recovered"),
            c("integrity.sdc.unrecovered"),
        );
    }
    println!(
        "breaker: trips={} probes={} recoveries={}",
        c("resil.breaker.trips"),
        c("resil.breaker.probes"),
        c("resil.breaker.recoveries"),
    );
    println!(
        "retries: extra_attempts={} fallback_runs={} rescues={}",
        c("resil.retry.attempts"),
        c("resil.fallback.runs"),
        c("resil.fallback.rescues"),
    );
    if report.resumed > 0 {
        println!("resumed: {} entries from checkpoint", report.resumed);
    }
    if report.halted {
        println!("halted: stopped after {} commits", report.entries.len());
    }
    println!("digest: 0x{:016x}", report.digest);

    // One-shot Prometheus snapshot: the pipeline's counters and cycle
    // histograms in the same exposition grammar the server scrapes
    // serve, so offline soak runs and live service runs are comparable
    // with the same tooling.
    if let Some(path) = arg_value("--metrics") {
        use stm_obs::telemetry::{render_prometheus, WindowSummary};
        let mut snap = stm_obs::MetricsSnapshot::default();
        for (name, v) in &report.trace.counters {
            snap.counters.insert(name.clone(), *v);
        }
        for (name, h) in &report.trace.histograms {
            snap.windows.insert(
                name.clone(),
                WindowSummary {
                    window: h.clone(),
                    total_count: h.count(),
                    total_sum: h.sum(),
                },
            );
        }
        match std::fs::write(&path, render_prometheus(&snap)) {
            Ok(()) => println!("metrics: {path}"),
            Err(e) => {
                eprintln!("stmsoak: writing {path}: {e}");
                std::process::exit(2);
            }
        }
    }

    // Containment invariants: a failed primary never leaks an `ok` row,
    // and (unless deliberately halted) the whole suite committed.
    let mut bad = 0usize;
    for e in &report.entries {
        let slot_failed = e
            .slots
            .iter()
            .any(|s| s.outcome != Outcome::Success || s.fallback.is_some());
        if slot_failed && e.status == EntryStatus::Ok {
            eprintln!("[{}] {}: failure leaked into an ok row", e.index, e.name);
            bad += 1;
        }
    }
    if !report.halted && report.entries.len() != set.len() {
        eprintln!(
            "committed {} of {} entries without a stop-after halt",
            report.entries.len(),
            set.len()
        );
        bad += 1;
    }
    if bad > 0 {
        eprintln!("stmsoak FAILED: {bad} containment problem(s)");
        std::process::exit(1);
    }
}
