//! End-to-end tests of the resilient soak pipeline: digest determinism
//! across worker counts and kill/resume boundaries, typed deadline
//! aborts, observable breaker trips, graceful degradation, and a valid
//! exported `resil` trace.

use std::path::PathBuf;

use hism_stm::dsab::{experiment_sets, quick_catalogue, SuiteEntry};
use hism_stm::obs::{check, jsonl};
use hism_stm::stm::kernels::registry::KernelError;
use stm_bench::resilient::{self, Breaker, BreakerState, Decision, EntryStatus, PRIMARY_KERNELS};
use stm_bench::{ChaosSpec, RunConfig, RunStatus, SoakConfig};

fn suite() -> Vec<SuiteEntry> {
    experiment_sets(&quick_catalogue(), 6).by_locality
}

/// A chaos-soak configuration small enough for CI: 30% injection over
/// the quick locality set, with a short decision window so breaker lag
/// is actually exercised.
fn chaos_cfg(jobs: usize) -> SoakConfig {
    let run = RunConfig {
        jobs: Some(jobs),
        ..RunConfig::default()
    };
    SoakConfig {
        run,
        queue_depth: 3,
        chaos: Some(ChaosSpec {
            rate_pct: 30,
            seed: 11,
        }),
        ..SoakConfig::default()
    }
}

fn tmp_path(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("stm-resilience-{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn resil_counters(report: &stm_bench::SoakReport) -> Vec<(String, u64)> {
    report
        .trace
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("resil."))
        .cloned()
        .collect()
}

#[test]
fn digest_is_identical_across_worker_counts() {
    let set = suite();
    let solo = resilient::run_soak(&chaos_cfg(1), &set).unwrap();
    let pooled = resilient::run_soak(&chaos_cfg(4), &set).unwrap();
    assert_eq!(solo.digest, pooled.digest, "digest depends on --jobs");
    assert_eq!(solo.entries, pooled.entries);
    assert_eq!(resil_counters(&solo), resil_counters(&pooled));
    assert_eq!(solo.transitions, pooled.transitions);
}

#[test]
fn kill_and_resume_reproduces_the_uninterrupted_digest() {
    let set = suite();
    let uninterrupted = resilient::run_soak(&chaos_cfg(1), &set).unwrap();
    assert!(!uninterrupted.halted);

    for resume_jobs in [1usize, 4] {
        let ckpt = tmp_path(&format!("resume-{resume_jobs}.ckpt"));

        // Leg 1: commit three items, then stop as if killed.
        let mut killed_cfg = chaos_cfg(4);
        killed_cfg.checkpoint = Some(ckpt.clone());
        killed_cfg.stop_after = Some(3);
        let killed = resilient::run_soak(&killed_cfg, &set).unwrap();
        assert!(killed.halted);
        assert_eq!(killed.entries.len(), 3);
        assert!(ckpt.exists(), "no checkpoint written");

        // Leg 2: resume from the checkpoint with a different worker
        // count; the full result stream must be byte-identical.
        let mut resumed_cfg = chaos_cfg(resume_jobs);
        resumed_cfg.checkpoint = Some(ckpt.clone());
        let resumed = resilient::run_soak(&resumed_cfg, &set).unwrap();
        assert_eq!(resumed.resumed, 3);
        assert!(!resumed.halted);
        assert_eq!(
            resumed.digest, uninterrupted.digest,
            "resume at jobs={resume_jobs} diverged from the uninterrupted run"
        );
        assert_eq!(resumed.entries, uninterrupted.entries);
        // Counters and breaker transitions are re-derived during replay,
        // so observability is also seamless across the kill.
        assert_eq!(resil_counters(&resumed), resil_counters(&uninterrupted));
        assert_eq!(resumed.transitions, uninterrupted.transitions);

        let _ = std::fs::remove_file(&ckpt);
    }
}

#[test]
fn resume_rejects_a_checkpoint_from_a_different_configuration() {
    let set = suite();
    let ckpt = tmp_path("foreign.ckpt");
    let mut cfg = chaos_cfg(2);
    cfg.checkpoint = Some(ckpt.clone());
    cfg.stop_after = Some(2);
    resilient::run_soak(&cfg, &set).unwrap();

    // Same checkpoint, different chaos seed: the fingerprint must refuse.
    let mut foreign = chaos_cfg(2);
    foreign.chaos = Some(ChaosSpec {
        rate_pct: 30,
        seed: 12,
    });
    foreign.checkpoint = Some(ckpt.clone());
    let err = resilient::run_soak(&foreign, &set).unwrap_err();
    assert!(err.contains("fingerprint"), "unexpected error: {err}");
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn resume_rejects_a_checkpoint_from_a_different_backend() {
    use hism_stm::stm::kernels::registry::Backend;
    let set = suite();
    let ckpt = tmp_path("backend.ckpt");
    let mut cfg = chaos_cfg(2);
    cfg.checkpoint = Some(ckpt.clone());
    cfg.stop_after = Some(2);
    resilient::run_soak(&cfg, &set).unwrap();

    // A sim checkpoint resumed under the host backend mixes wall-clock
    // tiers into one result stream; the fingerprint must refuse.
    let mut host = chaos_cfg(2);
    host.run.backend = Backend::Scalar;
    host.checkpoint = Some(ckpt.clone());
    let err = resilient::run_soak(&host, &set).unwrap_err();
    assert!(err.contains("fingerprint"), "unexpected error: {err}");

    // The refusal is symmetric (host checkpoint, sim resume), and a
    // matching host backend resumes cleanly.
    let _ = std::fs::remove_file(&ckpt);
    let mut cfg = chaos_cfg(2);
    cfg.run.backend = Backend::Scalar;
    cfg.checkpoint = Some(ckpt.clone());
    cfg.stop_after = Some(2);
    resilient::run_soak(&cfg, &set).unwrap();
    let mut sim = chaos_cfg(2);
    sim.checkpoint = Some(ckpt.clone());
    let err = resilient::run_soak(&sim, &set).unwrap_err();
    assert!(err.contains("fingerprint"), "unexpected error: {err}");
    let mut resumed = chaos_cfg(2);
    resumed.run.backend = Backend::Scalar;
    resumed.checkpoint = Some(ckpt.clone());
    let report = resilient::run_soak(&resumed, &set).unwrap();
    assert_eq!(report.resumed, 2);
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn deadline_exceeded_is_typed_and_fallbacks_rescue() {
    let set = suite();
    let mut cfg = SoakConfig {
        run: RunConfig::default(),
        deadline: Some(5_000),
        ..SoakConfig::default()
    };
    cfg.run.jobs = Some(2);
    let report = resilient::run_soak(&cfg, &set).unwrap();

    assert!(
        report.trace.counter("resil.deadline.exceeded") > 0,
        "no run ever hit the 5k-cycle budget"
    );
    // The host-side fallbacks are deadline-immune, so every over-budget
    // primary degrades instead of failing.
    assert_eq!(report.count(EntryStatus::Failed), 0);
    assert!(report.count(EntryStatus::Degraded) > 0);

    // At least one live result carries the typed deadline failure.
    let typed = report.live.iter().any(|(_, r)| match &r.status {
        RunStatus::Degraded {
            failure: Some(f), ..
        } => matches!(f.error, KernelError::DeadlineExceeded(_)),
        _ => false,
    });
    assert!(
        typed,
        "no Degraded status carried KernelError::DeadlineExceeded"
    );
}

#[test]
fn full_chaos_trips_breakers_and_contains_every_failure() {
    let set = suite();
    let mut cfg = chaos_cfg(2);
    cfg.chaos = Some(ChaosSpec {
        rate_pct: 100,
        seed: 7,
    });
    cfg.breaker.threshold = 2;
    cfg.breaker.cooldown = 1;
    let report = resilient::run_soak(&cfg, &set).unwrap();

    assert_eq!(
        report.trace.counter("resil.chaos.injected"),
        set.len() as u64
    );
    assert!(report.trace.counter("resil.breaker.trips") >= 1);
    assert!(
        report
            .transitions
            .iter()
            .any(|(_, _, _, to)| *to == BreakerState::Open),
        "no breaker transition to Open recorded: {:?}",
        report.transitions
    );
    // Containment: every injected failure ends Degraded or Failed; no
    // entry reports Ok and nothing panicked or hung to get here.
    assert_eq!(report.count(EntryStatus::Ok), 0);
    assert_eq!(
        report.count(EntryStatus::Degraded) + report.count(EntryStatus::Failed),
        set.len()
    );
    assert!(report
        .live
        .iter()
        .any(|(_, r)| matches!(r.status, RunStatus::Degraded { .. })));
}

#[test]
fn exported_soak_trace_is_well_formed() {
    let set = suite();
    let dir = tmp_path("trace");
    let mut cfg = chaos_cfg(2);
    cfg.run.trace = Some(dir.clone());
    let report = resilient::run_soak(&cfg, &set).unwrap();

    // The in-memory trace satisfies the obs invariants...
    check::validate(&report.trace).expect("soak trace violates trace invariants");
    assert_eq!(report.trace.counter("resil.items"), set.len() as u64);
    assert!(report
        .trace
        .events
        .iter()
        .any(|e| e.name == "resil.queue.depth"));

    // ...and so does the exported JSONL on disk.
    let text = std::fs::read_to_string(dir.join("soak.resil.jsonl")).unwrap();
    let summary = jsonl::validate_jsonl(&text).expect("exported soak.resil.jsonl is invalid");
    assert!(summary.events > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Replays a soak report's recorded `(decision, outcome)` stream through
/// a fresh model [`Breaker`] per primary kernel, using the documented
/// call sequence — `decide(0..W)` up front at sequence 0, then
/// `commit(i)` followed by at most one `decide` per commit — and returns
/// the model's decisions and interleaved transition stream for
/// comparison against the pipeline's.
type KernelTransition = (u64, &'static str, BreakerState, BreakerState);

fn replay_breaker_model(
    report: &stm_bench::SoakReport,
    cfg: &SoakConfig,
) -> (Vec<Vec<Decision>>, Vec<KernelTransition>) {
    let n = report.entries.len();
    let w = cfg.queue_depth.max(1);
    let mut breakers: Vec<Breaker> = PRIMARY_KERNELS
        .iter()
        .map(|_| Breaker::new(cfg.breaker))
        .collect();
    let mut decisions: Vec<Vec<Decision>> = Vec::new();
    let mut transitions = Vec::new();
    let drain = |breakers: &mut Vec<Breaker>, transitions: &mut Vec<KernelTransition>| {
        for (k, b) in breakers.iter_mut().enumerate() {
            for (seq, from, to) in b.drain_transitions() {
                transitions.push((seq, PRIMARY_KERNELS[k], from, to));
            }
        }
    };
    for _ in 0..n.min(w) {
        decisions.push(breakers.iter_mut().map(|b| b.decide(0)).collect());
    }
    drain(&mut breakers, &mut transitions);
    for (i, entry) in report.entries.iter().enumerate() {
        let seq = i as u64;
        for (k, b) in breakers.iter_mut().enumerate() {
            let slot = &entry.slots[k];
            b.commit(slot.decision, slot.outcome, seq);
        }
        if decisions.len() < n && decisions.len() < (i + 1) + w {
            decisions.push(breakers.iter_mut().map(|b| b.decide(seq)).collect());
        }
        drain(&mut breakers, &mut transitions);
    }
    (decisions, transitions)
}

#[test]
fn half_open_probes_reopen_on_failure_and_close_on_success() {
    let set = suite();
    // A serial (W = 1), hair-trigger configuration: threshold 1 trips on
    // the first failure, cooldown 1 probes on the second decision after
    // the trip, so six entries are enough for a full
    // trip → probe-fail → re-open → probe-success → close arc. The seed
    // is searched because which chaos hits actually fail depends on
    // fault hostability per matrix.
    let cfg_for = |seed: u64, jobs: usize| {
        let mut cfg = chaos_cfg(jobs);
        cfg.queue_depth = 1;
        cfg.chaos = Some(ChaosSpec { rate_pct: 70, seed });
        cfg.breaker.threshold = 1;
        cfg.breaker.cooldown = 1;
        cfg
    };
    let episode = |report: &stm_bench::SoakReport, to: BreakerState| {
        report
            .transitions
            .iter()
            .any(|&(_, _, from, t)| from == BreakerState::HalfOpen && t == to)
    };

    let mut found = None;
    for seed in 0..64u64 {
        let cfg = cfg_for(seed, 1);
        let report = resilient::run_soak(&cfg, &set).unwrap();
        if episode(&report, BreakerState::Open) && episode(&report, BreakerState::Closed) {
            found = Some((seed, cfg, report));
            break;
        }
    }
    let (seed, cfg, report) =
        found.expect("no seed in 0..64 produced both half-open episodes — widen the search");

    // The pipeline's decision and transition streams must match a model
    // breaker driven by the documented call sequence, exactly.
    let (decisions, transitions) = replay_breaker_model(&report, &cfg);
    for (i, entry) in report.entries.iter().enumerate() {
        for (k, slot) in entry.slots.iter().take(PRIMARY_KERNELS.len()).enumerate() {
            assert_eq!(
                slot.decision, decisions[i][k],
                "entry {i} kernel {k}: recorded decision diverges from the model"
            );
        }
    }
    assert_eq!(
        report.transitions, transitions,
        "pipeline transitions diverge from the model replay"
    );

    // A probe failure must restart the cooldown: the model (verified
    // identical above) says the kernel's next decision after a
    // HalfOpen → Open transition is a Skip, never an immediate re-probe.
    let kernel_index = |name: &str| PRIMARY_KERNELS.iter().position(|k| *k == name).unwrap();
    for &(seq, kernel, from, to) in &report.transitions {
        if from == BreakerState::HalfOpen && to == BreakerState::Open {
            let k = kernel_index(kernel);
            if let Some(d) = decisions.get(seq as usize + 1) {
                assert_eq!(
                    d[k],
                    Decision::Skip,
                    "probe failure at seq {seq} must re-enter cooldown"
                );
            }
        }
    }

    // The trace counters agree with the transition stream.
    let count_to = |to: BreakerState| {
        report
            .transitions
            .iter()
            .filter(|&&(_, _, _, t)| t == to)
            .count() as u64
    };
    assert_eq!(
        report.trace.counter("resil.breaker.trips"),
        count_to(BreakerState::Open)
    );
    assert_eq!(
        report.trace.counter("resil.breaker.probes"),
        count_to(BreakerState::HalfOpen)
    );
    assert_eq!(
        report.trace.counter("resil.breaker.recoveries"),
        count_to(BreakerState::Closed)
    );

    // And the half-open arc is worker-count independent: a pooled run
    // commits in the same input order, so its decision stream — probes
    // included — is byte-identical to the serial run's.
    let pooled = resilient::run_soak(&cfg_for(seed, 4), &set).unwrap();
    assert_eq!(pooled.transitions, report.transitions);
    assert_eq!(pooled.entries, report.entries);
    assert_eq!(pooled.digest, report.digest);
}

#[test]
fn a_format_slot_soaks_deterministically_and_survives_resume() {
    let set = suite();
    let with_format = |jobs| {
        let mut cfg = chaos_cfg(jobs);
        cfg.run.format = Some(hism_stm::dsab::FormatSel::Auto);
        cfg
    };

    // The third slot is part of the deterministic entry stream: same
    // digest at any worker count, different digest from a two-slot run.
    let solo = resilient::run_soak(&with_format(1), &set).unwrap();
    let pooled = resilient::run_soak(&with_format(4), &set).unwrap();
    assert_eq!(
        solo.digest, pooled.digest,
        "format digest depends on --jobs"
    );
    assert_eq!(solo.entries, pooled.entries);
    assert!(solo.entries.iter().all(|e| e.slots.len() == 3));
    let plain = resilient::run_soak(&chaos_cfg(1), &set).unwrap();
    assert_ne!(
        solo.digest, plain.digest,
        "the slot must land in the digest"
    );

    // Live results carry the resolved format leg with its decision.
    for (_, r) in &solo.live {
        let leg = r.format.as_ref().expect("live entries carry the leg");
        assert_eq!(leg.selection.name(), "auto");
        let d = leg.decision.as_ref().expect("auto records its decision");
        assert_eq!(d.chosen, leg.kind);
    }

    // A format-less checkpoint cannot resume a format run: the slot
    // changes the fingerprint.
    let ckpt = tmp_path("format.ckpt");
    let mut killed_cfg = chaos_cfg(1);
    killed_cfg.checkpoint = Some(ckpt.clone());
    killed_cfg.stop_after = Some(2);
    resilient::run_soak(&killed_cfg, &set).unwrap();
    let mut mismatched = with_format(1);
    mismatched.checkpoint = Some(ckpt.clone());
    let err = resilient::run_soak(&mismatched, &set).unwrap_err();
    assert!(err.contains("fingerprint"), "{err}");
    let _ = std::fs::remove_file(&ckpt);

    // And a kill/resume pair with the slot reproduces the digest.
    let mut killed_cfg = with_format(4);
    killed_cfg.checkpoint = Some(ckpt.clone());
    killed_cfg.stop_after = Some(3);
    let killed = resilient::run_soak(&killed_cfg, &set).unwrap();
    assert!(killed.halted);
    let mut resumed_cfg = with_format(1);
    resumed_cfg.checkpoint = Some(ckpt.clone());
    let resumed = resilient::run_soak(&resumed_cfg, &set).unwrap();
    assert_eq!(resumed.resumed, 3);
    assert_eq!(resumed.digest, solo.digest, "format resume diverged");
    let _ = std::fs::remove_file(&ckpt);
}
