//! The resilient soak pipeline: bounded work queue with backpressure,
//! per-run deadlines, circuit-breaker fallback, retry with backoff, and
//! checkpoint/resume.
//!
//! [`run_soak`] pushes a suite through the registry's primary transpose
//! kernels (`transpose_hism`, `transpose_crs`) the way a long soak run
//! would: items are dispatched to `jobs` workers through a bounded
//! window of `queue_depth` in-flight items, every run is guarded by the
//! engine's cycle-budget watchdog ([`SoakConfig::deadline`]), failures
//! retry with deterministic exponential backoff, a per-kernel circuit
//! breaker sheds load onto the registry fallbacks
//! (`registry::fallback_for`) when a kernel fails repeatedly, and every
//! committed result is checkpointed so an interrupted soak resumes
//! without recomputing.
//!
//! ## Determinism
//!
//! The pipeline's observable results — every [`EntryRecord`], the
//! breaker decision stream, and therefore the final report
//! [`SoakReport::digest`] — are a pure function of the configuration and
//! the suite, independent of the worker count and of kill/resume
//! boundaries. The two mechanisms that make this true:
//!
//! * **in-order commit**: workers execute concurrently but results fold
//!   into breakers, records, counters and the checkpoint strictly in
//!   input order;
//! * **decision lag**: the breaker decision for item `i + W` (`W` =
//!   `queue_depth`) is computed when item `i` commits, and the first `W`
//!   decisions come from the initial state — so no decision can depend
//!   on which worker finished first (see [`breaker`]).
//!
//! Chaos faults, retry counts and backoff delays are all seeded; nothing
//! reads the wall clock.

pub mod backoff;
pub mod breaker;
pub mod checkpoint;
pub mod reference;

pub use backoff::RetryPolicy;
pub use breaker::{Breaker, BreakerConfig, BreakerState, Decision, Outcome, Transition};
pub use checkpoint::{
    digest, Checkpoint, EntryRecord, EntryStatus, FallbackRecord, SlotRecord, VerifyRecord, SCHEMA,
    SCHEMA_V1,
};

use crate::harness::{
    attempt, attempt_with_retry, resolve_format, FaultSpec, FormatLeg, MatrixResult, RunConfig,
    RunStatus,
};
use crate::trace::export_trace;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Condvar, Mutex};
use stm_core::kernels::registry::{self, KernelError, KernelFailure, KernelReport, Oracle, Stage};
use stm_dsab::SuiteEntry;
use stm_hism::FaultClass;
use stm_obs::{Category, Lane, Recorder, TraceData};
use stm_sparse::hash::{Fnv1a, FNV_OFFSET};
use stm_sparse::rng::StdRng;

/// The primary kernels the soak pipeline exercises per matrix — the
/// paper's experiment shape. Each has a registry fallback
/// ([`registry::fallback_for`]) for graceful degradation.
pub const PRIMARY_KERNELS: [&str; 2] = ["transpose_hism", "transpose_crs"];

/// Chaos-soak fault injection: each suite item independently draws
/// against `rate_pct` from a stream seeded by `(seed, index)`; a hit
/// corrupts the *primary* kernels of that item (fallbacks run trusted)
/// with a uniformly chosen [`FaultClass`]. Purely seed-determined, so a
/// resumed run re-derives the same hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosSpec {
    /// Injection probability per item, in percent (`0..=100`).
    pub rate_pct: u32,
    /// Seed of the per-item draw stream.
    pub seed: u64,
}

/// Mid-run silent-data-corruption injection: each suite item draws
/// against `rate_pct` (independently of [`ChaosSpec`]); a hit arms a
/// seeded [`FaultClass::MidRunBitFlip`] on the item's primary kernels —
/// a single bit of simulated memory flipped *during* the run, after
/// every input check has passed. Unlike chaos faults, the corruption is
/// silent by construction: no typed error fires, and only the
/// cross-execution digest comparison of [`VerifyMode::Dual`]/
/// [`VerifyMode::Vote`] (or the harness oracle, which production soaks
/// run without) can see it. Purely seed-determined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SdcSpec {
    /// Injection probability per item, in percent (`0..=100`).
    pub rate_pct: u32,
    /// Seed of the per-item draw stream.
    pub seed: u64,
}

/// Output-integrity verification tier for successful primary runs —
/// the `--verify-mode` knob of `stmsoak` (and the serve pipeline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyMode {
    /// Trust the primary's output as-is.
    #[default]
    Off,
    /// Re-verify the output artifact's own checksums (HiSM image section
    /// seals). Catches at-rest corruption of the artifact, but **not**
    /// mid-run SDC: the output is sealed *after* the run, so a flip that
    /// lands before sealing is checksummed over. The documented blind
    /// tier — [`VerifyMode::Dual`]/[`VerifyMode::Vote`] exist because of
    /// it.
    Checksum,
    /// Check against one alternate leg by format-independent canonical
    /// digests; on disagreement escalate to the third leg and let the
    /// 2-of-3 majority decide.
    Dual,
    /// Check against both alternate legs up front: 2-of-3 majority
    /// voting across the simulator / scalar-host / reference legs.
    Vote,
}

impl VerifyMode {
    /// Stable lowercase name (`off`/`checksum`/`dual`/`vote`).
    pub fn name(self) -> &'static str {
        match self {
            VerifyMode::Off => "off",
            VerifyMode::Checksum => "checksum",
            VerifyMode::Dual => "dual",
            VerifyMode::Vote => "vote",
        }
    }

    /// Parses [`VerifyMode::name`] output.
    pub fn from_name(name: &str) -> Option<VerifyMode> {
        match name {
            "off" => Some(VerifyMode::Off),
            "checksum" => Some(VerifyMode::Checksum),
            "dual" => Some(VerifyMode::Dual),
            "vote" => Some(VerifyMode::Vote),
            _ => None,
        }
    }
}

/// Configuration of one soak run.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// The underlying harness configuration (machine, timing, verify,
    /// `jobs`). `run.fault`, `run.strict`, `run.trace`
    /// and `run.format` are ignored — chaos, retry, tracing and the
    /// format slot are governed by the soak fields below.
    pub run: RunConfig,
    /// Per-run cycle budget enforced by the engine's watchdog
    /// ([`stm_vpsim::VpConfig::cycle_budget`]); a run that exceeds it
    /// aborts with the typed [`KernelError::DeadlineExceeded`].
    pub deadline: Option<u64>,
    /// Bounded-queue capacity `W`: at most `W` items are dispatched but
    /// uncommitted at any moment (backpressure), and `W` is also the
    /// breaker decision lag (see module docs). Must be ≥ 1.
    pub queue_depth: usize,
    /// Circuit-breaker tuning (shared by every per-kernel breaker).
    pub breaker: BreakerConfig,
    /// Retry/backoff tuning.
    pub retry: RetryPolicy,
    /// Chaos-soak fault injection; `None` soaks clean.
    pub chaos: Option<ChaosSpec>,
    /// Checkpoint file: loaded (resume) when present, rewritten
    /// atomically after every commit.
    pub checkpoint: Option<PathBuf>,
    /// Directory for the pipeline's `resil`-lane trace export.
    pub trace: Option<PathBuf>,
    /// Stop (cleanly, checkpoint intact) once this many items have
    /// committed — the test/CI hook that simulates a mid-stream kill.
    pub stop_after: Option<usize>,
    /// Storage-format selection (`--format` in `stmsoak`). When set,
    /// every item runs a third slot: the selected format's transpose
    /// kernel (resolved per matrix for `auto`). The slot shares the
    /// deadline, chaos injection, retry policy and registry fallback of
    /// the primaries but has no circuit breaker — it is always
    /// attempted. Changes the checkpoint fingerprint and the report
    /// digest (the entry stream gains a slot).
    pub format: Option<stm_dsab::FormatSel>,
    /// Output-integrity verification tier for successful primaries
    /// (`--verify-mode` in `stmsoak`). Non-[`VerifyMode::Off`] values
    /// change the checkpoint fingerprint and the report digest (slots
    /// gain verification fields).
    pub verify_mode: VerifyMode,
    /// Mid-run silent-data-corruption injection; `None` injects nothing.
    /// Changes the fingerprint when set.
    pub sdc: Option<SdcSpec>,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            run: RunConfig::default(),
            deadline: None,
            queue_depth: 8,
            breaker: BreakerConfig::default(),
            retry: RetryPolicy::default(),
            chaos: None,
            checkpoint: None,
            trace: None,
            stop_after: None,
            format: None,
            verify_mode: VerifyMode::Off,
            sdc: None,
        }
    }
}

/// FNV-1a of `bytes`, resuming from state `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::with_state(h);
    h.bytes(bytes);
    h.finish()
}

impl SoakConfig {
    /// Fingerprint binding a checkpoint to everything that shapes the
    /// result stream: the suite, machine/timing configuration, execution
    /// backend, deadline, queue depth, breaker, retry and chaos tuning.
    /// Deliberately excludes `run.jobs` — a checkpoint may be resumed
    /// with a different worker count.
    pub fn fingerprint(&self, set: &[SuiteEntry]) -> u64 {
        let mut h = fnv1a(FNV_OFFSET, b"soak/v1");
        for e in set {
            h = fnv1a(h, e.name.as_bytes());
            h = fnv1a(h, b"|");
        }
        let cfg = format!(
            "vp={:?}|stm={:?}|timing={}|verify={}|deadline={:?}|W={}|breaker={:?}|retry={:?}|chaos={:?}",
            self.run.vp,
            self.run.stm,
            self.run.timing.name(),
            self.run.verify,
            self.deadline,
            self.queue_depth,
            self.breaker,
            self.retry,
            self.chaos,
        );
        let h = fnv1a(h, cfg.as_bytes());
        // Appended (rather than folded into `cfg`) so format-less
        // checkpoints keep their pre-format fingerprints.
        let h = match self.format {
            Some(sel) => fnv1a(h, format!("|format={}", sel.name()).as_bytes()),
            None => h,
        };
        // Same append-only treatment for the execution backend: a host
        // run produces the same digests but different cycle numbers, so
        // resuming a sim checkpoint under `--backend scalar` (or vice
        // versa) must refuse; default-backend checkpoints keep their
        // pre-backend fingerprints.
        let h = match self.run.backend {
            registry::Backend::Sim => h,
            b => fnv1a(h, format!("|backend={}", b.name()).as_bytes()),
        };
        // The integrity plane follows the same append-only convention:
        // runs without it keep their pre-integrity fingerprints.
        let h = match self.verify_mode {
            VerifyMode::Off => h,
            m => fnv1a(h, format!("|verify_mode={}", m.name()).as_bytes()),
        };
        match self.sdc {
            None => h,
            Some(s) => fnv1a(h, format!("|sdc={},{}", s.rate_pct, s.seed).as_bytes()),
        }
    }

    /// The harness configuration actually used per attempt: the soak
    /// deadline becomes the engine cycle budget, and the harness's own
    /// fault/retry/trace features are disabled (the pipeline owns them).
    fn effective_run(&self) -> RunConfig {
        let mut run = self.run.clone();
        run.vp.cycle_budget = self.deadline;
        run.fault = None;
        run.strict = false;
        run.trace = None;
        run.format = None;
        run
    }
}

/// The per-item chaos draw: `None` for a clean item, or the fault spec
/// to inject into the item's primary kernels. Pure in `(spec, index)`.
pub fn chaos_fault(chaos: Option<&ChaosSpec>, index: usize) -> Option<FaultSpec> {
    let spec = chaos?;
    if spec.rate_pct == 0 {
        return None;
    }
    let mut rng =
        StdRng::seed_from_u64(spec.seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    if rng.gen_range(0..100usize) >= spec.rate_pct as usize {
        return None;
    }
    let class = FaultClass::ALL[rng.gen_range(0..FaultClass::ALL.len())];
    Some(FaultSpec {
        index,
        class,
        seed: rng.next_u64(),
    })
}

/// The per-item SDC draw: `None` for a clean item, or a
/// [`FaultClass::MidRunBitFlip`] spec to arm on the item's primary
/// kernels. Pure in `(spec, index)`; the draw stream is independent of
/// [`chaos_fault`]'s. An SDC hit takes precedence over a chaos hit on
/// the same item.
pub fn sdc_fault(sdc: Option<&SdcSpec>, index: usize) -> Option<FaultSpec> {
    let spec = sdc?;
    if spec.rate_pct == 0 {
        return None;
    }
    let mut rng = StdRng::seed_from_u64(
        spec.seed ^ 0x5dc0_11ec ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
    );
    if rng.gen_range(0..100usize) >= spec.rate_pct as usize {
        return None;
    }
    Some(FaultSpec {
        index,
        class: FaultClass::MidRunBitFlip,
        seed: rng.next_u64(),
    })
}

/// Completed soak run.
#[derive(Debug)]
pub struct SoakReport {
    /// One record per committed item, in input order — the canonical
    /// result stream ([`EntryRecord::canonical_line`] is what the digest
    /// and the checkpoint serialize).
    pub entries: Vec<EntryRecord>,
    /// FNV-1a digest over the canonical entry stream
    /// ([`checkpoint::digest`]). Identical across worker counts and
    /// kill/resume boundaries.
    pub digest: u64,
    /// How many leading entries were restored from a checkpoint rather
    /// than recomputed.
    pub resumed: usize,
    /// `true` when [`SoakConfig::stop_after`] ended the run before the
    /// suite was exhausted.
    pub halted: bool,
    /// Full harness results for the entries *executed in this process*
    /// (restored entries carry only their [`EntryRecord`]), keyed by
    /// suite index. Degradations surface here as
    /// [`RunStatus::Degraded`].
    pub live: Vec<(usize, MatrixResult)>,
    /// Every breaker state transition, as
    /// `(commit sequence, kernel, from, to)`.
    pub transitions: Vec<(u64, &'static str, BreakerState, BreakerState)>,
    /// The pipeline's `resil`-lane trace (queue-depth samples, breaker
    /// transitions, retry/degradation instants, `resil.*` counters).
    pub trace: TraceData,
}

impl SoakReport {
    /// Count of entries with the given status.
    pub fn count(&self, status: EntryStatus) -> usize {
        self.entries.iter().filter(|e| e.status == status).count()
    }
}

/// The three legs digests are compared across, in Dual's escalation
/// order: the two executed backends, then the [`reference`] digest
/// (`None`), which is computed from the input COO and shares no kernel
/// code with either.
const VERIFY_LEGS: [(&str, Option<registry::Backend>); 3] = [
    ("sim", Some(registry::Backend::Sim)),
    ("scalar", Some(registry::Backend::Scalar)),
    ("reference", None),
];

/// The leg name the configured backend executes as.
fn backend_leg(b: registry::Backend) -> &'static str {
    match b {
        registry::Backend::Sim => "sim",
        registry::Backend::Scalar | registry::Backend::Simd => "scalar",
    }
}

/// One verification leg's result: the executed leg's report (`None` for
/// the reference, which yields only a digest) and the canonical digest.
type LegResult = Option<(Option<KernelReport>, u64)>;

/// Integrity verification of one successful primary attempt.
///
/// * [`VerifyMode::Checksum`] re-verifies the output artifact's own
///   section seals (HiSM images only — the other output formats carry no
///   at-rest checksums, so their slots record no verification). Cheap,
///   but blind to mid-run SDC by design: the seal is computed *after*
///   the run, so a flip that lands before sealing is checksummed over.
/// * [`VerifyMode::Dual`] / [`VerifyMode::Vote`] compare the primary's
///   format-independent canonical digest against the other two of
///   [`VERIFY_LEGS`]: the other backend, re-executed with **no** fault
///   injection, and the reference digest. Dual checks one alternate and
///   escalates to the third leg only on disagreement (sim → scalar →
///   reference); Vote checks both up front. Either way the verdict is
///   2-of-3: a primary confirmed by any independent leg is clean; a
///   primary outvoted by two agreeing legs (or one whose output does not
///   even decode) is corrupted, and the report of the executed leg in
///   the agreeing pair is adopted as the recovery. A 1-vs-1 tie — one
///   leg erred, the other merely disagrees — convicts nobody: no
///   majority, no verdict.
///
/// Returns `None` for [`VerifyMode::Off`], for Checksum on non-HiSM
/// outputs, and for Dual/Vote on kernels without a host implementation
/// (a single execution substrate has no independent leg).
fn verify_primary(
    run: &RunConfig,
    entry: &SuiteEntry,
    oracle: &Oracle,
    kernel: &'static str,
    mode: VerifyMode,
    primary: &KernelReport,
) -> Option<VerifyExec> {
    // The digest that gets quarantined when the verdict is corrupted:
    // canonical when the output still decodes, its format-level digest
    // otherwise (an undecodable image has no canonical form).
    let quarantine = |canonical: Option<u64>| canonical.unwrap_or(primary.output_digest);
    match mode {
        VerifyMode::Off => None,
        VerifyMode::Checksum => {
            let img = primary.output.as_hism()?;
            let corrupted = img.verify_integrity().is_err();
            Some(VerifyExec {
                mode,
                legs: Vec::new(),
                corrupted,
                quarantined: if corrupted {
                    quarantine(img.canonical_digest())
                } else {
                    0
                },
                recovery: None,
                digest: None,
            })
        }
        VerifyMode::Dual | VerifyMode::Vote => {
            if !registry::host_capable(kernel) {
                return None;
            }
            let primary_leg = backend_leg(run.backend);
            let alternates: Vec<(&'static str, Option<registry::Backend>)> = VERIFY_LEGS
                .iter()
                .copied()
                .filter(|(name, _)| *name != primary_leg)
                .collect();
            let primary_digest = primary.output.canonical_digest();
            let run_leg = |(name, backend): (&'static str, Option<registry::Backend>)| {
                let result: LegResult = match backend {
                    Some(backend) => {
                        let mut alt = run.clone();
                        alt.backend = backend;
                        attempt(&alt, kernel, entry, oracle, None, &Recorder::disabled())
                            .ok()
                            .and_then(|r| r.output.canonical_digest().map(|d| (Some(r), d)))
                    }
                    None => reference::digest(kernel, &entry.coo, &run.ctx()).map(|d| (None, d)),
                };
                (name, result)
            };
            let mut legs: Vec<&'static str> = Vec::new();
            let mut results: Vec<(&'static str, LegResult)> = Vec::new();
            let upfront = if mode == VerifyMode::Vote { 2 } else { 1 };
            for &alt in alternates.iter().take(upfront) {
                legs.push(alt.0);
                results.push(run_leg(alt));
            }
            let confirmed = |results: &[(&'static str, LegResult)]| {
                primary_digest.is_some_and(|rf| {
                    results
                        .iter()
                        .any(|(_, r)| matches!(r, Some((_, d)) if *d == rf))
                })
            };
            if mode == VerifyMode::Dual && !confirmed(&results) {
                // Disagreement (or an undecodable primary): escalate to
                // the third leg and let the majority decide.
                let alt = alternates[1];
                legs.push(alt.0);
                results.push(run_leg(alt));
            }
            if confirmed(&results) {
                return Some(VerifyExec {
                    mode,
                    legs,
                    corrupted: false,
                    quarantined: 0,
                    recovery: None,
                    digest: primary_digest,
                });
            }
            // No independent leg reproduces the primary's digest. A
            // conviction needs a majority: the two other legs agreeing
            // with each other, or a primary output that does not decode
            // at all (provably broken on its own). The reference leg has
            // no report, so the executed leg of the pair is served.
            let majority = match results.as_slice() {
                [(n1, Some((r1, d1))), (n2, Some((r2, d2)))] if d1 == d2 => [(*n1, r1), (*n2, r2)]
                    .into_iter()
                    .find_map(|(n, r)| r.clone().map(|r| (n, r, *d1))),
                _ => None,
            };
            let corrupted = primary_digest.is_none() || majority.is_some();
            // Without a majority either the primary is served, or it did
            // not decode and the fallback, which nothing here digested, is.
            let (recovery, digest) = match majority {
                Some((n, r, d)) => (Some((n, r)), Some(d)),
                None => (None, primary_digest),
            };
            Some(VerifyExec {
                mode,
                legs,
                corrupted,
                quarantined: if corrupted {
                    quarantine(primary_digest)
                } else {
                    0
                },
                recovery,
                digest,
            })
        }
    }
}

/// Outcome of the integrity verification of one *successful* primary.
struct VerifyExec {
    mode: VerifyMode,
    /// Verification legs actually checked, by name.
    legs: Vec<&'static str>,
    /// The verdict: the primary's output is provably wrong (digest
    /// outvoted, or its own artifact checksums failed).
    corrupted: bool,
    /// The quarantined primary digest (canonical when the output still
    /// decodes, else its format-level digest) — recorded, never served.
    quarantined: u64,
    /// The agreeing leg whose report is served in the primary's place,
    /// when the majority produced one.
    recovery: Option<(&'static str, KernelReport)>,
    /// The canonical digest of the report verification vouches for —
    /// the primary's when it is served, the recovery's when one is —
    /// when verification computed it.
    digest: Option<u64>,
}

/// One executed primary-kernel slot (plus its verification legs and its
/// fallback, when taken).
struct SlotExec {
    kernel: &'static str,
    decision: Decision,
    /// `None` when the breaker skipped the primary.
    primary: Option<Result<KernelReport, KernelFailure>>,
    attempts: u64,
    /// Integrity verification of a successful primary — `None` when the
    /// mode is [`VerifyMode::Off`], the primary did not succeed, or the
    /// kernel has a single leg (nothing to compare against).
    verify: Option<VerifyExec>,
    fallback: Option<(&'static str, Result<KernelReport, KernelFailure>)>,
}

impl SlotExec {
    fn outcome(&self) -> Outcome {
        match &self.primary {
            None => Outcome::Skipped,
            // A detected SDC feeds the breaker as a failure: a kernel
            // (or backend) that keeps producing outvoted digests should
            // shed load onto its fallback exactly like one that keeps
            // raising typed errors.
            Some(Ok(_)) if self.corrupted() => Outcome::Failure,
            Some(Ok(_)) => Outcome::Success,
            Some(Err(_)) => Outcome::Failure,
        }
    }

    fn corrupted(&self) -> bool {
        self.verify.as_ref().is_some_and(|v| v.corrupted)
    }

    fn record(&self) -> SlotRecord {
        let (cycles, stage, error) = match &self.primary {
            Some(Ok(r)) => (r.report.cycles, None, None),
            Some(Err(f)) => (0, Some(f.stage.to_string()), Some(f.error.to_string())),
            None => (0, None, None),
        };
        SlotRecord {
            kernel: self.kernel.to_string(),
            decision: self.decision,
            outcome: self.outcome(),
            attempts: self.attempts,
            cycles,
            stage,
            error,
            digest: self.served_digest().unwrap_or(0),
            verify: self.verify.as_ref().map(|v| checkpoint::VerifyRecord {
                mode: v.mode.name().to_string(),
                legs: v.legs.len() as u64,
                corrupted: v.corrupted,
                recovered: v
                    .recovery
                    .as_ref()
                    .map(|(leg, _)| (*leg).to_string())
                    .unwrap_or_default(),
            }),
            fallback: self.fallback.as_ref().map(|(k, r)| match r {
                Ok(rep) => FallbackRecord {
                    kernel: (*k).to_string(),
                    ok: true,
                    cycles: rep.report.cycles,
                    error: None,
                },
                Err(f) => FallbackRecord {
                    kernel: (*k).to_string(),
                    ok: false,
                    cycles: 0,
                    error: Some(f.error.to_string()),
                },
            }),
        }
    }

    /// The canonical digest of [`SlotExec::verified`]'s report: the one
    /// verification computed when it vouches for that report, computed
    /// here otherwise.
    fn served_digest(&self) -> Option<u64> {
        self.verify
            .as_ref()
            .and_then(|v| v.digest)
            .or_else(|| self.verified()?.output.canonical_digest())
    }

    /// The trusted report for this slot, from whichever execution
    /// produced one: the primary when its output survived verification,
    /// the majority leg adopted in its place when it did not, else the
    /// registry fallback.
    fn verified(&self) -> Option<&KernelReport> {
        if let Some(v) = &self.verify {
            if v.corrupted {
                return v
                    .recovery
                    .as_ref()
                    .map(|(_, r)| r)
                    .or(match &self.fallback {
                        Some((_, Ok(r))) => Some(r),
                        _ => None,
                    });
            }
        }
        match &self.primary {
            Some(Ok(r)) => Some(r),
            _ => match &self.fallback {
                Some((_, Ok(r))) => Some(r),
                _ => None,
            },
        }
    }
}

/// Terminal [`EntryStatus`] of a committed entry's slots. A detected
/// SDC outranks everything: an entry that served a wrong-then-recovered
/// (or unrecoverable) result is `Corrupted` even if every other slot is
/// clean — integrity events must never be absorbed into `Degraded`.
fn entry_status(slots: &[SlotRecord]) -> EntryStatus {
    if slots
        .iter()
        .any(|s| s.verify.as_ref().is_some_and(|v| v.corrupted))
    {
        return EntryStatus::Corrupted;
    }
    let mut degraded = false;
    for s in slots {
        let rescued = s.fallback.as_ref().is_some_and(|f| f.ok);
        match s.outcome {
            Outcome::Success => {}
            Outcome::Failure | Outcome::Skipped => {
                if rescued {
                    degraded = true;
                } else {
                    return EntryStatus::Failed;
                }
            }
        }
    }
    if degraded {
        EntryStatus::Degraded
    } else {
        EntryStatus::Ok
    }
}

/// [`RunStatus`] of a live (executed-in-process) entry, with full typed
/// failures. Precedence: any corrupted slot ⇒ `Corrupted`, else any
/// unrescued slot ⇒ `Failed`, else any rescued slot ⇒ `Degraded`, else
/// `Ok`.
fn live_status(slots: &[SlotExec]) -> RunStatus {
    for s in slots {
        if let Some(v) = &s.verify {
            if v.corrupted {
                return RunStatus::Corrupted {
                    kernel: s.kernel.to_string(),
                    quarantined: v.quarantined,
                    served: s.served_digest(),
                    backend: v.recovery.as_ref().map(|(leg, _)| (*leg).to_string()),
                };
            }
        }
    }
    for s in slots {
        if s.verified().is_none() {
            let failure = match (&s.primary, &s.fallback) {
                (Some(Err(f)), _) => f.clone(),
                (_, Some((_, Err(f)))) => f.clone(),
                // Skipped primary with no registered fallback — not
                // reachable for PRIMARY_KERNELS, but keep it typed.
                _ => KernelFailure {
                    kernel: s.kernel.to_string(),
                    stage: Stage::Run,
                    error: KernelError::Corrupt(
                        "breaker open and no fallback registered".to_string(),
                    ),
                },
            };
            return RunStatus::Failed(failure);
        }
    }
    for s in slots {
        if let Some((fb, Ok(_))) = &s.fallback {
            if !matches!(&s.primary, Some(Ok(_))) {
                return RunStatus::Degraded {
                    kernel: s.kernel.to_string(),
                    fallback: fb,
                    failure: match &s.primary {
                        Some(Err(f)) => Some(f.clone()),
                        _ => None,
                    },
                };
            }
        }
    }
    RunStatus::Ok
}

/// Static trace-event name for a breaker transition (event names are
/// `&'static str` throughout the obs layer).
fn transition_event_name(kernel: &str, to: BreakerState) -> &'static str {
    match (kernel, to) {
        ("transpose_hism", BreakerState::Closed) => "breaker.transpose_hism.closed",
        ("transpose_hism", BreakerState::Open) => "breaker.transpose_hism.open",
        ("transpose_hism", BreakerState::HalfOpen) => "breaker.transpose_hism.half_open",
        ("transpose_crs", BreakerState::Closed) => "breaker.transpose_crs.closed",
        ("transpose_crs", BreakerState::Open) => "breaker.transpose_crs.open",
        ("transpose_crs", BreakerState::HalfOpen) => "breaker.transpose_crs.half_open",
        (_, to) => match to {
            BreakerState::Closed => "breaker.closed",
            BreakerState::Open => "breaker.open",
            BreakerState::HalfOpen => "breaker.half_open",
        },
    }
}

/// Everything the committer mutates, under one mutex.
struct Shared {
    /// Next item index to dispatch.
    next: usize,
    /// Items committed so far (entries `0..committed` are final).
    committed: usize,
    /// Dispatched but not yet folded back (queue-depth sample value).
    in_flight: usize,
    /// `stop_after` tripped: stop dispatching, drop uncommitted work.
    halted: bool,
    /// Per-item breaker decisions, one slot per primary kernel;
    /// `decisions[i]` exists before item `i` can be dispatched.
    decisions: Vec<Vec<Decision>>,
    /// Out-of-order results parked until their turn to commit.
    pending: BTreeMap<usize, Vec<SlotExec>>,
    breakers: Vec<Breaker>,
    entries: Vec<EntryRecord>,
    live: Vec<(usize, MatrixResult)>,
    transitions: Vec<(u64, &'static str, BreakerState, BreakerState)>,
    /// First checkpoint-write error, if any (fails the run at the end).
    io_error: Option<String>,
}

impl Shared {
    /// Issues the breaker decisions for item `i`, in input order.
    fn issue_decisions(&mut self, i: usize, seq: u64) {
        debug_assert_eq!(self.decisions.len(), i);
        let d = self.breakers.iter_mut().map(|b| b.decide(seq)).collect();
        self.decisions.push(d);
    }

    fn drain_transitions(&mut self, rec: &Recorder) {
        for (k, breaker) in self.breakers.iter_mut().enumerate() {
            let kernel = PRIMARY_KERNELS[k];
            for (seq, from, to) in breaker.drain_transitions() {
                rec.instant(
                    Lane::Resil,
                    Category::Resil,
                    transition_event_name(kernel, to),
                    seq,
                );
                rec.add(
                    match to {
                        BreakerState::Open => "resil.breaker.trips",
                        BreakerState::HalfOpen => "resil.breaker.probes",
                        BreakerState::Closed => "resil.breaker.recoveries",
                    },
                    1,
                );
                self.transitions.push((seq, kernel, from, to));
            }
        }
    }

    /// Folds one committed entry into breakers, counters and records —
    /// identical for live and replayed (restored) entries, which is what
    /// keeps counters and transition streams equal across resume
    /// boundaries.
    fn fold_commit(
        &mut self,
        rec: &Recorder,
        entry: &EntryRecord,
        chaos_hit: bool,
        sdc_hit: bool,
        n: usize,
        w: usize,
    ) {
        let i = self.committed;
        let seq = i as u64;
        if chaos_hit {
            rec.add("resil.chaos.injected", 1);
        }
        if sdc_hit {
            rec.add("resil.sdc.injected", 1);
        }
        for (k, slot) in entry.slots.iter().enumerate() {
            // Only the primary slots feed a breaker; the optional format
            // slot (k ≥ PRIMARY_KERNELS.len()) is always attempted.
            if let Some(b) = self.breakers.get_mut(k) {
                b.commit(slot.decision, slot.outcome, seq);
            }
            if slot.attempts > 1 {
                rec.instant(Lane::Resil, Category::Resil, "resil.retry", seq);
                rec.add("resil.retry.attempts", slot.attempts - 1);
            }
            if let Some(fb) = &slot.fallback {
                rec.add("resil.fallback.runs", 1);
                if fb.ok {
                    rec.add("resil.fallback.rescues", 1);
                }
            }
            // Integrity counters fold from the *record*, so a resumed
            // run replays them identically to a live one.
            if let Some(v) = &slot.verify {
                rec.add("integrity.verify.slots", 1);
                rec.add("integrity.verify.legs", v.legs);
                if v.corrupted {
                    rec.instant(Lane::Resil, Category::Resil, "integrity.sdc.detected", seq);
                    rec.add("integrity.sdc.detected", 1);
                    if v.recovered.is_empty() {
                        rec.add("integrity.sdc.unrecovered", 1);
                    } else {
                        rec.add("integrity.sdc.recovered", 1);
                    }
                }
            }
            if slot
                .error
                .as_deref()
                .is_some_and(|e| e.starts_with("deadline:"))
            {
                rec.add("resil.deadline.exceeded", 1);
            }
        }
        rec.add("resil.items", 1);
        rec.add(
            match entry.status {
                EntryStatus::Ok => "resil.ok",
                EntryStatus::Degraded => "resil.degraded",
                EntryStatus::Failed => "resil.failed",
                EntryStatus::Corrupted => "resil.corrupted",
            },
            1,
        );
        if entry.status == EntryStatus::Degraded {
            rec.instant(Lane::Resil, Category::Resil, "resil.degraded", seq);
        }
        if entry.status == EntryStatus::Corrupted {
            rec.instant(Lane::Resil, Category::Resil, "resil.corrupted", seq);
        }
        self.committed += 1;
        if self.decisions.len() < n && self.decisions.len() < self.committed + w {
            self.issue_decisions(self.decisions.len(), seq);
        }
        self.drain_transitions(rec);
    }
}

/// Static trace-event name for a resilient slot span on the request
/// timeline (event names are `&'static str` throughout the obs layer).
fn slot_span_name(kernel: &str) -> &'static str {
    match kernel {
        "transpose_hism" => "resil.slot.transpose_hism",
        "transpose_crs" => "resil.slot.transpose_crs",
        _ => "resil.slot",
    }
}

/// Folds one *successful* attempt's recording into the request-scoped
/// recorder and advances the request clock past it.
///
/// Only the structural lanes survive — lifecycle stages, algorithm
/// phases and fault instants; the per-instruction lanes (ALU, memory
/// ports, STM) would overflow a long-lived server ring within a handful
/// of requests. Failed attempts are never absorbed: their abandoned
/// spans are unclosed and would corrupt the request tree.
fn absorb_structural(rec: &Recorder, att: &Recorder, clock: &mut u64) {
    if !rec.is_enabled() {
        return;
    }
    let mut data = att.snapshot();
    data.events
        .retain(|e| matches!(e.lane, Lane::Stage | Lane::Phase | Lane::Fault));
    // Any ring drops hit the high-volume instruction lanes the filter
    // removes; the retained structural story is orders of magnitude
    // below the attempt ring's capacity.
    data.dropped = 0;
    rec.absorb(&data, *clock);
    *clock = rec.max_ts().saturating_add(1);
}

/// Runs one primary-kernel slot: the breaker-decided primary attempt
/// loop (with backoff), then integrity verification of a successful
/// primary ([`verify_primary`]), then the registry fallback when the
/// slot still has no trusted result — the primary failed outright, or
/// verification convicted it without producing a majority recovery.
/// Fallbacks run trusted — no chaos injection — but under the same
/// deadline.
///
/// `rec` is the request-scoped recorder (disabled in the soak pipeline,
/// which traces at commit granularity instead): when enabled, the slot
/// records a `resil.slot.*` span plus retry/fallback instants on the
/// `resil` lane, and the *successful* attempt's structural kernel trace
/// is absorbed inside it on the request's own clock.
#[allow(clippy::too_many_arguments)]
fn run_slot(
    run: &RunConfig,
    retry: &RetryPolicy,
    entry: &SuiteEntry,
    index: usize,
    kernel: &'static str,
    decision: Decision,
    fault: Option<&FaultSpec>,
    mode: VerifyMode,
    rec: &Recorder,
) -> SlotExec {
    let traced = rec.is_enabled();
    // The request timeline keeps its own clock: every absorbed attempt
    // is shifted past everything the request has recorded so far.
    let mut clock = rec.max_ts();
    let slot_span =
        traced.then(|| rec.begin(Lane::Resil, Category::Resil, slot_span_name(kernel), clock));
    let attempt_rec = || {
        if traced {
            Recorder::enabled_default().with_ctx(rec.span_ctx())
        } else {
            Recorder::disabled()
        }
    };
    // Every leg of the slot (primary, verify legs, fallback) checks
    // against one host oracle.
    let oracle = Oracle::new(&entry.coo);
    let (primary, attempts) = match decision {
        Decision::Skip => (None, 0),
        Decision::Run | Decision::Probe => {
            let on_retry = || {
                if traced {
                    rec.instant(Lane::Resil, Category::Resil, "resil.retry", clock);
                }
            };
            let key = fnv1a(index as u64, kernel.as_bytes());
            let done = attempt_with_retry(
                run,
                retry,
                key,
                kernel,
                entry,
                &oracle,
                fault,
                attempt_rec,
                on_retry,
            );
            if done.result.is_ok() {
                absorb_structural(rec, &done.rec, &mut clock);
            }
            (Some(done.result), done.attempts)
        }
    };
    let verify = match &primary {
        Some(Ok(r)) => verify_primary(run, entry, &oracle, kernel, mode, r),
        _ => None,
    };
    if traced && verify.as_ref().is_some_and(|v| v.corrupted) {
        rec.instant(
            Lane::Resil,
            Category::Resil,
            "integrity.sdc.detected",
            clock,
        );
    }
    // The slot has a trusted result when the primary succeeded and
    // verification either passed, produced no verdict, or recovered a
    // majority report. Anything else falls back.
    let trusted = matches!(primary, Some(Ok(_)))
        && verify
            .as_ref()
            .is_none_or(|v| !v.corrupted || v.recovery.is_some());
    let fallback = if trusted {
        None
    } else {
        registry::fallback_for(kernel).map(|fb| {
            if traced {
                rec.instant(Lane::Resil, Category::Resil, "resil.fallback", clock);
            }
            // Fallbacks are the trusted leg: they always run on the
            // cycle-accurate simulator, even when the primary ran (and
            // failed) on the host backend.
            let mut sim = run.clone();
            sim.backend = registry::Backend::Sim;
            let att = attempt_rec();
            let result = attempt(&sim, fb, entry, &oracle, None, &att);
            if result.is_ok() {
                absorb_structural(rec, &att, &mut clock);
            }
            (fb, result)
        })
    };
    if let Some(span) = slot_span {
        rec.end(
            Lane::Resil,
            Category::Resil,
            slot_span_name(kernel),
            clock,
            span,
        );
    }
    SlotExec {
        kernel,
        decision,
        primary,
        attempts,
        verify,
        fallback,
    }
}

/// The public outcome of one resilient kernel execution
/// ([`execute_slot`]): what the primary did, whether the registry
/// fallback rescued it, and the verified report from whichever kernel
/// produced one.
#[derive(Debug)]
pub struct SlotOutcome {
    /// The primary kernel the slot was asked to run.
    pub kernel: &'static str,
    /// The breaker decision the slot ran under.
    pub decision: Decision,
    /// What the primary actually did (commit this to the breaker).
    pub outcome: Outcome,
    /// Attempts the primary consumed (0 when skipped).
    pub attempts: u64,
    /// `true` when the primary did not produce the verified result but
    /// the registry fallback did — the graceful-degradation outcome.
    pub degraded: bool,
    /// The fallback kernel, when one was attempted.
    pub fallback: Option<&'static str>,
    /// The verified report, from the primary or the fallback.
    pub report: Option<KernelReport>,
    /// The terminal failure when nothing produced a verified result;
    /// for a degraded slot this is the *primary's* failure (absent when
    /// an open breaker skipped it).
    pub failure: Option<KernelFailure>,
    /// `true` when integrity verification convicted the primary's
    /// output: `report`, if present, came from the majority recovery leg
    /// or the fallback — never from the quarantined primary.
    pub corrupted: bool,
    /// Verification legs checked (0 under [`VerifyMode::Off`],
    /// for checksum-only verification, and for non-host-capable kernels).
    pub verify_legs: u64,
    /// The quarantined primary digest when `corrupted` (0 otherwise).
    pub quarantined: u64,
    /// The verification leg whose report was adopted in the corrupted
    /// primary's place (`None` when recovery came from the fallback or
    /// did not happen).
    pub recovered: Option<&'static str>,
    /// The canonical digest of `report` when verification already
    /// computed it (`None` otherwise; [`SlotOutcome::served_digest`]
    /// then computes it).
    pub digest: Option<u64>,
}

impl SlotOutcome {
    /// The canonical digest of `report` — [`SlotOutcome::digest`] when
    /// verification computed it, else computed from the report. `None`
    /// when there is no report or its image does not decode.
    pub fn served_digest(&self) -> Option<u64> {
        self.digest
            .or_else(|| self.report.as_ref()?.output.canonical_digest())
    }
}

/// Runs one kernel through the full resilient slot path — the
/// breaker-decided primary attempt loop with seeded backoff, then the
/// registry fallback when the primary produced no verified result — and
/// returns the public [`SlotOutcome`].
///
/// This is the single-request face of the soak pipeline's `run_slot`,
/// exported for the `stm-serve` request path: the service holds its own
/// per-kernel [`Breaker`]s, calls [`Breaker::decide`] for a decision,
/// executes through this function, and commits
/// [`SlotOutcome::outcome`] back. `index` only keys the retry-jitter
/// stream (use a request sequence number); `fault` injects a
/// deterministic corruption into the *primary* (fallbacks run trusted)
/// and, like everywhere else in the repo, is never retried. The
/// deadline, if any, is `run.vp.cycle_budget`.
///
/// `rec` is the request-scoped recorder the slot traces into (pass
/// [`Recorder::disabled`] to trace nothing): when enabled, the slot
/// appends a `resil.slot.*` span plus retry/fallback instants and the
/// successful attempt's structural kernel trace, all stamped with the
/// recorder's [`stm_obs::SpanCtx`] request id — the serve → resilient →
/// kernel leg of end-to-end request correlation.
#[allow(clippy::too_many_arguments)]
pub fn execute_slot(
    run: &RunConfig,
    retry: &RetryPolicy,
    entry: &SuiteEntry,
    index: usize,
    kernel: &'static str,
    decision: Decision,
    fault: Option<&FaultSpec>,
    mode: VerifyMode,
    rec: &Recorder,
) -> SlotOutcome {
    let exec = run_slot(run, retry, entry, index, kernel, decision, fault, mode, rec);
    let outcome = exec.outcome();
    let corrupted = exec.corrupted();
    let primary_ok = matches!(exec.primary, Some(Ok(_))) && !corrupted;
    let report = exec.verified().cloned();
    let degraded = !primary_ok && report.is_some();
    let failure = if report.is_some() {
        match (&exec.primary, degraded) {
            (Some(Err(f)), true) => Some(f.clone()),
            _ => None,
        }
    } else {
        match (&exec.primary, &exec.fallback) {
            (Some(Err(f)), _) => Some(f.clone()),
            (_, Some((_, Err(f)))) => Some(f.clone()),
            _ if corrupted => Some(KernelFailure {
                kernel: kernel.to_string(),
                stage: Stage::Verify,
                error: KernelError::Corrupt(
                    "output digest outvoted by independent re-execution".to_string(),
                ),
            }),
            _ => Some(KernelFailure {
                kernel: kernel.to_string(),
                stage: Stage::Run,
                error: KernelError::Corrupt("breaker open and no fallback registered".to_string()),
            }),
        }
    };
    let verify = exec.verify.as_ref();
    SlotOutcome {
        kernel,
        decision,
        outcome,
        attempts: exec.attempts,
        degraded,
        fallback: exec.fallback.as_ref().map(|(k, _)| *k),
        report,
        failure,
        corrupted,
        verify_legs: verify.map_or(0, |v| v.legs.len() as u64),
        quarantined: verify.map_or(0, |v| v.quarantined),
        recovered: verify.and_then(|v| v.recovery.as_ref().map(|(leg, _)| *leg)),
        digest: verify.and_then(|v| v.digest),
    }
}

/// Runs the soak pipeline over `set`. See the module docs for the
/// architecture; returns an error for checkpoint problems (unreadable,
/// wrong fingerprint, inconsistent with the configured breaker stream)
/// or checkpoint-write failures — kernel failures are *data* in the
/// report, never an `Err`.
pub fn run_soak(cfg: &SoakConfig, set: &[SuiteEntry]) -> Result<SoakReport, String> {
    let n = set.len();
    let w = cfg.queue_depth.max(1);
    let fingerprint = cfg.fingerprint(set);
    let run = cfg.effective_run();
    let rec = Recorder::enabled_default();

    let mut shared = Shared {
        next: 0,
        committed: 0,
        in_flight: 0,
        halted: false,
        decisions: Vec::with_capacity(n),
        pending: BTreeMap::new(),
        breakers: PRIMARY_KERNELS
            .iter()
            .map(|_| Breaker::new(cfg.breaker))
            .collect(),
        entries: Vec::with_capacity(n),
        live: Vec::new(),
        transitions: Vec::new(),
        io_error: None,
    };

    // Initial decision window from the breakers' initial state.
    for i in 0..n.min(w) {
        shared.issue_decisions(i, 0);
    }
    shared.drain_transitions(&rec);

    // Resume: replay the checkpointed prefix through the exact commit
    // path (breaker folds, decision issuance, counters, transitions),
    // verifying that the recorded decisions match the replayed stream.
    let mut resumed = 0;
    if let Some(path) = &cfg.checkpoint {
        if path.exists() {
            let ckpt = checkpoint::load(path)?;
            if ckpt.fingerprint != fingerprint {
                return Err(format!(
                    "checkpoint {path:?} was written by a different soak configuration \
                     (fingerprint 0x{:016x}, want 0x{fingerprint:016x})",
                    ckpt.fingerprint
                ));
            }
            if ckpt.entries.len() > n {
                return Err(format!(
                    "checkpoint {path:?} has {} entries but the suite has {n}",
                    ckpt.entries.len()
                ));
            }
            for entry in &ckpt.entries {
                let i = shared.committed;
                for (k, slot) in entry.slots.iter().enumerate() {
                    // The format slot has no breaker stream to replay —
                    // it is recorded as an unconditional run.
                    let Some(&replayed) = shared.decisions[i].get(k) else {
                        continue;
                    };
                    if replayed != slot.decision {
                        return Err(format!(
                            "checkpoint {path:?} entry {i} slot {k}: recorded decision {} \
                             but replay derives {} — stale or foreign checkpoint",
                            slot.decision.name(),
                            replayed.name()
                        ));
                    }
                }
                let sdc_hit = sdc_fault(cfg.sdc.as_ref(), i).is_some();
                let chaos_hit = !sdc_hit && chaos_fault(cfg.chaos.as_ref(), i).is_some();
                shared.fold_commit(&rec, entry, chaos_hit, sdc_hit, n, w);
                shared.entries.push(entry.clone());
            }
            resumed = shared.committed;
            shared.next = resumed;
        }
    }

    let stop_at = cfg.stop_after.unwrap_or(usize::MAX).min(n);
    if shared.committed >= stop_at {
        shared.halted = shared.committed < n;
    }

    let sync = (Mutex::new(shared), Condvar::new());
    let workers = run.worker_count(n.saturating_sub(resumed));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let (lock, cvar) = &sync;
                loop {
                    // Claim the next item, blocking while the bounded
                    // window is full (backpressure).
                    let claimed = {
                        let mut g = lock.lock().unwrap();
                        loop {
                            if g.halted || g.next >= n {
                                break None;
                            }
                            if g.next - g.committed < w {
                                let i = g.next;
                                g.next += 1;
                                g.in_flight += 1;
                                break Some((i, g.decisions[i].clone()));
                            }
                            g = cvar.wait(g).unwrap();
                        }
                    };
                    let Some((i, decisions)) = claimed else {
                        return;
                    };

                    // An SDC hit takes precedence over a chaos hit on
                    // the same item (the draws are independent streams).
                    let fault = sdc_fault(cfg.sdc.as_ref(), i)
                        .or_else(|| chaos_fault(cfg.chaos.as_ref(), i));
                    let mut slots: Vec<SlotExec> = PRIMARY_KERNELS
                        .iter()
                        .zip(&decisions)
                        .map(|(kernel, &decision)| {
                            run_slot(
                                &run,
                                &cfg.retry,
                                &set[i],
                                i,
                                kernel,
                                decision,
                                fault.as_ref(),
                                cfg.verify_mode,
                                &Recorder::disabled(),
                            )
                        })
                        .collect();
                    if let Some(sel) = cfg.format {
                        let (kind, _) = resolve_format(sel, &set[i].metrics);
                        slots.push(run_slot(
                            &run,
                            &cfg.retry,
                            &set[i],
                            i,
                            kind.transpose_kernel(),
                            Decision::Run,
                            fault.as_ref(),
                            cfg.verify_mode,
                            &Recorder::disabled(),
                        ));
                    }

                    let mut g = lock.lock().unwrap();
                    g.in_flight -= 1;
                    g.pending.insert(i, slots);
                    // Commit everything that is now contiguous, in input
                    // order, under the lock — the single place results
                    // become observable.
                    while !g.halted {
                        let next_commit = g.committed;
                        let Some(slots) = g.pending.remove(&next_commit) else {
                            break;
                        };
                        let seq = next_commit as u64;
                        let records: Vec<SlotRecord> = slots.iter().map(SlotExec::record).collect();
                        let entry = EntryRecord {
                            index: seq,
                            name: set[next_commit].name.clone(),
                            status: entry_status(&records),
                            slots: records,
                        };
                        rec.sample(
                            Lane::Resil,
                            "resil.queue.depth",
                            seq,
                            (g.in_flight + g.pending.len()) as f64,
                        );
                        rec.observe("resil.queue.depth", (g.in_flight + g.pending.len()) as u64);
                        let sdc_hit = sdc_fault(cfg.sdc.as_ref(), next_commit).is_some();
                        let chaos_hit =
                            !sdc_hit && chaos_fault(cfg.chaos.as_ref(), next_commit).is_some();
                        g.fold_commit(&rec, &entry, chaos_hit, sdc_hit, n, w);
                        let hism = slots[0].verified().map(|r| r.report.clone());
                        let crs = slots[1].verified().map(|r| r.report.clone());
                        let format = cfg.format.map(|sel| {
                            let (kind, decision) = resolve_format(sel, &set[next_commit].metrics);
                            FormatLeg {
                                selection: sel,
                                kind,
                                kernel: kind.transpose_kernel(),
                                decision,
                                report: slots
                                    .get(PRIMARY_KERNELS.len())
                                    .and_then(SlotExec::verified)
                                    .map(|r| r.report.clone()),
                            }
                        });
                        g.live.push((
                            next_commit,
                            MatrixResult {
                                name: entry.name.clone(),
                                metrics: set[next_commit].metrics,
                                hism,
                                crs,
                                format,
                                status: live_status(&slots),
                                traces: Vec::new(),
                            },
                        ));
                        g.entries.push(entry);
                        if let Some(path) = &cfg.checkpoint {
                            if let Err(e) = checkpoint::save(path, fingerprint, &g.entries) {
                                if g.io_error.is_none() {
                                    g.io_error = Some(format!("checkpoint write {path:?}: {e}"));
                                }
                                g.halted = true;
                            }
                        }
                        if g.committed >= stop_at && g.committed < n {
                            g.halted = true;
                        }
                    }
                    cvar.notify_all();
                }
            });
        }
    });

    let shared = sync.0.into_inner().unwrap();
    if let Some(e) = shared.io_error {
        return Err(e);
    }
    let digest = checkpoint::digest(&shared.entries);
    let report = SoakReport {
        digest,
        resumed,
        halted: shared.halted,
        live: shared.live,
        transitions: shared.transitions,
        entries: shared.entries,
        trace: rec.snapshot(),
    };
    if let Some(dir) = &cfg.trace {
        export_soak_trace(dir, &report).map_err(|e| format!("trace export {dir:?}: {e}"))?;
    }
    Ok(report)
}

/// Exports the soak report's `resil` trace into `dir` (stem
/// `soak.resil`) via the standard trace exporter; returns the exporter's
/// summary line. Used by the `stmsoak` bin and the soak tests.
pub fn export_soak_trace(dir: &std::path::Path, report: &SoakReport) -> std::io::Result<String> {
    export_trace(dir, "soak", "resil", &report.trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_sparse::MatrixMetrics;

    /// A matrix whose HiSM image has several levels, so every fault
    /// class can be hosted.
    fn entry() -> SuiteEntry {
        let coo = stm_sparse::gen::random::uniform(128, 128, 2048, 0xFA017);
        SuiteEntry {
            name: "uniform-128".into(),
            metrics: MatrixMetrics::compute(&coo),
            coo,
        }
    }

    /// Runs one `transpose_hism` slot with the harness oracle off (so
    /// only the verify tier judges the primary) and checks that the
    /// digest the slot carries out — [`SlotOutcome::digest`] when set,
    /// [`SlotOutcome::served_digest`] and the soak record's — equals a
    /// fresh canonical digest of the served report.
    fn slot(entry: &SuiteEntry, mode: VerifyMode, fault: Option<FaultSpec>) -> SlotOutcome {
        let run = RunConfig {
            verify: false,
            ..RunConfig::default()
        };
        let (retry, rec) = (RetryPolicy::default(), Recorder::disabled());
        let kernel = "transpose_hism";
        let fault = fault.as_ref();
        let out = execute_slot(
            &run,
            &retry,
            entry,
            0,
            kernel,
            Decision::Run,
            fault,
            mode,
            &rec,
        );
        let case = format!("{} with {fault:?}", mode.name());
        let fresh = out
            .report
            .as_ref()
            .and_then(|r| r.output.canonical_digest());
        if let Some(d) = out.digest {
            assert_eq!(Some(d), fresh, "{case}: carried digest");
        }
        assert_eq!(out.served_digest(), fresh, "{case}: served digest");
        let exec = run_slot(
            &run,
            &retry,
            entry,
            0,
            kernel,
            Decision::Run,
            fault,
            mode,
            &rec,
        );
        assert_eq!(exec.record().digest, fresh.unwrap_or(0), "{case}: record");
        out
    }

    #[test]
    fn every_verified_slot_carries_the_digest_of_what_it_serves() {
        let entry = entry();
        let want = Some(stm_sparse::format::canonical_digest(
            &entry.coo.transpose_canonical(),
        ));

        // A clean vote and a clean dual check digest the primary once.
        for mode in [VerifyMode::Vote, VerifyMode::Dual] {
            let clean = slot(&entry, mode, None);
            assert!(!clean.corrupted && !clean.degraded);
            assert_eq!(clean.digest, want, "{}", mode.name());
        }

        // Checksum and off compute nothing the served digest could reuse.
        for mode in [VerifyMode::Checksum, VerifyMode::Off] {
            let plain = slot(&entry, mode, None);
            assert_eq!((plain.digest, plain.served_digest()), (None, want));
        }

        // A structural fault degrades onto the fallback, which no leg
        // digested.
        let truncated = FaultSpec {
            index: 0,
            class: FaultClass::Truncate,
            seed: 3,
        };
        let degraded = slot(&entry, VerifyMode::Vote, Some(truncated));
        assert!(degraded.degraded);
        assert_eq!((degraded.digest, degraded.served_digest()), (None, want));

        // A manifesting mid-run flip is outvoted, and the agreeing
        // majority's digest is carried out with its report.
        let recovered = (0..32)
            .map(|seed| {
                let flip = FaultSpec {
                    index: 0,
                    class: FaultClass::MidRunBitFlip,
                    seed,
                };
                slot(&entry, VerifyMode::Vote, Some(flip))
            })
            .find(|s| s.recovered.is_some())
            .expect("a mid-run flip in 32 seeds is outvoted and recovered");
        assert!(recovered.corrupted);
        assert_eq!(recovered.digest, want);
        assert_ne!(recovered.quarantined, 0);
    }
}
