//! The batch experiment harness: kernels are selected *by name* through
//! the `stm-core` registry and executed over whole suites by a pool of
//! `std::thread::scope` workers.
//!
//! Layering:
//!
//! * [`run_batch`] — the generic batch runner: a fixed worker pool pulls
//!   item indices from a shared counter and writes each result into its
//!   own slot, so results always come back in input order no matter how
//!   the workers interleave;
//! * [`run_kernel`] — one registry kernel on one suite entry (each call
//!   constructs its own engine and coprocessor, so concurrent calls share
//!   nothing);
//! * [`run_matrix`] / [`run_set`] — the paper's experiment shape: HiSM
//!   and CRS transposition per matrix, batched over a set. Each leg is a
//!   primary-only slot of the resilient pipeline (retried, never
//!   verified by re-execution, never replaced by a fallback), so the
//!   harness and the soak share one lifecycle, result and status rule.
//!
//! The worker count comes from [`RunConfig::jobs`] (the bench binaries
//! wire it to `--jobs N`); `None` uses the machine's parallelism.
//!
//! Failures are *data*, not crashes: every kernel stage runs under
//! `catch_unwind`, typed [`KernelFailure`]s (and any panic, as a
//! last-resort backstop) land in the per-matrix [`RunStatus`], and a bad
//! matrix never takes down the rest of the batch. Set
//! [`RunConfig::strict`] to turn the first failure into a panic for
//! CI-style fail-fast runs.

use crate::resilient::{self, Decision, RetryPolicy, SlotExec, PRIMARY_KERNELS};
use crate::trace::{export_trace, TraceRollup};
use stm_core::kernels::registry::{Backend, ExecCtx, KernelFailure, KernelReport, Oracle};
use stm_core::{StmConfig, TransposeReport};
use stm_dsab::{FormatDecision, FormatKind, FormatSel, SuiteEntry};
use stm_hism::FaultClass;
use stm_obs::Recorder;
use stm_vpsim::{TimingKind, VpConfig};

/// Machine + experiment configuration for a harness run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Vector processor parameters.
    pub vp: VpConfig,
    /// STM parameters (the paper's performance runs use `B = p = 4`,
    /// `L = 4`, `s = 64`).
    pub stm: StmConfig,
    /// Functionally verify every simulated result against the host
    /// oracles (slower; on by default — a cycle count for a wrong
    /// transpose is worthless).
    pub verify: bool,
    /// Timing model charging the cycles (paper machine by default).
    pub timing: TimingKind,
    /// Matrices in flight in [`run_set`] (each runs its legs on threads
    /// of its own); `None` = machine parallelism.
    pub jobs: Option<usize>,
    /// Panic on the first failed matrix instead of recording it —
    /// fail-fast for CI (`--strict` in the binaries).
    pub strict: bool,
    /// Corrupt one matrix of the set before running it (fault-injection
    /// experiments; see [`FaultSpec`]).
    pub fault: Option<FaultSpec>,
    /// Storage-format selection (`--format` / `STM_FORMAT` in the
    /// binaries). When set, every matrix additionally runs the chosen
    /// format's transpose kernel as a third leg ([`FormatLeg`]);
    /// [`FormatSel::Auto`] consults the cost-model autotuner per matrix.
    /// `None` keeps the classic HiSM + CRS experiment shape.
    pub format: Option<FormatSel>,
    /// Directory to write structured event traces into (`--trace DIR` /
    /// `STM_TRACE` in the binaries). `None` keeps tracing compiled out —
    /// kernels run with a no-op recorder and no files are written.
    pub trace: Option<std::path::PathBuf>,
    /// Execution backend (`--backend` / `STM_BACKEND` in the binaries):
    /// the cycle-accurate simulator by default, or the `stm-host`
    /// native tier (`scalar`) for host-capable
    /// kernels. Kernels without a host implementation always simulate.
    pub backend: Backend,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            vp: VpConfig::paper(),
            stm: StmConfig::default(),
            verify: true,
            timing: TimingKind::Paper,
            jobs: None,
            strict: false,
            fault: None,
            format: None,
            trace: None,
            backend: Backend::Sim,
        }
    }
}

impl RunConfig {
    /// Default configuration with the run rows of a binary's flag table
    /// applied: [`crate::JOBS`], [`crate::STRICT`], [`crate::TRACE`],
    /// [`crate::FORMAT`] and [`crate::BACKEND`].
    pub fn from_args(args: &stm_obs::cli::Args) -> Self {
        RunConfig {
            jobs: args.value(crate::JOBS.name),
            strict: args.on(crate::STRICT.name),
            trace: args.get(crate::TRACE.name).map(Into::into),
            format: args.value_with(crate::FORMAT.name, FormatSel::parse),
            backend: crate::backend(args),
            ..RunConfig::default()
        }
    }

    /// The execution context kernels run under. The recorder starts
    /// disabled; [`run_kernel`] installs a fresh enabled one per attempt
    /// when [`RunConfig::trace`] is set.
    pub fn ctx(&self) -> ExecCtx {
        ExecCtx {
            vp: self.vp.clone(),
            stm: self.stm,
            timing: self.timing,
            obs: Recorder::disabled(),
            backend: self.backend,
        }
    }

    /// Worker threads to use for a batch of `items` work items.
    pub fn worker_count(&self, items: usize) -> usize {
        let jobs = self.jobs.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        });
        jobs.max(1).min(items.max(1))
    }
}

/// One deliberate corruption applied during [`run_set`]: the matrix at
/// `index` has `class` injected (seeded by `seed`) into every kernel
/// that supports it, after `prepare` and before `run`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Set position of the matrix to corrupt.
    pub index: usize,
    /// Fault class to inject (see [`FaultClass`]).
    pub class: FaultClass,
    /// Seed choosing the exact corruption site.
    pub seed: u64,
}

/// Outcome of one matrix in a batch.
#[derive(Debug, Clone)]
pub enum RunStatus {
    /// Every kernel ran and verified.
    Ok,
    /// A primary kernel failed (or was skipped by an open circuit
    /// breaker) but its registry fallback completed and verified in its
    /// place — the resilient soak pipeline's graceful-degradation
    /// outcome. The plain batch harness never produces this variant.
    Degraded {
        /// The failing (or skipped) primary kernel.
        kernel: String,
        /// The fallback that produced the verified result
        /// (see `registry::fallback_for`).
        fallback: &'static str,
        /// The primary's failure — `None` when an open breaker skipped
        /// the primary without running it.
        failure: Option<KernelFailure>,
    },
    /// A kernel failed; the failure names the kernel, stage and typed
    /// error. Reports of kernels that did succeed are still present.
    Failed(KernelFailure),
    /// Silent data corruption: a primary kernel *succeeded* — no typed
    /// error, no failed check — but cross-execution digest comparison
    /// (the resilient pipeline's `--verify-mode dual`/`vote`) proved its
    /// output wrong. The corrupt result is quarantined, never served.
    /// The plain batch harness never produces this variant.
    Corrupted {
        /// The kernel whose output disagreed with the majority.
        kernel: String,
        /// The quarantined (wrong) canonical digest the primary produced.
        quarantined: u64,
        /// The canonical digest actually served — the majority digest
        /// when recovery succeeded, `None` when no majority existed and
        /// even the trusted fallback could not produce a result.
        served: Option<u64>,
        /// The verification leg (backend name) whose report was adopted
        /// in the primary's place, when one was.
        backend: Option<String>,
    },
}

impl RunStatus {
    /// `true` for [`RunStatus::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, RunStatus::Ok)
    }

    /// The failure, if any. For a degraded matrix this is the primary's
    /// failure (absent when an open breaker skipped the primary). A
    /// corrupted matrix carries no [`KernelFailure`] — the primary
    /// *succeeded*; its output was simply wrong.
    pub fn failure(&self) -> Option<&KernelFailure> {
        match self {
            RunStatus::Ok => None,
            RunStatus::Degraded { failure, .. } => failure.as_ref(),
            RunStatus::Failed(f) => Some(f),
            RunStatus::Corrupted { .. } => None,
        }
    }
}

/// The optional third, format-driven transpose leg of a matrix run
/// (see [`RunConfig::format`]): which format the selection resolved to
/// for this matrix, the registry kernel that ran it, the autotuner's
/// per-format predictions when the selection was `auto`, and the
/// kernel's report.
#[derive(Debug, Clone)]
pub struct FormatLeg {
    /// The `--format` selection that produced the leg.
    pub selection: FormatSel,
    /// The format actually run (`selection` resolved on this matrix's
    /// metrics).
    pub kind: FormatKind,
    /// The registry transpose kernel of [`FormatLeg::kind`].
    pub kernel: &'static str,
    /// The cost model's per-format predictions — present only for
    /// `--format auto`, where they decided `kind`.
    pub decision: Option<FormatDecision>,
    /// Kernel report (`None` if the leg failed).
    pub report: Option<TransposeReport>,
}

/// Resolves a format selection on one matrix: the format to run plus,
/// for `auto`, the full decision it came from.
pub(crate) fn resolve_format(
    sel: FormatSel,
    metrics: &stm_sparse::MatrixMetrics,
) -> (FormatKind, Option<FormatDecision>) {
    match sel {
        FormatSel::Fixed(k) => (k, None),
        FormatSel::Auto => {
            let d = stm_dsab::choose(metrics);
            (d.chosen, Some(d))
        }
    }
}

/// Both kernels' results for one matrix.
#[derive(Debug, Clone)]
pub struct MatrixResult {
    /// Matrix name from the suite.
    pub name: String,
    /// D-SAB metrics of the matrix.
    pub metrics: stm_sparse::MatrixMetrics,
    /// HiSM + STM kernel report (`None` if that kernel failed).
    pub hism: Option<TransposeReport>,
    /// CRS baseline report (`None` if that kernel failed).
    pub crs: Option<TransposeReport>,
    /// The format-driven third leg — `None` unless [`RunConfig::format`]
    /// was set.
    pub format: Option<FormatLeg>,
    /// Whether the matrix completed cleanly.
    pub status: RunStatus,
    /// Per-kernel trace roll-ups — empty unless [`RunConfig::trace`] was
    /// set. Each entry summarizes only the *final* attempt of its kernel
    /// (abandoned retries are never aggregated).
    pub traces: Vec<TraceRollup>,
}

impl MatrixResult {
    /// The paper's headline quantity: CRS cycles / HiSM cycles. `None`
    /// when either kernel failed.
    pub fn speedup(&self) -> Option<f64> {
        let (h, c) = (self.hism.as_ref()?, self.crs.as_ref()?);
        Some(c.cycles as f64 / h.cycles.max(1) as f64)
    }

    /// Assembles a matrix's result from its slots — the HiSM slot, the
    /// CRS slot and, when `format` is set, the format leg's slot: the
    /// last slot that ran its kernel, so a format that resolves to a
    /// primary's kernel may share that primary's slot. The status is
    /// `resilient::live_status`'s; `traces` start empty.
    pub(crate) fn from_slots(
        entry: &SuiteEntry,
        format: Option<FormatSel>,
        slots: &[SlotExec],
    ) -> MatrixResult {
        let report = |slot: Option<&SlotExec>| Some(slot?.verified()?.report.clone());
        MatrixResult {
            name: entry.name.clone(),
            metrics: entry.metrics,
            hism: report(slots.first()),
            crs: report(slots.get(1)),
            format: format.map(|selection| {
                let (kind, decision) = resolve_format(selection, &entry.metrics);
                let kernel = kind.transpose_kernel();
                FormatLeg {
                    selection,
                    kind,
                    kernel,
                    decision,
                    report: report(slots.iter().rfind(|s| s.kernel == kernel)),
                }
            }),
            status: resilient::live_status(slots),
            traces: Vec::new(),
        }
    }
}

/// One harness leg: a primary-only slot (always run, no verify legs, no
/// fallback) under [`RetryPolicy::default`].
fn run_leg(
    cfg: &RunConfig,
    kernel: &'static str,
    oracle: &Oracle,
    fault: Option<&FaultSpec>,
) -> SlotExec {
    resilient::run_slot(
        cfg,
        &RetryPolicy::default(),
        oracle,
        0,
        kernel,
        Decision::Run,
        fault,
        None,
        &Recorder::disabled(),
    )
}

/// Runs the named registry kernel on one suite entry: prepare, run and
/// (when `cfg.verify` is set) functional verification against the host
/// oracle, each stage isolated by `catch_unwind`, the attempt retried
/// under [`RetryPolicy::default`].
pub fn run_kernel(
    cfg: &RunConfig,
    kernel: &'static str,
    entry: &SuiteEntry,
) -> Result<KernelReport, KernelFailure> {
    let slot = run_leg(cfg, kernel, &Oracle::new(&entry.coo), None);
    slot.primary.expect("a harness leg always runs its primary")
}

/// Runs a matrix's HiSM, CRS and (optional) format legs side by side, in
/// that order; a format leg whose kernel is already a primary's is not
/// run again. Each leg builds its own input, engine and recorder; the
/// only thing they share is the matrix's host oracle, built once by
/// whichever leg verifies first. So every leg after the first runs on a
/// scoped thread of its own; a panic on a leg thread is re-raised here.
fn run_legs(
    cfg: &RunConfig,
    entry: &SuiteEntry,
    fault: Option<&FaultSpec>,
    format_kernel: Option<&'static str>,
) -> Vec<SlotExec> {
    let mut kernels = PRIMARY_KERNELS.to_vec();
    kernels.extend(format_kernel.filter(|k| !PRIMARY_KERNELS.contains(k)));
    let oracle = Oracle::new(&entry.coo);
    let oracle = &oracle;
    std::thread::scope(|scope| {
        let others: Vec<_> = kernels[1..]
            .iter()
            .map(|&k| scope.spawn(move || run_leg(cfg, k, oracle, fault)))
            .collect();
        let mut slots = vec![run_leg(cfg, kernels[0], oracle, fault)];
        slots.extend(
            others
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p))),
        );
        slots
    })
}

fn run_matrix_inner(
    cfg: &RunConfig,
    entry: &SuiteEntry,
    fault: Option<&FaultSpec>,
) -> MatrixResult {
    let format_kernel = cfg
        .format
        .map(|sel| resolve_format(sel, &entry.metrics).0.transpose_kernel());
    let slots = run_legs(cfg, entry, fault, format_kernel);
    let mut result = MatrixResult::from_slots(entry, cfg.format, &slots);
    if cfg.strict {
        if let Some(f) = result.status.failure() {
            panic!("strict mode: {}: {f}", entry.name);
        }
    }
    if let Some(dir) = &cfg.trace {
        for slot in &slots {
            let data = slot.rec.snapshot();
            export_trace(dir, &entry.name, slot.kernel, &data)
                .unwrap_or_else(|e| panic!("writing trace under {}: {e}", dir.display()));
            let rollup = TraceRollup::of(&entry.name, slot.kernel, &data, slot.attempts);
            result.traces.push(rollup);
        }
    }
    result
}

/// Runs both transposition kernels (plus the [`RunConfig::format`] leg,
/// when set) on one suite entry, the legs side by side. The result equals
/// sequential [`run_kernel`] calls.
pub fn run_matrix(cfg: &RunConfig, entry: &SuiteEntry) -> MatrixResult {
    run_matrix_inner(cfg, entry, None)
}

/// Maps `f` over `items` on a pool of `jobs` scoped worker threads.
///
/// Workers claim item indices from a shared atomic counter and write each
/// result into the slot for its index, so the returned vector is in input
/// order regardless of scheduling — `run_batch(1, ..)` and
/// `run_batch(n, ..)` return identical vectors for a deterministic `f`.
/// `f` receives `(index, &item)`. A panic in any worker propagates.
pub fn run_batch<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let jobs = jobs.max(1).min(items.len().max(1));
    if jobs == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut results: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    let slots: Vec<std::sync::Mutex<&mut Option<R>>> =
        results.iter_mut().map(std::sync::Mutex::new).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(i, &items[i]);
                **slots[i].lock().unwrap() = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("worker filled every slot"))
        .collect()
}

/// Runs a whole experiment set on the configured worker pool. Results
/// keep the set's order (see [`run_batch`]); a [`RunConfig::fault`] spec
/// is applied to the matrix at its index.
pub fn run_set(cfg: &RunConfig, set: &[SuiteEntry]) -> Vec<MatrixResult> {
    run_batch(cfg.worker_count(set.len()), set, |i, entry| {
        let fault = cfg.fault.as_ref().filter(|f| f.index == i);
        run_matrix_inner(cfg, entry, fault)
    })
}

/// Min / arithmetic-mean / max speedup over a result set — the numbers
/// the paper quotes per figure ("the speedup is in the range from 1.8 to
/// 32.0 with an average of 16.5"). Failed matrices are excluded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedupSummary {
    /// Smallest speedup in the set.
    pub min: f64,
    /// Arithmetic mean.
    pub avg: f64,
    /// Largest speedup in the set.
    pub max: f64,
}

impl SpeedupSummary {
    /// Summarizes a result set. Returns zeros for an empty set (or one
    /// where every matrix failed).
    pub fn of(results: &[MatrixResult]) -> Self {
        let speedups: Vec<f64> = results.iter().filter_map(MatrixResult::speedup).collect();
        if speedups.is_empty() {
            return SpeedupSummary {
                min: 0.0,
                avg: 0.0,
                max: 0.0,
            };
        }
        SpeedupSummary {
            min: speedups.iter().copied().fold(f64::INFINITY, f64::min),
            avg: speedups.iter().sum::<f64>() / speedups.len() as f64,
            max: speedups.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_core::kernels::registry::{KernelError, Stage};
    use stm_sparse::{gen, MatrixMetrics};

    fn entry(name: &str, coo: stm_sparse::Coo) -> SuiteEntry {
        let metrics = MatrixMetrics::compute(&coo);
        SuiteEntry {
            name: name.into(),
            coo,
            metrics,
        }
    }

    #[test]
    fn run_matrix_verifies_and_reports() {
        let cfg = RunConfig::default();
        let e = entry("uniform", gen::random::uniform(200, 200, 1500, 3));
        let r = run_matrix(&cfg, &e);
        assert!(r.status.is_ok());
        let (hism, crs) = (r.hism.as_ref().unwrap(), r.crs.as_ref().unwrap());
        assert_eq!(hism.nnz, e.coo.nnz());
        assert_eq!(crs.nnz, e.coo.nnz());
        assert!(hism.cycles > 0 && crs.cycles > 0);
        assert!(r.speedup().unwrap() > 0.0);
    }

    #[test]
    fn a_fixed_format_leg_runs_and_reports() {
        let e = entry("uniform", gen::random::uniform(200, 200, 1500, 3));
        for sel in ["coo", "csr", "csc", "jd", "sell"] {
            let cfg = RunConfig {
                format: FormatSel::parse(sel),
                jobs: Some(1),
                ..RunConfig::default()
            };
            let r = run_matrix(&cfg, &e);
            assert!(r.status.is_ok(), "{sel}: {:?}", r.status);
            let leg = r.format.expect("format leg present");
            assert_eq!(leg.selection.name(), sel);
            assert_eq!(leg.kind.name(), sel);
            assert_eq!(leg.kernel, leg.kind.transpose_kernel());
            assert!(
                leg.decision.is_none(),
                "fixed formats never consult the model"
            );
            assert!(leg.report.expect("leg verified").cycles > 0);
        }
    }

    #[test]
    fn the_auto_leg_carries_the_decision_and_matches_its_kernel() {
        let cfg = RunConfig {
            format: Some(FormatSel::Auto),
            jobs: Some(1),
            ..RunConfig::default()
        };
        let e = entry("uniform", gen::random::uniform(128, 128, 900, 5));
        let r = run_matrix(&cfg, &e);
        assert!(r.status.is_ok());
        let leg = r.format.expect("format leg present");
        assert_eq!(leg.selection, FormatSel::Auto);
        let d = leg.decision.expect("auto records its decision");
        assert_eq!(d.chosen, leg.kind);
        assert_eq!(d.predicted.len(), FormatKind::ALL.len());
        // The leg re-ran the chosen format's kernel and its cycle count
        // matches a direct registry run.
        let direct = run_kernel(&cfg, leg.kernel, &e).unwrap();
        assert_eq!(leg.report.unwrap().cycles, direct.report.cycles);
    }

    #[test]
    fn no_format_flag_means_no_third_leg() {
        let e = entry("t", gen::structured::tridiagonal(64));
        let r = run_matrix(&RunConfig::default(), &e);
        assert!(r.format.is_none());
    }

    #[test]
    fn a_traced_format_leg_exports_its_own_trace() {
        let dir = std::env::temp_dir().join("stm_harness_format_trace_test");
        std::fs::remove_dir_all(&dir).ok();
        let cfg = RunConfig {
            format: FormatSel::parse("sell"),
            trace: Some(dir.clone()),
            jobs: Some(1),
            ..RunConfig::default()
        };
        let e = entry("m", gen::random::uniform(96, 96, 500, 2));
        let results = run_set(&cfg, &[e]);
        let kernels: Vec<&str> = results[0].traces.iter().map(|t| t.kernel).collect();
        assert_eq!(
            kernels,
            vec!["transpose_hism", "transpose_crs", "transpose_sell"]
        );
        assert!(dir
            .join(format!(
                "{}.jsonl",
                crate::trace::trace_stem(&results[0].name, "transpose_sell")
            ))
            .exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The distinct matrices of the quick experiment sets.
    fn quick_entries() -> Vec<SuiteEntry> {
        let sets = stm_dsab::experiment_sets(&stm_dsab::quick_catalogue(), 6);
        let mut seen = std::collections::HashSet::new();
        sets.all()
            .filter(|e| seen.insert(e.name.clone()))
            .map(|e| entry(&e.name, e.coo.clone()))
            .collect()
    }

    #[test]
    fn concurrent_legs_equal_sequential_kernel_runs() {
        let dir = std::env::temp_dir().join("stm_harness_concurrent_legs_test");
        for format in [None, FormatSel::parse("csr"), FormatSel::parse("sell")] {
            let cfg = RunConfig {
                format,
                trace: Some(dir.clone()),
                jobs: Some(1),
                ..RunConfig::default()
            };
            for e in quick_entries() {
                let format_kernel =
                    format.map(|sel| resolve_format(sel, &e.metrics).0.transpose_kernel());
                let r = run_matrix(&cfg, &e);
                assert!(r.status.is_ok(), "{}: {:?}", e.name, r.status);
                let slots = run_legs(&cfg, &e, None, format_kernel);
                let mut reported = vec![r.hism.as_ref(), r.crs.as_ref()];
                if format_kernel != Some("transpose_crs") {
                    reported.extend(r.format.as_ref().map(|leg| leg.report.as_ref()));
                }
                assert_eq!(slots.len(), reported.len(), "{}", e.name);
                let mut rollups = Vec::new();
                for (slot, reported) in slots.into_iter().zip(reported) {
                    let seq = run_leg(&cfg, slot.kernel, &Oracle::new(&e.coo), None);
                    let (got, want) = (
                        slot.primary.unwrap().unwrap(),
                        seq.primary.unwrap().unwrap(),
                    );
                    let what = format!("{} {} ({format:?})", e.name, slot.kernel);
                    assert_eq!(got.output_digest, want.output_digest, "{what}");
                    // Cycles, engine and STM stats and stall breakdowns.
                    let want_report = format!("{:?}", want.report);
                    assert_eq!(format!("{:?}", got.report), want_report, "{what}");
                    assert_eq!(format!("{:?}", reported.unwrap()), want_report, "{what}");
                    let trace = seq.rec.snapshot();
                    assert_eq!(slot.rec.snapshot().to_jsonl(), trace.to_jsonl(), "{what}");
                    rollups.push(TraceRollup::of(&e.name, slot.kernel, &trace, seq.attempts));
                }
                assert_eq!(
                    format!("{:?}", r.traces),
                    format!("{rollups:?}"),
                    "{}",
                    e.name
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_csr_format_leg_reuses_the_crs_leg_and_exports_two_traces() {
        let dir = std::env::temp_dir().join("stm_harness_csr_leg_test");
        std::fs::remove_dir_all(&dir).ok();
        let cfg = RunConfig {
            format: FormatSel::parse("csr"),
            trace: Some(dir.clone()),
            jobs: Some(1),
            ..RunConfig::default()
        };
        let e = entry("m", gen::random::uniform(96, 96, 500, 2));
        let r = run_set(&cfg, std::slice::from_ref(&e)).remove(0);
        assert!(r.status.is_ok(), "{:?}", r.status);
        let leg = r.format.as_ref().expect("format leg present");
        assert_eq!(leg.kernel, "transpose_crs");
        assert_eq!(
            format!("{:?}", leg.report.as_ref().expect("leg verified")),
            format!("{:?}", r.crs.as_ref().unwrap())
        );
        // One CRS run: two legs, two roll-ups, two trace files.
        let kernels: Vec<&str> = r.traces.iter().map(|t| t.kernel).collect();
        assert_eq!(kernels, vec!["transpose_hism", "transpose_crs"]);
        assert_eq!(run_legs(&cfg, &e, None, Some(leg.kernel)).len(), 2);
        let jsonl = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|f| f.as_ref().unwrap().path().extension() == Some("jsonl".as_ref()))
            .count();
        assert_eq!(jsonl, 2, "traces exported under {}", dir.display());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_injected_fault_fails_the_kernel_a_sequential_run_fails() {
        let e = entry("uniform", gen::random::uniform(200, 200, 1500, 3));
        let mut hism_failures = 0;
        for format in [None, FormatSel::parse("sell")] {
            for class in FaultClass::ALL
                .into_iter()
                .chain([FaultClass::MidRunBitFlip])
            {
                let fault = FaultSpec {
                    index: 0,
                    class,
                    seed: 7,
                };
                let cfg = RunConfig {
                    fault: Some(fault),
                    format,
                    jobs: Some(1),
                    ..RunConfig::default()
                };
                let r = run_set(&cfg, std::slice::from_ref(&e)).remove(0);
                let format_kernel =
                    format.map(|sel| resolve_format(sel, &e.metrics).0.transpose_kernel());
                let first = PRIMARY_KERNELS
                    .into_iter()
                    .chain(format_kernel)
                    .find_map(|k| {
                        run_leg(&cfg, k, &Oracle::new(&e.coo), Some(&fault))
                            .primary
                            .unwrap()
                            .err()
                    });
                match (first, &r.status) {
                    (Some(want), RunStatus::Failed(got)) => {
                        assert_eq!(format!("{got:?}"), format!("{want:?}"), "{class:?}");
                        hism_failures += usize::from(got.kernel == "transpose_hism");
                    }
                    (None, RunStatus::Ok) => {}
                    (want, got) => panic!("{class:?}: sequential {want:?}, concurrent {got:?}"),
                }
            }
        }
        assert!(hism_failures > 0, "no fault class failed the HiSM leg");
    }

    #[test]
    fn run_kernel_covers_every_registry_name() {
        let cfg = RunConfig::default();
        let e = entry("small", gen::random::uniform(48, 48, 200, 5));
        for &name in stm_core::kernels::registry::names() {
            let r = run_kernel(&cfg, name, &e).unwrap();
            assert!(r.report.cycles > 0, "{name} charged no cycles");
        }
    }

    #[test]
    fn run_kernel_reports_unknown_names_as_failures() {
        let f = run_kernel(
            &RunConfig::default(),
            "bogus",
            &entry("m", stm_sparse::Coo::new(2, 2)),
        )
        .unwrap_err();
        assert_eq!(f.error, KernelError::Unknown("bogus".into()));
        assert_eq!(f.stage, Stage::Prepare);
    }

    #[test]
    fn cycle_budget_surfaces_as_a_typed_deadline_failure() {
        let mut cfg = RunConfig {
            jobs: Some(1),
            ..RunConfig::default()
        };
        // Tight enough that any real matrix blows it on the first issue.
        cfg.vp.cycle_budget = Some(1);
        let e = entry("t", gen::structured::tridiagonal(96));
        let f = run_kernel(&cfg, "transpose_hism", &e).unwrap_err();
        assert_eq!(f.stage, Stage::Run);
        match f.error {
            KernelError::DeadlineExceeded(d) => {
                assert_eq!(d.budget, 1);
                assert!(d.cycles > 1);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn degraded_status_reports_the_primary_failure() {
        let failure = KernelFailure {
            kernel: "transpose_hism".into(),
            stage: Stage::Run,
            error: KernelError::Corrupt("injected".into()),
        };
        let s = RunStatus::Degraded {
            kernel: "transpose_hism".into(),
            fallback: "transpose_ref",
            failure: Some(failure),
        };
        assert!(!s.is_ok());
        assert!(matches!(s, RunStatus::Degraded { .. }));
        assert_eq!(s.failure().unwrap().kernel, "transpose_hism");
        let skipped = RunStatus::Degraded {
            kernel: "transpose_crs".into(),
            fallback: "transpose_crs_scalar",
            failure: None,
        };
        assert!(matches!(skipped, RunStatus::Degraded { .. }));
        assert!(skipped.failure().is_none());
    }

    #[test]
    fn run_set_preserves_order() {
        let cfg = RunConfig::default();
        let set = vec![
            entry("a", gen::structured::tridiagonal(100)),
            entry("b", gen::random::uniform(128, 128, 600, 1)),
            entry("c", gen::blocks::block_dense(128, 16, 6, 0.8, 2)),
        ];
        let results = run_set(&cfg, &set);
        let names: Vec<&str> = results.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
        assert!(results.iter().all(|r| r.status.is_ok()));
    }

    #[test]
    fn run_batch_is_order_preserving_and_jobs_invariant() {
        let items: Vec<usize> = (0..37).collect();
        let serial = run_batch(1, &items, |i, &x| i * 1000 + x * x);
        for jobs in [2, 4, 16, 64] {
            assert_eq!(run_batch(jobs, &items, |i, &x| i * 1000 + x * x), serial);
        }
        assert!(run_batch::<usize, usize, _>(4, &[], |_, &x| x).is_empty());
    }

    #[test]
    fn explicit_jobs_counts_give_identical_sets() {
        let set = vec![
            entry("a", gen::structured::diagonal(150)),
            entry("b", gen::random::uniform(96, 96, 400, 2)),
            entry("c", gen::blocks::block_band(128, 16, 2, 0.7, 4)),
            entry("d", gen::structured::grid2d_5pt(10, 10)),
        ];
        let serial = run_set(
            &RunConfig {
                jobs: Some(1),
                ..RunConfig::default()
            },
            &set,
        );
        let parallel = run_set(
            &RunConfig {
                jobs: Some(4),
                ..RunConfig::default()
            },
            &set,
        );
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.name, p.name);
            assert_eq!(
                s.hism.as_ref().unwrap().cycles,
                p.hism.as_ref().unwrap().cycles
            );
            assert_eq!(
                s.crs.as_ref().unwrap().cycles,
                p.crs.as_ref().unwrap().cycles
            );
        }
    }

    #[test]
    fn a_fault_spec_fails_exactly_its_matrix() {
        let set = vec![
            entry("a", gen::structured::tridiagonal(80)),
            entry("b", gen::random::uniform(96, 96, 400, 2)),
            entry("c", gen::blocks::block_dense(128, 16, 5, 0.8, 4)),
        ];
        let clean = run_set(&RunConfig::default(), &set);
        let cfg = RunConfig {
            fault: Some(FaultSpec {
                index: 1,
                class: FaultClass::PointerRetarget,
                seed: 42,
            }),
            jobs: Some(3),
            ..RunConfig::default()
        };
        let faulted = run_set(&cfg, &set);
        assert_eq!(faulted.len(), 3);
        assert!(faulted[0].status.is_ok());
        assert!(faulted[2].status.is_ok());
        let failure = faulted[1].status.failure().expect("matrix 1 must fail");
        assert!(
            !matches!(failure.error, KernelError::Panicked(_)),
            "fault must surface as a typed error, got {failure}"
        );
        // The untouched matrices are bit-identical to the clean run.
        for i in [0usize, 2] {
            assert_eq!(
                clean[i].hism.as_ref().unwrap().cycles,
                faulted[i].hism.as_ref().unwrap().cycles
            );
            assert_eq!(
                clean[i].crs.as_ref().unwrap().cycles,
                faulted[i].crs.as_ref().unwrap().cycles
            );
        }
    }

    #[test]
    fn strict_mode_panics_on_failure() {
        let set = vec![entry("a", gen::structured::tridiagonal(64))];
        let cfg = RunConfig {
            strict: true,
            fault: Some(FaultSpec {
                index: 0,
                class: FaultClass::Truncate,
                seed: 7,
            }),
            jobs: Some(1),
            ..RunConfig::default()
        };
        let r = std::panic::catch_unwind(|| run_set(&cfg, &set));
        assert!(r.is_err(), "strict mode must fail fast");
    }

    #[test]
    fn worker_count_clamps_sanely() {
        let cfg = RunConfig {
            jobs: Some(8),
            ..RunConfig::default()
        };
        assert_eq!(cfg.worker_count(3), 3);
        assert_eq!(cfg.worker_count(100), 8);
        assert_eq!(cfg.worker_count(0), 1);
        let zero = RunConfig {
            jobs: Some(0),
            ..RunConfig::default()
        };
        assert_eq!(zero.worker_count(10), 1);
    }

    #[test]
    fn hism_beats_crs_on_a_blocky_matrix() {
        // The paper's core claim, smoke-tested on a high-locality matrix.
        let cfg = RunConfig::default();
        let e = entry("blocky", gen::blocks::block_dense(512, 64, 12, 0.9, 7));
        let r = run_matrix(&cfg, &e);
        let speedup = r.speedup().unwrap();
        assert!(
            speedup > 2.0,
            "expected a clear HiSM win, got {speedup:.2}x"
        );
    }

    #[test]
    fn summary_statistics() {
        let cfg = RunConfig::default();
        let set = vec![
            entry("x", gen::structured::diagonal(300)),
            entry("y", gen::blocks::block_dense(256, 32, 8, 0.9, 9)),
        ];
        let results = run_set(&cfg, &set);
        let s = SpeedupSummary::of(&results);
        assert!(s.min <= s.avg && s.avg <= s.max);
        assert!(s.min > 0.0);
    }

    #[test]
    fn empty_summary_is_zero() {
        let s = SpeedupSummary::of(&[]);
        assert_eq!((s.min, s.avg, s.max), (0.0, 0.0, 0.0));
    }

    #[test]
    fn retry_budget_is_spent_only_on_failures_and_faults_get_one_attempt() {
        let cfg = RunConfig {
            jobs: Some(1),
            ..RunConfig::default()
        };
        let e = entry("m", gen::random::uniform(32, 32, 100, 1));
        // Unknown kernel: every attempt fails, so the default policy's
        // two attempts both run.
        let oracle = Oracle::new(&e.coo);
        let run = run_leg(&cfg, "bogus", &oracle, None);
        assert!(matches!(run.primary, Some(Err(_))));
        assert_eq!(run.attempts, 2);
        // A clean kernel succeeds on the first attempt.
        let ok = run_leg(&cfg, "transpose_hism", &oracle, None);
        assert!(matches!(ok.primary, Some(Ok(_))));
        assert_eq!(ok.attempts, 1);
        // Deterministic injected faults are never retried.
        let fault = FaultSpec {
            index: 0,
            class: FaultClass::PointerRetarget,
            seed: 9,
        };
        let faulted = run_leg(&cfg, "transpose_crs", &oracle, Some(&fault));
        assert!(matches!(faulted.primary, Some(Err(_))));
        assert_eq!(faulted.attempts, 1);
        // A blown cycle budget would abort identically again.
        let mut tight = cfg.clone();
        tight.vp.cycle_budget = Some(1);
        let deadline = run_leg(&tight, "transpose_hism", &oracle, None);
        assert!(matches!(
            deadline.primary.unwrap().map_err(|f| f.error),
            Err(KernelError::DeadlineExceeded(_))
        ));
        assert_eq!(deadline.attempts, 1);
    }

    #[test]
    fn traced_runs_roll_up_only_the_final_attempt() {
        let dir = std::env::temp_dir().join("stm_harness_trace_retry_test");
        std::fs::remove_dir_all(&dir).ok();
        let cfg = RunConfig {
            trace: Some(dir.clone()),
            jobs: Some(1),
            ..RunConfig::default()
        };
        let e = entry("m one", gen::random::uniform(64, 64, 300, 2));
        let run = run_leg(&cfg, "transpose_hism", &Oracle::new(&e.coo), None);
        let data = run.rec.snapshot();
        let report = run.primary.unwrap().expect("clean run");
        // Exactly one lifecycle per trace: a retried (or aggregated)
        // recording would carry one run-span per attempt and the cycle
        // counter would overshoot the report.
        let runs = data
            .events
            .iter()
            .filter(|ev| ev.name == "run" && matches!(ev.kind, stm_obs::EventKind::Begin { .. }))
            .count();
        assert_eq!(runs, 1);
        assert_eq!(data.counter("stage.run.cycles"), report.report.cycles);

        // And the set-level export carries the same invariant.
        let results = run_set(&cfg, &[e]);
        assert_eq!(results[0].traces.len(), 2);
        for roll in &results[0].traces {
            assert_eq!(roll.attempts, 1, "{}", roll.kernel);
            assert_eq!(roll.dropped, 0, "{}", roll.kernel);
            let path = dir.join(format!(
                "{}.jsonl",
                crate::trace::trace_stem(&results[0].name, roll.kernel)
            ));
            let text = std::fs::read_to_string(&path).unwrap();
            let summary = stm_obs::jsonl::validate_jsonl(&text)
                .unwrap_or_else(|errs| panic!("{path:?}: {errs:?}"));
            assert_eq!(summary.run_spans, 1, "{}", roll.kernel);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_rows_are_excluded_from_the_summary() {
        let set = vec![
            entry("x", gen::structured::diagonal(128)),
            entry("y", gen::blocks::block_dense(128, 16, 5, 0.9, 9)),
        ];
        let cfg = RunConfig {
            fault: Some(FaultSpec {
                index: 0,
                class: FaultClass::LengthCorruption,
                seed: 3,
            }),
            ..RunConfig::default()
        };
        let results = run_set(&cfg, &set);
        assert!(!results[0].status.is_ok());
        let s = SpeedupSummary::of(&results);
        assert_eq!(s.min, s.max, "one surviving row");
        assert!(s.min > 0.0);
    }
}
