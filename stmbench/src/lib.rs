//! `stmbench` — one command that measures the workspace end to end and
//! layer by layer.
//!
//! A run executes one [`spec::Workload`]: it sets the workload up
//! several times (the median is `setup_s`), then runs the workload's
//! end-to-end loop with tracing off and reports the end-to-end metrics
//! of [`spec::end_to_end`]. A traced run instead repeats the loop with
//! and without spans (the difference is the tracing overhead) and then
//! runs a serial decomposition pass ([`layers`]) that calls each
//! layer's public functions on the same inputs, reporting
//! [`spec::per_layer`]. Every output the loop produces is checked
//! against an oracle that shares no code with the leg it judges.
//!
//! The benchmark only calls public functions of the workspace crates
//! and times them from outside; it adds nothing to the program.

#![forbid(unsafe_code)]

pub mod campaign;
pub mod host;
pub mod layers;
pub mod report;
pub mod serve;
pub mod spec;
pub mod stats;
pub mod trace;

use spec::Workload;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use stm_dsab::SuiteEntry;
use stm_serve::ServeConfig;
use trace::Tracer;

/// Input sizes: the real benchmark, or the tiny one the smoke test
/// runs in a debug build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark is defined with.
    Full,
    /// Quick catalogue, one pass, one repetition, 200 requests.
    Smoke,
}

/// What one run does.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// Seeds every generated input.
    pub seed: u64,
    /// Nominal length of the measured phase. The work is fixed from it
    /// through per-workload nominal rates, so two builds measure the
    /// same work however fast they are.
    pub seconds: f64,
    /// A traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Where a traced run writes `<workload>.spans.jsonl`.
    pub spans_dir: PathBuf,
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured loops and checks.
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// Everything that makes the run incorrect, one line each.
    pub errors: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Records one attempted operation and whether it was correct.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 20 {
                self.errors.push(what());
            }
        }
    }

    /// Folds in the checks another thread made.
    pub fn merge(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
    }

    /// Records an error that is not an operation (a failed invariant).
    pub fn error(&mut self, msg: impl Into<String>) {
        self.errors.push(msg.into());
    }

    /// No operation failed and no invariant broke.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

/// What a measured loop observed.
#[derive(Debug, Default)]
pub struct LoopStats {
    /// Operations completed.
    pub ops: u64,
    /// Wall time of the measured phase.
    pub wall: Duration,
    /// One latency per operation, in ns.
    pub lat_ns: Vec<u64>,
    /// Time the load-generating threads spent inside calls into the
    /// program, summed over threads.
    pub busy: Duration,
    /// Load-generating threads.
    pub threads: usize,
    /// Preparation done inside the loop but outside the measured phase;
    /// it is charged to `setup_s` so work moved into it shows.
    pub prepare_s: f64,
}

impl LoopStats {
    fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.wall.as_secs_f64()
    }
}

/// A workload's set-up, measured loop and inputs, run by [`run`].
pub trait Runner {
    /// Everything set up once per run.
    type State;

    /// Builds the inputs (and starts the service). Returns the state and
    /// the time spent building the inputs alone (`dsab.catalogue_s`).
    fn setup(&self, opts: &Options, scratch: &Path) -> Result<(Self::State, Duration), String>;

    /// Runs the measured loop for `seconds` of nominal work.
    fn run_loop(
        &self,
        state: &mut Self::State,
        opts: &Options,
        seconds: f64,
        tracer: &Tracer,
        out: &mut Outcome,
    ) -> LoopStats;

    /// The distinct matrices the workload runs on.
    fn inputs<'a>(&self, state: &'a Self::State) -> &'a [SuiteEntry];

    /// The service configuration the decomposition's serial service pass uses.
    fn serve_config(&self) -> ServeConfig;

    /// Stops what [`Runner::setup`] started.
    fn teardown(&self, state: Self::State) -> Result<(), String>;
}

/// Set-ups per run: the median is reported.
fn setup_reps(scale: Scale, workload: Workload) -> usize {
    match (scale, workload) {
        (Scale::Smoke, _) => 2,
        // Service set-up takes about a millisecond, and the server's
        // accept loop polls every 5 ms: more repetitions keep the
        // median off the slow tail.
        (Scale::Full, Workload::ServeSmall | Workload::ServeVote) => 9,
        (Scale::Full, _) => 3,
    }
}

/// Runs one workload and returns its metrics.
pub fn run(opts: &Options) -> Outcome {
    match opts.workload {
        Workload::Campaign => execute(&campaign::Campaign, opts),
        Workload::HostKernels => execute(&host::HostKernels, opts),
        Workload::ServeSmall => execute(&serve::Serve::Small, opts),
        Workload::ServeVote => execute(&serve::Serve::Vote, opts),
    }
}

fn execute<D: Runner>(d: &D, opts: &Options) -> Outcome {
    let mut out = Outcome::default();
    let scratch = scratch_dir();
    if let Err(e) = execute_in(d, opts, &scratch, &mut out) {
        out.error(e);
    }
    std::fs::remove_dir_all(&scratch).ok();
    let want = if opts.trace {
        spec::per_layer()
    } else {
        spec::end_to_end()
    };
    if out.errors.is_empty() {
        for m in &want {
            match out.metrics.get(&m.name) {
                Some(v) if v.is_finite() => {}
                Some(v) => out.error(format!("metric {} is not finite: {v}", m.name)),
                None => out.error(format!("metric {} was not measured", m.name)),
            }
        }
    }
    out.metrics.retain(|k, _| want.iter().any(|m| &m.name == k));
    out
}

fn execute_in<D: Runner>(
    d: &D,
    opts: &Options,
    scratch: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut catalogue = Vec::new();
    let mut state = None;
    for _ in 0..setup_reps(opts.scale, opts.workload) {
        if let Some(old) = state.take() {
            d.teardown(old)?;
        }
        let t0 = Instant::now();
        let (s, cat) = d.setup(opts, scratch)?;
        setups.push(t0.elapsed().as_secs_f64());
        catalogue.push(cat.as_secs_f64());
        state = Some(s);
    }
    let mut state = state.expect("at least one set-up");
    let median = |v: &[f64]| stats::Summary::of(v).expect("set-up reps").median;

    if !opts.trace {
        let off = Tracer::new(false);
        let l = d.run_loop(&mut state, opts, opts.seconds, &off, out);
        d.teardown(state)?;
        let mut lat: Vec<f64> = l.lat_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
        lat.sort_by(f64::total_cmp);
        if lat.is_empty() {
            return Err("the measured loop completed no operation".into());
        }
        out.set("setup_s", median(&setups) + l.prepare_s);
        out.set("ops_per_s", l.ops_per_s());
        out.set("p50_us", stats::percentile(&lat, 0.5));
        out.set("p99_us", stats::percentile(&lat, 0.99));
        out.set("peak_rss_mb", peak_rss_mb()?);
        return Ok(());
    }

    // Traced: the loop without and with spans (half the work each), then
    // the serial decomposition pass on the same inputs.
    let tracer = Tracer::new(true);
    let plain = d.run_loop(
        &mut state,
        opts,
        opts.seconds / 2.0,
        &Tracer::new(false),
        out,
    );
    let traced = d.run_loop(&mut state, opts, opts.seconds / 2.0, &tracer, out);
    out.set("dsab.catalogue_s", median(&catalogue));
    out.set(
        "obs.trace_overhead_pct",
        100.0 * (plain.ops_per_s() / traced.ops_per_s() - 1.0),
    );
    out.set(
        "bench.parallel_efficiency",
        plain.busy.as_secs_f64() / (plain.threads as f64 * plain.wall.as_secs_f64()),
    );
    let result = layers::decompose(
        d.inputs(&state),
        d.serve_config(),
        opts.scale,
        scratch,
        &tracer,
        out,
    );
    d.teardown(state)?;
    result?;
    let path = opts
        .spans_dir
        .join(format!("{}.spans.jsonl", opts.workload.name()));
    trace::write_jsonl(&path, &tracer.spans())
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// The directory a run keeps its transient files in (results logs),
/// inside the benchmark's own directory and removed when the run ends.
fn scratch_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("tmp-{}", std::process::id()))
}

/// The default directory traced runs write spans to.
pub fn default_spans_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status for VmHWM: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// How many whole units (passes, repetitions, requests) `seconds` of
/// nominal work is at `per_second` units a second; at least one.
fn units(seconds: f64, per_second: f64) -> usize {
    (seconds * per_second).round().max(1.0) as usize
}

/// Oracles for kernel and service outputs. They share no code with the
/// legs they judge: the transpose oracle is the canonical COO transpose
/// of `stm-sparse`, the SpMV oracle its COO product.
pub mod oracle {
    use stm_sparse::{format::canonical_digest, Coo};

    /// Canonical digest of `coo`ᵀ.
    pub fn transpose_digest(coo: &Coo) -> u64 {
        canonical_digest(&coo.transpose_canonical())
    }

    /// `A · x` for the SpMV operand every kernel uses.
    pub fn spmv(coo: &Coo) -> Vec<f32> {
        coo.spmv(&stm_core::exec::spmv_input(coo.cols()))
            .expect("the operand has one entry per column")
    }

    /// The service's digest of a vector result: FNV-1a over a tag
    /// byte 3, the length as a little-endian u64 and each value's bits.
    /// Written out here rather than calling the service's digest, so a
    /// bug there cannot hide in the check.
    pub fn vector_digest(y: &[f32]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let bytes = std::iter::once(3u8)
            .chain((y.len() as u64).to_le_bytes())
            .chain(y.iter().flat_map(|v| v.to_bits().to_le_bytes()));
        for b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Whether `y` holds `want` (extra trailing padding allowed), up to
    /// f32 summation-order rounding: vectorized CRS sums a row in a
    /// different order than the COO product.
    pub fn spmv_matches(y: &[f32], want: &[f32]) -> bool {
        y.len() >= want.len()
            && y.iter()
                .zip(want)
                .all(|(a, b)| (a - b).abs() <= 1e-3 * (1.0 + b.abs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_vector_digest_matches_the_service_encoding() {
        let y = vec![1.0f32, -0.0, 3.5];
        let served = stm_core::KernelOutput::Vector(y.clone())
            .canonical_digest()
            .unwrap();
        assert_eq!(oracle::vector_digest(&y), served);
    }

    #[test]
    fn units_round_and_never_reach_zero() {
        assert_eq!(units(10.0, 0.2), 2);
        assert_eq!(units(5.0, 0.2), 1);
        assert_eq!(units(0.01, 0.2), 1);
        assert_eq!(units(10.0, 30_000.0), 300_000);
    }
}
