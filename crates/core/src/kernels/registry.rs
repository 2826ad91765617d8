//! The kernel registry: every simulated kernel as one row of a kernel
//! table, constructible by name as a [`Kernel`].
//!
//! This is the only place that maps kernel names to implementations —
//! benchmark binaries, the batch harness and tests all go through
//! [`create`] instead of importing kernel functions directly, so adding a
//! kernel means adding one row to the table here. A row holds only what
//! differs between kernels: the name, how to prepare the input, the
//! simulated leg, the optional host leg, the output variant, the verify
//! oracle, the fallback and the faults it hosts. [`NAMES`] and
//! [`HOST_CAPABLE`] are read off the table at compile time.
//!
//! A kernel's prepared input is one of six storage formats (HiSM image,
//! CSR, the dense kernel's COO, COO triplets, JD and SELL-C-σ arrays).
//! Each format owns its fault corruptor, so [`Kernel::inject_fault`] can
//! corrupt the *prepared* input and the robustness suite can prove each
//! kernel degrades into a typed [`KernelError`] rather than a panic or a
//! silently wrong answer. The four array formats share one corruptor for
//! the index and value corruptions they have in common.

pub use crate::exec::{
    spmv_input, Backend, ExecCtx, KernelError, KernelFailure, KernelOutput, KernelReport, Stage,
};

use crate::kernels::coo_transpose::CooArrays;
use crate::kernels::jd_transpose::JdArrays;
use crate::kernels::sell::SellArrays;
use crate::kernels::{
    spmv_crs, spmv_hism, spmv_sell, transpose_coo, transpose_crs, transpose_crs_scalar,
    transpose_dense, transpose_hism, transpose_jd, transpose_sell,
};
use crate::obs::{record_lifecycle, record_phases};
use crate::report::{Phase, TransposeReport};
use std::time::{Duration, Instant};
use stm_hism::{build, faults, FaultClass, FaultRecord, HismImage};
use stm_host as host;
use stm_obs::{Category, Lane};
use stm_sparse::rng::StdRng;
use stm_sparse::{Coo, Csc, Csr, Jd, Sell, SellConfig, Value};

/// A leg's functional output and timed report.
type Leg = Result<(KernelOutput, TransposeReport), KernelError>;

/// A host leg's functional output and the `(rows, cols, nnz)` shape its
/// nominal cost is charged on.
type HostLeg = Result<(KernelOutput, (usize, usize, usize)), KernelError>;

/// One row of the kernel table: everything that differs between two
/// registered kernels.
#[derive(Debug)]
struct Row {
    /// The registry name.
    name: &'static str,
    /// Builds the prepared input from a COO matrix. Pure host-side work:
    /// no simulated cycles are charged.
    prepare: fn(&Coo, &ExecCtx) -> Result<Prepared, KernelError>,
    /// The simulated leg; SpMV legs multiply by the operand `x`.
    sim: fn(&ExecCtx, &Prepared, &[Value]) -> Leg,
    /// The host-native leg in `stm-host`, for the [`HOST_CAPABLE`]
    /// kernels.
    host: Option<Host>,
    /// The output variant; a `Vector` kernel is an SpMV kernel and also
    /// prepares the operand `x` ([`spmv_input`]).
    output: Output,
    /// The oracle an output is checked against. It shares no code with
    /// the legs it judges.
    verify: fn(&Oracle, &[Value], &KernelOutput) -> Result<(), KernelError>,
    /// See [`fallback_for`].
    fallback: Option<&'static str>,
    /// What the robustness suite may corrupt.
    faults: Faults,
}

/// A host-native leg: its trace span and the `stm-host` call.
#[derive(Debug)]
struct Host {
    span: &'static str,
    run: fn(&ExecCtx, &Prepared, &[Value]) -> HostLeg,
}

/// The [`KernelOutput`] variant a kernel produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Output {
    Hism,
    Csr,
    Dense,
    Vector,
}

/// What a kernel lets the robustness suite corrupt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Faults {
    /// Nothing: a fallback that could itself be corrupted would be
    /// worthless.
    None,
    /// The prepared input, through its format's corruptor.
    Input,
    /// The prepared input, and simulated memory mid-run
    /// ([`Kernel::arm_sdc`]).
    InputAndMidRun,
}

/// The kernel table, in canonical order.
const TABLE: &[Row; 12] = &[
    // The recursive HiSM transposition (paper Fig. 6/7) through the STM.
    Row {
        name: "transpose_hism",
        prepare: prepare_hism,
        sim: |ctx, p, _| out(KernelOutput::Hism, transpose_hism(ctx, p.hism()?)),
        host: Some(Host {
            span: "host.transpose_hism",
            run: |ctx, p, _| {
                let image = p.hism()?;
                let (out, nnz) = host::hism::transpose_hism(image, ctx.stm.s).map_err(host_err)?;
                let shape = (image.root.rows as usize, image.root.cols as usize, nnz);
                Ok((KernelOutput::Hism(out), shape))
            },
        }),
        output: Output::Hism,
        verify: verify_hism_transpose,
        fallback: Some("transpose_ref"),
        faults: Faults::InputAndMidRun,
    },
    // The vectorized CRS baseline (Pissanetsky, paper Fig. 9).
    Row {
        name: "transpose_crs",
        prepare: prepare_csr,
        sim: |ctx, p, _| out(KernelOutput::Csr, transpose_crs(ctx, p.csr()?)),
        host: Some(Host {
            span: "host.transpose_crs",
            run: |_, p, _| {
                let csr = p.csr()?;
                let out = host::csr::transpose_csr(csr).map_err(host_err)?;
                Ok((KernelOutput::Csr(out), (csr.rows(), csr.cols(), csr.nnz())))
            },
        }),
        output: Output::Csr,
        verify: verify_csr_transpose,
        fallback: Some("transpose_crs_scalar"),
        faults: Faults::Input,
    },
    // The fully scalar CRS baseline on the 4-way scalar core.
    Row {
        name: "transpose_crs_scalar",
        prepare: prepare_csr,
        sim: |ctx, p, _| out(KernelOutput::Csr, transpose_crs_scalar(ctx, p.csr()?)),
        host: None,
        output: Output::Csr,
        verify: verify_csr_transpose,
        fallback: None,
        faults: Faults::Input,
    },
    // The trivial dense strided transpose of the paper's Section II.
    Row {
        name: "transpose_dense",
        prepare: |coo, _| Ok(Prepared::Dense(coo.clone())),
        sim: |ctx, p, _| out(KernelOutput::Dense, transpose_dense(ctx, p.dense()?)),
        host: None,
        output: Output::Dense,
        verify: verify_dense_transpose,
        fallback: None,
        faults: Faults::Input,
    },
    // Simulated SpMV over the HiSM format.
    Row {
        name: "spmv_hism",
        prepare: prepare_hism,
        sim: |ctx, p, x| out(KernelOutput::Vector, spmv_hism(ctx, p.hism()?, x)),
        host: Some(Host {
            span: "host.spmv_hism",
            run: |ctx, p, x| {
                let image = p.hism()?;
                let (y, nnz) =
                    host::hism::spmv_hism(image, x, ctx.vp.section_size).map_err(host_err)?;
                let shape = (image.root.rows as usize, image.root.cols as usize, nnz);
                Ok((KernelOutput::Vector(y), shape))
            },
        }),
        output: Output::Vector,
        verify: verify_spmv,
        fallback: None,
        faults: Faults::Input,
    },
    // Simulated SpMV over the CSR format (the conventional baseline).
    Row {
        name: "spmv_crs",
        prepare: prepare_csr,
        sim: |ctx, p, x| out(KernelOutput::Vector, spmv_crs(ctx, p.csr()?, x)),
        host: Some(Host {
            span: "host.spmv_crs",
            run: |ctx, p, x| {
                let csr = p.csr()?;
                let y = host::csr::spmv_csr(csr, x, ctx.vp.section_size).map_err(host_err)?;
                Ok((KernelOutput::Vector(y), (csr.rows(), csr.cols(), csr.nnz())))
            },
        }),
        output: Output::Vector,
        verify: verify_spmv,
        fallback: None,
        faults: Faults::Input,
    },
    // The trusted software reference transpose — the degradation target
    // the resilient soak pipeline falls back to when `transpose_hism`'s
    // circuit breaker trips (see [`fallback_for`]). The transposition
    // runs entirely on the host (the same Pissanetsky oracle the
    // verifiers use) and is charged one nominal scalar phase, so the
    // deadline watchdog can never fire here and no fault class is hosted.
    Row {
        name: "transpose_ref",
        prepare: prepare_csr,
        sim: |ctx, p, _| {
            let csr = p.csr()?;
            let shape = (csr.rows(), csr.cols(), csr.nnz());
            let report = nominal_report(
                ctx,
                (Lane::Scalar, Category::Scalar),
                "host.reference",
                "host-reference",
                shape,
                None,
            );
            Ok((KernelOutput::Csr(csr.transpose_pissanetsky()), report))
        },
        host: None,
        output: Output::Csr,
        verify: verify_csr_transpose,
        fallback: None,
        faults: Faults::None,
    },
    // Simulated transposition straight from COO triplets (no row-pointer
    // construction on the host side).
    Row {
        name: "transpose_coo",
        prepare: |coo, _| {
            let mut canon = coo.clone();
            canon.canonicalize();
            Ok(Prepared::Coo(CooArrays {
                rows: canon.rows(),
                cols: canon.cols(),
                entries: canon.iter().copied().collect(),
            }))
        },
        sim: |ctx, p, _| out(KernelOutput::Csr, transpose_coo(ctx, p.coo()?)),
        host: None,
        output: Output::Csr,
        verify: verify_csr_transpose,
        fallback: Some("transpose_ref"),
        faults: Faults::Input,
    },
    // Transposition from CSC storage. CSC's arrays *are* the CSR arrays
    // of the transpose, so the kernel prepares the CSC of `A` read as the
    // CSR of `Aᵀ` and runs the Pissanetsky pipeline on it, yielding `A`
    // itself — which is exactly `Aᵀ` in CSC clothing.
    Row {
        name: "transpose_csc",
        prepare: |coo, _| Ok(Prepared::Csr(Csc::from_coo(coo).into_csr_of_transpose()?)),
        sim: |ctx, p, _| out(KernelOutput::Csr, transpose_crs(ctx, p.csr()?)),
        host: None,
        output: Output::Csr,
        verify: verify_csc_transpose,
        fallback: None,
        faults: Faults::Input,
    },
    // Simulated transposition from Jagged Diagonal storage (regroup to
    // CRS in simulated memory, then the standard pipeline).
    Row {
        name: "transpose_jd",
        prepare: |coo, _| Ok(Prepared::Jd(JdArrays::from_jd(&Jd::from_coo(coo)))),
        sim: |ctx, p, _| out(KernelOutput::Csr, transpose_jd(ctx, p.jd()?)),
        host: None,
        output: Output::Csr,
        verify: verify_csr_transpose,
        fallback: Some("transpose_ref"),
        faults: Faults::Input,
    },
    // Simulated transposition from SELL-C-σ storage.
    Row {
        name: "transpose_sell",
        prepare: prepare_sell,
        sim: |ctx, p, _| out(KernelOutput::Csr, transpose_sell(ctx, p.sell()?)),
        host: Some(Host {
            span: "host.transpose_sell",
            run: |_, p, _| {
                let sa = p.sell()?;
                let out = host::sell::transpose_sell(&sell_view(sa)).map_err(host_err)?;
                Ok((KernelOutput::Csr(out), sell_shape(sa)))
            },
        }),
        output: Output::Csr,
        verify: verify_csr_transpose,
        fallback: Some("transpose_ref"),
        faults: Faults::Input,
    },
    // Simulated SpMV over SELL-C-σ (the format's showcase kernel: the
    // active-lane prefix keeps padding off the memory ports).
    Row {
        name: "spmv_sell",
        prepare: prepare_sell,
        sim: |ctx, p, x| out(KernelOutput::Vector, spmv_sell(ctx, p.sell()?, x)),
        host: Some(Host {
            span: "host.spmv_sell",
            run: |ctx, p, x| {
                let sa = p.sell()?;
                let y = host::sell::spmv_sell(&sell_view(sa), x, ctx.vp.section_size)
                    .map_err(host_err)?;
                Ok((KernelOutput::Vector(y), sell_shape(sa)))
            },
        }),
        output: Output::Vector,
        verify: verify_spmv,
        fallback: None,
        faults: Faults::Input,
    },
];

/// All registered kernel names, in canonical order.
pub const NAMES: [&str; 12] = {
    let mut names = [""; 12];
    let mut i = 0;
    while i < TABLE.len() {
        names[i] = TABLE[i].name;
        i += 1;
    }
    names
};

/// All registered kernel names, in canonical order.
pub fn names() -> &'static [&'static str] {
    &NAMES
}

/// The table row registered under `name`.
fn row(name: &str) -> Option<&'static Row> {
    TABLE.iter().find(|row| row.name == name)
}

/// The graceful-degradation map used by the resilient soak pipeline: the
/// registry kernel to run instead of `name` once its circuit breaker has
/// tripped (or its run has failed). The HiSM+STM transpose and the other
/// format transposes degrade to the trusted software reference, the
/// vectorized CRS baseline to its fully scalar sibling; kernels without
/// an entry have no fallback.
pub fn fallback_for(name: &str) -> Option<&'static str> {
    row(name)?.fallback
}

/// The kernels with a host-native implementation in `stm-host` — the
/// kernels whose simulated and host legs must agree digest for digest.
/// Kernels not listed here ignore [`ExecCtx::backend`] and always
/// simulate.
pub const HOST_CAPABLE: [&str; 6] = {
    let mut names = [""; 6];
    let (mut i, mut n) = (0, 0);
    while i < TABLE.len() {
        if TABLE[i].host.is_some() {
            names[n] = TABLE[i].name;
            n += 1;
        }
        i += 1;
    }
    assert!(n == names.len(), "HOST_CAPABLE must list every host leg");
    names
};

/// Whether the named kernel dispatches to the host backend when
/// [`ExecCtx::backend`] asks for one.
pub fn host_capable(name: &str) -> bool {
    row(name).is_some_and(|row| row.host.is_some())
}

/// Constructs the kernel registered under `name`, or `None` if the name
/// is unknown. See [`NAMES`] for the registered set.
pub fn create(name: &str) -> Option<Kernel> {
    row(name).map(|row| Kernel {
        row,
        input: None,
        x: Vec::new(),
    })
}

/// Prepare + run + verify in one call — the common harness path.
///
/// Returns the report of the named kernel on `coo` under `ctx`, after
/// checking the functional output against the host oracle. Failures are
/// attributed to the lifecycle stage they occurred in.
pub fn run_verified(name: &str, coo: &Coo, ctx: &ExecCtx) -> Result<KernelReport, KernelFailure> {
    let fail = |stage: Stage, error: KernelError| KernelFailure {
        kernel: name.to_string(),
        stage,
        error,
    };
    let mut kernel =
        create(name).ok_or_else(|| fail(Stage::Prepare, KernelError::Unknown(name.to_string())))?;
    kernel
        .prepare(coo, ctx)
        .map_err(|e| fail(Stage::Prepare, e))?;
    let report = kernel.run(ctx).map_err(|e| fail(Stage::Run, e))?;
    kernel
        .verify(coo, &report.output)
        .map_err(|e| fail(Stage::Verify, e))?;
    record_lifecycle(&ctx.obs, &report, kernel.prepared_bytes());
    Ok(report)
}

/// A registered kernel with a uniform prepare → run → verify lifecycle:
/// its row of the kernel table plus the input [`Kernel::prepare`] built.
///
/// * [`prepare`](Kernel::prepare) builds the kernel's input format from a
///   COO matrix (HiSM image, CSR arrays, dense array, SpMV operand
///   vector) and validates it against the context. Pure host-side work —
///   no simulated cycles are charged.
/// * [`run`](Kernel::run) executes the kernel on the simulated machine
///   described by the context and returns the timed report, or a typed
///   error ([`KernelError::NotPrepared`] without a successful `prepare`,
///   [`KernelError::MemFault`]/[`KernelError::Corrupt`]/… when the
///   prepared input turns out to be corrupted).
/// * [`verify`](Kernel::verify) checks a functional output against the
///   host-side oracle for the original matrix.
/// * [`inject_fault`](Kernel::inject_fault) corrupts the *prepared* input
///   in place for robustness testing; kernels that cannot host a class
///   return [`KernelError::FaultUnsupported`].
#[derive(Debug)]
pub struct Kernel {
    row: &'static Row,
    input: Option<Prepared>,
    /// The SpMV operand; empty for the transposes.
    x: Vec<Value>,
}

impl Kernel {
    /// The registry name of this kernel (e.g. `"transpose_hism"`).
    pub fn name(&self) -> &'static str {
        self.row.name
    }

    /// Converts `coo` into the kernel's input format and stores it.
    pub fn prepare(&mut self, coo: &Coo, ctx: &ExecCtx) -> Result<(), KernelError> {
        self.input = Some((self.row.prepare)(coo, ctx)?);
        if self.row.output == Output::Vector {
            self.x = spmv_input(coo.cols());
        }
        Ok(())
    }

    /// Executes the prepared input on the context's machine — on the
    /// host when [`ExecCtx::backend`] asks for it and the kernel has a
    /// host leg.
    pub fn run(&mut self, ctx: &ExecCtx) -> Result<KernelReport, KernelError> {
        let input = self.input.as_ref().ok_or(KernelError::NotPrepared)?;
        let (output, report) = match &self.row.host {
            Some(leg) if ctx.backend.is_host() => {
                let t0 = Instant::now();
                let (output, shape) = (leg.run)(ctx, input, &self.x)?;
                let wall = Some(t0.elapsed());
                let report = nominal_report(
                    ctx,
                    (Lane::Host, Category::Host),
                    leg.span,
                    leg.span,
                    shape,
                    wall,
                );
                (output, report)
            }
            _ => (self.row.sim)(ctx, input, &self.x)?,
        };
        Ok(KernelReport {
            kernel: self.row.name,
            report,
            output_digest: output.digest(),
            output,
        })
    }

    /// Checks `out` against the host oracle for `coo`.
    pub fn verify(&self, coo: &Coo, out: &KernelOutput) -> Result<(), KernelError> {
        self.verify_with(&Oracle::new(coo), out)
    }

    /// Checks `out` against `oracle`, which legs of the same matrix may
    /// share.
    pub fn verify_with(&self, oracle: &Oracle, out: &KernelOutput) -> Result<(), KernelError> {
        (self.row.verify)(oracle, &self.x, out)
    }

    /// Applies one deterministic fault of `class` to the prepared input
    /// (call after [`Kernel::prepare`], before [`Kernel::run`]).
    pub fn inject_fault(
        &mut self,
        class: FaultClass,
        seed: u64,
    ) -> Result<FaultRecord, KernelError> {
        let input = self.input.as_mut().ok_or(KernelError::NotPrepared)?;
        let spmv = self.row.output == Output::Vector;
        let record = match self.row.faults {
            Faults::None => None,
            _ => input.corrupt(class, seed, spmv.then_some(&self.x)),
        };
        record.ok_or(KernelError::FaultUnsupported {
            kernel: self.row.name,
            class,
        })
    }

    /// Approximate size in bytes of the prepared input (what `prepare`
    /// built), used for the per-stage byte counters in traces. 0 until a
    /// successful [`Kernel::prepare`].
    pub fn prepared_bytes(&self) -> u64 {
        self.input
            .as_ref()
            .map_or(0, |input| input.bytes() + 4 * self.x.len() as u64)
    }

    /// Picks a seeded *silent-data-corruption* payload for this kernel:
    /// a mid-run single-bit flip of a simulated-memory word that carries
    /// matrix content (arm it via [`ExecCtx`]'s `vp.mid_run_flip` before
    /// [`Kernel::run`]). Unlike [`Kernel::inject_fault`] — which corrupts
    /// the *prepared* input, where sealed-image checksums and structural
    /// validation can catch it — a mid-run flip lands after every input
    /// check has passed and is silent by construction: only comparing
    /// output digests across independent executions can see it. `None`
    /// means the kernel hosts no SDC; only `transpose_hism` does.
    pub fn arm_sdc(&self, seed: u64) -> Option<stm_vpsim::MidRunFlip> {
        let Some(Prepared::Hism(image)) = &self.input else {
            return None;
        };
        if self.row.faults != Faults::InputAndMidRun {
            return None;
        }
        // The simulated kernel loads the image at memory address 0, so
        // image word addresses are memory addresses. Target a leaf value
        // word: the transpose copies value bits verbatim, so the flip —
        // when the engine reads the word after it fires — lands in the
        // output unchanged by any arithmetic. (It can still be *masked*
        // when the strip streaming that word was already loaded; callers
        // asserting detection must pick manifesting seeds.)
        let sites = image.value_sites().ok()?;
        if sites.is_empty() {
            return None;
        }
        let mut r = StdRng::seed_from_u64(seed ^ 0x5dc_f11b);
        let word = sites[r.gen_range(0..sites.len())];
        let bit = (r.next_u64() % 32) as u32;
        Some(stm_vpsim::MidRunFlip {
            after_cycle: 0,
            word,
            bit,
        })
    }
}

/// Wraps a kernel function's typed result as a [`Leg`].
fn out<T>(variant: fn(T) -> KernelOutput, run: Result<(T, TransposeReport), KernelError>) -> Leg {
    run.map(|(output, report)| (variant(output), report))
}

/// Maps a host-kernel failure onto the registry's typed errors.
fn host_err(e: host::HostError) -> KernelError {
    match e {
        host::HostError::Corrupt(m) => KernelError::Corrupt(m),
        host::HostError::Config(m) => KernelError::Config(m),
    }
}

/// The report of a leg that runs on the host: a nominal linear cost (two
/// passes over the entries plus one over each dimension, mapped through
/// the timing model so the ideal bound stays below the paper machine)
/// keeps simulated cycles deterministic and the stall-conservation
/// invariants true. Host legs also carry the measured wall-clock. Emits a
/// `span` on `lane` when tracing is on.
fn nominal_report(
    ctx: &ExecCtx,
    (lane, category): (Lane, Category),
    span: &'static str,
    phase: &'static str,
    (rows, cols, nnz): (usize, usize, usize),
    wall: Option<Duration>,
) -> TransposeReport {
    let nominal = 8 + 2 * nnz as u64 + rows as u64 + cols as u64;
    let cycles = ctx.timing.model().scalar_cycles(nominal);
    let report = TransposeReport {
        cycles,
        nnz,
        engine: Default::default(),
        scalar: None,
        stm: None,
        phases: vec![Phase {
            name: phase,
            cycles,
        }],
        fu_busy: Default::default(),
        stalls: stm_vpsim::StallBreakdown::scalar_only(ctx.vp.mem_ports, cycles),
        wall_ns: wall.map(|w| w.as_nanos().min(u64::MAX as u128) as u64),
    };
    if ctx.obs.is_enabled() {
        ctx.obs
            .complete(lane, category, span, 0, cycles, nnz as u64);
    }
    record_phases(&ctx.obs, &report.phases);
    report
}

fn prepare_hism(coo: &Coo, ctx: &ExecCtx) -> Result<Prepared, KernelError> {
    ctx.validate().map_err(KernelError::Config)?;
    Ok(Prepared::Hism(build::image_from_coo(coo, ctx.stm.s)?))
}

fn prepare_csr(coo: &Coo, _: &ExecCtx) -> Result<Prepared, KernelError> {
    Ok(Prepared::Csr(Csr::from_coo(coo)))
}

/// Builds the SELL-C-σ arrays for the machine at hand: chunks as tall as
/// the vector section, σ = 8 chunks of sort window.
fn prepare_sell(coo: &Coo, ctx: &ExecCtx) -> Result<Prepared, KernelError> {
    let c = ctx.vp.section_size;
    let sell = Sell::from_coo_with(coo, SellConfig { c, sigma: 8 * c })?;
    Ok(Prepared::Sell(SellArrays::from_sell(&sell)))
}

/// Borrows the SELL arrays as the view the host backend consumes.
fn sell_view(sa: &SellArrays) -> host::sell::SellView<'_> {
    host::sell::SellView {
        rows: sa.rows,
        cols: sa.cols,
        c: sa.c,
        perm: &sa.perm,
        chunk_ptr: &sa.chunk_ptr,
        chunk_len: &sa.chunk_len,
        row_len: &sa.row_len,
        col_idx: &sa.col_idx,
        values: &sa.values,
    }
}

/// The `(rows, cols, nnz)` a SELL host leg is charged on.
fn sell_shape(sa: &SellArrays) -> (usize, usize, usize) {
    (sa.rows, sa.cols, sa.row_len.iter().sum())
}

/// The host oracle of one matrix: its transpose by `stm-sparse`'s
/// Pissanetsky algorithm (what the format layer's `Csr::transpose`
/// returns), built on first use and then shared by every leg that
/// verifies against it — the batch harness builds one per matrix for
/// its HiSM and CRS legs. It uses only `stm-sparse`, so it shares no
/// code with any simulated or host leg it judges.
#[derive(Debug)]
pub struct Oracle<'a> {
    coo: &'a Coo,
    transpose: std::sync::OnceLock<Csr>,
}

impl<'a> Oracle<'a> {
    /// The oracle of `coo`; nothing is computed yet.
    pub fn new(coo: &'a Coo) -> Self {
        Oracle {
            coo,
            transpose: std::sync::OnceLock::new(),
        }
    }

    /// The matrix itself.
    pub fn coo(&self) -> &'a Coo {
        self.coo
    }

    /// The matrix's transpose as canonical CSR.
    pub fn transpose(&self) -> &Csr {
        self.transpose
            .get_or_init(|| Csr::from_coo(self.coo).transpose_pissanetsky())
    }
}

/// Checks a HiSM transpose in one walk over the output image, with every
/// check [`HismImage::decode`] makes: its integrity sums, bounds,
/// runaway budget, positions and shape. On the way every entry must
/// claim a distinct entry of the oracle with identical value bits; with
/// equal counts that makes the match a bijection, so duplicates and
/// explicit zeros in the output are rejected, not summed away. The
/// oracle is stm-sparse's Pissanetsky transpose, which shares no code
/// with either HiSM leg.
///
/// A failure is reported as the first failing entry in the order of the
/// decoded blockarrays (row-major at every level); a failing image is
/// walked a second time in that order to find it.
fn verify_hism_transpose(
    oracle: &Oracle,
    _: &[Value],
    out: &KernelOutput,
) -> Result<(), KernelError> {
    let img = out
        .as_hism()
        .ok_or_else(|| KernelError::Mismatch("transpose_hism produces Hism outputs".into()))?;
    let want = oracle.transpose();
    let mut claims = Claims::new(want);
    img.walk(&mut claims)?;
    let mismatch = |what: String| {
        Err(KernelError::Mismatch(format!(
            "decoded HiSM transpose differs from host oracle: {what}"
        )))
    };
    let shape = (img.root.rows as usize, img.root.cols as usize);
    if shape != want.shape() || claims.nnz != want.nnz() {
        return mismatch(format!(
            "{:?} with {} entries, expected {:?} with {}",
            shape,
            claims.nnz,
            want.shape(),
            want.nnz()
        ));
    }
    if claims.failure.is_none() {
        return Ok(());
    }
    let mut claims = Claims::new(want);
    img.walk_in_position_order(&mut claims)?;
    match claims.failure {
        Some(what) => mismatch(what),
        None => Ok(()),
    }
}

/// The oracle entries a HiSM output's entries have claimed, one bit per
/// entry of the oracle's CSR, and the first entry that failed to claim.
struct Claims<'a> {
    want: &'a Csr,
    claimed: Vec<u64>,
    nnz: usize,
    failure: Option<String>,
}

impl<'a> Claims<'a> {
    fn new(want: &'a Csr) -> Self {
        Claims {
            want,
            claimed: vec![0; want.nnz().div_ceil(64)],
            nnz: 0,
            failure: None,
        }
    }
}

impl stm_hism::image::Visitor for Claims<'_> {
    type Block = ();

    fn entry(&mut self, _: u32, _: (u8, u8), (r, c): (u64, u64), bits: u32) {
        self.nnz += 1;
        if self.failure.is_some() {
            return;
        }
        let want = self.want;
        let (r, c) = (r as usize, c as usize);
        let slot = (r < want.rows())
            .then(|| {
                let (cols, vals) = want.row(r);
                let k = cols.binary_search(&c).ok()?;
                (vals[k].to_bits() == bits).then(|| want.row_ptr()[r] + k)
            })
            .flatten();
        let v = Value::from_bits(bits);
        let Some(slot) = slot else {
            self.failure = Some(format!("entry ({r}, {c}) = {v} is not in the oracle"));
            return;
        };
        let (word, bit) = (slot / 64, 1u64 << (slot % 64));
        if self.claimed[word] & bit != 0 {
            self.failure = Some(format!("entry ({r}, {c}) appears twice"));
            return;
        }
        self.claimed[word] |= bit;
    }
}

fn verify_csr_transpose(
    oracle: &Oracle,
    _: &[Value],
    out: &KernelOutput,
) -> Result<(), KernelError> {
    let got = out
        .as_csr()
        .ok_or_else(|| KernelError::Mismatch("CRS kernels produce Csr outputs".into()))?;
    if got == oracle.transpose() {
        Ok(())
    } else {
        Err(KernelError::Mismatch(
            "CRS transpose differs from host oracle".into(),
        ))
    }
}

/// The CSC kernel's output must equal `Csr::from_coo(A)` bit for bit:
/// those arrays read as CSC are canonical `Aᵀ`.
fn verify_csc_transpose(
    oracle: &Oracle,
    _: &[Value],
    out: &KernelOutput,
) -> Result<(), KernelError> {
    let got = out
        .as_csr()
        .ok_or_else(|| KernelError::Mismatch("transpose_csc produces Csr outputs".into()))?;
    if *got == Csr::from_coo(oracle.coo()) {
        Ok(())
    } else {
        Err(KernelError::Mismatch(
            "CSC transpose differs from host oracle".into(),
        ))
    }
}

fn verify_dense_transpose(
    oracle: &Oracle,
    _: &[Value],
    out: &KernelOutput,
) -> Result<(), KernelError> {
    let coo = oracle.coo();
    let KernelOutput::Dense(got) = out else {
        return Err(KernelError::Mismatch(
            "transpose_dense produces Dense outputs".into(),
        ));
    };
    if got.to_coo() == coo.transpose_canonical() {
        Ok(())
    } else {
        Err(KernelError::Mismatch(
            "dense transpose differs from host oracle".into(),
        ))
    }
}

fn verify_spmv(oracle: &Oracle, x: &[Value], out: &KernelOutput) -> Result<(), KernelError> {
    let coo = oracle.coo();
    let y = out
        .as_vector()
        .ok_or_else(|| KernelError::Mismatch("spmv kernels produce Vector outputs".into()))?;
    let expect = coo.spmv(x)?;
    if y.len() < expect.len() {
        return Err(KernelError::Mismatch(format!(
            "y length {} < rows {}",
            y.len(),
            expect.len()
        )));
    }
    for (i, (a, b)) in y.iter().zip(&expect).enumerate() {
        if (a - b).abs() > 1e-3 * (1.0 + b.abs()) {
            return Err(KernelError::Mismatch(format!(
                "y[{i}] = {a} differs from oracle {b}"
            )));
        }
    }
    Ok(())
}

/// A kernel's prepared input, one variant per storage format. Each
/// variant sizes itself ([`Prepared::bytes`]) and owns its corruptor
/// ([`Prepared::corrupt`]).
#[derive(Debug)]
enum Prepared {
    /// An encoded HiSM image.
    Hism(HismImage),
    /// CSR arrays (for the CSC kernel, the CSR of `Aᵀ`).
    Csr(Csr),
    /// The COO matrix the dense kernel materialises.
    Dense(Coo),
    /// Canonical COO triplets.
    Coo(CooArrays),
    /// Jagged Diagonal arrays.
    Jd(JdArrays),
    /// SELL-C-σ arrays.
    Sell(SellArrays),
}

/// The accessors a row's legs read their input through. A row's legs
/// read the variant its own `prepare` builds, so another variant never
/// reaches them; it reads as not prepared.
impl Prepared {
    fn hism(&self) -> Result<&HismImage, KernelError> {
        match self {
            Prepared::Hism(image) => Ok(image),
            _ => Err(KernelError::NotPrepared),
        }
    }

    fn csr(&self) -> Result<&Csr, KernelError> {
        match self {
            Prepared::Csr(csr) => Ok(csr),
            _ => Err(KernelError::NotPrepared),
        }
    }

    fn dense(&self) -> Result<&Coo, KernelError> {
        match self {
            Prepared::Dense(coo) => Ok(coo),
            _ => Err(KernelError::NotPrepared),
        }
    }

    fn coo(&self) -> Result<&CooArrays, KernelError> {
        match self {
            Prepared::Coo(ca) => Ok(ca),
            _ => Err(KernelError::NotPrepared),
        }
    }

    fn jd(&self) -> Result<&JdArrays, KernelError> {
        match self {
            Prepared::Jd(jda) => Ok(jda),
            _ => Err(KernelError::NotPrepared),
        }
    }

    fn sell(&self) -> Result<&SellArrays, KernelError> {
        match self {
            Prepared::Sell(sa) => Ok(sa),
            _ => Err(KernelError::NotPrepared),
        }
    }

    /// Approximate byte size, one 32-bit word per array element.
    fn bytes(&self) -> u64 {
        match self {
            Prepared::Hism(image) => 4 * (image.words.len() as u64 + 6),
            Prepared::Csr(csr) => {
                4 * (csr.row_ptr().len() + csr.col_idx().len() + csr.values().len()) as u64
            }
            // The kernel materialises the full dense array in simulated
            // memory.
            Prepared::Dense(coo) => 4 * (coo.rows() * coo.cols()) as u64,
            Prepared::Coo(ca) => 12 * ca.entries.len() as u64,
            Prepared::Jd(j) => {
                4 * (j.perm.len() + j.jd_ptr.len() + j.col_idx.len() + j.values.len()) as u64
            }
            Prepared::Sell(sa) => 4 * sa.words(),
        }
    }

    /// Applies one seeded fault of `class`, in the image of the HiSM
    /// fault taxonomy; `None` if this input cannot host it. `x` is the
    /// SpMV operand of an SpMV kernel, whose value corruption negates
    /// the dominant term instead of a random value.
    fn corrupt(
        &mut self,
        class: FaultClass,
        seed: u64,
        x: Option<&[Value]>,
    ) -> Option<FaultRecord> {
        let detail = match self {
            Prepared::Hism(image) => {
                return match x {
                    // Weight sites by the |a·x| term they feed, so the flip
                    // can neither multiply a zero of x nor round away in
                    // the sum.
                    Some(x) if class == FaultClass::ValueCorruption => {
                        faults::inject_value_corruption(image, |_, c, v| {
                            v.abs() as f64 * x.get(c as usize).map_or(0.0, |e| e.abs() as f64)
                        })
                    }
                    _ => faults::inject(image, class, seed),
                };
            }
            Prepared::Csr(csr) => corrupt_csr(csr, class, seed, x),
            Prepared::Dense(coo) => corrupt_dense(coo, class, seed),
            Prepared::Coo(ca) => corrupt_coo(ca, class, seed),
            Prepared::Jd(jda) => corrupt_jd(jda, class, seed),
            Prepared::Sell(sa) => corrupt_sell(sa, class, seed, x),
        }?;
        Some(FaultRecord {
            class,
            word: None,
            detail,
        })
    }
}

/// The seeded stream one injection of `class` draws from.
fn fault_rng(salt: u64, class: FaultClass, seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ salt ^ class.name().len() as u64)
}

/// How an array format seeds its corruptor and names, in fault records,
/// the words [`corrupt_entries`] hits.
struct Words {
    /// Per-format salt of [`fault_rng`].
    salt: u64,
    /// Index word `k`, as a bit-flip target.
    index: fn(usize) -> String,
    /// Index word `k`, as a garbage-position target.
    garbage: fn(usize) -> String,
    /// Value word `k`; `None` if the format hosts no value corruption.
    value: Option<fn(usize) -> String>,
    /// What a truncation drops the last of.
    truncated: &'static str,
}

const CSR_WORDS: Words = Words {
    salt: 0xc5_5712,
    index: |k| format!("JA[{k}]"),
    garbage: |k| format!("column index JA[{k}]"),
    value: Some(|k| format!("AN[{k}]")),
    truncated: "entries, row pointers unchanged",
};

const COO_WORDS: Words = Words {
    salt: 0xc0_07a1,
    index: |k| format!("entry {k}'s column"),
    garbage: |k| format!("entry {k}'s column"),
    value: None,
    truncated: "triplets",
};

const JD_WORDS: Words = Words {
    salt: 0x1d_77a9,
    index: |k| format!("diagonal column {k}"),
    garbage: |k| format!("diagonal column {k}"),
    value: Some(|k| format!("diagonal value {k}")),
    truncated: "entries, jd_ptr unchanged",
};

const SELL_WORDS: Words = Words {
    salt: 0x5e_11c5,
    index: |k| format!("active cell {k}'s column"),
    garbage: |k| format!("active cell {k}'s column"),
    value: Some(|k| format!("active cell {k}'s value")),
    truncated: "cells, chunk_ptr unchanged",
};

/// The corruptions every array format shares, over its column-index and
/// value arrays: a bit flip of an index word, a garbage index, a dropped
/// last entry and a value sign flip. Index and value faults target one of
/// `cells` (SELL passes its active cells only: corrupting padding would
/// be invisible by construction and prove nothing). Returns the record's
/// detail, or `None` if the format cannot host `class` here.
fn corrupt_entries(
    words: &Words,
    idx: &mut Vec<usize>,
    vals: &mut Vec<Value>,
    cells: &[usize],
    cols: usize,
    class: FaultClass,
    r: &mut StdRng,
) -> Option<String> {
    if cells.is_empty() {
        return None;
    }
    Some(match class {
        FaultClass::BitFlip => {
            // A value-word flip can hide inside the SpMV verify tolerance
            // (or be masked by a zero in x), so flip an index word, and a
            // bit high enough that the index is guaranteed out of range.
            let k = cells[r.gen_range(0..cells.len())];
            let lo = (cols.max(1) as u32).next_power_of_two().trailing_zeros();
            let bit = (lo + (r.next_u64() % 4) as u32).min(30);
            idx[k] ^= 1usize << bit;
            format!("flipped bit {bit} of {}", (words.index)(k))
        }
        FaultClass::PosGarbage => {
            let k = cells[r.gen_range(0..cells.len())];
            let bogus = cols + 1 + (r.next_u64() % 512) as usize;
            idx[k] = bogus;
            format!("{} set to {bogus} (cols {cols})", (words.garbage)(k))
        }
        FaultClass::Truncate => {
            let n = idx.len();
            idx.pop();
            vals.pop();
            format!("dropped the last of {n} {}", words.truncated)
        }
        FaultClass::ValueCorruption => {
            // A sign-bit flip of a nonzero value is guaranteed to change
            // the output bit pattern of every downstream kernel while
            // leaving all structure (and therefore every typed check)
            // intact.
            let value = words.value?;
            let live: Vec<usize> = cells.iter().copied().filter(|&k| vals[k] != 0.0).collect();
            if live.is_empty() {
                return None;
            }
            let k = live[r.gen_range(0..live.len())];
            vals[k] = f32::from_bits(vals[k].to_bits() ^ 1 << 31);
            format!("flipped the sign bit of {} (structure untouched)", value(k))
        }
        // Pointer and length faults are format-specific; mid-run memory
        // corruption lives in the simulator engine, not in host-side
        // prepared arrays.
        _ => return None,
    })
}

/// [`FaultClass::ValueCorruption`] for the SpMV kernels: flips the sign
/// bit of the candidate value with the largest `|a·x|` weight — the
/// dominant term of the product. A random value flip can legitimately
/// round away inside the f32 row accumulation (or multiply a zero of
/// `x`), but negating the globally dominant term always survives into
/// the output bits, keeping the class digest-detectable. Candidates are
/// `cells`, each multiplying `x` at its column index.
fn flip_dominant_term(
    vals: &mut [Value],
    idx: &[usize],
    cells: &[usize],
    x: &[Value],
) -> Option<String> {
    let (k, _) = cells
        .iter()
        .map(|&k| {
            let w = (vals[k].abs() as f64) * x.get(idx[k]).map_or(0.0, |e| e.abs() as f64);
            (k, w)
        })
        .filter(|&(_, w)| w > 0.0 && w.is_finite())
        .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)))?;
    vals[k] = f32::from_bits(vals[k].to_bits() ^ 1 << 31);
    Some(format!(
        "sign-flipped the dominant SpMV term at value {k} (structure untouched)"
    ))
}

/// The CSR corruptor, rebuilding the matrix through
/// `Csr::from_parts_unchecked` (the invariants are broken on purpose).
fn corrupt_csr(csr: &mut Csr, class: FaultClass, seed: u64, x: Option<&[Value]>) -> Option<String> {
    let mut r = fault_rng(CSR_WORDS.salt, class, seed);
    let nnz = csr.nnz();
    let (rows, cols, mut row_ptr, mut col_idx, mut values) = csr.clone().into_parts();
    let every: Vec<usize> = (0..nnz).collect();
    let detail = match (class, x) {
        (FaultClass::ValueCorruption, Some(x)) => {
            flip_dominant_term(&mut values, &col_idx, &every, x)
        }
        (FaultClass::PointerRetarget | FaultClass::LengthCorruption, _) if rows == 0 => None,
        (FaultClass::PointerRetarget, _) => {
            let k = r.gen_range(1..rows + 1);
            let bogus = nnz + 1 + (r.next_u64() % 1024) as usize;
            row_ptr[k] = bogus;
            Some(format!(
                "row pointer IA[{k}] retargeted to {bogus} (nnz {nnz})"
            ))
        }
        (FaultClass::LengthCorruption, _) => {
            let bogus = nnz + 1 + (r.next_u64() % 1024) as usize;
            row_ptr[rows] = bogus;
            Some(format!(
                "row pointer IA[{rows}] (total length) set to {bogus}"
            ))
        }
        _ => corrupt_entries(
            &CSR_WORDS,
            &mut col_idx,
            &mut values,
            &every,
            cols,
            class,
            &mut r,
        ),
    }?;
    *csr = Csr::from_parts_unchecked(rows, cols, row_ptr, col_idx, values);
    Some(detail)
}

/// The dense kernel's corruptor. COO has no pointers or lengths vector
/// to corrupt, and its insertion API enforces coordinate bounds — only
/// value-level faults apply.
fn corrupt_dense(coo: &mut Coo, class: FaultClass, seed: u64) -> Option<String> {
    let mut r = fault_rng(0xde_55e1, class, seed);
    let mut entries = coo.entries().to_vec();
    if entries.is_empty() {
        return None;
    }
    let detail = match class {
        FaultClass::BitFlip => {
            let k = r.gen_range(0..entries.len());
            let bit = (r.next_u64() % 32) as u32;
            entries[k].2 = f32::from_bits(entries[k].2.to_bits() ^ (1 << bit));
            format!("flipped bit {bit} of entry {k}")
        }
        FaultClass::Truncate => {
            let n = entries.len();
            entries.pop();
            format!("dropped the last of {n} entries")
        }
        _ => return None,
    };
    let mut corrupted = Coo::new(coo.rows(), coo.cols());
    for (row, col, v) in entries {
        corrupted.push(row, col, v);
    }
    *coo = corrupted;
    Some(detail)
}

/// The COO-triplet corruptor. The format has no pointer or length
/// arrays, so only the shared entry-level classes apply.
fn corrupt_coo(ca: &mut CooArrays, class: FaultClass, seed: u64) -> Option<String> {
    let mut r = fault_rng(COO_WORDS.salt, class, seed);
    let (coords, mut vals): (Vec<(usize, usize)>, Vec<Value>) =
        ca.entries.iter().map(|&(i, j, v)| ((i, j), v)).unzip();
    let (rows, mut idx): (Vec<usize>, Vec<usize>) = coords.into_iter().unzip();
    let every: Vec<usize> = (0..idx.len()).collect();
    let detail = corrupt_entries(
        &COO_WORDS, &mut idx, &mut vals, &every, ca.cols, class, &mut r,
    )?;
    ca.entries = rows
        .into_iter()
        .zip(idx)
        .zip(vals)
        .map(|((i, j), v)| (i, j, v))
        .collect();
    Some(detail)
}

/// The JD corruptor — the full taxonomy applies: the format has column
/// indices (bit flips, garbage), diagonal pointers (retarget, length)
/// and data arrays (truncation).
fn corrupt_jd(jda: &mut JdArrays, class: FaultClass, seed: u64) -> Option<String> {
    let mut r = fault_rng(JD_WORDS.salt, class, seed);
    let nnz = jda.col_idx.len();
    if nnz == 0 {
        return None;
    }
    let n_diag = jda.jd_ptr.len() - 1;
    match class {
        FaultClass::PointerRetarget => {
            let k = 1 + (r.next_u64() as usize) % n_diag;
            let bogus = nnz + 1 + (r.next_u64() % 1024) as usize;
            jda.jd_ptr[k] = bogus;
            Some(format!(
                "diagonal pointer jd_ptr[{k}] retargeted to {bogus} (nnz {nnz})"
            ))
        }
        FaultClass::LengthCorruption => {
            let bogus = nnz + 1 + (r.next_u64() % 1024) as usize;
            jda.jd_ptr[n_diag] = bogus;
            Some(format!("jd_ptr[{n_diag}] (total length) set to {bogus}"))
        }
        _ => corrupt_entries(
            &JD_WORDS,
            &mut jda.col_idx,
            &mut jda.values,
            &(0..nnz).collect::<Vec<_>>(),
            jda.cols,
            class,
            &mut r,
        ),
    }
}

/// The SELL corruptor, shared by the two SELL kernels. Every fault
/// targets *active* cells only.
fn corrupt_sell(
    sa: &mut SellArrays,
    class: FaultClass,
    seed: u64,
    x: Option<&[Value]>,
) -> Option<String> {
    let mut r = fault_rng(SELL_WORDS.salt, class, seed);
    let active = sa.active_cells();
    if active.is_empty() {
        return None;
    }
    match (class, x) {
        (FaultClass::ValueCorruption, Some(x)) => {
            flip_dominant_term(&mut sa.values, &sa.col_idx, &active, x)
        }
        (FaultClass::PointerRetarget, _) => {
            let chunks = sa.chunk_len.len();
            let k = 1 + (r.next_u64() as usize) % chunks;
            let bogus = sa.col_idx.len() + 1 + (r.next_u64() % 1024) as usize;
            sa.chunk_ptr[k] = bogus;
            Some(format!("chunk pointer [{k}] retargeted to {bogus}"))
        }
        (FaultClass::LengthCorruption, _) => {
            let p = r.gen_range(0..sa.row_len.len());
            let bogus = sa.row_len[p] + sa.col_idx.len() + 1;
            sa.row_len[p] = bogus;
            Some(format!("row length at position {p} inflated to {bogus}"))
        }
        _ => corrupt_entries(
            &SELL_WORDS,
            &mut sa.col_idx,
            &mut sa.values,
            &active,
            sa.cols,
            class,
            &mut r,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_sparse::gen;

    #[test]
    fn every_registered_name_constructs_and_round_trips() {
        let coo = gen::random::uniform(40, 50, 180, 11);
        let ctx = ExecCtx::paper();
        for &name in names() {
            let report = run_verified(name, &coo, &ctx).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(report.kernel, name);
            assert!(report.report.cycles > 0, "{name} charged no cycles");
            assert_eq!(report.output_digest, report.output.digest());
        }
    }

    #[test]
    fn host_legs_match_the_simulated_digest() {
        let coo = gen::random::uniform(40, 50, 180, 11);
        let sim = ExecCtx::paper();
        for &name in names() {
            if !host_capable(name) {
                continue;
            }
            let base = run_verified(name, &coo, &sim).unwrap();
            assert!(base.report.wall_ns.is_none(), "{name} sim leg has wall_ns");
            for backend in [Backend::Scalar, Backend::Simd] {
                let mut ctx = ExecCtx::paper();
                ctx.backend = backend;
                let got = run_verified(name, &coo, &ctx)
                    .unwrap_or_else(|e| panic!("{name} on {}: {e}", backend.name()));
                assert_eq!(
                    got.output_digest,
                    base.output_digest,
                    "{name} diverged from the simulator on {}",
                    backend.name()
                );
                assert!(
                    got.report.wall_ns.is_some(),
                    "{name} host leg on {} lacks wall_ns",
                    backend.name()
                );
                assert!(got.report.cycles > 0, "{name} host leg charged no cycles");
            }
        }
    }

    /// One leaf entry: in-block row, column and value.
    type Leaf = (u8, u8, f32);

    /// A sealed one-level output image holding `entries` as given, in
    /// layout order — duplicates and explicit zeros included.
    fn leaf_image(rows: u32, cols: u32, entries: &[Leaf]) -> KernelOutput {
        let words = entries
            .iter()
            .flat_map(|&(r, c, v)| [v.to_bits(), stm_hism::image::pack_pos(r, c)])
            .collect();
        let mut img = HismImage {
            words,
            root: stm_hism::RootDesc {
                addr: 0,
                len: entries.len() as u32,
                levels: 1,
                rows,
                cols,
                s: 4,
            },
            pointer_sites: Vec::new(),
            integrity: None,
        };
        img.seal_integrity();
        KernelOutput::Hism(img)
    }

    #[test]
    fn hism_verify_is_an_exact_bijection() {
        // Aᵀ of this 3x4 matrix holds (0,0)=1, (1,2)=-2 and (2,1)=3.
        let coo = Coo::from_triplets(3, 4, vec![(1, 2, 3.0), (0, 0, 1.0), (2, 1, -2.0)]).unwrap();
        let k = create("transpose_hism").unwrap();
        let exact = [(0, 0, 1.0), (1, 2, -2.0), (2, 1, 3.0)];
        k.verify(&coo, &leaf_image(4, 3, &exact)).unwrap();
        // Layout order is free: the STM permutes blockarrays in place.
        k.verify(&coo, &leaf_image(4, 3, &[exact[2], exact[0], exact[1]]))
            .unwrap();
        let rejected: [(&str, u32, u32, &[Leaf]); 6] = [
            // Two entries at one position summing to the right value:
            // canonicalizing the output would fold them into a match.
            (
                "split duplicate",
                4,
                3,
                &[(0, 0, 1.0), (1, 2, -2.0), (2, 1, 1.0), (2, 1, 2.0)],
            ),
            // An explicit zero would be dropped the same way.
            (
                "explicit zero",
                4,
                3,
                &[(0, 0, 1.0), (1, 1, 0.0), (1, 2, -2.0), (2, 1, 3.0)],
            ),
            // Right count, but one entry twice and another missing.
            (
                "repeated entry",
                4,
                3,
                &[(0, 0, 1.0), (2, 1, 3.0), (2, 1, 3.0)],
            ),
            (
                "wrong value bits",
                4,
                3,
                &[(0, 0, 1.0), (1, 2, -2.0), (2, 1, -3.0)],
            ),
            ("missing entry", 4, 3, &[(0, 0, 1.0), (2, 1, 3.0)]),
            ("wrong shape", 3, 4, &exact),
        ];
        for (case, rows, cols, entries) in rejected {
            match k.verify(&coo, &leaf_image(rows, cols, entries)) {
                Err(KernelError::Mismatch(_)) => {}
                other => panic!("{case}: expected a mismatch, got {other:?}"),
            }
        }
        // -0.0 and +0.0 differ in bits; the oracle never holds a zero.
        let signed = Coo::from_triplets(1, 1, vec![(0, 0, 1.0)]).unwrap();
        assert!(k
            .verify(&signed, &leaf_image(1, 1, &[(0, 0, -1.0)]))
            .is_err());
    }

    #[test]
    fn host_incapable_kernels_ignore_the_backend() {
        let coo = gen::random::uniform(30, 30, 120, 5);
        for &name in names() {
            if host_capable(name) {
                continue;
            }
            let mut ctx = ExecCtx::paper();
            ctx.backend = Backend::Scalar;
            let got = run_verified(name, &coo, &ctx).unwrap();
            assert!(
                got.report.wall_ns.is_none(),
                "{name} is not host-capable yet reported wall_ns"
            );
        }
    }

    #[test]
    fn fallbacks_are_registered_and_verify_against_the_same_oracle() {
        let coo = gen::random::uniform(60, 45, 300, 21);
        let ctx = ExecCtx::paper();
        for &name in names() {
            let Some(fb) = fallback_for(name) else {
                continue;
            };
            assert!(NAMES.contains(&fb), "fallback {fb} is not registered");
            assert!(
                fallback_for(fb).is_none(),
                "fallback {fb} must itself be terminal"
            );
            // The fallback must succeed on any input its primary accepts.
            run_verified(fb, &coo, &ctx).unwrap_or_else(|e| panic!("{fb}: {e}"));
        }
        assert_eq!(fallback_for("transpose_hism"), Some("transpose_ref"));
        assert_eq!(fallback_for("transpose_crs"), Some("transpose_crs_scalar"));
        assert_eq!(fallback_for("transpose_ref"), None);
    }

    #[test]
    fn reference_transpose_hosts_no_faults() {
        let coo = gen::random::uniform(30, 30, 120, 3);
        for class in FaultClass::ALL {
            let mut k = create("transpose_ref").unwrap();
            k.prepare(&coo, &ExecCtx::paper()).unwrap();
            assert!(matches!(
                k.inject_fault(class, 1),
                Err(KernelError::FaultUnsupported { .. })
            ));
        }
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(create("transpose_quantum").is_none());
        let err = run_verified("nope", &Coo::new(2, 2), &ExecCtx::paper()).unwrap_err();
        assert_eq!(err.error, KernelError::Unknown("nope".into()));
        assert_eq!(err.stage, Stage::Prepare);
    }

    #[test]
    fn kernel_names_match_registry_keys() {
        for &name in names() {
            assert_eq!(create(name).unwrap().name(), name);
        }
        // Both lists are read off the table; downstream tools rely on
        // their order.
        assert_eq!(
            HOST_CAPABLE,
            [
                "transpose_hism",
                "transpose_crs",
                "spmv_hism",
                "spmv_crs",
                "transpose_sell",
                "spmv_sell"
            ]
        );
        assert_eq!(
            NAMES[..3],
            ["transpose_hism", "transpose_crs", "transpose_crs_scalar"]
        );
    }

    #[test]
    fn one_oracle_verifies_every_leg_of_a_matrix() {
        let coo = gen::random::uniform(30, 40, 150, 4);
        let ctx = ExecCtx::paper();
        let oracle = Oracle::new(&coo);
        let want = Csr::from_coo(&coo).transpose_pissanetsky();
        let mut outputs = Vec::new();
        for name in ["transpose_hism", "transpose_crs", "transpose_jd"] {
            let mut k = create(name).unwrap();
            k.prepare(&coo, &ctx).unwrap();
            let out = k.run(&ctx).unwrap().output;
            k.verify_with(&oracle, &out).unwrap();
            outputs.push(out);
        }
        // Built once, on first use, and equal to the standalone oracle.
        assert!(std::ptr::eq(oracle.transpose(), oracle.transpose()));
        assert_eq!(*oracle.transpose(), want);
        // A wrong output still fails against the shared oracle.
        let other = gen::random::uniform(30, 40, 150, 5);
        let wrong = create("transpose_crs").unwrap();
        assert!(matches!(
            wrong.verify_with(&Oracle::new(&other), &outputs[1]),
            Err(KernelError::Mismatch(_))
        ));
    }

    #[test]
    fn every_kernel_produces_its_declared_output_variant() {
        let coo = gen::random::uniform(20, 24, 60, 8);
        for row in TABLE {
            let report = run_verified(row.name, &coo, &ExecCtx::paper()).unwrap();
            let produced = match report.output {
                KernelOutput::Hism(_) => Output::Hism,
                KernelOutput::Csr(_) => Output::Csr,
                KernelOutput::Dense(_) => Output::Dense,
                KernelOutput::Vector(_) => Output::Vector,
            };
            assert_eq!(produced, row.output, "{}", row.name);
        }
    }

    #[test]
    fn run_before_prepare_is_a_typed_error() {
        let ctx = ExecCtx::paper();
        for &name in names() {
            let err = create(name).unwrap().run(&ctx).unwrap_err();
            assert_eq!(err, KernelError::NotPrepared, "{name}");
        }
    }

    #[test]
    fn prepare_rejects_inconsistent_context() {
        let mut ctx = ExecCtx::paper();
        ctx.stm.s = 32; // now != vp.section_size
        let coo = gen::random::uniform(16, 16, 30, 5);
        let mut k = create("transpose_hism").unwrap();
        assert!(k.prepare(&coo, &ctx).is_err());
    }

    #[test]
    fn ideal_timing_is_a_lower_bound_with_identical_output() {
        use stm_vpsim::TimingKind;
        let coo = gen::random::uniform(70, 70, 420, 3);
        for &name in names() {
            let paper = run_verified(name, &coo, &ExecCtx::paper()).unwrap();
            let ideal = run_verified(name, &coo, &ExecCtx::with_timing(TimingKind::Ideal)).unwrap();
            assert_eq!(paper.output_digest, ideal.output_digest, "{name}");
            assert!(
                ideal.report.cycles <= paper.report.cycles,
                "{name}: ideal {} > paper {}",
                ideal.report.cycles,
                paper.report.cycles
            );
        }
    }

    #[test]
    fn injected_faults_fail_with_typed_errors_not_panics() {
        let coo = gen::random::uniform(50, 50, 260, 13);
        let ctx = ExecCtx::paper();
        for &name in names() {
            for class in FaultClass::ALL {
                let mut kernel = create(name).unwrap();
                kernel.prepare(&coo, &ctx).unwrap();
                match kernel.inject_fault(class, 99) {
                    Err(KernelError::FaultUnsupported { .. }) => continue,
                    Err(e) => panic!("{name}/{class}: unexpected injection error {e}"),
                    Ok(_) => {}
                }
                let failed = match kernel.run(&ctx) {
                    Err(_) => true,
                    Ok(report) => kernel.verify(&coo, &report.output).is_err(),
                };
                assert!(failed, "{name}/{class}: fault survived run + verify");
            }
        }
    }

    #[test]
    fn format_transposes_share_the_crs_digest() {
        // The acceptance bar for the format layer: every CSR-output
        // transpose kernel lands on byte-identical output, so their
        // digests are interchangeable across formats.
        let ctx = ExecCtx::paper();
        for coo in [
            gen::random::uniform(64, 48, 400, 7),
            gen::random::power_law(100, 80, 6.0, 1.3, 2),
        ] {
            let reference = run_verified("transpose_crs", &coo, &ctx).unwrap();
            for name in ["transpose_coo", "transpose_jd", "transpose_sell"] {
                let r = run_verified(name, &coo, &ctx).unwrap();
                assert_eq!(r.output_digest, reference.output_digest, "{name}");
            }
        }
    }

    #[test]
    fn spmv_sell_is_bit_identical_to_the_host_oracle() {
        let ctx = ExecCtx::paper();
        let coo = gen::random::uniform(96, 64, 700, 5);
        let r = run_verified("spmv_sell", &coo, &ctx).unwrap();
        let host = Csr::from_coo(&coo).spmv(&spmv_input(coo.cols())).unwrap();
        assert_eq!(r.output_digest, KernelOutput::Vector(host).digest());
    }

    #[test]
    fn injection_before_prepare_is_not_prepared() {
        let mut kernel = create("transpose_hism").unwrap();
        assert_eq!(
            kernel.inject_fault(FaultClass::BitFlip, 1).unwrap_err(),
            KernelError::NotPrepared
        );
    }
}
