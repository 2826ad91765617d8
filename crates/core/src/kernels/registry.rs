//! The kernel registry: every simulated kernel behind the
//! [`Kernel`] trait, constructible by name.
//!
//! This is the only place that maps kernel names to implementations —
//! benchmark binaries, the batch harness and tests all go through
//! [`create`] instead of importing kernel functions directly, so adding a
//! kernel means adding one adapter struct and one `match` arm here.
//!
//! Every adapter also implements [`Kernel::inject_fault`], corrupting its
//! *prepared* input (HiSM image, CRS arrays, COO entries) so the
//! robustness suite can prove each kernel degrades into a typed
//! [`KernelError`] rather than a panic or a silently wrong answer.

pub use crate::exec::{
    spmv_input, Backend, ExecCtx, Kernel, KernelError, KernelFailure, KernelOutput, KernelReport,
    Stage,
};

use crate::kernels::coo_transpose::{transpose_coo_obs, CooArrays};
use crate::kernels::crs_scalar::transpose_crs_scalar_obs;
use crate::kernels::crs_spmv::spmv_crs_obs;
use crate::kernels::crs_transpose::transpose_crs_obs;
use crate::kernels::dense_transpose::transpose_dense_obs;
use crate::kernels::hism_spmv::spmv_hism_obs;
use crate::kernels::hism_transpose::transpose_hism_obs;
use crate::kernels::jd_transpose::{transpose_jd_obs, JdArrays};
use crate::kernels::sell::{spmv_sell_obs, transpose_sell_obs, SellArrays};
use crate::obs::{record_lifecycle, record_phases};
use crate::report::{Phase, TransposeReport};
use std::time::Instant;
use stm_hism::{build, faults, FaultClass, FaultRecord, HismImage};
use stm_host as host;
use stm_sparse::rng::StdRng;
use stm_sparse::{Coo, Csc, Csr, Jd, Sell, SellConfig, SparseFormat, Value};

/// All registered kernel names, in canonical order.
pub const NAMES: [&str; 12] = [
    "transpose_hism",
    "transpose_crs",
    "transpose_crs_scalar",
    "transpose_dense",
    "spmv_hism",
    "spmv_crs",
    "transpose_ref",
    "transpose_coo",
    "transpose_csc",
    "transpose_jd",
    "transpose_sell",
    "spmv_sell",
];

/// All registered kernel names, in canonical order.
pub fn names() -> &'static [&'static str] {
    &NAMES
}

/// The graceful-degradation map used by the resilient soak pipeline: the
/// registry kernel to run instead of `name` once its circuit breaker has
/// tripped (or its run has failed). The HiSM+STM transpose degrades to
/// the trusted software reference, the vectorized CRS baseline to its
/// fully scalar sibling; kernels without an entry have no fallback.
pub fn fallback_for(name: &str) -> Option<&'static str> {
    match name {
        "transpose_hism" => Some("transpose_ref"),
        "transpose_crs" => Some("transpose_crs_scalar"),
        "transpose_coo" | "transpose_jd" | "transpose_sell" => Some("transpose_ref"),
        _ => None,
    }
}

/// The kernels with a host-native implementation in `stm-host` — the
/// kernels whose simulated and host legs must agree digest for digest.
/// Kernels not listed here ignore [`ExecCtx::backend`] and always
/// simulate.
pub const HOST_CAPABLE: [&str; 6] = [
    "transpose_hism",
    "transpose_crs",
    "spmv_hism",
    "spmv_crs",
    "transpose_sell",
    "spmv_sell",
];

/// Whether the named kernel dispatches to the host backend when
/// [`ExecCtx::backend`] asks for one.
pub fn host_capable(name: &str) -> bool {
    HOST_CAPABLE.contains(&name)
}

/// Maps a host-kernel failure onto the registry's typed errors.
fn host_err(e: host::HostError) -> KernelError {
    match e {
        host::HostError::Corrupt(m) => KernelError::Corrupt(m),
        host::HostError::Config(m) => KernelError::Config(m),
    }
}

/// Builds the report for a host-native leg: the same nominal linear cost
/// model `transpose_ref` charges (two passes over the entries plus one
/// over each dimension, mapped through the timing model) so simulated
/// cycles stay deterministic, plus the measured wall-clock in
/// `wall_ns`. Emits a `Lane::Host` span when tracing is on.
fn host_report(
    ctx: &ExecCtx,
    span: &'static str,
    shape: (usize, usize, usize),
    wall: std::time::Duration,
) -> TransposeReport {
    let (rows, cols, nnz) = shape;
    let nominal = 8 + 2 * nnz as u64 + rows as u64 + cols as u64;
    let cycles = ctx.timing.model().scalar_cycles(nominal);
    let report = TransposeReport {
        cycles,
        nnz,
        engine: Default::default(),
        scalar: None,
        stm: None,
        phases: vec![Phase { name: span, cycles }],
        fu_busy: Default::default(),
        stalls: stm_vpsim::StallBreakdown::scalar_only(ctx.vp.mem_ports, cycles),
        wall_ns: Some(wall.as_nanos().min(u64::MAX as u128) as u64),
    };
    if ctx.obs.is_enabled() {
        ctx.obs.complete(
            stm_obs::Lane::Host,
            stm_obs::Category::Host,
            span,
            0,
            cycles,
            nnz as u64,
        );
    }
    record_phases(&ctx.obs, &report.phases);
    report
}

/// Constructs the kernel registered under `name`, or `None` if the name
/// is unknown. See [`NAMES`] for the registered set.
pub fn create(name: &str) -> Option<Box<dyn Kernel>> {
    match name {
        "transpose_hism" => Some(Box::new(TransposeHism::default())),
        "transpose_crs" => Some(Box::new(TransposeCrs::default())),
        "transpose_crs_scalar" => Some(Box::new(TransposeCrsScalar::default())),
        "transpose_dense" => Some(Box::new(TransposeDense::default())),
        "spmv_hism" => Some(Box::new(SpmvHism::default())),
        "spmv_crs" => Some(Box::new(SpmvCrs::default())),
        "transpose_ref" => Some(Box::new(TransposeRef::default())),
        "transpose_coo" => Some(Box::new(TransposeCoo::default())),
        "transpose_csc" => Some(Box::new(TransposeCsc::default())),
        "transpose_jd" => Some(Box::new(TransposeJd::default())),
        "transpose_sell" => Some(Box::new(TransposeSell::default())),
        "spmv_sell" => Some(Box::new(SpmvSell::default())),
        _ => None,
    }
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
    let mut ctx = ctx.clone();
    let report = kernel.run(&mut ctx).map_err(|e| fail(Stage::Run, e))?;
    kernel
        .verify(coo, &report.output)
        .map_err(|e| fail(Stage::Verify, e))?;
    record_lifecycle(&ctx.obs, &report, kernel.prepared_bytes());
    Ok(report)
}

fn wrap(kernel: &'static str, report: TransposeReport, output: KernelOutput) -> KernelReport {
    KernelReport {
        kernel,
        report,
        output_digest: output.digest(),
        output,
    }
}

fn spmv_verify(coo: &Coo, x: &[Value], out: &KernelOutput) -> Result<(), KernelError> {
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

fn config_err(msg: String) -> KernelError {
    KernelError::Config(msg)
}

/// Approximate byte size of prepared CSR arrays (row pointers + column
/// indices + values, one 32-bit word each).
fn csr_bytes(csr: &Csr) -> u64 {
    4 * (csr.row_ptr().len() + csr.col_idx().len() + csr.values().len()) as u64
}

/// Picks a seeded index of a nonzero value word — the target set for
/// [`FaultClass::ValueCorruption`], where a sign-bit flip is guaranteed
/// to change the output bit pattern of every downstream kernel while
/// leaving all structure (and therefore every typed check) intact.
fn pick_nonzero_value(values: &[f32], r: &mut StdRng) -> Option<usize> {
    let live: Vec<usize> = (0..values.len()).filter(|&k| values[k] != 0.0).collect();
    if live.is_empty() {
        None
    } else {
        Some(live[r.gen_range(0..live.len())])
    }
}

/// [`FaultClass::ValueCorruption`] for the SpMV kernels: flips the sign
/// bit of the candidate value with the largest `|a·x|` weight — the
/// dominant term of the product. A random value flip can legitimately
/// round away inside the f32 row accumulation (or multiply a zero of
/// `x`), but negating the globally dominant term always survives into
/// the output bits, keeping the class digest-detectable. `cands` pairs a
/// value index with the column it multiplies.
fn flip_dominant_term(
    values: &mut [f32],
    cands: &[(usize, usize)],
    x: &[Value],
    kernel: &'static str,
) -> Result<FaultRecord, KernelError> {
    let best = cands
        .iter()
        .map(|&(k, c)| {
            let w = (values[k].abs() as f64) * x.get(c).map_or(0.0, |e| e.abs() as f64);
            (k, w)
        })
        .filter(|&(_, w)| w > 0.0 && w.is_finite())
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(b.0.cmp(&a.0)));
    let Some((k, _)) = best else {
        return Err(KernelError::FaultUnsupported {
            kernel,
            class: FaultClass::ValueCorruption,
        });
    };
    values[k] = f32::from_bits(values[k].to_bits() ^ 1 << 31);
    Ok(FaultRecord {
        class: FaultClass::ValueCorruption,
        word: None,
        detail: format!("sign-flipped the dominant SpMV term at value {k} (structure untouched)"),
    })
}

/// Shared fault injector for the CRS-input kernels: corrupts the prepared
/// CSR arrays in the image of the HiSM fault taxonomy, rebuilding the
/// matrix through `Csr::from_parts_unchecked` (the invariants are broken
/// on purpose).
fn inject_csr(
    csr: &mut Csr,
    kernel: &'static str,
    class: FaultClass,
    seed: u64,
) -> Result<FaultRecord, KernelError> {
    let mut r = StdRng::seed_from_u64(seed ^ 0xc5_5712 ^ class.name().len() as u64);
    let unsupported = Err(KernelError::FaultUnsupported { kernel, class });
    let (rows, cols, nnz) = (csr.rows(), csr.cols(), csr.nnz());
    let mut row_ptr = csr.row_ptr().to_vec();
    let mut col_idx = csr.col_idx().to_vec();
    let mut values = csr.values().to_vec();
    let detail;
    match class {
        FaultClass::BitFlip => {
            if nnz == 0 {
                return unsupported;
            }
            // A value-word flip can hide inside the SpMV verify tolerance
            // (or be masked by a zero in x), so flip an index word, and a
            // bit high enough that the index is guaranteed out of range.
            let k = r.gen_range(0..nnz);
            let lo = (cols.max(1) as u32).next_power_of_two().trailing_zeros();
            let bit = (lo + (r.next_u64() % 4) as u32).min(30);
            col_idx[k] ^= 1usize << bit;
            detail = format!("flipped bit {bit} of JA[{k}]");
        }
        FaultClass::PointerRetarget => {
            if rows == 0 {
                return unsupported;
            }
            let k = r.gen_range(1..rows + 1);
            let bogus = nnz + 1 + (r.next_u64() % 1024) as usize;
            row_ptr[k] = bogus;
            detail = format!("row pointer IA[{k}] retargeted to {bogus} (nnz {nnz})");
        }
        FaultClass::LengthCorruption => {
            if rows == 0 {
                return unsupported;
            }
            let bogus = nnz + 1 + (r.next_u64() % 1024) as usize;
            row_ptr[rows] = bogus;
            detail = format!("row pointer IA[{rows}] (total length) set to {bogus}");
        }
        FaultClass::Truncate => {
            if nnz == 0 {
                return unsupported;
            }
            col_idx.pop();
            values.pop();
            detail = format!("dropped the last of {nnz} entries, row pointers unchanged");
        }
        FaultClass::PosGarbage => {
            if nnz == 0 {
                return unsupported;
            }
            let k = r.gen_range(0..nnz);
            let bogus = cols + 1 + (r.next_u64() % 512) as usize;
            col_idx[k] = bogus;
            detail = format!("column index JA[{k}] set to {bogus} (cols {cols})");
        }
        FaultClass::ValueCorruption => {
            let k = pick_nonzero_value(&values, &mut r)
                .ok_or(KernelError::FaultUnsupported { kernel, class })?;
            values[k] = f32::from_bits(values[k].to_bits() ^ 1 << 31);
            detail = format!("flipped the sign bit of AN[{k}] (structure untouched)");
        }
        // Mid-run memory corruption lives in the simulator engine, not in
        // host-side prepared arrays.
        FaultClass::MidRunBitFlip => return unsupported,
    }
    *csr = Csr::from_parts_unchecked(rows, cols, row_ptr, col_idx, values);
    Ok(FaultRecord {
        class,
        word: None,
        detail,
    })
}

/// The recursive HiSM transposition (paper Fig. 6/7) through the STM.
#[derive(Debug, Default)]
struct TransposeHism {
    image: Option<HismImage>,
}

impl Kernel for TransposeHism {
    fn name(&self) -> &'static str {
        "transpose_hism"
    }

    fn prepare(&mut self, coo: &Coo, ctx: &ExecCtx) -> Result<(), KernelError> {
        ctx.validate().map_err(config_err)?;
        let h = build::from_coo(coo, ctx.stm.s)?;
        self.image = Some(HismImage::encode(&h));
        Ok(())
    }

    fn run(&mut self, ctx: &mut ExecCtx) -> Result<KernelReport, KernelError> {
        let image = self.image.as_ref().ok_or(KernelError::NotPrepared)?;
        if ctx.backend.is_host() {
            let t0 = Instant::now();
            let (out, nnz) = host::hism::transpose_hism(image, ctx.stm.s).map_err(host_err)?;
            let shape = (image.root.rows as usize, image.root.cols as usize, nnz);
            let report = host_report(ctx, "host.transpose_hism", shape, t0.elapsed());
            return Ok(wrap(self.name(), report, KernelOutput::Hism(out)));
        }
        let (out, report) = transpose_hism_obs(&ctx.vp, ctx.stm, image, ctx.timing, &ctx.obs)?;
        Ok(wrap(self.name(), report, KernelOutput::Hism(out)))
    }

    fn prepared_bytes(&self) -> u64 {
        self.image
            .as_ref()
            .map_or(0, |img| 4 * (img.words.len() as u64 + 6))
    }

    fn verify(&self, coo: &Coo, out: &KernelOutput) -> Result<(), KernelError> {
        let img = out
            .as_hism()
            .ok_or_else(|| KernelError::Mismatch("transpose_hism produces Hism outputs".into()))?;
        let got = img.decode()?;
        // The oracle is stm-sparse's Pissanetsky transpose, which shares
        // no code with either HiSM leg. Every decoded entry must claim a
        // distinct oracle entry with identical value bits; with equal
        // counts that makes the match a bijection, so duplicates and
        // explicit zeros in the output are rejected, not summed away.
        let want = Csr::from_coo(coo).transpose_pissanetsky();
        let mismatch = |what: String| {
            Err(KernelError::Mismatch(format!(
                "decoded HiSM transpose differs from host oracle: {what}"
            )))
        };
        if got.shape() != want.shape() || got.nnz() != want.nnz() {
            return mismatch(format!(
                "{:?} with {} entries, expected {:?} with {}",
                got.shape(),
                got.nnz(),
                want.shape(),
                want.nnz()
            ));
        }
        // `got.nnz()` counts the decoded leaf entries `iter` walks.
        let mut claimed = vec![0u64; want.nnz().div_ceil(64)];
        for (r, c, v) in got.iter() {
            let slot = (r < want.rows())
                .then(|| {
                    let (cols, vals) = want.row(r);
                    let k = cols.binary_search(&c).ok()?;
                    (vals[k].to_bits() == v.to_bits()).then(|| want.row_ptr()[r] + k)
                })
                .flatten();
            let Some(slot) = slot else {
                return mismatch(format!("entry ({r}, {c}) = {v} is not in the oracle"));
            };
            let (word, bit) = (slot / 64, 1u64 << (slot % 64));
            if claimed[word] & bit != 0 {
                return mismatch(format!("entry ({r}, {c}) appears twice"));
            }
            claimed[word] |= bit;
        }
        Ok(())
    }

    fn inject_fault(&mut self, class: FaultClass, seed: u64) -> Result<FaultRecord, KernelError> {
        let image = self.image.as_mut().ok_or(KernelError::NotPrepared)?;
        faults::inject(image, class, seed).ok_or(KernelError::FaultUnsupported {
            kernel: "transpose_hism",
            class,
        })
    }

    fn arm_sdc(&self, seed: u64) -> Option<stm_vpsim::MidRunFlip> {
        // The simulated kernel loads the image at memory address 0, so
        // image word addresses are memory addresses. Target a leaf value
        // word: the transpose copies value bits verbatim, so the flip —
        // when the engine reads the word after it fires — lands in the
        // output unchanged by any arithmetic. (It can still be *masked*
        // when the strip streaming that word was already loaded; callers
        // asserting detection must pick manifesting seeds.)
        let image = self.image.as_ref()?;
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

/// The vectorized CRS baseline (Pissanetsky, paper Fig. 9).
#[derive(Debug, Default)]
struct TransposeCrs {
    csr: Option<Csr>,
}

impl Kernel for TransposeCrs {
    fn name(&self) -> &'static str {
        "transpose_crs"
    }

    fn prepare(&mut self, coo: &Coo, _ctx: &ExecCtx) -> Result<(), KernelError> {
        self.csr = Some(Csr::from_coo(coo));
        Ok(())
    }

    fn run(&mut self, ctx: &mut ExecCtx) -> Result<KernelReport, KernelError> {
        let csr = self.csr.as_ref().ok_or(KernelError::NotPrepared)?;
        if ctx.backend.is_host() {
            let t0 = Instant::now();
            let out = host::csr::transpose_csr(csr).map_err(host_err)?;
            let shape = (csr.rows(), csr.cols(), csr.nnz());
            let report = host_report(ctx, "host.transpose_crs", shape, t0.elapsed());
            return Ok(wrap(self.name(), report, KernelOutput::Csr(out)));
        }
        let (out, report) = transpose_crs_obs(&ctx.vp, csr, ctx.timing, &ctx.obs)?;
        Ok(wrap(self.name(), report, KernelOutput::Csr(out)))
    }

    fn prepared_bytes(&self) -> u64 {
        self.csr.as_ref().map_or(0, csr_bytes)
    }

    fn verify(&self, coo: &Coo, out: &KernelOutput) -> Result<(), KernelError> {
        verify_csr_transpose(coo, out)
    }

    fn inject_fault(&mut self, class: FaultClass, seed: u64) -> Result<FaultRecord, KernelError> {
        let csr = self.csr.as_mut().ok_or(KernelError::NotPrepared)?;
        inject_csr(csr, "transpose_crs", class, seed)
    }
}

/// The fully scalar CRS baseline on the 4-way scalar core.
#[derive(Debug, Default)]
struct TransposeCrsScalar {
    csr: Option<Csr>,
}

impl Kernel for TransposeCrsScalar {
    fn name(&self) -> &'static str {
        "transpose_crs_scalar"
    }

    fn prepare(&mut self, coo: &Coo, _ctx: &ExecCtx) -> Result<(), KernelError> {
        self.csr = Some(Csr::from_coo(coo));
        Ok(())
    }

    fn run(&mut self, ctx: &mut ExecCtx) -> Result<KernelReport, KernelError> {
        let csr = self.csr.as_ref().ok_or(KernelError::NotPrepared)?;
        let (out, report) = transpose_crs_scalar_obs(&ctx.vp, csr, ctx.timing, &ctx.obs)?;
        Ok(wrap(self.name(), report, KernelOutput::Csr(out)))
    }

    fn prepared_bytes(&self) -> u64 {
        self.csr.as_ref().map_or(0, csr_bytes)
    }

    fn verify(&self, coo: &Coo, out: &KernelOutput) -> Result<(), KernelError> {
        verify_csr_transpose(coo, out)
    }

    fn inject_fault(&mut self, class: FaultClass, seed: u64) -> Result<FaultRecord, KernelError> {
        let csr = self.csr.as_mut().ok_or(KernelError::NotPrepared)?;
        inject_csr(csr, "transpose_crs_scalar", class, seed)
    }
}

fn verify_csr_transpose(coo: &Coo, out: &KernelOutput) -> Result<(), KernelError> {
    let got = out
        .as_csr()
        .ok_or_else(|| KernelError::Mismatch("CRS kernels produce Csr outputs".into()))?;
    // Through the format trait (Csr overrides it with Pissanetsky), so
    // every CSR-output kernel verifies against the same oracle the
    // format layer exposes.
    if *got == SparseFormat::transpose(&Csr::from_coo(coo))? {
        Ok(())
    } else {
        Err(KernelError::Mismatch(
            "CRS transpose differs from host oracle".into(),
        ))
    }
}

/// The trusted software reference transpose — the degradation target the
/// resilient soak pipeline falls back to when `transpose_hism`'s circuit
/// breaker trips (see [`fallback_for`]).
///
/// The transposition runs entirely on the host (the same Pissanetsky
/// oracle the verifiers use); simulated cycles are charged as one scalar
/// phase with a nominal linear cost, so reports stay comparable and the
/// stall-conservation invariants hold. Because no simulated engine runs,
/// the deadline watchdog can never fire here and no fault class is
/// hosted — a fallback that could itself wedge or be corrupted would be
/// worthless.
#[derive(Debug, Default)]
struct TransposeRef {
    csr: Option<Csr>,
}

impl Kernel for TransposeRef {
    fn name(&self) -> &'static str {
        "transpose_ref"
    }

    fn prepare(&mut self, coo: &Coo, _ctx: &ExecCtx) -> Result<(), KernelError> {
        self.csr = Some(Csr::from_coo(coo));
        Ok(())
    }

    fn run(&mut self, ctx: &mut ExecCtx) -> Result<KernelReport, KernelError> {
        let csr = self.csr.as_ref().ok_or(KernelError::NotPrepared)?;
        let out = csr.transpose_pissanetsky();
        let (rows, cols, nnz) = (csr.rows(), csr.cols(), csr.nnz());
        // Nominal host cost: two passes over the entries plus one over
        // each dimension — mapped through the timing model so the ideal
        // bound stays below the paper machine.
        let nominal = 8 + 2 * nnz as u64 + rows as u64 + cols as u64;
        let cycles = ctx.timing.model().scalar_cycles(nominal);
        let report = TransposeReport {
            wall_ns: None,
            cycles,
            nnz,
            engine: Default::default(),
            scalar: None,
            stm: None,
            phases: vec![Phase {
                name: "host-reference",
                cycles,
            }],
            fu_busy: Default::default(),
            stalls: stm_vpsim::StallBreakdown::scalar_only(ctx.vp.mem_ports, cycles),
        };
        if ctx.obs.is_enabled() {
            ctx.obs.complete(
                stm_obs::Lane::Scalar,
                stm_obs::Category::Scalar,
                "host.reference",
                0,
                cycles,
                nnz as u64,
            );
        }
        record_phases(&ctx.obs, &report.phases);
        Ok(wrap(self.name(), report, KernelOutput::Csr(out)))
    }

    fn prepared_bytes(&self) -> u64 {
        self.csr.as_ref().map_or(0, csr_bytes)
    }

    fn verify(&self, coo: &Coo, out: &KernelOutput) -> Result<(), KernelError> {
        verify_csr_transpose(coo, out)
    }

    fn inject_fault(&mut self, class: FaultClass, _seed: u64) -> Result<FaultRecord, KernelError> {
        if self.csr.is_none() {
            return Err(KernelError::NotPrepared);
        }
        // The trusted fallback deliberately hosts no faults.
        Err(KernelError::FaultUnsupported {
            kernel: "transpose_ref",
            class,
        })
    }
}

/// The trivial dense strided transpose of the paper's Section II.
#[derive(Debug, Default)]
struct TransposeDense {
    coo: Option<Coo>,
}

impl Kernel for TransposeDense {
    fn name(&self) -> &'static str {
        "transpose_dense"
    }

    fn prepare(&mut self, coo: &Coo, _ctx: &ExecCtx) -> Result<(), KernelError> {
        self.coo = Some(coo.clone());
        Ok(())
    }

    fn run(&mut self, ctx: &mut ExecCtx) -> Result<KernelReport, KernelError> {
        let coo = self.coo.as_ref().ok_or(KernelError::NotPrepared)?;
        let (out, report) = transpose_dense_obs(&ctx.vp, coo, ctx.timing, &ctx.obs)?;
        Ok(wrap(self.name(), report, KernelOutput::Dense(out)))
    }

    fn prepared_bytes(&self) -> u64 {
        // The kernel materialises the full dense array in simulated memory.
        self.coo
            .as_ref()
            .map_or(0, |coo| 4 * (coo.rows() * coo.cols()) as u64)
    }

    fn verify(&self, coo: &Coo, out: &KernelOutput) -> Result<(), KernelError> {
        let got = match out {
            KernelOutput::Dense(d) => d,
            _ => {
                return Err(KernelError::Mismatch(
                    "transpose_dense produces Dense outputs".into(),
                ))
            }
        };
        if got.to_coo() == coo.transpose_canonical() {
            Ok(())
        } else {
            Err(KernelError::Mismatch(
                "dense transpose differs from host oracle".into(),
            ))
        }
    }

    fn inject_fault(&mut self, class: FaultClass, seed: u64) -> Result<FaultRecord, KernelError> {
        let coo = self.coo.as_mut().ok_or(KernelError::NotPrepared)?;
        let unsupported = Err(KernelError::FaultUnsupported {
            kernel: "transpose_dense",
            class,
        });
        let mut r = StdRng::seed_from_u64(seed ^ 0xde_55e1 ^ class.name().len() as u64);
        let entries = coo.entries().to_vec();
        if entries.is_empty() {
            return unsupported;
        }
        // COO has no pointers or lengths vector to corrupt, and its
        // insertion API enforces coordinate bounds — only value-level
        // faults apply.
        let (kept, detail) = match class {
            FaultClass::BitFlip => {
                let k = r.gen_range(0..entries.len());
                let bit = (r.next_u64() % 32) as u32;
                let mut kept = entries;
                kept[k].2 = f32::from_bits(kept[k].2.to_bits() ^ (1 << bit));
                (kept, format!("flipped bit {bit} of entry {k}"))
            }
            FaultClass::Truncate => {
                let n = entries.len();
                let mut kept = entries;
                kept.pop();
                (kept, format!("dropped the last of {n} entries"))
            }
            _ => return unsupported,
        };
        let mut corrupted = Coo::new(coo.rows(), coo.cols());
        for (rr, cc, v) in kept {
            corrupted.push(rr, cc, v);
        }
        *coo = corrupted;
        Ok(FaultRecord {
            class,
            word: None,
            detail,
        })
    }
}

/// Simulated SpMV over the HiSM format.
#[derive(Debug, Default)]
struct SpmvHism {
    image: Option<HismImage>,
    x: Vec<Value>,
}

impl Kernel for SpmvHism {
    fn name(&self) -> &'static str {
        "spmv_hism"
    }

    fn prepare(&mut self, coo: &Coo, ctx: &ExecCtx) -> Result<(), KernelError> {
        ctx.validate().map_err(config_err)?;
        let h = build::from_coo(coo, ctx.stm.s)?;
        self.image = Some(HismImage::encode(&h));
        self.x = spmv_input(coo.cols());
        Ok(())
    }

    fn run(&mut self, ctx: &mut ExecCtx) -> Result<KernelReport, KernelError> {
        let image = self.image.as_ref().ok_or(KernelError::NotPrepared)?;
        if ctx.backend.is_host() {
            let t0 = Instant::now();
            let (y, nnz) =
                host::hism::spmv_hism(image, &self.x, ctx.vp.section_size).map_err(host_err)?;
            let shape = (image.root.rows as usize, image.root.cols as usize, nnz);
            let report = host_report(ctx, "host.spmv_hism", shape, t0.elapsed());
            return Ok(wrap(self.name(), report, KernelOutput::Vector(y)));
        }
        let (y, report) = spmv_hism_obs(&ctx.vp, image, &self.x, ctx.timing, &ctx.obs)?;
        Ok(wrap(self.name(), report, KernelOutput::Vector(y)))
    }

    fn prepared_bytes(&self) -> u64 {
        self.image
            .as_ref()
            .map_or(0, |img| 4 * (img.words.len() + 6 + self.x.len()) as u64)
    }

    fn verify(&self, coo: &Coo, out: &KernelOutput) -> Result<(), KernelError> {
        spmv_verify(coo, &self.x, out)
    }

    fn inject_fault(&mut self, class: FaultClass, seed: u64) -> Result<FaultRecord, KernelError> {
        let image = self.image.as_mut().ok_or(KernelError::NotPrepared)?;
        let unsupported = KernelError::FaultUnsupported {
            kernel: "spmv_hism",
            class,
        };
        if class == FaultClass::ValueCorruption {
            // Weight sites by the |a·x| term they feed, so the flip can
            // neither multiply a zero of x nor round away in the sum.
            let x = &self.x;
            return faults::inject_value_corruption(image, |_, c, v| {
                v.abs() as f64 * x.get(c as usize).map_or(0.0, |e| e.abs() as f64)
            })
            .ok_or(unsupported);
        }
        faults::inject(image, class, seed).ok_or(unsupported)
    }
}

/// Simulated SpMV over the CSR format (the conventional baseline).
#[derive(Debug, Default)]
struct SpmvCrs {
    csr: Option<Csr>,
    x: Vec<Value>,
}

impl Kernel for SpmvCrs {
    fn name(&self) -> &'static str {
        "spmv_crs"
    }

    fn prepare(&mut self, coo: &Coo, _ctx: &ExecCtx) -> Result<(), KernelError> {
        self.csr = Some(Csr::from_coo(coo));
        self.x = spmv_input(coo.cols());
        Ok(())
    }

    fn run(&mut self, ctx: &mut ExecCtx) -> Result<KernelReport, KernelError> {
        let csr = self.csr.as_ref().ok_or(KernelError::NotPrepared)?;
        if ctx.backend.is_host() {
            let t0 = Instant::now();
            let y = host::csr::spmv_csr(csr, &self.x, ctx.vp.section_size).map_err(host_err)?;
            let shape = (csr.rows(), csr.cols(), csr.nnz());
            let report = host_report(ctx, "host.spmv_crs", shape, t0.elapsed());
            return Ok(wrap(self.name(), report, KernelOutput::Vector(y)));
        }
        let (y, report) = spmv_crs_obs(&ctx.vp, csr, &self.x, ctx.timing, &ctx.obs)?;
        Ok(wrap(self.name(), report, KernelOutput::Vector(y)))
    }

    fn prepared_bytes(&self) -> u64 {
        self.csr
            .as_ref()
            .map_or(0, |csr| csr_bytes(csr) + 4 * self.x.len() as u64)
    }

    fn verify(&self, coo: &Coo, out: &KernelOutput) -> Result<(), KernelError> {
        spmv_verify(coo, &self.x, out)
    }

    fn inject_fault(&mut self, class: FaultClass, seed: u64) -> Result<FaultRecord, KernelError> {
        let csr = self.csr.as_mut().ok_or(KernelError::NotPrepared)?;
        if class == FaultClass::ValueCorruption {
            let (rows, cols, nnz) = (csr.rows(), csr.cols(), csr.nnz());
            let row_ptr = csr.row_ptr().to_vec();
            let col_idx = csr.col_idx().to_vec();
            let mut values = csr.values().to_vec();
            let cands: Vec<(usize, usize)> = (0..nnz).map(|k| (k, col_idx[k])).collect();
            let rec = flip_dominant_term(&mut values, &cands, &self.x, "spmv_crs")?;
            *csr = Csr::from_parts_unchecked(rows, cols, row_ptr, col_idx, values);
            return Ok(rec);
        }
        inject_csr(csr, "spmv_crs", class, seed)
    }
}

/// A column index with a bit flipped high enough to be out of range —
/// the index-word bit-flip shared by the triplet/JD/SELL injectors
/// (mirrors the CRS injector's choice: value flips can hide inside the
/// verify tolerance).
fn flip_col_high(col: usize, cols: usize, r: &mut StdRng) -> (usize, u32) {
    let lo = (cols.max(1) as u32).next_power_of_two().trailing_zeros();
    let bit = (lo + (r.next_u64() % 4) as u32).min(30);
    (col ^ (1usize << bit), bit)
}

/// Fault injector for the raw COO triplets. The format has no pointer or
/// length arrays, so only entry-level classes apply (the same reduced
/// surface as `transpose_dense`).
fn inject_coo_arrays(
    ca: &mut CooArrays,
    kernel: &'static str,
    class: FaultClass,
    seed: u64,
) -> Result<FaultRecord, KernelError> {
    let mut r = StdRng::seed_from_u64(seed ^ 0xc0_07a1 ^ class.name().len() as u64);
    let unsupported = Err(KernelError::FaultUnsupported { kernel, class });
    let nnz = ca.entries.len();
    if nnz == 0 {
        return unsupported;
    }
    let detail = match class {
        FaultClass::BitFlip => {
            let k = r.gen_range(0..nnz);
            let (col, bit) = flip_col_high(ca.entries[k].1, ca.cols, &mut r);
            ca.entries[k].1 = col;
            format!("flipped bit {bit} of entry {k}'s column")
        }
        FaultClass::Truncate => {
            ca.entries.pop();
            format!("dropped the last of {nnz} triplets")
        }
        FaultClass::PosGarbage => {
            let k = r.gen_range(0..nnz);
            let bogus = ca.cols + 1 + (r.next_u64() % 512) as usize;
            ca.entries[k].1 = bogus;
            format!("entry {k}'s column set to {bogus} (cols {})", ca.cols)
        }
        _ => return unsupported,
    };
    Ok(FaultRecord {
        class,
        word: None,
        detail,
    })
}

/// Fault injector for the JD arrays — the full taxonomy applies: the
/// format has column indices (bit flips, garbage), diagonal pointers
/// (retarget, length) and data arrays (truncation).
fn inject_jd_arrays(
    jda: &mut JdArrays,
    kernel: &'static str,
    class: FaultClass,
    seed: u64,
) -> Result<FaultRecord, KernelError> {
    let mut r = StdRng::seed_from_u64(seed ^ 0x1d_77a9 ^ class.name().len() as u64);
    let unsupported = Err(KernelError::FaultUnsupported { kernel, class });
    let nnz = jda.col_idx.len();
    if nnz == 0 {
        return unsupported;
    }
    let n_diag = jda.jd_ptr.len() - 1;
    let detail = match class {
        FaultClass::BitFlip => {
            let k = r.gen_range(0..nnz);
            let (col, bit) = flip_col_high(jda.col_idx[k], jda.cols, &mut r);
            jda.col_idx[k] = col;
            format!("flipped bit {bit} of diagonal column {k}")
        }
        FaultClass::PointerRetarget => {
            let k = 1 + (r.next_u64() as usize) % n_diag;
            let bogus = nnz + 1 + (r.next_u64() % 1024) as usize;
            jda.jd_ptr[k] = bogus;
            format!("diagonal pointer jd_ptr[{k}] retargeted to {bogus} (nnz {nnz})")
        }
        FaultClass::LengthCorruption => {
            let bogus = nnz + 1 + (r.next_u64() % 1024) as usize;
            jda.jd_ptr[n_diag] = bogus;
            format!("jd_ptr[{n_diag}] (total length) set to {bogus}")
        }
        FaultClass::Truncate => {
            jda.col_idx.pop();
            jda.values.pop();
            format!("dropped the last of {nnz} entries, jd_ptr unchanged")
        }
        FaultClass::PosGarbage => {
            let k = r.gen_range(0..nnz);
            let bogus = jda.cols + 1 + (r.next_u64() % 512) as usize;
            jda.col_idx[k] = bogus;
            format!("diagonal column {k} set to {bogus} (cols {})", jda.cols)
        }
        FaultClass::ValueCorruption => {
            let k = pick_nonzero_value(&jda.values, &mut r)
                .ok_or(KernelError::FaultUnsupported { kernel, class })?;
            jda.values[k] = f32::from_bits(jda.values[k].to_bits() ^ 1 << 31);
            format!("flipped the sign bit of diagonal value {k} (structure untouched)")
        }
        FaultClass::MidRunBitFlip => return unsupported,
    };
    Ok(FaultRecord {
        class,
        word: None,
        detail,
    })
}

/// Fault injector shared by the two SELL kernels. Index corruptions
/// target *active* cells only — corrupting padding would be invisible by
/// construction and prove nothing.
fn inject_sell_arrays(
    sa: &mut SellArrays,
    kernel: &'static str,
    class: FaultClass,
    seed: u64,
) -> Result<FaultRecord, KernelError> {
    let mut r = StdRng::seed_from_u64(seed ^ 0x5e_11c5 ^ class.name().len() as u64);
    let unsupported = Err(KernelError::FaultUnsupported { kernel, class });
    let active = sa.active_cells();
    if active.is_empty() {
        return unsupported;
    }
    let detail = match class {
        FaultClass::BitFlip => {
            let cell = active[r.gen_range(0..active.len())];
            let (col, bit) = flip_col_high(sa.col_idx[cell], sa.cols, &mut r);
            sa.col_idx[cell] = col;
            format!("flipped bit {bit} of active cell {cell}'s column")
        }
        FaultClass::PointerRetarget => {
            let chunks = sa.chunk_len.len();
            let k = 1 + (r.next_u64() as usize) % chunks;
            let bogus = sa.col_idx.len() + 1 + (r.next_u64() % 1024) as usize;
            sa.chunk_ptr[k] = bogus;
            format!("chunk pointer [{k}] retargeted to {bogus}")
        }
        FaultClass::LengthCorruption => {
            let p = r.gen_range(0..sa.row_len.len());
            let bogus = sa.row_len[p] + sa.col_idx.len() + 1;
            sa.row_len[p] = bogus;
            format!("row length at position {p} inflated to {bogus}")
        }
        FaultClass::Truncate => {
            let n = sa.col_idx.len();
            sa.col_idx.pop();
            sa.values.pop();
            format!("dropped the last of {n} cells, chunk_ptr unchanged")
        }
        FaultClass::PosGarbage => {
            let cell = active[r.gen_range(0..active.len())];
            let bogus = sa.cols + 1 + (r.next_u64() % 512) as usize;
            sa.col_idx[cell] = bogus;
            format!(
                "active cell {cell}'s column set to {bogus} (cols {})",
                sa.cols
            )
        }
        FaultClass::ValueCorruption => {
            // Among *active* cells only: padding values are dead by
            // construction and corrupting one would prove nothing.
            let live: Vec<usize> = active
                .iter()
                .copied()
                .filter(|&c| sa.values[c] != 0.0)
                .collect();
            if live.is_empty() {
                return unsupported;
            }
            let cell = live[r.gen_range(0..live.len())];
            sa.values[cell] = f32::from_bits(sa.values[cell].to_bits() ^ 1 << 31);
            format!("flipped the sign bit of active cell {cell}'s value (structure untouched)")
        }
        FaultClass::MidRunBitFlip => return unsupported,
    };
    Ok(FaultRecord {
        class,
        word: None,
        detail,
    })
}

/// Simulated transposition straight from COO triplets (no row-pointer
/// construction on the host side).
#[derive(Debug, Default)]
struct TransposeCoo {
    ca: Option<CooArrays>,
}

impl Kernel for TransposeCoo {
    fn name(&self) -> &'static str {
        "transpose_coo"
    }

    fn prepare(&mut self, coo: &Coo, _ctx: &ExecCtx) -> Result<(), KernelError> {
        let mut canon = coo.clone();
        canon.canonicalize();
        self.ca = Some(CooArrays {
            rows: canon.rows(),
            cols: canon.cols(),
            entries: canon.iter().copied().collect(),
        });
        Ok(())
    }

    fn run(&mut self, ctx: &mut ExecCtx) -> Result<KernelReport, KernelError> {
        let ca = self.ca.as_ref().ok_or(KernelError::NotPrepared)?;
        let (out, report) = transpose_coo_obs(&ctx.vp, ca, ctx.timing, &ctx.obs)?;
        Ok(wrap(self.name(), report, KernelOutput::Csr(out)))
    }

    fn prepared_bytes(&self) -> u64 {
        self.ca
            .as_ref()
            .map_or(0, |ca| 12 * ca.entries.len() as u64)
    }

    fn verify(&self, coo: &Coo, out: &KernelOutput) -> Result<(), KernelError> {
        verify_csr_transpose(coo, out)
    }

    fn inject_fault(&mut self, class: FaultClass, seed: u64) -> Result<FaultRecord, KernelError> {
        let ca = self.ca.as_mut().ok_or(KernelError::NotPrepared)?;
        inject_coo_arrays(ca, "transpose_coo", class, seed)
    }
}

/// Transposition from CSC storage. CSC's arrays *are* the CSR arrays of
/// the transpose, so the kernel runs the Pissanetsky pipeline on that
/// dual: the stored CSC of `A` is the CSR of `Aᵀ`, and transposing it
/// yields `A` itself — which is exactly `Aᵀ` in CSC clothing. The
/// verifier pins that down: the output must equal `Csr::from_coo(A)`
/// bit for bit (those arrays read as CSC are canonical `Aᵀ`).
#[derive(Debug, Default)]
struct TransposeCsc {
    /// The stored CSC of `A`, reinterpreted as the CSR of `Aᵀ`.
    dual: Option<Csr>,
}

impl Kernel for TransposeCsc {
    fn name(&self) -> &'static str {
        "transpose_csc"
    }

    fn prepare(&mut self, coo: &Coo, _ctx: &ExecCtx) -> Result<(), KernelError> {
        self.dual = Some(Csc::from_coo(coo).into_csr_of_transpose()?);
        Ok(())
    }

    fn run(&mut self, ctx: &mut ExecCtx) -> Result<KernelReport, KernelError> {
        let dual = self.dual.as_ref().ok_or(KernelError::NotPrepared)?;
        let (out, report) = transpose_crs_obs(&ctx.vp, dual, ctx.timing, &ctx.obs)?;
        Ok(wrap(self.name(), report, KernelOutput::Csr(out)))
    }

    fn prepared_bytes(&self) -> u64 {
        self.dual.as_ref().map_or(0, csr_bytes)
    }

    fn verify(&self, coo: &Coo, out: &KernelOutput) -> Result<(), KernelError> {
        let got = out
            .as_csr()
            .ok_or_else(|| KernelError::Mismatch("transpose_csc produces Csr outputs".into()))?;
        if *got == Csr::from_coo(coo) {
            Ok(())
        } else {
            Err(KernelError::Mismatch(
                "CSC transpose differs from host oracle".into(),
            ))
        }
    }

    fn inject_fault(&mut self, class: FaultClass, seed: u64) -> Result<FaultRecord, KernelError> {
        let dual = self.dual.as_mut().ok_or(KernelError::NotPrepared)?;
        inject_csr(dual, "transpose_csc", class, seed)
    }
}

/// Simulated transposition from Jagged Diagonal storage (regroup to CRS
/// in simulated memory, then the standard pipeline).
#[derive(Debug, Default)]
struct TransposeJd {
    jda: Option<JdArrays>,
}

impl Kernel for TransposeJd {
    fn name(&self) -> &'static str {
        "transpose_jd"
    }

    fn prepare(&mut self, coo: &Coo, _ctx: &ExecCtx) -> Result<(), KernelError> {
        self.jda = Some(JdArrays::from_jd(&Jd::from_coo(coo)));
        Ok(())
    }

    fn run(&mut self, ctx: &mut ExecCtx) -> Result<KernelReport, KernelError> {
        let jda = self.jda.as_ref().ok_or(KernelError::NotPrepared)?;
        let (out, report) = transpose_jd_obs(&ctx.vp, jda, ctx.timing, &ctx.obs)?;
        Ok(wrap(self.name(), report, KernelOutput::Csr(out)))
    }

    fn prepared_bytes(&self) -> u64 {
        self.jda.as_ref().map_or(0, |j| {
            4 * (j.perm.len() + j.jd_ptr.len() + j.col_idx.len() + j.values.len()) as u64
        })
    }

    fn verify(&self, coo: &Coo, out: &KernelOutput) -> Result<(), KernelError> {
        verify_csr_transpose(coo, out)
    }

    fn inject_fault(&mut self, class: FaultClass, seed: u64) -> Result<FaultRecord, KernelError> {
        let jda = self.jda.as_mut().ok_or(KernelError::NotPrepared)?;
        inject_jd_arrays(jda, "transpose_jd", class, seed)
    }
}

/// Builds the SELL-C-σ arrays for the machine at hand: chunks as tall as
/// the vector section, σ = 8 chunks of sort window.
fn prepare_sell(coo: &Coo, ctx: &ExecCtx) -> Result<SellArrays, KernelError> {
    let c = ctx.vp.section_size;
    let sell = Sell::from_coo_with(coo, SellConfig { c, sigma: 8 * c })?;
    Ok(SellArrays::from_sell(&sell))
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

/// Simulated transposition from SELL-C-σ storage.
#[derive(Debug, Default)]
struct TransposeSell {
    sa: Option<SellArrays>,
}

impl Kernel for TransposeSell {
    fn name(&self) -> &'static str {
        "transpose_sell"
    }

    fn prepare(&mut self, coo: &Coo, ctx: &ExecCtx) -> Result<(), KernelError> {
        self.sa = Some(prepare_sell(coo, ctx)?);
        Ok(())
    }

    fn run(&mut self, ctx: &mut ExecCtx) -> Result<KernelReport, KernelError> {
        let sa = self.sa.as_ref().ok_or(KernelError::NotPrepared)?;
        if ctx.backend.is_host() {
            let t0 = Instant::now();
            let out = host::sell::transpose_sell(&sell_view(sa)).map_err(host_err)?;
            let shape = (sa.rows, sa.cols, sa.row_len.iter().sum());
            let report = host_report(ctx, "host.transpose_sell", shape, t0.elapsed());
            return Ok(wrap(self.name(), report, KernelOutput::Csr(out)));
        }
        let (out, report) = transpose_sell_obs(&ctx.vp, sa, ctx.timing, &ctx.obs)?;
        Ok(wrap(self.name(), report, KernelOutput::Csr(out)))
    }

    fn prepared_bytes(&self) -> u64 {
        self.sa.as_ref().map_or(0, |sa| 4 * sa.words())
    }

    fn verify(&self, coo: &Coo, out: &KernelOutput) -> Result<(), KernelError> {
        verify_csr_transpose(coo, out)
    }

    fn inject_fault(&mut self, class: FaultClass, seed: u64) -> Result<FaultRecord, KernelError> {
        let sa = self.sa.as_mut().ok_or(KernelError::NotPrepared)?;
        inject_sell_arrays(sa, "transpose_sell", class, seed)
    }
}

/// Simulated SpMV over SELL-C-σ (the format's showcase kernel: the
/// active-lane prefix keeps padding off the memory ports).
#[derive(Debug, Default)]
struct SpmvSell {
    sa: Option<SellArrays>,
    x: Vec<Value>,
}

impl Kernel for SpmvSell {
    fn name(&self) -> &'static str {
        "spmv_sell"
    }

    fn prepare(&mut self, coo: &Coo, ctx: &ExecCtx) -> Result<(), KernelError> {
        self.sa = Some(prepare_sell(coo, ctx)?);
        self.x = spmv_input(coo.cols());
        Ok(())
    }

    fn run(&mut self, ctx: &mut ExecCtx) -> Result<KernelReport, KernelError> {
        let sa = self.sa.as_ref().ok_or(KernelError::NotPrepared)?;
        if ctx.backend.is_host() {
            let t0 = Instant::now();
            let y = host::sell::spmv_sell(&sell_view(sa), &self.x, ctx.vp.section_size)
                .map_err(host_err)?;
            let shape = (sa.rows, sa.cols, sa.row_len.iter().sum());
            let report = host_report(ctx, "host.spmv_sell", shape, t0.elapsed());
            return Ok(wrap(self.name(), report, KernelOutput::Vector(y)));
        }
        let (y, report) = spmv_sell_obs(&ctx.vp, sa, &self.x, ctx.timing, &ctx.obs)?;
        Ok(wrap(self.name(), report, KernelOutput::Vector(y)))
    }

    fn prepared_bytes(&self) -> u64 {
        self.sa
            .as_ref()
            .map_or(0, |sa| 4 * (sa.words() + self.x.len() as u64))
    }

    fn verify(&self, coo: &Coo, out: &KernelOutput) -> Result<(), KernelError> {
        spmv_verify(coo, &self.x, out)
    }

    fn inject_fault(&mut self, class: FaultClass, seed: u64) -> Result<FaultRecord, KernelError> {
        let sa = self.sa.as_mut().ok_or(KernelError::NotPrepared)?;
        if class == FaultClass::ValueCorruption {
            // Active cells only, weighted by the |a·x| term each feeds.
            let cands: Vec<(usize, usize)> = sa
                .active_cells()
                .into_iter()
                .map(|cell| (cell, sa.col_idx[cell]))
                .collect();
            return flip_dominant_term(&mut sa.values, &cands, &self.x, "spmv_sell");
        }
        inject_sell_arrays(sa, "spmv_sell", class, seed)
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
    }

    #[test]
    fn run_before_prepare_is_a_typed_error() {
        let mut ctx = ExecCtx::paper();
        for &name in names() {
            let err = create(name).unwrap().run(&mut ctx).unwrap_err();
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
                let mut ctx = ctx.clone();
                let failed = match kernel.run(&mut ctx) {
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
