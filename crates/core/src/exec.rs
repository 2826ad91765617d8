//! The kernel execution layer: an [`ExecCtx`] bundling the machine
//! configuration (vector processor, STM, timing model), and a
//! [`KernelReport`] carrying the timed result plus a digest of the
//! functional output.
//!
//! Kernels are constructed by name through [`crate::kernels::registry`]
//! as one concrete [`Kernel`](crate::Kernel) built from a row of the
//! kernel table, so harnesses, benchmark binaries and tests select
//! kernels with a string instead of importing each kernel function
//! directly. Every kernel has the same prepare → run → verify
//! lifecycle:
//!
//! ```
//! use stm_core::kernels::registry;
//! use stm_sparse::gen;
//!
//! let coo = gen::random::uniform(32, 32, 60, 1);
//! let ctx = registry::ExecCtx::paper();
//! let mut kernel = registry::create("transpose_hism").unwrap();
//! kernel.prepare(&coo, &ctx).unwrap();
//! let report = kernel.run(&ctx).unwrap();
//! kernel.verify(&coo, &report.output).unwrap();
//! assert!(report.report.cycles > 0);
//! ```
//!
//! Every stage returns `Result<_, `[`KernelError`]`>`: kernels treat their
//! inputs (HiSM images, CRS arrays, simulated memory contents) as
//! untrusted, so a corrupted input surfaces as a typed error — never a
//! panic, never a silently wrong answer (DESIGN.md, "Error taxonomy &
//! fault injection").

use crate::report::TransposeReport;
use crate::unit::StmConfig;
use std::fmt;
use stm_hism::{FaultClass, HismImage, ImageError};
use stm_obs::Recorder;
use stm_sparse::hash::Fnv1a;
use stm_sparse::{Coo, Csr, Dense, FormatError, Value};
use stm_vpsim::{MemFault, TimingKind, VpConfig};

pub use stm_host::Backend;

/// The machine a kernel executes on: vector-processor parameters, STM
/// coprocessor parameters, the timing model charging the cycles, the
/// recorder and the backend. Every kernel function takes it by shared
/// reference; build a variant with struct update syntax, e.g.
/// `ExecCtx { vp, stm, ..ExecCtx::paper() }`.
#[derive(Debug, Clone)]
pub struct ExecCtx {
    /// Vector-processor configuration.
    pub vp: VpConfig,
    /// STM coprocessor configuration (section size must match `vp`).
    pub stm: StmConfig,
    /// Timing model every engine in this context is created with.
    pub timing: TimingKind,
    /// Observability sink threaded through every engine this context
    /// creates. Disabled (a no-op) by default; clones share the same
    /// underlying recording, so the trace survives context clones. A
    /// handle made with `Recorder::with_ctx` stamps every event with its
    /// request id.
    pub obs: Recorder,
    /// Execution backend: the cycle-accurate simulator (the default) or
    /// the host-native scalar leg ([`Backend::Scalar`]; [`Backend::Simd`]
    /// runs the same code). Host-capable kernels dispatch on it in
    /// [`Kernel::run`](crate::Kernel::run); kernels without a host
    /// implementation ignore it and always simulate.
    pub backend: Backend,
}

impl ExecCtx {
    /// The paper's evaluation machine: `s = 64`, `p = 4`, `B = 4`,
    /// `L = 4`, paper timing model.
    pub fn paper() -> Self {
        ExecCtx {
            vp: VpConfig::paper(),
            stm: StmConfig::default(),
            timing: TimingKind::Paper,
            obs: Recorder::disabled(),
            backend: Backend::Sim,
        }
    }

    /// The paper machine under an explicit timing model.
    pub fn with_timing(timing: TimingKind) -> Self {
        ExecCtx {
            timing,
            ..Self::paper()
        }
    }

    /// Checks the internal consistency of the context (section sizes
    /// agree, STM parameters in range).
    pub fn validate(&self) -> Result<(), String> {
        self.stm.validate()?;
        if self.vp.section_size != self.stm.s {
            return Err(format!(
                "section size mismatch: vp {} vs stm {}",
                self.vp.section_size, self.stm.s
            ));
        }
        Ok(())
    }
}

impl Default for ExecCtx {
    fn default() -> Self {
        Self::paper()
    }
}

/// The lifecycle stage a kernel failure occurred in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Host-side input construction
    /// ([`Kernel::prepare`](crate::Kernel::prepare)).
    Prepare,
    /// Simulated execution ([`Kernel::run`](crate::Kernel::run)).
    Run,
    /// Oracle comparison ([`Kernel::verify`](crate::Kernel::verify)).
    Verify,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Stage::Prepare => "prepare",
            Stage::Run => "run",
            Stage::Verify => "verify",
        })
    }
}

/// Everything that can go wrong in a kernel lifecycle stage.
///
/// Carried through [`KernelFailure`] into the bench harness, where failed
/// matrices become `Failed { stage, error }` rows instead of crashing the
/// batch.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelError {
    /// No kernel registered under this name.
    Unknown(String),
    /// [`Kernel::run`](crate::Kernel::run) was called before a
    /// successful [`Kernel::prepare`](crate::Kernel::prepare).
    NotPrepared,
    /// The execution context or kernel configuration is inconsistent.
    Config(String),
    /// The input matrix failed structural validation.
    Format(FormatError),
    /// A HiSM memory image failed to decode.
    Image(ImageError),
    /// The simulated machine accessed memory out of bounds.
    MemFault(MemFault),
    /// Simulated data structures are internally inconsistent (corrupt
    /// pointers, non-monotone CRS row pointers, runaway lengths, …).
    Corrupt(String),
    /// The functional output disagrees with the host oracle.
    Mismatch(String),
    /// The kernel cannot host the requested fault class.
    FaultUnsupported {
        /// Kernel that rejected the fault.
        kernel: &'static str,
        /// The rejected class.
        class: FaultClass,
    },
    /// The simulated run exceeded its configured cycle budget
    /// ([`VpConfig::cycle_budget`]) and the engine aborted it — the soak
    /// pipeline's deadline watchdog. Unlike [`KernelError::Panicked`]
    /// this is an *expected*, typed abort.
    DeadlineExceeded(stm_vpsim::DeadlineExceeded),
    /// A stage panicked; the harness caught it and preserved the message.
    Panicked(String),
}

impl KernelError {
    /// Classifies a caught panic payload: the engine's typed
    /// [`stm_vpsim::DeadlineExceeded`] abort becomes
    /// [`KernelError::DeadlineExceeded`]; anything else is preserved as
    /// [`KernelError::Panicked`] with its message.
    pub fn from_panic(payload: Box<dyn std::any::Any + Send>) -> KernelError {
        if let Some(d) = payload.downcast_ref::<stm_vpsim::DeadlineExceeded>() {
            return KernelError::DeadlineExceeded(*d);
        }
        let msg = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        KernelError::Panicked(msg)
    }
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::Unknown(name) => write!(f, "unknown kernel {name:?}"),
            KernelError::NotPrepared => write!(f, "run called before a successful prepare"),
            KernelError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            KernelError::Format(e) => write!(f, "input format error: {e}"),
            KernelError::Image(e) => write!(f, "HiSM image error: {e}"),
            KernelError::MemFault(e) => write!(f, "simulated memory fault: {e}"),
            KernelError::Corrupt(msg) => write!(f, "corrupt simulated data: {msg}"),
            KernelError::Mismatch(msg) => write!(f, "output mismatch: {msg}"),
            KernelError::FaultUnsupported { kernel, class } => {
                write!(f, "kernel {kernel} cannot host fault class {class}")
            }
            KernelError::DeadlineExceeded(d) => write!(f, "deadline: {d}"),
            KernelError::Panicked(msg) => write!(f, "kernel panicked: {msg}"),
        }
    }
}

impl std::error::Error for KernelError {}

impl From<FormatError> for KernelError {
    fn from(e: FormatError) -> Self {
        KernelError::Format(e)
    }
}

impl From<ImageError> for KernelError {
    fn from(e: ImageError) -> Self {
        KernelError::Image(e)
    }
}

impl From<MemFault> for KernelError {
    fn from(e: MemFault) -> Self {
        KernelError::MemFault(e)
    }
}

/// A [`KernelError`] attributed to a kernel and lifecycle [`Stage`] — the
/// unit of failure the batch harness records per matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelFailure {
    /// Registry name of the failing kernel.
    pub kernel: String,
    /// The stage that failed.
    pub stage: Stage,
    /// What went wrong.
    pub error: KernelError,
}

impl fmt::Display for KernelFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} failed in {}: {}",
            self.kernel, self.stage, self.error
        )
    }
}

impl std::error::Error for KernelFailure {}

/// The functional result of a kernel, in the kernel's natural format.
#[derive(Debug, Clone)]
pub enum KernelOutput {
    /// A transposed HiSM image (from `transpose_hism`).
    Hism(HismImage),
    /// A transposed CSR matrix (from the CRS kernels).
    Csr(Csr),
    /// A transposed dense matrix (from `transpose_dense`).
    Dense(Dense),
    /// A result vector `y` (from the SpMV kernels).
    Vector(Vec<Value>),
}

impl KernelOutput {
    /// FNV-1a digest over a canonical byte serialization of the output.
    ///
    /// Two outputs digest equal iff they are bit-identical (same variant,
    /// same shape, same value *bits* — so `-0.0` and `+0.0` differ), which
    /// is exactly the property the cross-timing-model tests pin: the
    /// functional result must not depend on the timing model.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        match self {
            KernelOutput::Hism(img) => {
                h.byte(0);
                for w in [
                    img.root.addr,
                    img.root.len,
                    img.root.levels,
                    img.root.rows,
                    img.root.cols,
                    img.root.s,
                ] {
                    h.u32(w);
                }
                for &w in &img.words {
                    h.u32(w);
                }
            }
            KernelOutput::Csr(csr) => {
                h.byte(1);
                h.u64(csr.rows() as u64);
                h.u64(csr.cols() as u64);
                for &p in csr.row_ptr() {
                    h.u64(p as u64);
                }
                for &c in csr.col_idx() {
                    h.u64(c as u64);
                }
                for &v in csr.values() {
                    h.u32(v.to_bits());
                }
            }
            KernelOutput::Dense(d) => {
                h.byte(2);
                h.u64(d.rows() as u64);
                h.u64(d.cols() as u64);
                for r in 0..d.rows() {
                    for c in 0..d.cols() {
                        h.u32(d.get(r, c).to_bits());
                    }
                }
            }
            KernelOutput::Vector(y) => {
                h.byte(3);
                h.u64(y.len() as u64);
                for &v in y {
                    h.u32(v.to_bits());
                }
            }
        }
        h.finish()
    }

    /// Format-*independent* digest of the output: the canonical-COO
    /// digest of the matrix the output encodes
    /// ([`stm_sparse::format::canonical_digest`]), or the encoding
    /// digest for a vector result.
    ///
    /// Where [`KernelOutput::digest`] distinguishes encodings (a HiSM
    /// image and a CSR matrix holding the same Aᵀ digest differently),
    /// this digest is equal for any two outputs encoding the same
    /// matrix — which is what lets a service report one digest per
    /// *request* regardless of whether the primary kernel or its
    /// registry fallback (a different output format) served it. Returns
    /// `None` for a HiSM image that does not decode.
    pub fn canonical_digest(&self) -> Option<u64> {
        use stm_sparse::format::canonical_digest;
        match self {
            KernelOutput::Hism(img) => Some(canonical_digest(&stm_hism::build::to_coo(
                &img.decode().ok()?,
            ))),
            KernelOutput::Csr(csr) => Some(canonical_digest(&csr.to_coo())),
            KernelOutput::Dense(d) => {
                let mut coo = Coo::new(d.rows(), d.cols());
                for r in 0..d.rows() {
                    for c in 0..d.cols() {
                        let v = d.get(r, c);
                        if v.to_bits() != 0 {
                            coo.push(r, c, v);
                        }
                    }
                }
                Some(canonical_digest(&coo))
            }
            KernelOutput::Vector(_) => Some(self.digest()),
        }
    }

    /// The result vector, if this is a [`KernelOutput::Vector`].
    pub fn as_vector(&self) -> Option<&[Value]> {
        match self {
            KernelOutput::Vector(y) => Some(y),
            _ => None,
        }
    }

    /// The CSR matrix, if this is a [`KernelOutput::Csr`].
    pub fn as_csr(&self) -> Option<&Csr> {
        match self {
            KernelOutput::Csr(c) => Some(c),
            _ => None,
        }
    }

    /// The HiSM image, if this is a [`KernelOutput::Hism`].
    pub fn as_hism(&self) -> Option<&HismImage> {
        match self {
            KernelOutput::Hism(img) => Some(img),
            _ => None,
        }
    }

    /// Approximate size of the output payload in bytes (what the verify
    /// stage reads), used for the per-stage byte counters in traces.
    pub fn approx_bytes(&self) -> u64 {
        match self {
            KernelOutput::Hism(img) => 4 * (img.words.len() as u64 + 6),
            KernelOutput::Csr(csr) => {
                4 * (csr.row_ptr().len() + csr.col_idx().len() + csr.values().len()) as u64
            }
            KernelOutput::Dense(d) => 4 * (d.rows() * d.cols()) as u64,
            KernelOutput::Vector(y) => 4 * y.len() as u64,
        }
    }
}

/// The complete result of one [`Kernel::run`](crate::Kernel::run): the
/// timed report, the functional output and its digest.
#[derive(Debug, Clone)]
pub struct KernelReport {
    /// Name of the kernel that produced this report.
    pub kernel: &'static str,
    /// Cycle/utilization report (same shape for every kernel).
    pub report: TransposeReport,
    /// [`KernelOutput::digest`] of `output`, precomputed.
    pub output_digest: u64,
    /// The functional result.
    pub output: KernelOutput,
}

/// The deterministic SpMV operand vector the harness and benchmark
/// binaries use: `x[i] = (i mod 9) - 4`, small signed integers so f32
/// rounding stays benign across summation orders.
pub fn spmv_input(cols: usize) -> Vec<Value> {
    (0..cols).map(|i| ((i % 9) as f32) - 4.0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_distinguishes_variants_and_values() {
        let a = KernelOutput::Vector(vec![1.0, 2.0]);
        let b = KernelOutput::Vector(vec![1.0, 2.5]);
        let c = KernelOutput::Vector(vec![1.0, 2.0]);
        assert_ne!(a.digest(), b.digest());
        assert_eq!(a.digest(), c.digest());
        // Bit-exactness: -0.0 and +0.0 compare equal but digest apart.
        let z = KernelOutput::Vector(vec![0.0]);
        let nz = KernelOutput::Vector(vec![-0.0]);
        assert_ne!(z.digest(), nz.digest());
    }

    #[test]
    fn canonical_digest_is_format_independent() {
        use crate::kernels::registry;
        let coo = stm_sparse::gen::random::uniform(64, 48, 300, 9);
        let ctx = ExecCtx::paper();
        let want = stm_sparse::format::canonical_digest(&coo.transpose_canonical());
        // The HiSM image and the CSR matrix encode Aᵀ differently (their
        // encoding digests disagree) but canonically they are the same
        // matrix — the property that makes a degraded request report the
        // same digest its primary would have.
        let hism = registry::run_verified("transpose_hism", &coo, &ctx).unwrap();
        let crs = registry::run_verified("transpose_crs", &coo, &ctx).unwrap();
        let refk = registry::run_verified("transpose_ref", &coo, &ctx).unwrap();
        assert_ne!(hism.output_digest, crs.output_digest);
        for r in [&hism, &crs, &refk] {
            assert_eq!(r.output.canonical_digest(), Some(want), "{}", r.kernel);
        }
        // Vector results digest by length + value bits.
        let y = KernelOutput::Vector(vec![1.0, -0.0]);
        assert_eq!(y.canonical_digest(), Some(y.digest()));
        assert_ne!(
            y.canonical_digest(),
            KernelOutput::Vector(vec![1.0, 0.0]).canonical_digest()
        );
    }

    #[test]
    fn paper_ctx_is_consistent() {
        assert!(ExecCtx::paper().validate().is_ok());
        let mut ctx = ExecCtx::paper();
        ctx.stm.s = 32;
        assert!(ctx.validate().is_err());
    }

    #[test]
    fn spmv_input_is_deterministic_and_signed() {
        let x = spmv_input(20);
        assert_eq!(x.len(), 20);
        assert_eq!(x[0], -4.0);
        assert_eq!(x[4], 0.0);
        assert_eq!(x[8], 4.0);
        assert_eq!(x, spmv_input(20));
    }
}
