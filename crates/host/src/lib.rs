//! Host-native execution backend for the STM kernels.
//!
//! The simulator in `stm-core` *predicts* cycle counts; this crate
//! actually *runs* the same six kernels (HiSM/CRS/SELL transpose and
//! SpMV) on the host CPU, producing bit-identical outputs:
//!
//! * a portable **scalar reference** implementation of every kernel, and
//! * runtime-dispatched **SIMD** variants (AVX2 on x86_64, NEON on
//!   aarch64) for the SpMV kernels, selected at startup with a
//!   guaranteed scalar fallback.
//!
//! Bit-identity is the load-bearing property: every host kernel
//! replicates the *exact floating-point operation order* of its
//! simulated counterpart (see DESIGN.md §14), so the three legs —
//! cycle-model, scalar-host, SIMD-host — of one kernel on one matrix
//! must produce byte-identical output digests. The SIMD variants only
//! vectorize element-wise operations (per-lane multiplies and adds whose
//! result is independent of lane evaluation order), never reductions
//! that would reassociate sums; anything order-sensitive stays scalar on
//! every ISA. That is why digests are ISA-independent by construction.
//!
//! The crate deliberately depends only on `stm-sparse` and `stm-hism`:
//! `stm-core` layers the `Kernel`-trait adapters, nominal cycle
//! accounting and observability on top. Unsafe code (SIMD intrinsics) is
//! confined to the [`simd`] module; everything else is `deny(unsafe_code)`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod csr;
pub mod hism;
pub mod sell;
pub mod simd;

use std::sync::OnceLock;

/// Which execution backend a kernel run should use.
///
/// Parsed from `--backend {sim,scalar,simd,auto}` / `STM_BACKEND`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// The cycle-accurate simulator (the default).
    #[default]
    Sim,
    /// Host-native, forced to the portable scalar reference.
    Scalar,
    /// Host-native, forced to the SIMD tier (falls back to scalar when
    /// the CPU has neither AVX2 nor NEON — the fallback is guaranteed).
    Simd,
    /// Host-native, best available ISA (same resolution as [`Backend::Simd`];
    /// the separate spelling lets scripts state intent).
    Auto,
}

impl Backend {
    /// Parses a backend name. Accepts exactly `sim`, `scalar`, `simd`
    /// and `auto`.
    pub fn parse(s: &str) -> Option<Backend> {
        match s {
            "sim" => Some(Backend::Sim),
            "scalar" => Some(Backend::Scalar),
            "simd" => Some(Backend::Simd),
            "auto" => Some(Backend::Auto),
            _ => None,
        }
    }

    /// Canonical name (inverse of [`Backend::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Sim => "sim",
            Backend::Scalar => "scalar",
            Backend::Simd => "simd",
            Backend::Auto => "auto",
        }
    }

    /// The host ISA this backend dispatches to, or `None` for the
    /// simulator. `Scalar` pins the portable reference; `Simd`/`Auto`
    /// pick the best ISA the CPU actually has, scalar when there is none.
    pub fn resolve(self) -> Option<HostIsa> {
        match self {
            Backend::Sim => None,
            Backend::Scalar => Some(HostIsa::Scalar),
            Backend::Simd | Backend::Auto => Some(detect_isa()),
        }
    }

    /// Whether this backend runs kernels on the host CPU.
    pub fn is_host(self) -> bool {
        self != Backend::Sim
    }
}

/// The instruction set a host-native run dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostIsa {
    /// Portable scalar reference — available everywhere.
    Scalar,
    /// AVX2 (x86_64, runtime-detected).
    Avx2,
    /// NEON (aarch64; baseline on every aarch64 target Rust supports).
    Neon,
}

impl HostIsa {
    /// Counter-friendly name (`host.dispatch.<name>`).
    pub fn name(self) -> &'static str {
        match self {
            HostIsa::Scalar => "scalar",
            HostIsa::Avx2 => "avx2",
            HostIsa::Neon => "neon",
        }
    }
}

/// Detects the best SIMD tier of the machine we are running on, falling
/// back to [`HostIsa::Scalar`] when the CPU offers neither AVX2 nor NEON.
pub fn detect_isa() -> HostIsa {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return HostIsa::Avx2;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            return HostIsa::Neon;
        }
    }
    HostIsa::Scalar
}

/// A typed host-kernel failure. Host kernels treat their inputs exactly
/// as untrusted as the simulator does: corrupt pointers, out-of-range
/// indices or runaway lengths surface as errors, never as panics or
/// out-of-bounds accesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HostError {
    /// The input arrays/image are structurally corrupt.
    Corrupt(String),
    /// The run was configured inconsistently (shape mismatch etc.).
    Config(String),
}

impl std::fmt::Display for HostError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HostError::Corrupt(m) => write!(f, "corrupt input: {m}"),
            HostError::Config(m) => write!(f, "bad configuration: {m}"),
        }
    }
}

impl std::error::Error for HostError {}

/// CI self-test hook: when `STM_HOST_DIVERGE` names a kernel (or is
/// `all`), that kernel's scalar host leg deliberately perturbs one output
/// value. The `simdsmoke` CI job uses this to prove the three-leg digest
/// gate actually fails on a divergent implementation. Never set outside
/// CI self-tests. The variable is read once per process: every host
/// kernel asks on every call, and reading the environment takes a lock
/// and allocates.
pub fn diverge_requested(kernel: &str) -> bool {
    static DIVERGE: OnceLock<Option<String>> = OnceLock::new();
    match DIVERGE.get_or_init(|| std::env::var("STM_HOST_DIVERGE").ok()) {
        Some(v) => v == kernel || v == "all" || v == "1",
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_parse_round_trips() {
        for b in [Backend::Sim, Backend::Scalar, Backend::Simd, Backend::Auto] {
            assert_eq!(Backend::parse(b.name()), Some(b));
        }
        assert_eq!(Backend::parse("avx2"), None);
        assert_eq!(Backend::parse(""), None);
        assert_eq!(Backend::default(), Backend::Sim);
    }

    #[test]
    fn resolution_always_lands_on_a_real_isa() {
        assert_eq!(Backend::Sim.resolve(), None);
        assert_eq!(Backend::Scalar.resolve(), Some(HostIsa::Scalar));
        // Simd/Auto resolve to *something* on every machine (the scalar
        // fallback is guaranteed), and to the same thing as each other.
        let simd = Backend::Simd.resolve().unwrap();
        assert_eq!(Backend::Auto.resolve(), Some(simd));
    }

    #[test]
    fn isa_names_are_counter_safe() {
        for isa in [HostIsa::Scalar, HostIsa::Avx2, HostIsa::Neon] {
            assert!(isa.name().chars().all(|c| c.is_ascii_alphanumeric()));
        }
    }
}
