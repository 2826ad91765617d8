//! Host-native execution backend for the STM kernels.
//!
//! The simulator in `stm-core` *predicts* cycle counts; this crate
//! actually *runs* the same six kernels (HiSM/CRS/SELL transpose and
//! SpMV) on the host CPU, in portable scalar code, producing
//! bit-identical outputs.
//!
//! Bit-identity is the load-bearing property: every host kernel
//! replicates the *exact floating-point operation order* of its
//! simulated counterpart (see DESIGN.md §14), so the simulated and the
//! host leg of one kernel on one matrix must produce byte-identical
//! output digests.
//!
//! The crate deliberately depends only on `stm-sparse` and `stm-hism`:
//! `stm-core` layers the `Kernel`-trait adapters, nominal cycle
//! accounting and observability on top. It contains no `unsafe` code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csr;
pub mod hism;
pub mod sell;

use std::sync::OnceLock;

/// Which execution backend a kernel run should use.
///
/// Parsed from `--backend {sim,scalar}` / `STM_BACKEND`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// The cycle-accurate simulator (the default).
    #[default]
    Sim,
    /// Host-native, the portable scalar kernels.
    Scalar,
    /// Runs exactly what [`Backend::Scalar`] runs; it keeps its own
    /// name (`simd`) because `stmbench` still names it as a value and
    /// keys its `host.<kernel>.simd` spans by that name. Not parsed
    /// from the command line.
    Simd,
}

impl Backend {
    /// Parses a backend name. Accepts exactly `sim` and `scalar`.
    pub fn parse(s: &str) -> Option<Backend> {
        match s {
            "sim" => Some(Backend::Sim),
            "scalar" => Some(Backend::Scalar),
            _ => None,
        }
    }

    /// Canonical name (inverse of [`Backend::parse`] for the parseable
    /// backends).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Sim => "sim",
            Backend::Scalar => "scalar",
            Backend::Simd => "simd",
        }
    }

    /// Whether this backend runs kernels on the host CPU.
    pub fn is_host(self) -> bool {
        self != Backend::Sim
    }
}

/// The code path the host tier runs: always [`Backend::Scalar`], whose
/// [`Backend::name`] is `"scalar"`. Kept only for `stmbench`'s report.
pub fn detect_isa() -> Backend {
    Backend::Scalar
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
/// `all`), that kernel's host leg deliberately perturbs one output
/// value. The `hostsmoke` CI job uses this to prove the three-leg digest
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
        for b in [Backend::Sim, Backend::Scalar] {
            assert_eq!(Backend::parse(b.name()), Some(b));
        }
        for retired in ["simd", "auto", "avx2", ""] {
            assert_eq!(Backend::parse(retired), None);
        }
        assert_eq!(Backend::default(), Backend::Sim);
        assert_eq!(detect_isa().name(), "scalar");
    }
}
