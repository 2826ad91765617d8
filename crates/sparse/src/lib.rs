//! Sparse matrix substrate for the STM reproduction.
//!
//! This crate provides the storage formats, conversions, generators, and
//! matrix metrics that both the Hierarchical Sparse Matrix (HiSM) crate and
//! the evaluation harness are built on:
//!
//! * [`Coo`] — coordinate (triplet) format, the interchange format.
//! * [`Csr`] — compressed row storage (the paper's "CRS": `AN`/`JA`/`IA`),
//!   including the host-side reference of Pissanetsky's transposition
//!   algorithm (the baseline the paper compares against).
//! * [`Csc`] — compressed column storage, used as a transposition oracle.
//! * [`Dense`] — small dense matrices for exhaustive cross-checks.
//! * [`Jd`] — Jagged Diagonal storage, the third format of the HiSM
//!   papers' comparisons (long vectors via row-length sorting).
//! * [`Sell`] — SELL-C-σ (Kreutzer et al.), the chunked, sorted, padded
//!   SIMD-friendly format the ROADMAP's unified-format item calls for.
//! * [`mod@format`] — the [`SparseFormat`] trait every format implements,
//!   plus the shared construction helpers (compressed-pointer build,
//!   windowed length sort, canonical digest).
//! * [`hash`] — the streaming FNV-1a hasher behind every digest, seal and
//!   checksum in the workspace.
//! * [`mm`] — Matrix Market coordinate-format I/O (the paper's matrices come
//!   from the Matrix Market collection; real files can be dropped in).
//! * [`gen`] — seeded synthetic matrix generators used to rebuild the D-SAB
//!   benchmark suite.
//! * [`metrics`] — the three D-SAB sorting criteria: matrix size (nnz),
//!   locality, and average non-zeros per row.
//! * [`reorder`] — permutations and reverse Cuthill–McKee, the software
//!   lever on the locality metric.
//!
//! All formats use 32-bit floating point values ([`Value`]) because the
//! simulated machine is a 32-bit-word vector processor (the paper's memory
//! unit moves 32-bit words).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coo;
pub mod csc;
pub mod csr;
pub mod dense;
pub mod error;
pub mod format;
pub mod gen;
pub mod hash;
pub mod jd;
pub mod metrics;
pub mod mm;
pub mod reorder;
pub mod rng;
pub mod sell;
pub mod viz;

pub use coo::Coo;
pub use csc::Csc;
pub use csr::Csr;
pub use dense::Dense;
pub use error::FormatError;
pub use format::SparseFormat;
pub use jd::Jd;
pub use metrics::MatrixMetrics;
pub use sell::{Sell, SellConfig};

/// Scalar value type used by every matrix format in this workspace.
///
/// The simulated vector processor is a 32-bit-word machine (its memory unit
/// delivers four 32-bit words per cycle), so matrix values are `f32` and are
/// bit-cast into simulator memory words.
pub type Value = f32;

/// Shape of a matrix: `(rows, cols)`.
pub type Shape = (usize, usize);
