//! The Sparse matrix Transposition Mechanism (STM) — the paper's
//! contribution — together with the two transposition kernels the paper
//! evaluates.
//!
//! The STM is a vector-processor functional unit built around an `s x s`
//! in-processor memory (Section III):
//!
//! * the **write phase** streams a HiSM `s²`-blockarray row-wise into the
//!   `s x s` memory through a column-wise I/O buffer of bandwidth `B`; the
//!   *non-zero locator* scatters each buffer-load to its column positions
//!   and sets the per-cell non-zero indicators;
//! * the **read phase** drains the memory column-wise, using the same
//!   non-zero locator to compact each column's non-zeros back into the I/O
//!   buffer — emitting the blockarray of the *transposed* block;
//! * an extension allows a buffer-load to span up to `L` consecutive
//!   lines (rows/columns), raising buffer utilization for sparse rows
//!   (Section IV-C, Fig. 10);
//! * each phase is a 3-stage pipeline, so every block pays a 3-cycle fill
//!   and a 3-cycle drain penalty (the "6 cycles per block" of Fig. 10);
//! * the memory must be completely filled before it can be read back, so
//!   the unit is not fully pipelined across phases.
//!
//! Module map:
//!
//! * [`locator`] — the non-zero locator (paper Fig. 4), behavioural and
//!   gate-level models;
//! * [`sxs`] — the `s x s` memory (value plane + non-zero indicators);
//! * `unit` — batch formation under `B`/`L` and per-block timing (the
//!   host-level model behind the Fig. 10 parameter study);
//! * [`coproc`] — the STM wired into the vector engine as the
//!   `icm`/`v_stcr`/`v_ldcc` instructions;
//! * [`kernels`] — the recursive HiSM transposition (paper Fig. 6/7) and
//!   the vectorized CRS baseline (paper Fig. 9), both functional + timed;
//! * [`exec`] — the [`exec::ExecCtx`] machine context, typed errors and
//!   kernel reports; the by-name registry ([`kernels::registry`]) builds
//!   every kernel as one [`Kernel`] from a row of its kernel table;
//! * [`report`] — cycle/utilization reporting shared by the harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coproc;
#[cfg(test)]
mod enumeration;
pub mod exec;
pub mod kernels;
pub mod locator;
pub mod micro;
pub mod obs;
pub mod report;
pub mod sxs;
pub mod unit;

pub use coproc::StmCoprocessor;
pub use exec::{ExecCtx, KernelOutput, KernelReport};
pub use kernels::registry::Kernel;
pub use report::{StmStats, TransposeReport};
pub use unit::StmConfig;
