//! The Hierarchical Sparse Matrix (HiSM) storage format.
//!
//! HiSM (Stathis et al., IPDPS 2003 — reference \[5\] of the STM paper)
//! partitions an `M x N` sparse matrix into a hierarchy of `s x s` blocks,
//! where `s` is the section size of the target vector processor:
//!
//! * the matrix is zero-padded to `s^q x s^q`, with
//!   `q = max(ceil(log_s M), ceil(log_s N))` hierarchy levels;
//! * **level 0** blocks (leaves) store the non-zero *values* together with
//!   their 8-bit row/column positions inside the block, row-wise, in an
//!   array called an *s²-blockarray*;
//! * **levels ≥ 1** store, in the same blockarray form, *pointers* to the
//!   non-empty blockarrays one level below, plus a parallel *lengths
//!   vector* giving the number of entries of each child blockarray.
//!
//! The crate provides the host-side structure ([`HismMatrix`]), the builder
//! from/into COO, the software reference transposition (the per-level
//! coordinate swap of the paper's Section III), storage accounting
//! ([`stats`]), an SpMV reference, and — crucially for the simulator — the
//! flat 32-bit-word *memory image* ([`image`]) the vector-processor kernels
//! operate on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod build;
pub mod error;
pub mod faults;
pub mod image;
pub mod iter;
pub mod matrix;
pub mod spmv;
pub mod stats;
pub mod transpose;

pub use error::ImageError;
pub use faults::{FaultClass, FaultRecord};
pub use image::{HismImage, RootDesc};
pub use matrix::{BlockData, HismBlock, HismMatrix, LeafEntry, NodeEntry};
pub use stats::StorageStats;

/// The default section size used throughout the paper's evaluation.
pub const DEFAULT_SECTION_SIZE: usize = 64;
