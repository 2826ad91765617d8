//! A cycle-timing vector processor simulator.
//!
//! The STM paper evaluates on "a vector processor simulator that we have
//! developed … based on the SimpleScalar simulator", extended with vector
//! instructions, vector functional units and a vector memory unit. This
//! crate rebuilds that substrate from the published machine parameters:
//!
//! * section size (maximum vector length) `s = 64`;
//! * functional-unit parallelism `p = 4` (elements processed per cycle);
//! * a vector memory unit with a 20-cycle startup that then delivers
//!   4 × 32-bit words per cycle for contiguous accesses and 1 word per
//!   cycle for indexed (gather/scatter) accesses — so a contiguous 64-word
//!   load takes 20 + 64/4 = 36 cycles and an indexed one 20 + 64 = 84
//!   (the paper's own worked example, pinned by a unit test);
//! * vector *chaining*: the per-element results of one vector instruction
//!   forward directly into the next;
//! * a 4-way-issue scalar core with an L1 data cache for the code the
//!   paper deliberately left scalar (the CRS column histogram).
//!
//! Everything is both *functional* (instructions really move data through
//! [`mem::Memory`]) and *timed* (per-element ready times propagate through
//! chains), so a kernel run on this simulator yields a checkable result
//! *and* a cycle count. Timing is supplied by a pluggable
//! [`timing::TimingModel`] — the paper's occupancy/chaining machine by
//! default, or the zero-latency [`timing::IdealTiming`] bound — while the
//! functional result is identical under every model.
//!
//! The STM functional unit itself lives in `stm-core` and plugs into
//! [`engine::Engine`] through the [`engine::Fu::Stm`] port.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod mem;
pub mod scalar;
pub mod stats;
pub mod stream;
pub mod timing;

pub use config::{MidRunFlip, VpConfig};
pub use engine::{DeadlineExceeded, Engine, Fu, VReg};
pub use mem::{Allocator, MemFault, Memory, OobPolicy, POISON_WORD};
pub use stats::{EngineStats, FuBusy, StallBreakdown, StallCauses};
pub use stream::{Ready, Stream};
pub use timing::{IdealTiming, PaperTiming, TimingKind, TimingModel};
