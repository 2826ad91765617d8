//! The scalar core: a 4-way-issue in-order pipeline with an L1 data cache.
//!
//! The paper runs the first phase of the CRS transposition — the column
//! histogram — as *scalar* code "executed by the baseline 4-way issue
//! superscalar processor simulated by SimpleScalar", because the mask-
//! vector formulation would waste vector work on a sparse matrix. This
//! module provides that baseline: a small scalar ISA ([`isa`]), an
//! assembler ([`asm`]), an L1 data cache model ([`cache`]), and a timing
//! interpreter ([`cpu`]) that issues up to `scalar_issue_width`
//! instructions per cycle, stalling only on register (RAW) dependences,
//! memory-port pressure, and cache misses.
//!
//! In-order issue is a *conservative* simplification of SimpleScalar's
//! out-of-order core — replacing it with OoO could only speed the CRS
//! baseline up by hiding more miss latency; the documented speedups would
//! shrink accordingly (DESIGN.md §2.6).

pub mod asm;
pub mod cache;
pub mod cpu;
pub mod interp;
pub mod isa;
pub mod ooo;

use crate::config::VpConfig;
use crate::mem::Memory;
use stm_obs::Recorder;

/// Runs a scalar program with the pipeline model selected by
/// `cfg.scalar_out_of_order` — the entry point the kernels use. `rec` is
/// the run's recorder: like the engine's timing replay, the in-order
/// core memoizes loop timing only while no live recorder watches, so a
/// traced run times every instruction.
pub fn run_scalar(
    cfg: &VpConfig,
    mem: &mut Memory,
    program: &isa::Program,
    max_instructions: u64,
    rec: &Recorder,
) -> cpu::ScalarRunStats {
    if cfg.scalar_out_of_order {
        ooo::run_program_ooo(cfg, mem, program, max_instructions)
    } else {
        cpu::run_program(cfg, mem, program, max_instructions, !rec.is_enabled())
    }
}

pub use asm::Asm;
pub use cache::{Cache, CacheConfig};
pub use cpu::{run_program, ScalarRunStats};
pub use interp::run_functional;
pub use isa::{Program, Reg, SInstr};
pub use ooo::run_program_ooo;
