//! The two transposition kernels the paper evaluates, both executing on
//! the simulated vector processor — functionally (memory really gets
//! transposed) and timed (cycle counts come out):
//!
//! * [`hism_transpose`] — the recursive HiSM kernel of the paper's
//!   Fig. 6/7, using the STM functional unit;
//! * [`crs_transpose`] — the vectorized Pissanetsky baseline of Fig. 9,
//!   with its scalar histogram phase ([`histogram`]) and vectorized
//!   scan-add ([`scan`]);
//! * [`crs_scalar`] — the fully scalar Pissanetsky baseline (the
//!   "traditional scalar architecture" of the paper's introduction);
//! * [`hism_spmv`] / [`crs_spmv`] — simulated sparse matrix–vector
//!   multiplication over both formats (the extension experiment backing
//!   the paper's reference \[5\]);
//! * [`coo_transpose`] / [`jd_transpose`] / [`sell`] — transposition
//!   from the remaining formats of the unified `SparseFormat` layer
//!   (COO triplets, Jagged Diagonal, SELL-C-σ), plus the SELL SpMV.
//!   All three transpositions reduce to the Pissanetsky pipeline and
//!   produce byte-identical output to [`crs_transpose`].
//!
//! Each kernel is one function taking the machine as an
//! [`ExecCtx`]; the nine that drive the vector engine share one run
//! skeleton, `simulate`. Every kernel is also a row of the kernel table
//! in [`registry`], built as a [`crate::Kernel`], so harnesses select
//! kernels by name instead of importing these functions directly.

pub mod coo_transpose;
pub mod crs_scalar;
pub mod crs_spmv;
pub mod crs_transpose;
pub mod dense_transpose;
pub mod hism_spmv;
pub mod hism_transpose;
pub mod histogram;
pub mod jd_transpose;
pub mod registry;
pub mod scan;
pub mod sell;

pub use coo_transpose::transpose_coo;
pub use crs_scalar::transpose_crs_scalar;
pub use crs_spmv::spmv_crs;
pub use crs_transpose::transpose_crs;
pub use dense_transpose::transpose_dense;
pub use hism_spmv::spmv_hism;
pub use hism_transpose::transpose_hism;
pub use jd_transpose::transpose_jd;
pub use sell::{spmv_sell, transpose_sell};

use crate::exec::{ExecCtx, KernelError};
use crate::obs::{record_oob, record_phases};
use crate::report::{Phase, StmStats, TransposeReport};
use stm_vpsim::scalar::ScalarRunStats;
use stm_vpsim::{Engine, Memory};

/// What a kernel body reports beyond the engine's own counters.
pub(crate) struct Ran {
    /// Phases laid end to end from cycle 0.
    pub phases: Vec<Phase>,
    /// Statistics of a scalar-core phase, if the body ran one.
    pub scalar: Option<ScalarRunStats>,
    /// STM-unit statistics, if the body drove the coprocessor.
    pub stm: Option<StmStats>,
}

impl Ran {
    /// A body that ran as one phase named `name`, ending now.
    pub fn whole(e: &Engine, name: &'static str) -> Ran {
        Ran::phased(vec![Phase {
            name,
            cycles: e.cycles(),
        }])
    }

    /// A body that reports its own `phases`.
    pub fn phased(phases: Vec<Phase>) -> Ran {
        Ran {
            phases,
            scalar: None,
            stm: None,
        }
    }
}

/// The run skeleton every engine-driving kernel shares: guard `mem` at
/// `limit` words, run `body` on an engine built from `ctx` (recording
/// into `ctx.obs`), account out-of-bounds events on every exit path,
/// surface a memory fault, assemble the report for `nnz` non-zeros,
/// record its phases, and finally `decode` the result from memory.
pub(crate) fn simulate<T>(
    ctx: &ExecCtx,
    mut mem: Memory,
    limit: u32,
    nnz: usize,
    body: impl FnOnce(&mut Engine) -> Result<Ran, KernelError>,
    decode: impl FnOnce(Memory) -> Result<T, KernelError>,
) -> Result<(T, TransposeReport), KernelError> {
    mem.guard(limit, ctx.vp.oob);
    let mut e = Engine::with_timing(ctx.vp.clone(), mem, ctx.timing);
    e.set_recorder(ctx.obs.clone());
    let ran = body(&mut e);
    // Fault accounting happens on every exit path so traces of corrupted
    // runs still carry their `mem.oob` instants and counter.
    let engine = e.stats_snapshot();
    record_oob(&ctx.obs, engine.mem_oob_events, e.cycles());
    let ran = ran?;
    if let Some(f) = e.mem_fault() {
        return Err(f.into());
    }
    let report = TransposeReport {
        wall_ns: None,
        cycles: e.cycles(),
        nnz,
        engine,
        scalar: ran.scalar,
        stm: ran.stm,
        phases: ran.phases,
        fu_busy: e.fu_busy(),
        stalls: e.stall_breakdown(),
    };
    record_phases(&ctx.obs, &report.phases);
    Ok((decode(e.into_mem())?, report))
}

/// The paper machine at section size `s` with STM bandwidth `b`.
#[cfg(test)]
pub(crate) fn machine(s: usize, b: u64) -> ExecCtx {
    ExecCtx {
        vp: stm_vpsim::VpConfig {
            section_size: s,
            ..stm_vpsim::VpConfig::paper()
        },
        stm: crate::unit::StmConfig { s, b, l: 4 },
        ..ExecCtx::paper()
    }
}
