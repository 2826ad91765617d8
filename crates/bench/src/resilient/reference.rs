//! The vote's third leg: each host-capable kernel's expected canonical
//! digest, computed from the kernel's input COO with `stm-sparse` alone.
//!
//! Nothing here calls `stm-host`, `stm-hism`, `stm-vpsim` or a
//! `stm-core` kernel, so a deterministic bug in either executed leg
//! (simulator or host) cannot reproduce itself in this one. Only the
//! digest — the comparator every leg is judged by — and the kernels'
//! fixed SpMV input are shared.
//!
//! The SpMV references replicate each simulated kernel's floating-point
//! operation order as far as it shows in the result (DESIGN.md §14):
//!
//! * `spmv_crs` reduces each row in sections with the simulator's
//!   slide-up tree;
//! * `spmv_sell` and `spmv_hism` are [`Coo::spmv`]'s sequential per-row
//!   sum in column order. The HiSM walk visits the blocks of one
//!   block row left to right at every level, so it meets each row's
//!   entries in column order too; `spmv_hism` only pads `y` to the
//!   simulator's length `rows.max(1)`.

use stm_core::kernels::registry::{spmv_input, ExecCtx, KernelOutput};
use stm_sparse::format::canonical_digest;
use stm_sparse::{Coo, Value};

/// The canonical digest `kernel` must produce on `coo` under `ctx`'s
/// section size, or `None` for a kernel without a reference (every
/// kernel outside `registry::HOST_CAPABLE`) or a section size the
/// kernel itself rejects.
pub fn digest(kernel: &str, coo: &Coo, ctx: &ExecCtx) -> Option<u64> {
    let a = coo.canonical();
    if matches!(
        kernel,
        "transpose_hism" | "transpose_crs" | "transpose_sell"
    ) {
        return Some(canonical_digest(&a.transpose_canonical()));
    }
    let x = spmv_input(a.cols());
    let y = match kernel {
        "spmv_crs" if ctx.vp.section_size > 0 => spmv_sectioned(&a, &x, ctx.vp.section_size),
        "spmv_sell" => a.spmv(&x).ok()?,
        "spmv_hism" => {
            let mut y = a.spmv(&x).ok()?;
            y.resize(a.rows().max(1), 0.0);
            y
        }
        _ => return None,
    };
    Some(KernelOutput::Vector(y).digest())
}

/// Per row, the entries in column order in sections of `sec`: each
/// section's products are reduced by the slide-up tree (for k = 1, 2,
/// 4, … every lane t ≥ k adds lane t − k), and the top lane accumulates
/// into the row sum from `+0.0`. The simulator also adds the `+0.0` it
/// slides into the lanes below k; that can only turn a `-0.0` lane into
/// `+0.0`, which the `+0.0`-based row sum cannot tell apart, so it is
/// left out.
fn spmv_sectioned(a: &Coo, x: &[Value], sec: usize) -> Vec<Value> {
    let mut y = vec![0.0; a.rows()];
    let mut prod = Vec::with_capacity(sec);
    for row in a.entries().chunk_by(|p, q| p.0 == q.0) {
        let mut acc = 0.0;
        for section in row.chunks(sec) {
            prod.clear();
            prod.extend(section.iter().map(|&(_, c, v)| v * x[c]));
            let vl = prod.len();
            let mut k = 1;
            while k < vl {
                // Descending, so lane t − k still holds its old value.
                for t in (k..vl).rev() {
                    prod[t] += prod[t - k];
                }
                k *= 2;
            }
            acc += prod[vl - 1];
        }
        y[row[0].0] = acc;
    }
    y
}
