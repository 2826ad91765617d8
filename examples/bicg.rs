//! BiConjugate Gradient (BiCG) on a non-symmetric PDE operator — the
//! classic solver whose inner loop needs *both* `A·p` and `Aᵀ·p̃`
//! products. The shadow system's `Aᵀ` is obtained by transposing the
//! HiSM-stored operator on the simulated vector processor (the STM path),
//! exactly the scenario the paper's introduction motivates.
//!
//! The operator is a 2-D advection–diffusion discretization (5-point
//! stencil with upwinded convection), which is non-symmetric, so plain CG
//! does not apply.
//!
//! ```sh
//! cargo run --release --example bicg
//! ```

use hism_stm::hism::{build, spmv, HismImage, HismMatrix};
use hism_stm::sparse::Coo;
use hism_stm::stm::kernels::transpose_hism;
use hism_stm::stm::ExecCtx;

/// Builds the advection–diffusion operator on an `k x k` grid:
/// `-∆u + (vx, vy)·∇u` with first-order upwinding.
fn advection_diffusion(k: usize, vx: f32, vy: f32) -> Coo {
    let n = k * k;
    let idx = |x: usize, y: usize| y * k + x;
    let mut coo = Coo::new(n, n);
    // Upwind splits: convection strengthens the upstream coupling.
    let (ax_m, ax_p) = (1.0 + vx.max(0.0), 1.0 + (-vx).max(0.0));
    let (ay_m, ay_p) = (1.0 + vy.max(0.0), 1.0 + (-vy).max(0.0));
    for y in 0..k {
        for x in 0..k {
            let i = idx(x, y);
            coo.push(i, i, ax_m + ax_p + ay_m + ay_p);
            if x > 0 {
                coo.push(i, idx(x - 1, y), -ax_m);
            }
            if x + 1 < k {
                coo.push(i, idx(x + 1, y), -ax_p);
            }
            if y > 0 {
                coo.push(i, idx(x, y - 1), -ay_m);
            }
            if y + 1 < k {
                coo.push(i, idx(x, y + 1), -ay_p);
            }
        }
    }
    coo
}

fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn norm(a: &[f32]) -> f32 {
    dot(a, a).sqrt()
}

fn axpy(y: &mut [f32], alpha: f32, x: &[f32]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Unpreconditioned BiCG: solves `A x = b` using products with `A` and
/// `Aᵀ`. Returns `(solution, iterations, relative residual)`.
fn bicg(
    a: &HismMatrix,
    at: &HismMatrix,
    b: &[f32],
    tol: f32,
    max_iter: usize,
) -> (Vec<f32>, usize, f32) {
    let n = b.len();
    let mut x = vec![0.0f32; n];
    let mut r = b.to_vec();
    let mut rt = b.to_vec();
    let mut p = r.clone();
    let mut pt = rt.clone();
    let mut rho = dot(&rt, &r);
    let b_norm = norm(b).max(f32::MIN_POSITIVE);
    for it in 1..=max_iter {
        let ap = spmv::spmv(a, &p).expect("shape");
        let atpt = spmv::spmv(at, &pt).expect("shape");
        let alpha = rho / dot(&pt, &ap);
        axpy(&mut x, alpha, &p);
        axpy(&mut r, -alpha, &ap);
        axpy(&mut rt, -alpha, &atpt);
        let rel = norm(&r) / b_norm;
        if rel < tol {
            return (x, it, rel);
        }
        let rho_next = dot(&rt, &r);
        let beta = rho_next / rho;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
            pt[i] = rt[i] + beta * pt[i];
        }
        rho = rho_next;
    }
    let rel = norm(&r) / b_norm;
    (x, max_iter, rel)
}

fn main() {
    let k = 48usize;
    let coo = advection_diffusion(k, 0.8, -0.4);
    println!(
        "advection-diffusion operator: {}x{} grid, {} unknowns, {} non-zeros (non-symmetric)",
        k,
        k,
        k * k,
        coo.nnz()
    );

    // Store A hierarchically and obtain Aᵀ through the simulated STM.
    let a = build::from_coo(&coo, 64).expect("operator fits HiSM");
    let image = HismImage::encode(&a);
    let (out, report) = transpose_hism(&ExecCtx::paper(), &image).expect("valid image");
    let at = out.decode().expect("valid output image");
    assert_eq!(build::to_coo(&at), coo.transpose_canonical());
    println!(
        "Aᵀ computed on the simulated VP in {} cycles ({:.2} cycles/nnz)\n",
        report.cycles,
        report.cycles_per_nnz()
    );

    // Solve A x = b for a manufactured solution.
    let n = k * k;
    let x_true: Vec<f32> = (0..n).map(|i| ((i % 17) as f32 - 8.0) / 8.0).collect();
    let b = spmv::spmv(&a, &x_true).expect("shape");
    let (x, iters, rel) = bicg(&a, &at, &b, 1e-5, 2000);
    println!("BiCG converged in {iters} iterations, relative residual {rel:.2e}");

    let err = x
        .iter()
        .zip(&x_true)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    println!("max |x - x_true| = {err:.3e}");
    assert!(rel < 1e-4, "solver failed to converge");
}
