//! Micro-benchmarks for the host-level components: the STM unit model,
//! the non-zero locator, HiSM construction/serialization, the software
//! transposes, and the end-to-end simulator throughput.
//!
//! These measure the *implementation* (how fast this library runs on your
//! machine); the paper's *simulated* cycle numbers come from the figure
//! binaries / the `figures` bench target. The timing loop is first-party
//! (`std::time::Instant` with warm-up and a median-of-samples report) so
//! the workspace stays dependency-free and builds offline.

use std::hint::black_box;
use std::time::{Duration, Instant};

use stm_core::kernels::registry;
use stm_core::locator::{first_ones, GateLocator};
use stm_core::unit::{StmConfig, StmUnit};
use stm_hism::{build, transpose as hism_transpose_sw, HismImage};
use stm_sparse::gen::{blocks, random, structured};
use stm_sparse::Csr;

/// Runs `f` repeatedly for ~1 s after a short warm-up and prints the
/// median per-iteration time over 20 samples.
fn bench<F: FnMut()>(name: &str, mut f: F) {
    // Warm-up: run for at least 300 ms to stabilise caches and clocks.
    let warm_until = Instant::now() + Duration::from_millis(300);
    let mut iters_per_sample = 1u64;
    while Instant::now() < warm_until {
        for _ in 0..iters_per_sample {
            f();
        }
        iters_per_sample = (iters_per_sample * 2).min(1 << 20);
    }
    // Calibrate so one sample takes roughly 1/20 of the measurement time.
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().max(Duration::from_nanos(1));
    let budget = Duration::from_secs(1);
    let samples = 20u32;
    let iters = ((budget.as_nanos() / samples as u128) / once.as_nanos()).clamp(1, 1 << 24) as u64;
    let mut per_iter: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    per_iter.sort_by(f64::total_cmp);
    let median = per_iter[per_iter.len() / 2];
    println!(
        "{name:<44} {:>12.3} µs/iter  ({iters} iters x {samples} samples)",
        median * 1e6
    );
}

fn dense_block_entries(s: usize, stride: usize) -> Vec<(u8, u8, u32)> {
    let mut v = Vec::new();
    for r in (0..s).step_by(stride) {
        for c in 0..s {
            v.push((r as u8, c as u8, (r * s + c) as u32));
        }
    }
    v
}

fn bench_stm_unit() {
    for (name, stride) in [("dense", 1usize), ("quarter", 4), ("sparse", 16)] {
        let entries = dense_block_entries(64, stride);
        let mut unit = StmUnit::new(StmConfig::default());
        bench(&format!("stm_unit_transpose_block/{name}"), || {
            black_box(unit.transpose_block(black_box(&entries)));
        });
    }
}

fn bench_locator() {
    let bits: Vec<bool> = (0..64).map(|i| i % 3 == 0).collect();
    bench("nonzero_locator/behavioural", || {
        black_box(first_ones(black_box(&bits), 4));
    });
    let gate = GateLocator::new(64);
    bench("nonzero_locator/gate_level", || {
        black_box(gate.locate(black_box(&bits), 4));
    });
}

fn bench_hism_build() {
    let coo = structured::grid2d_5pt(128, 128);
    bench("hism/build_from_coo", || {
        black_box(build::from_coo(black_box(&coo), 64).unwrap());
    });
    let h = build::from_coo(&coo, 64).unwrap();
    bench("hism/encode_image", || {
        black_box(HismImage::encode(black_box(&h)));
    });
    bench("hism/software_transpose", || {
        black_box(hism_transpose_sw::transpose(black_box(&h)));
    });
}

fn bench_software_transposes() {
    let coo = random::uniform(2048, 2048, 40_000, 77);
    let csr = Csr::from_coo(&coo);
    let h = build::from_coo(&coo, 64).unwrap();
    bench("software_transpose_40k_nnz/csr_pissanetsky", || {
        black_box(black_box(&csr).transpose_pissanetsky());
    });
    bench("software_transpose_40k_nnz/hism_per_block_swap", || {
        black_box(hism_transpose_sw::transpose(black_box(&h)));
    });
}

fn bench_simulator_throughput() {
    // End-to-end kernel simulation through the registry, like the harness.
    let coo = blocks::block_dense(512, 64, 12, 0.8, 5);
    let ctx = registry::ExecCtx::paper();
    for name in ["transpose_hism", "transpose_crs"] {
        let mut kernel = registry::create(name).unwrap();
        kernel.prepare(&coo, &ctx).unwrap();
        bench(&format!("simulator/{name}"), || {
            black_box(kernel.run(&ctx).unwrap());
        });
    }
}

fn bench_micro_model() {
    use stm_core::micro::MicroStm;
    let entries = dense_block_entries(64, 2);
    let mut unit = StmUnit::new(StmConfig::default());
    bench("stm_models/analytic_unit", || {
        black_box(unit.transpose_block(black_box(&entries)));
    });
    let mut micro = MicroStm::new(StmConfig::default());
    bench("stm_models/cycle_stepped_micro", || {
        black_box(micro.transpose_block(black_box(&entries)));
    });
}

fn bench_jd_format() {
    use stm_sparse::Jd;
    let coo = random::power_law(2048, 2048, 16.0, 1.2, 9);
    bench("jd_format/build", || {
        black_box(Jd::from_coo(black_box(&coo)));
    });
    let jd = Jd::from_coo(&coo);
    let x = vec![1.0f32; 2048];
    bench("jd_format/spmv", || {
        black_box(jd.spmv(black_box(&x)).unwrap());
    });
}

fn bench_scalar_core() {
    use stm_core::kernels::histogram::{histogram_max_instructions, histogram_program};
    use stm_vpsim::scalar::run_program;
    use stm_vpsim::{Memory, VpConfig};
    let nnz = 10_000usize;
    let ja: Vec<u32> = (0..nnz as u32)
        .map(|k| k.wrapping_mul(2654435761) % 512)
        .collect();
    let program = histogram_program(0, nnz, 100_000);
    bench("scalar_core_histogram_10k", || {
        let mut mem = Memory::new();
        mem.write_block(0, black_box(&ja));
        black_box(run_program(
            &VpConfig::paper(),
            &mut mem,
            &program,
            histogram_max_instructions(nnz),
        ));
    });
}

fn main() {
    println!("host micro-benchmarks (median of 20 samples, ~1 s each)\n");
    bench_stm_unit();
    bench_locator();
    bench_hism_build();
    bench_software_transposes();
    bench_simulator_throughput();
    bench_micro_model();
    bench_jd_format();
    bench_scalar_core();
}
