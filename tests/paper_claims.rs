//! One test per *textual claim* of the paper, so the reproduction status
//! is auditable from a single file. Each test names the section it checks.
//! (Quick-suite scale; the full-suite numbers live in EXPERIMENTS.md.)

use hism_stm::dsab::{experiment_sets, quick_catalogue};
use hism_stm::hism::{build, HismImage, StorageStats};
use hism_stm::sparse::{gen, Coo, Csr};
use hism_stm::stm::kernels::{transpose_crs, transpose_hism};
use hism_stm::stm::unit::{block_timing, buffer_utilization, StmConfig};
use hism_stm::stm::ExecCtx;
use hism_stm::vpsim::{Engine, Memory, VReg, VpConfig};
use stm_bench::fig10::bu_sweep;
use stm_bench::{run_set, RunConfig};

/// §IV-A: "a contiguous vector of 64 words can be loaded in 20 + 64/4 =
/// 36 cycles, whereas 20 + 64 = 84 cycles are needed to perform an
/// indexed load of a 64-element vector."
#[test]
fn claim_memory_model_worked_example() {
    let mut e = Engine::new(VpConfig::paper(), Memory::new());
    let r = e.v_ld(0, 64);
    assert_eq!(r.last_ready() + 1, 36);
    let mut e = Engine::new(VpConfig::paper(), Memory::new());
    let idx = VReg::ready_at((0..64).collect(), 0);
    let r = e.v_ld_idx(0, &idx);
    assert_eq!(r.last_ready() + 1, 84);
}

/// §II: positions inside an s²-block need only 8 bits each for s < 256,
/// "significantly less than other sparse matrix storage format schemes
/// where at least a 32-bit entry has to be stored for each non-zero".
#[test]
fn claim_hism_positional_storage_is_smaller_than_crs() {
    let coo = gen::random::uniform(500, 500, 5000, 1);
    let h = build::from_coo(&coo, 64).unwrap();
    let hism_bits = StorageStats::compute(&h).total_bits();
    let crs_bits = Csr::from_coo(&coo).storage_bits();
    assert!(hism_bits < crs_bits, "{hism_bits} !< {crs_bits}");
}

/// §II (HiSM description): `q = max(⌈log_s M⌉, ⌈log_s N⌉)` levels.
#[test]
fn claim_level_count_formula() {
    assert_eq!(build::levels_for(64, 64, 64), 1);
    assert_eq!(build::levels_for(4096, 64, 64), 2);
    assert_eq!(build::levels_for(65, 4097, 64), 3);
}

/// §III: "transposing the blocks at all level results in the
/// transposition of the whole HiSM-stored matrix" — checked end-to-end
/// on the simulator, including the in-place property ("the same memory
/// location and amount as the original").
#[test]
fn claim_blockwise_transposition_is_global_transposition() {
    let coo = gen::rmat::rmat(9, 3000, gen::rmat::RmatProbs::default(), 11);
    let h = build::from_coo(&coo, 64).unwrap();
    let img = HismImage::encode(&h);
    let (out, _) = transpose_hism(&ExecCtx::paper(), &img).unwrap();
    assert_eq!(
        build::to_coo(&out.decode().unwrap()),
        coo.transpose_canonical()
    );
    assert_eq!(out.words.len(), img.words.len(), "in-place property");
}

/// §III: "3 cycles are required for the last elements to enter the
/// s×s-memory … Similarly, 3 cycles are needed for the last results to
/// be returned" — the 6-cycle per-block penalty of Fig. 10.
#[test]
fn claim_three_plus_three_cycle_pipeline_penalty() {
    // One element: 1 write batch + 1 read batch + 6 pipeline cycles.
    let t = block_timing(&[(0, 0)], &StmConfig::default());
    assert_eq!(t.total_cycles(), 1 + 1 + 6);
    // BU at B=1 for that block: 2*1 / (1*8) = 0.25.
    assert!((buffer_utilization(&[t], 1) - 0.25).abs() < 1e-12);
}

/// §IV-C: "The highest utilization is obtained for buffer bandwidth
/// B=1"; "for increasing number of accessible lines L the utilization
/// increases"; "for … L > 4 the utilization does not increase
/// significantly any more."
#[test]
fn claim_fig10_shape() {
    let sets = experiment_sets(&quick_catalogue(), 6);
    let flat: Vec<_> = sets.by_locality.into_iter().collect();
    let points = bu_sweep(&flat, 64, &[1, 2, 4, 8], &[1, 2, 4, 8]);
    let bu = |b_i: usize, l_i: usize| points[l_i * 4 + b_i].bu;
    for l_i in 0..4 {
        for b_i in 1..4 {
            assert!(bu(0, l_i) >= bu(b_i, l_i), "B=1 must maximize BU");
        }
    }
    for b_i in 0..4 {
        for l_i in 1..4 {
            assert!(
                bu(b_i, l_i) >= bu(b_i, l_i - 1) - 1e-12,
                "BU must grow with L"
            );
        }
    }
    // Saturation: the L4→L8 gain is below the L1→L4 gain at B=4.
    assert!(bu(2, 3) - bu(2, 2) < bu(2, 2) - bu(2, 0));
}

/// §III worked example: "for the element a_{10,10} of the matrix depicted
/// in the left part of Figure 5, the i-coordinates are as follows:
/// i = 10, i_0 = 2, and i_1 = 1" (s = 8).
#[test]
fn claim_section_iii_coordinate_example() {
    use hism_stm::hism::transpose::{coordinate_digits, coordinate_from_digits};
    let digits = coordinate_digits(10, 8, 2);
    assert_eq!(digits, vec![2, 1]); // i_0 = 2, i_1 = 1
    assert_eq!(coordinate_from_digits(&digits, 8), 10);
}

/// §II / Fig. 2: a 64x64 matrix at s = 8 has two hierarchy levels; the
/// level-1 blockarray stores pointers *and* a lengths vector whose k-th
/// entry is the k-th child blockarray's length.
#[test]
fn claim_figure2_structure() {
    use hism_stm::hism::BlockData;
    let coo = gen::random::uniform(64, 64, 200, 42);
    let h = build::from_coo(&coo, 8).unwrap();
    assert_eq!(h.levels(), 2);
    // The root is a Node; every child pointer's length in the image's
    // lengths vector matches the arena.
    let img = HismImage::encode(&h);
    let root = h.root_block();
    if let BlockData::Node(entries) = &root.data {
        let base = img.root.addr as usize;
        let lens_base = base + 2 * entries.len();
        for (k, e) in entries.iter().enumerate() {
            assert_eq!(
                img.words[lens_base + k] as usize,
                h.blocks()[e.child].len(),
                "lengths vector entry {k}"
            );
        }
    } else {
        panic!("64x64 at s=8 must have a pointer root");
    }
}

/// §IV-A: the paper rejects the mask-vector histogram ("vector operations
/// will be, therefore, inefficient") — measured in
/// `stm-core::kernels::histogram::tests::paper_is_right_to_reject_the_vectorized_histogram`.
/// Here: the accepted scalar histogram phase is a minor share of the CRS
/// total on long-row matrices but dominant on scattered ones.
#[test]
fn claim_histogram_phase_share() {
    let run = |coo: Coo| {
        let (_, r) = transpose_crs(&ExecCtx::paper(), &Csr::from_coo(&coo)).unwrap();
        let hist = r
            .phases
            .iter()
            .find(|p| p.name == "histogram")
            .unwrap()
            .cycles;
        hist as f64 / r.cycles as f64
    };
    let long_rows = run({
        let mut coo = Coo::new(32, 2048);
        for r in 0..32 {
            for k in 0..60 {
                coo.push(r, (k * 31 + r) % 2048, 1.0);
            }
        }
        coo
    });
    let short_rows = run(gen::structured::diagonal(2000));
    assert!(long_rows > short_rows * 2.0, "{long_rows} vs {short_rows}");
}

/// §IV-D: "for all matrices HiSM consistently outperforms CRS."
#[test]
fn claim_hism_always_wins() {
    let sets = experiment_sets(&quick_catalogue(), 6);
    let cfg = RunConfig::default();
    for set in [&sets.by_locality, &sets.by_anz, &sets.by_size] {
        for r in run_set(&cfg, set) {
            let speedup = r.speedup().expect("suite matrices must not fail");
            assert!(speedup > 1.0, "{} lost at {speedup:.2}x", r.name);
        }
    }
}

/// §IV-D: "the speedup grows monotonically with the growth of the matrix
/// locality" — checked on the low-locality half, where the mechanism is
/// unambiguous (see EXPERIMENTS.md for the high-end discussion).
#[test]
fn claim_speedup_grows_with_locality_at_the_low_end() {
    let mk = |coo: Coo| {
        let h = build::from_coo(&coo, 64).unwrap();
        let (_, hr) = transpose_hism(&ExecCtx::paper(), &HismImage::encode(&h)).unwrap();
        let (_, cr) = transpose_crs(&ExecCtx::paper(), &Csr::from_coo(&coo)).unwrap();
        cr.cycles as f64 / hr.cycles as f64
    };
    // Uniform matrices at a fixed ANZ of ~2 (so the CRS side is held
    // constant) with shrinking dimension — density per 32x32 block, i.e.
    // locality, rises while everything else stays put.
    let low = mk(gen::random::uniform(16384, 16384, 32768, 1)); // locality ~0.03
    let mid = mk(gen::random::uniform(1024, 1024, 2048, 2)); //    locality ~0.06
    let high = mk(gen::random::uniform(256, 256, 512, 3)); //      locality ~0.25
    assert!(low < mid, "{low} !< {mid}");
    assert!(mid < high, "{mid} !< {high}");
}

/// §IV-D: "when the average number of non-zeroes per row (ANZ) increases,
/// the performance of the CRS approach also increases."
#[test]
fn claim_crs_improves_with_anz() {
    let run = |coo: Coo| {
        let (_, r) = transpose_crs(&ExecCtx::paper(), &Csr::from_coo(&coo)).unwrap();
        r.cycles_per_nnz()
    };
    let anz1 = run(gen::structured::diagonal(1500));
    let anz3 = run(gen::structured::tridiagonal(1500));
    let anz40 = run({
        let mut coo = Coo::new(64, 2048);
        for r in 0..64 {
            for k in 0..40 {
                coo.push(r, (k * 37 + r) % 2048, 1.0);
            }
        }
        coo
    });
    assert!(anz1 > anz3, "{anz1} !> {anz3}");
    assert!(anz3 > anz40, "{anz3} !> {anz40}");
}

/// §IV-A: "the amount of overhead … induced by the extra processing
/// needed for the higher levels is small since the number of high level
/// s²-blocks amount typically to about 2-5% of the total matrix storage
/// for s=64."
#[test]
fn claim_upper_level_storage_is_small_at_s64() {
    let coo = gen::structured::grid2d_5pt(60, 60); // 3600 rows, 2 levels
    let h = build::from_coo(&coo, 64).unwrap();
    assert!(h.levels() == 2);
    let f = StorageStats::compute(&h).upper_fraction();
    assert!(f > 0.0 && f < 0.06, "upper fraction {f}");
}

/// §IV-A: "the same memory location and amount as the original is needed
/// to store the transposed block … no allocation of memory for the
/// transposed is needed as is the case with CRS" — CRS, by contrast,
/// writes to freshly allocated arrays.
#[test]
fn claim_crs_needs_fresh_output_arrays() {
    // The CRS kernel's memory footprint includes JAT/ANT/IAT beyond the
    // inputs; HiSM's memory is exactly the image.
    let coo = gen::random::uniform(200, 200, 1000, 5);
    let csr = Csr::from_coo(&coo);
    let (_, report) = transpose_crs(&ExecCtx::paper(), &csr).unwrap();
    // Scatter stores went to arrays disjoint from the inputs — observable
    // as indexed stores in the engine stats.
    assert!(report.engine.mem_indexed_ops > 0);
    let h = build::from_coo(&coo, 64).unwrap();
    let img = HismImage::encode(&h);
    let (out, _) = transpose_hism(&ExecCtx::paper(), &img).unwrap();
    assert_eq!(out.words.len(), img.words.len());
}
