//! Golden digests of every registry kernel's full simulated report.
//!
//! `tests/cycle_baseline.rs` pins cycle totals and unit-busy fractions
//! to 6 digits; this test pins everything else the simulator reports.
//! For each kernel and timing model it hashes the `Debug` rendering of
//! the whole `TransposeReport` on every quick-catalogue matrix: cycles,
//! `EngineStats`, the scalar core's `ScalarRunStats` (cache hits and
//! misses included), `StmStats`, phases, `fu_busy` and the stall
//! breakdown. A change to the simulator's hot path must leave every
//! value here unchanged.

use hism_stm::dsab::quick_catalogue;
use hism_stm::stm::kernels::registry::{self, ExecCtx};
use hism_stm::vpsim::TimingKind;
use stm_sparse::hash::Fnv1a;

/// `(kernel, timing, digest)` over the whole quick catalogue, in
/// catalogue order.
#[rustfmt::skip]
const GOLDENS: [(&str, &str, u64); 24] = [
    ("transpose_hism", "paper", 0x6a3822bcc497989d),
    ("transpose_hism", "ideal", 0x17216f160aae55ba),
    ("transpose_crs", "paper", 0xe29386a09081dafd),
    ("transpose_crs", "ideal", 0x842e47e55599d125),
    ("transpose_crs_scalar", "paper", 0xaad86900e8e030e7),
    ("transpose_crs_scalar", "ideal", 0x52694581ea508f8f),
    ("transpose_dense", "paper", 0xd9d5821d15d2fb8d),
    ("transpose_dense", "ideal", 0x8de1482c21732c2c),
    ("spmv_hism", "paper", 0xcffcba4791420f92),
    ("spmv_hism", "ideal", 0x5fb10c8c3b059bf3),
    ("spmv_crs", "paper", 0x4c9cf711362ec0e9),
    ("spmv_crs", "ideal", 0x7ebac140960d48f1),
    ("transpose_ref", "paper", 0x93d072107c96f422),
    ("transpose_ref", "ideal", 0x8b020f3084f5e248),
    ("transpose_coo", "paper", 0xbd415f224ef3cc40),
    ("transpose_coo", "ideal", 0xffb8df0c436f2d13),
    ("transpose_csc", "paper", 0x6936a140f561c3c5),
    ("transpose_csc", "ideal", 0x68b9cba965c1512f),
    ("transpose_jd", "paper", 0xdaf99e1ecb69df53),
    ("transpose_jd", "ideal", 0xb5cc0c59119496e7),
    ("transpose_sell", "paper", 0xff5ab11da7b3d3e8),
    ("transpose_sell", "ideal", 0xd235f7a33d82e5d0),
    ("spmv_sell", "paper", 0xb5590687eaa31a4e),
    ("spmv_sell", "ideal", 0xd1684acc9d80e0f5),
];

/// Digest of `kernel`'s reports under `timing` over every matrix. A
/// matrix the kernel rejects contributes its failure text instead.
fn report_digest(kernel: &str, timing: TimingKind, coos: &[(String, stm_sparse::Coo)]) -> u64 {
    let ctx = ExecCtx::with_timing(timing);
    let mut h = Fnv1a::new();
    for (name, coo) in coos {
        h.bytes(name.as_bytes());
        let text = match registry::run_verified(kernel, coo, &ctx) {
            Ok(r) => {
                assert_eq!(
                    r.report.wall_ns, None,
                    "{name}/{kernel}: simulated reports carry no wall time"
                );
                format!("{:?}", r.report)
            }
            Err(f) => format!("failed: {f}"),
        };
        h.bytes(text.as_bytes());
    }
    h.finish()
}

#[test]
fn simulated_reports_match_their_golden_digests() {
    let coos: Vec<(String, stm_sparse::Coo)> = quick_catalogue()
        .iter()
        .map(|spec| (spec.name.clone(), spec.build()))
        .collect();
    let mut got = Vec::new();
    for kernel in registry::names() {
        for timing in [TimingKind::Paper, TimingKind::Ideal] {
            got.push((*kernel, timing.name(), report_digest(kernel, timing, &coos)));
        }
    }
    let rendered: Vec<String> = got
        .iter()
        .map(|(k, t, d)| format!("    (\"{k}\", \"{t}\", {d:#018x}),"))
        .collect();
    assert_eq!(
        got,
        GOLDENS,
        "report digests moved; now:\n{}",
        rendered.join("\n")
    );
}
