//! Golden output digests of the six host-capable kernels. Every equality
//! test elsewhere compares one leg's digest against another's, so a
//! hasher change that moved the values on every leg at once would pass
//! them all; these constants pin the values themselves. Both the
//! encoding digest ([`KernelOutput::digest`]) and the format-independent
//! one ([`KernelOutput::canonical_digest`]) are pinned, on the simulator
//! and on the scalar host backend. The values were recorded with the
//! byte-at-a-time FNV-1a that preceded `stm_sparse::hash`.
//!
//! [`KernelOutput::digest`]: hism_stm::stm::kernels::registry::KernelOutput::digest
//! [`KernelOutput::canonical_digest`]: hism_stm::stm::kernels::registry::KernelOutput::canonical_digest

use hism_stm::dsab::quick_catalogue;
use hism_stm::stm::kernels::registry::{self, Backend, ExecCtx};

/// `(matrix, kernel, digest, canonical_digest)` for every host-capable
/// kernel on a few quick-catalogue matrices.
#[rustfmt::skip]
const GOLDENS: [(&str, &str, u64, u64); 30] = [
    ("diag-48", "transpose_hism", 0x9010a7798f90774e, 0x8d2ebd5c4a8dc9e5),
    ("diag-48", "transpose_crs", 0xea3013aeadc1be0c, 0x8d2ebd5c4a8dc9e5),
    ("diag-48", "spmv_hism", 0x5c7e4d883e1c37da, 0x5c7e4d883e1c37da),
    ("diag-48", "spmv_crs", 0x5c7e4d883e1c37da, 0x5c7e4d883e1c37da),
    ("diag-48", "transpose_sell", 0xea3013aeadc1be0c, 0x8d2ebd5c4a8dc9e5),
    ("diag-48", "spmv_sell", 0x5c7e4d883e1c37da, 0x5c7e4d883e1c37da),
    ("grid2d-12", "transpose_hism", 0x4e2bd2a8d2f1d7ad, 0x30e3c77fc50b4acd),
    ("grid2d-12", "transpose_crs", 0xd37b42f5b4d3e08b, 0x30e3c77fc50b4acd),
    ("grid2d-12", "spmv_hism", 0x2a31532707c6d832, 0x2a31532707c6d832),
    ("grid2d-12", "spmv_crs", 0x2a31532707c6d832, 0x2a31532707c6d832),
    ("grid2d-12", "transpose_sell", 0xd37b42f5b4d3e08b, 0x30e3c77fc50b4acd),
    ("grid2d-12", "spmv_sell", 0x2a31532707c6d832, 0x2a31532707c6d832),
    ("uniform-256", "transpose_hism", 0x562b2f4c1e114f24, 0x4855858341d1a747),
    ("uniform-256", "transpose_crs", 0xf9450b912e0a6911, 0x4855858341d1a747),
    ("uniform-256", "spmv_hism", 0xe9ea2ad63322de74, 0xe9ea2ad63322de74),
    ("uniform-256", "spmv_crs", 0x3b148dc215d757fe, 0x3b148dc215d757fe),
    ("uniform-256", "transpose_sell", 0xf9450b912e0a6911, 0x4855858341d1a747),
    ("uniform-256", "spmv_sell", 0xe9ea2ad63322de74, 0xe9ea2ad63322de74),
    ("rmat-8", "transpose_hism", 0x44dcfce40fa793ae, 0x9c04785eac015c77),
    ("rmat-8", "transpose_crs", 0xd5bcbe2638c4b354, 0x9c04785eac015c77),
    ("rmat-8", "spmv_hism", 0x417b49173e234939, 0x417b49173e234939),
    ("rmat-8", "spmv_crs", 0x092979a342a3e098, 0x092979a342a3e098),
    ("rmat-8", "transpose_sell", 0xd5bcbe2638c4b354, 0x9c04785eac015c77),
    ("rmat-8", "spmv_sell", 0x417b49173e234939, 0x417b49173e234939),
    ("blockdense-128", "transpose_hism", 0x8096d49022aa292b, 0x77bdf07b82fecb54),
    ("blockdense-128", "transpose_crs", 0x8f1c91b4db4f3857, 0x77bdf07b82fecb54),
    ("blockdense-128", "spmv_hism", 0x3d6750339ce3facf, 0x3d6750339ce3facf),
    ("blockdense-128", "spmv_crs", 0x198088101b560b20, 0x198088101b560b20),
    ("blockdense-128", "transpose_sell", 0x8f1c91b4db4f3857, 0x77bdf07b82fecb54),
    ("blockdense-128", "spmv_sell", 0x3d6750339ce3facf, 0x3d6750339ce3facf),
];

const MATRICES: [&str; 5] = [
    "diag-48",
    "grid2d-12",
    "uniform-256",
    "rmat-8",
    "blockdense-128",
];

#[test]
fn kernel_output_digests_match_their_golden_values() {
    let catalogue = quick_catalogue();
    let mut got = Vec::new();
    for name in MATRICES {
        let spec = catalogue
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("{name} not in the quick catalogue"));
        let coo = spec.build();
        for kernel in registry::HOST_CAPABLE {
            let legs = [Backend::Sim, Backend::Scalar].map(|backend| {
                let mut ctx = ExecCtx::paper();
                ctx.backend = backend;
                let r = registry::run_verified(kernel, &coo, &ctx)
                    .unwrap_or_else(|f| panic!("{name}/{kernel} {}: {f}", backend.name()));
                let canonical = r.output.canonical_digest().expect("output decodes");
                (r.output_digest, canonical)
            });
            assert_eq!(
                legs[0], legs[1],
                "{name}/{kernel}: sim and scalar legs differ"
            );
            let (digest, canonical) = legs[0];
            got.push((name, kernel, digest, canonical));
        }
    }
    let table: String = got
        .iter()
        .map(|(m, k, d, c)| format!("    ({m:?}, {k:?}, {d:#018x}, {c:#018x}),\n"))
        .collect();
    assert!(got == GOLDENS, "digests moved; measured:\n{table}");
}
