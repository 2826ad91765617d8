//! Golden digests of the D-SAB catalogue: the generators' outputs, their
//! metrics and the selection must stay bit-identical whatever algorithm
//! canonicalizes, measures or selects them. The digests were recorded
//! with the comparison-sort canonical form and the hash-map locality
//! metric, so a faster substrate has to reproduce those exactly.

use hism_stm::dsab::{experiment_sets, full_catalogue, quick_catalogue, MatrixSpec};
use hism_stm::sparse::format::canonical_digest;
use hism_stm::sparse::MatrixMetrics;

/// FNV-1a over little-endian words.
fn fold(h: u64, words: &[u64]) -> u64 {
    words.iter().flat_map(|w| w.to_le_bytes()).fold(h, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn metrics_words(m: &MatrixMetrics) -> [u64; 9] {
    [
        m.nnz as u64,
        m.locality.to_bits(),
        m.avg_nnz_per_row.to_bits(),
        m.rows as u64,
        m.cols as u64,
        m.row_nnz_cv.to_bits(),
        m.max_row_nnz as u64,
        m.empty_rows as u64,
        m.sell_occupancy.to_bits(),
    ]
}

/// Digest of one catalogue entry: its name, every triplet's bits and its
/// metrics.
fn entry_digest(name: &str, coo: &hism_stm::sparse::Coo, m: &MatrixMetrics) -> u64 {
    assert!(coo.is_canonical(), "{name}: generator output not canonical");
    let h = fold(0xcbf2_9ce4_8422_2325, &[canonical_digest(coo)]);
    let h = name.bytes().fold(h, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    fold(h, &metrics_words(m))
}

#[test]
fn quick_experiment_sets_are_bit_identical() {
    let sets = experiment_sets(&quick_catalogue(), 6);
    let got = sets.all().fold(0, |h, e| {
        fold(h, &[entry_digest(&e.name, &e.coo, &e.metrics)])
    });
    assert_eq!(
        got, 0x1d77_6b82_2052_60ab,
        "quick experiment sets digest {got:#018x}"
    );
}

/// The smallest full-catalogue instance of each generator family (R-MAT
/// in both parameter sets, uniform also rectangular).
const FAMILY_GOLDENS: [(&str, u64); 16] = [
    ("diag-48", 0x419b5cab82e50e74),
    ("tiny-tridiag-20", 0x0de9b759fa5a8649),
    ("tiny-band-32", 0x9a0dfee1f49e071f),
    ("tiny-grid2d-8", 0x423346810c4eef97),
    ("grid3d-8", 0xea4e59ac74c6a679),
    ("grid9-24", 0x7a4de902e41ce78d),
    ("tiny-uniform-24", 0xca530d149da6696f),
    ("rect-2048x256", 0xd48403424341ee14),
    ("tiny-powlaw-64", 0x2e52a2cec79d780a),
    ("jitter2-48-2", 0xfaa91a443e853ff1),
    ("tiny-rmat-5", 0x85fdf285363d1335),
    ("rmat10-flat-20000", 0xd933da54eb594616),
    ("tiny-block-64", 0x0c3284f6fd120530),
    ("blockband-512-b8", 0x143bab3408920b30),
    ("arrow-100", 0x1bcb0994d8b1b678),
    ("kron-3", 0xed53cb4428d47d2c),
];

#[test]
fn smallest_instance_of_each_family_is_bit_identical() {
    let cat: Vec<MatrixSpec> = full_catalogue();
    let mut bad = Vec::new();
    for (name, want) in FAMILY_GOLDENS {
        let spec = cat.iter().find(|s| s.name == name).expect(name);
        let coo = spec.build();
        let got = entry_digest(name, &coo, &MatrixMetrics::compute(&coo));
        if got != want {
            bad.push(format!("(\"{name}\", {got:#018x}),"));
        }
    }
    assert!(bad.is_empty(), "digests differ:\n{}", bad.join("\n"));
}
