//! The synthetic D-SAB catalogue: 132 named, seeded matrix builders, and
//! the derivation of the three 10-matrix experiment sets.

use crate::select::{log_spaced_picks, Criterion};
use stm_sparse::gen::{blocks, random, rmat, structured};
use stm_sparse::{Coo, MatrixMetrics};

/// A catalogue entry: a named, deterministic matrix builder. Matrices are
/// built on demand (the full suite would not fit in memory at once).
pub struct MatrixSpec {
    /// Human-readable name, e.g. `"grid2d-128"`.
    pub name: String,
    builder: Box<dyn Fn() -> Coo + Send + Sync>,
}

impl MatrixSpec {
    fn new(name: impl Into<String>, builder: impl Fn() -> Coo + Send + Sync + 'static) -> Self {
        MatrixSpec {
            name: name.into(),
            builder: Box::new(builder),
        }
    }

    /// Builds the matrix (deterministic: same result every call).
    pub fn build(&self) -> Coo {
        (self.builder)()
    }
}

impl std::fmt::Debug for MatrixSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MatrixSpec")
            .field("name", &self.name)
            .finish()
    }
}

/// A selected benchmark matrix with its precomputed metrics.
#[derive(Debug)]
pub struct SuiteEntry {
    /// Name from the catalogue.
    pub name: String,
    /// The matrix.
    pub coo: Coo,
    /// Its D-SAB metrics.
    pub metrics: MatrixMetrics,
}

/// The three 10-matrix experiment sets of the paper's Figs. 11–13.
#[derive(Debug)]
pub struct ExperimentSets {
    /// Sorted and log-spaced-selected by locality (Fig. 11).
    pub by_locality: Vec<SuiteEntry>,
    /// By average non-zeros per row (Fig. 12).
    pub by_anz: Vec<SuiteEntry>,
    /// By matrix size = nnz (Fig. 13).
    pub by_size: Vec<SuiteEntry>,
}

impl ExperimentSets {
    /// All 30 entries, locality set first (matching the paper's "whole
    /// collection of 30 matrices" summary).
    pub fn all(&self) -> impl Iterator<Item = &SuiteEntry> {
        self.by_locality
            .iter()
            .chain(&self.by_anz)
            .chain(&self.by_size)
    }
}

/// The full 132-instance catalogue.
///
/// Family → Matrix-Market analogue mapping is documented in
/// `stm_sparse::gen`; sizes are chosen so the metric ranges bracket the
/// paper's (nnz 48 → ~1.9M, locality ~0.03 → ~13, ANZ 1 → ~172). The
/// largest instances are capped below the paper's 3.7M-non-zero maximum
/// to keep a full evaluation run in seconds; the trends Figs. 11–13 read
/// are over the *metric axes*, which are fully covered.
pub fn full_catalogue() -> Vec<MatrixSpec> {
    let mut v: Vec<MatrixSpec> = Vec::with_capacity(140);

    // --- diagonal / mass matrices (ANZ = 1) -------------------------------
    for n in [48usize, 2048, 32768] {
        v.push(MatrixSpec::new(format!("diag-{n}"), move || {
            structured::diagonal(n)
        }));
    }
    // --- tridiagonal (1-D operators) --------------------------------------
    for n in [64usize, 256, 1024, 4096, 16384, 65536, 262144] {
        v.push(MatrixSpec::new(format!("tridiag-{n}"), move || {
            structured::tridiagonal(n)
        }));
    }
    // --- random bands ------------------------------------------------------
    for (n, hw, fill, seed) in [
        (512usize, 4usize, 0.9f64, 101u64),
        (1024, 8, 0.5, 102),
        (2048, 16, 0.3, 103),
        (4096, 32, 0.2, 104),
        (8192, 8, 0.6, 105),
        (16384, 16, 0.4, 106),
        (32768, 4, 0.7, 107),
        (4096, 64, 0.15, 108),
        (1024, 2, 1.0, 109),
        (65536, 8, 0.5, 110),
    ] {
        v.push(MatrixSpec::new(format!("band-{n}-w{hw}"), move || {
            structured::banded(n, hw, fill, seed)
        }));
    }
    // --- 2-D / 3-D stencils (FEM/FD) ---------------------------------------
    for k in [16usize, 32, 64, 128, 256, 512] {
        v.push(MatrixSpec::new(format!("grid2d-{k}"), move || {
            structured::grid2d_5pt(k, k)
        }));
    }
    for k in [8usize, 16, 24, 32, 48, 64] {
        v.push(MatrixSpec::new(format!("grid3d-{k}"), move || {
            structured::grid3d_7pt(k, k, k)
        }));
    }
    for k in [24usize, 96, 192, 384] {
        v.push(MatrixSpec::new(format!("grid9-{k}"), move || {
            structured::grid2d_9pt(k, k)
        }));
    }
    // --- uniform random (power networks; lowest locality) ------------------
    for (n, nnz, seed) in [
        (256usize, 1024usize, 201u64),
        (1024, 4096, 202),
        (4096, 16384, 203),
        (8192, 16384, 204),
        (16384, 65536, 205),
        (32768, 131072, 206),
        (65536, 262144, 207),
        (2048, 65536, 208),
        (131072, 262144, 209),
        (512, 8192, 210),
        (20000, 40000, 211),
        (50000, 250000, 212),
    ] {
        v.push(MatrixSpec::new(format!("uniform-{n}-{nnz}"), move || {
            random::uniform(n, n, nnz, seed)
        }));
    }
    // --- power-law rows (migration/economic; high ANZ skew) ----------------
    for (n, avg, alpha, seed) in [
        (512usize, 8.0f64, 1.2f64, 301u64),
        (2048, 16.0, 1.5, 302),
        (8192, 4.0, 1.0, 303),
        (4096, 64.0, 0.8, 304),
        (3140, 172.0, 0.5, 305),
        (1024, 100.0, 0.6, 306),
        (16384, 24.0, 1.1, 307),
        (6000, 140.0, 0.4, 308),
        (32768, 8.0, 1.3, 309),
        (2000, 48.0, 0.9, 310),
    ] {
        v.push(MatrixSpec::new(format!("powlaw-{n}-a{avg}"), move || {
            random::power_law(n, n, avg, alpha, seed)
        }));
    }
    // --- jittered diagonals -------------------------------------------------
    for (n, per_row, spread, seed) in [
        (1024usize, 4usize, 6usize, 401u64),
        (4096, 6, 12, 402),
        (16384, 3, 30, 403),
        (65536, 5, 10, 404),
        (2048, 10, 4, 405),
    ] {
        v.push(MatrixSpec::new(
            format!("jitter-{n}-{per_row}"),
            move || random::jittered_diagonal(n, per_row, spread, seed),
        ));
    }
    // --- R-MAT graphs --------------------------------------------------------
    for (scale, nnz, flat, seed) in [
        (8u32, 2000usize, false, 501u64),
        (10, 10000, false, 502),
        (12, 50000, false, 503),
        (14, 200000, false, 504),
        (16, 1000000, false, 505),
        (10, 20000, true, 506),
        (13, 120000, true, 507),
        (15, 400000, true, 508),
        (9, 8000, false, 509),
        (11, 60000, true, 510),
    ] {
        let probs = if flat {
            rmat::RmatProbs::flat()
        } else {
            rmat::RmatProbs::default()
        };
        let tag = if flat { "flat" } else { "g500" };
        v.push(MatrixSpec::new(
            format!("rmat{scale}-{tag}-{nnz}"),
            move || rmat::rmat(scale, nnz, probs, seed),
        ));
    }
    // --- dense blocks (quantum chemistry; highest locality) -----------------
    for (n, block, count, fill, seed) in [
        (256usize, 16usize, 30usize, 0.9f64, 601u64),
        (512, 32, 20, 0.8, 602),
        (1024, 32, 40, 0.95, 603),
        (2048, 64, 30, 0.9, 604),
        (4096, 64, 60, 0.85, 605),
        (512, 64, 8, 0.4, 606),
        (8192, 32, 120, 0.9, 607),
        (1024, 16, 100, 0.7, 608),
        (16384, 64, 100, 0.8, 609),
        (2048, 128, 10, 0.6, 610),
        (320, 32, 16, 1.0, 611),
        (640, 64, 9, 0.95, 612),
    ] {
        v.push(MatrixSpec::new(
            format!("blockdense-{n}-b{block}"),
            move || blocks::block_dense(n, block, count, fill, seed),
        ));
    }
    // --- block bands (multi-DOF FEM) ----------------------------------------
    for (n, block, hw, fill, seed) in [
        (512usize, 8usize, 1usize, 0.8f64, 701u64),
        (2048, 16, 1, 0.7, 702),
        (8192, 8, 2, 0.9, 703),
        (4096, 32, 1, 0.6, 704),
        (16384, 16, 1, 0.85, 705),
        (32768, 8, 1, 0.75, 706),
        (1024, 64, 1, 0.5, 707),
        (65536, 4, 2, 0.9, 708),
    ] {
        v.push(MatrixSpec::new(
            format!("blockband-{n}-b{block}"),
            move || blocks::block_band(n, block, hw, fill, seed),
        ));
    }
    // --- arrowheads (hub + diagonal; KKT-like) -------------------------------
    for n in [100usize, 1000, 10000, 100000] {
        v.push(MatrixSpec::new(format!("arrow-{n}"), move || {
            structured::arrowhead(n)
        }));
    }
    // --- Kronecker fractals ---------------------------------------------------
    for depth in [3u32, 4, 5, 6, 7, 8] {
        v.push(MatrixSpec::new(format!("kron-{depth}"), move || {
            blocks::kronecker_fractal(depth)
        }));
    }
    // --- rectangular matrices (least-squares / constraint systems) ----------
    for (rows, cols, nnz, seed) in [
        (2048usize, 256usize, 8192usize, 801u64),
        (256, 2048, 8192, 802),
        (16384, 1024, 65536, 803),
        (1024, 16384, 65536, 804),
        (50000, 5000, 200000, 805),
        (5000, 50000, 200000, 806),
        (100, 10000, 30000, 807),
        (10000, 100, 30000, 808),
    ] {
        v.push(MatrixSpec::new(format!("rect-{rows}x{cols}"), move || {
            random::uniform(rows, cols, nnz, seed)
        }));
    }
    // --- anisotropic grids ----------------------------------------------------
    for (nx, ny) in [
        (1024usize, 16usize),
        (16, 1024),
        (2048, 8),
        (400, 50),
        (64, 512),
    ] {
        v.push(MatrixSpec::new(format!("grid2d-{nx}x{ny}"), move || {
            structured::grid2d_5pt(nx, ny)
        }));
    }
    // --- extra uniform density sweep (fixed n, rising density) ---------------
    for (nnz, seed) in [
        (8192usize, 901u64),
        (32768, 902),
        (131072, 903),
        (524288, 904),
        (1048576, 905),
    ] {
        v.push(MatrixSpec::new(format!("unif8k-{nnz}"), move || {
            random::uniform(8192, 8192, nnz, seed)
        }));
    }
    // --- extra power-law sweep -------------------------------------------------
    for (avg, seed) in [
        (2.0f64, 911u64),
        (6.0, 912),
        (20.0, 913),
        (60.0, 914),
        (160.0, 915),
    ] {
        v.push(MatrixSpec::new(format!("powlaw4k-a{avg}"), move || {
            random::power_law(4096, 4096, avg, 1.0, seed)
        }));
    }
    // --- extra block-dense fill sweep (locality ladder) ------------------------
    for (fill, seed) in [
        (0.1f64, 921u64),
        (0.2, 922),
        (0.35, 923),
        (0.55, 924),
        (0.75, 925),
        (1.0, 926),
    ] {
        v.push(MatrixSpec::new(format!("blockfill-{fill}"), move || {
            blocks::block_dense(2048, 64, 24, fill, seed)
        }));
    }
    // --- extra jittered diagonals ----------------------------------------------
    for (n, per_row, spread, seed) in [
        (300usize, 2usize, 40usize, 931u64),
        (100000, 4, 20, 932),
        (3000, 8, 64, 933),
        (48, 2, 4, 934),
        (150, 3, 10, 935),
    ] {
        v.push(MatrixSpec::new(
            format!("jitter2-{n}-{per_row}"),
            move || random::jittered_diagonal(n, per_row, spread, seed),
        ));
    }
    // --- tiny matrices (the low end of the size axis; the paper's set
    // --- starts at 48 non-zeros with bcsstm01) -----------------------------
    v.push(MatrixSpec::new("tiny-uniform-24", || {
        random::uniform(24, 24, 60, 941)
    }));
    v.push(MatrixSpec::new("tiny-grid2d-8", || {
        structured::grid2d_5pt(8, 8)
    }));
    v.push(MatrixSpec::new("tiny-band-32", || {
        structured::banded(32, 2, 0.8, 942)
    }));
    v.push(MatrixSpec::new("tiny-rmat-5", || {
        rmat::rmat(5, 90, rmat::RmatProbs::default(), 943)
    }));
    v.push(MatrixSpec::new("tiny-block-64", || {
        blocks::block_dense(64, 8, 3, 0.9, 944)
    }));
    v.push(MatrixSpec::new("tiny-powlaw-64", || {
        random::power_law(64, 64, 5.0, 1.0, 945)
    }));
    v.push(MatrixSpec::new("tiny-tridiag-20", || {
        structured::tridiagonal(20)
    }));
    v.push(MatrixSpec::new("tiny-uniform-96", || {
        random::uniform(96, 96, 400, 946)
    }));
    assert!(
        v.len() >= 132,
        "catalogue shrank below 132 entries: {}",
        v.len()
    );
    v
}

/// A reduced catalogue (small matrices only) for unit tests and quick
/// smoke runs of the harness. Same families, two sizes each.
pub fn quick_catalogue() -> Vec<MatrixSpec> {
    let mut v: Vec<MatrixSpec> = Vec::new();
    for n in [48usize, 300] {
        v.push(MatrixSpec::new(format!("diag-{n}"), move || {
            structured::diagonal(n)
        }));
        v.push(MatrixSpec::new(format!("tridiag-{n}"), move || {
            structured::tridiagonal(n)
        }));
    }
    v.push(MatrixSpec::new("grid2d-12", || {
        structured::grid2d_5pt(12, 12)
    }));
    v.push(MatrixSpec::new("grid3d-6", || {
        structured::grid3d_7pt(6, 6, 6)
    }));
    v.push(MatrixSpec::new("uniform-256", || {
        random::uniform(256, 256, 1200, 11)
    }));
    v.push(MatrixSpec::new("uniform-1024", || {
        random::uniform(1024, 1024, 3000, 12)
    }));
    v.push(MatrixSpec::new("powlaw-400", || {
        random::power_law(400, 400, 40.0, 0.7, 13)
    }));
    v.push(MatrixSpec::new("powlaw-800", || {
        random::power_law(800, 800, 10.0, 1.2, 14)
    }));
    v.push(MatrixSpec::new("rmat-8", || {
        rmat::rmat(8, 2500, rmat::RmatProbs::default(), 15)
    }));
    v.push(MatrixSpec::new("blockdense-256", || {
        blocks::block_dense(256, 32, 12, 0.9, 16)
    }));
    v.push(MatrixSpec::new("blockdense-128", || {
        blocks::block_dense(128, 16, 10, 0.5, 17)
    }));
    v.push(MatrixSpec::new("blockband-512", || {
        blocks::block_band(512, 8, 1, 0.8, 18)
    }));
    v.push(MatrixSpec::new("kron-4", || blocks::kronecker_fractal(4)));
    v.push(MatrixSpec::new("jitter-600", || {
        random::jittered_diagonal(600, 5, 8, 19)
    }));
    v
}

/// Looks a catalogue entry up by name and builds it with its metrics.
pub fn build_by_name(catalogue: &[MatrixSpec], name: &str) -> Option<SuiteEntry> {
    catalogue.iter().find(|s| s.name == name).map(|s| {
        let coo = s.build();
        let metrics = MatrixMetrics::compute(&coo);
        SuiteEntry {
            name: s.name.clone(),
            coo,
            metrics,
        }
    })
}

/// Runs the paper's selection procedure over a catalogue: compute the
/// three metrics for every entry, sort by each criterion, and pick
/// `per_set` log-spaced entries per criterion (paper: 10).
///
/// The metrics pass builds one matrix at a time and drops it, so peak
/// memory there is one matrix, not 132. Each distinct pick is then built
/// once and moved into its first entry; a matrix picked by more than one
/// criterion is cloned for its later entries.
pub fn experiment_sets(catalogue: &[MatrixSpec], per_set: usize) -> ExperimentSets {
    let metrics: Vec<MatrixMetrics> = catalogue
        .iter()
        .map(|spec| MatrixMetrics::compute(&spec.build()))
        .collect();

    // Where each catalogue index was first placed: (set, position).
    let mut first: Vec<Option<(usize, usize)>> = vec![None; catalogue.len()];
    let mut sets: [Vec<SuiteEntry>; 3] = Default::default();
    let criteria = [
        Criterion::Locality,
        Criterion::AvgNnzPerRow,
        Criterion::Size,
    ];
    for (set, criterion) in criteria.into_iter().enumerate() {
        let values: Vec<f64> = metrics.iter().map(|m| criterion.value(m)).collect();
        for i in log_spaced_picks(&values, per_set) {
            let coo = match first[i] {
                Some((s, pos)) => sets[s][pos].coo.clone(),
                None => {
                    first[i] = Some((set, sets[set].len()));
                    catalogue[i].build()
                }
            };
            sets[set].push(SuiteEntry {
                name: catalogue[i].name.clone(),
                coo,
                metrics: metrics[i],
            });
        }
    }

    let [by_locality, by_anz, by_size] = sets;
    ExperimentSets {
        by_locality,
        by_anz,
        by_size,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_by_name_finds_entries() {
        let cat = quick_catalogue();
        let e = build_by_name(&cat, "grid2d-12").expect("present");
        assert_eq!(e.coo.shape(), (144, 144));
        assert!(build_by_name(&cat, "no-such-matrix").is_none());
    }

    #[test]
    fn full_catalogue_has_at_least_132_entries() {
        assert!(full_catalogue().len() >= 132);
    }

    #[test]
    fn catalogue_names_are_unique() {
        let cat = full_catalogue();
        let mut names: Vec<&str> = cat.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), cat.len());
    }

    #[test]
    fn builders_are_deterministic() {
        let cat = quick_catalogue();
        for spec in &cat {
            assert_eq!(spec.build(), spec.build(), "{}", spec.name);
        }
    }

    #[test]
    fn quick_sets_have_requested_size_and_order() {
        let sets = experiment_sets(&quick_catalogue(), 6);
        assert_eq!(sets.by_locality.len(), 6);
        assert_eq!(sets.by_anz.len(), 6);
        assert_eq!(sets.by_size.len(), 6);
        // Each set is sorted by its criterion.
        assert!(sets
            .by_locality
            .windows(2)
            .all(|w| w[0].metrics.locality <= w[1].metrics.locality));
        assert!(sets
            .by_anz
            .windows(2)
            .all(|w| w[0].metrics.avg_nnz_per_row <= w[1].metrics.avg_nnz_per_row));
        assert!(sets
            .by_size
            .windows(2)
            .all(|w| w[0].metrics.nnz <= w[1].metrics.nnz));
        assert_eq!(sets.all().count(), 18);
    }

    #[test]
    fn quick_sets_span_wide_metric_ranges() {
        let sets = experiment_sets(&quick_catalogue(), 6);
        let loc_lo = sets.by_locality.first().unwrap().metrics.locality;
        let loc_hi = sets.by_locality.last().unwrap().metrics.locality;
        assert!(loc_hi / loc_lo > 10.0, "{loc_lo} .. {loc_hi}");
        let anz_lo = sets.by_anz.first().unwrap().metrics.avg_nnz_per_row;
        let anz_hi = sets.by_anz.last().unwrap().metrics.avg_nnz_per_row;
        assert!(anz_hi / anz_lo > 8.0, "{anz_lo} .. {anz_hi}");
    }
}
