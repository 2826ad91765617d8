//! The Fig. 10 parameter study: buffer bandwidth utilization as a
//! function of the buffer bandwidth `B`, with one curve per number of
//! accessible lines `L`, averaged over the benchmark matrices.
//!
//! This is a unit-level study (it sizes the hardware before the system
//! runs), so it sweeps the STM's batch model directly over every
//! blockarray of each matrix's HiSM representation — no full-system
//! simulation needed, exactly as a hardware designer would evaluate the
//! I/O buffer in isolation.

use crate::output::{format_table, write_csv};
use stm_core::unit::{block_timing, buffer_utilization, BlockTiming, StmConfig};
use stm_dsab::{ExperimentSets, SuiteEntry};
use stm_hism::{build, BlockData};

/// Extracts every blockarray's position list (row-major, as stored) from
/// a matrix's HiSM form at section size `s`. All hierarchy levels are
/// included — each is transposed through the unit.
pub fn blockarray_positions(entry: &SuiteEntry, s: usize) -> Vec<Vec<(u8, u8)>> {
    let h = build::from_coo(&entry.coo, s).expect("suite matrix fits HiSM");
    h.blocks()
        .iter()
        .filter(|b| !b.is_empty())
        .map(|b| match &b.data {
            BlockData::Leaf(v) => v.iter().map(|e| (e.row, e.col)).collect(),
            BlockData::Node(v) => v.iter().map(|e| (e.row, e.col)).collect(),
        })
        .collect()
}

/// One point of the Fig. 10 surface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BuPoint {
    /// Buffer bandwidth `B`.
    pub b: u64,
    /// Accessible lines `L`.
    pub l: usize,
    /// Buffer bandwidth utilization, averaged over the matrices.
    pub bu: f64,
}

/// Sweeps `B x L` over a matrix set and returns the averaged utilization
/// for every combination (row-major over `ls`, then `bs`).
pub fn bu_sweep<'a>(
    entries: impl IntoIterator<Item = &'a SuiteEntry>,
    s: usize,
    bs: &[u64],
    ls: &[usize],
) -> Vec<BuPoint> {
    // Gather per-matrix blockarray positions once.
    let per_matrix: Vec<Vec<Vec<(u8, u8)>>> = entries
        .into_iter()
        .map(|e| blockarray_positions(e, s))
        .collect();
    let mut out = Vec::with_capacity(bs.len() * ls.len());
    for &l in ls {
        for &b in bs {
            let cfg = StmConfig { s, b, l };
            let mut acc = 0.0;
            let mut counted = 0usize;
            for blocks in &per_matrix {
                let timings: Vec<BlockTiming> =
                    blocks.iter().map(|p| block_timing(p, &cfg)).collect();
                if !timings.is_empty() {
                    acc += buffer_utilization(&timings, b);
                    counted += 1;
                }
            }
            let bu = if counted == 0 {
                0.0
            } else {
                acc / counted as f64
            };
            out.push(BuPoint { b, l, bu });
        }
    }
    out
}

/// Fig. 10 itself: sweeps `B ∈ {1,2,4,8,16}` × `L ∈ {1,2,4,8}` at
/// `s = 64` over all 30 matrices of `sets`, prints the table and the
/// paper's reading, and writes `results/fig10.csv`.
pub fn report(sets: &ExperimentSets, tag: &str) {
    let bs = [1u64, 2, 4, 8, 16];
    let ls = [1usize, 2, 4, 8];
    let points = bu_sweep(sets.all(), 64, &bs, &ls);

    let headers: Vec<String> = std::iter::once("L \\ B".to_string())
        .chain(bs.iter().map(|b| format!("B={b}")))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = ls
        .iter()
        .zip(points.chunks(bs.len()))
        .map(|(l, row)| {
            std::iter::once(format!("L={l}"))
                .chain(row.iter().map(|p| format!("{:.3}", p.bu)))
                .collect()
        })
        .collect();
    println!("Fig. 10 — Buffer bandwidth utilization (suite: {tag}, s = 64)");
    println!("{}", format_table(&header_refs, &rows));
    println!("Paper's reading: highest utilization at B=1; utilization grows");
    println!("with L but saturates beyond L=4 → the unit is built with L=4.");

    let csv_rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| vec![p.l.to_string(), p.b.to_string(), format!("{:.6}", p.bu)])
        .collect();
    write_csv("results/fig10.csv", &["L", "B", "BU"], &csv_rows).expect("write results/fig10.csv");
    eprintln!("wrote results/fig10.csv");
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_dsab::{experiment_sets, quick_catalogue};

    fn small_set() -> Vec<SuiteEntry> {
        let sets = experiment_sets(&quick_catalogue(), 4);
        sets.by_locality
    }

    #[test]
    fn utilization_is_highest_at_b1() {
        // The paper: "The highest utilization is obtained for buffer
        // bandwidth B = 1."
        let set = small_set();
        let points = bu_sweep(&set, 64, &[1, 2, 4, 8], &[4]);
        let bu_at: Vec<f64> = points.iter().map(|p| p.bu).collect();
        assert!(bu_at[0] >= bu_at[1]);
        assert!(bu_at[1] >= bu_at[2]);
        assert!(bu_at[2] >= bu_at[3]);
        assert!(
            bu_at[0] > 0.5,
            "B=1 utilization suspiciously low: {}",
            bu_at[0]
        );
        assert!(bu_at[0] < 1.0, "6-cycle penalty must keep BU below 100%");
    }

    #[test]
    fn utilization_grows_with_l() {
        // "for increasing number of accessible lines L the utilization
        // increases."
        let set = small_set();
        let points = bu_sweep(&set, 64, &[4], &[1, 2, 4, 8]);
        for w in points.windows(2) {
            assert!(w[1].bu >= w[0].bu - 1e-12, "{:?} -> {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn l_beyond_4_saturates() {
        // "for a number of accessible lines L > 4 the utilization does
        // not increase significantly any more" — the gain from 4→8 must
        // be smaller than from 1→4.
        let set = small_set();
        let p = bu_sweep(&set, 64, &[4], &[1, 4, 8]);
        let gain_1_to_4 = p[1].bu - p[0].bu;
        let gain_4_to_8 = p[2].bu - p[1].bu;
        assert!(
            gain_4_to_8 < gain_1_to_4,
            "L saturation violated: {gain_1_to_4} vs {gain_4_to_8}"
        );
    }

    #[test]
    fn blockarrays_cover_all_entries() {
        let set = small_set();
        for e in &set {
            let blocks = blockarray_positions(e, 64);
            let leaf_entries: usize = {
                let h = build::from_coo(&e.coo, 64).unwrap();
                h.nnz()
            };
            let total: usize = blocks.iter().map(Vec::len).sum();
            assert!(total >= leaf_entries);
        }
    }
}
