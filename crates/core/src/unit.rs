//! The STM unit model: batch formation under the buffer bandwidth `B` and
//! accessible-lines `L` parameters, per-block timing, and the
//! buffer-bandwidth-utilization accounting behind Fig. 10.
//!
//! Timing model (Section III + IV-C):
//!
//! * the I/O buffer moves at most `B` elements per cycle;
//! * all elements of one buffer transfer must lie within `L` *consecutive*
//!   lines (rows during the write phase, columns during the read phase);
//!   the baseline unit has `L = 1` ("the I/O-buffer … can only contain
//!   elements that belong to the same row");
//! * each phase runs through a 3-stage pipeline, so a block costs
//!   `write_batches + 3 + read_batches + 3` cycles of unit time — the
//!   "penalty of 6 cycles … 3 cycles at the startup and 3 at the end of
//!   block processing" that keeps utilization below 100% at `B = 1`.

use crate::sxs::SxsMemory;

/// Pipeline fill/drain depth of each STM phase (paper: 3 stages).
pub const PHASE_PIPELINE_CYCLES: u64 = 3;

/// STM hardware parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StmConfig {
    /// Block dimension = the processor's section size `s`.
    pub s: usize,
    /// Buffer bandwidth `B`: elements per buffer transfer (= cycle).
    pub b: u64,
    /// Accessible lines `L`: a transfer may span up to `L` consecutive
    /// rows (write) / columns (read). The paper picks `L = 4`.
    pub l: usize,
}

impl Default for StmConfig {
    /// The configuration the paper's performance experiments use:
    /// `s = 64`, `B = p = 4`, `L = 4`.
    fn default() -> Self {
        StmConfig { s: 64, b: 4, l: 4 }
    }
}

impl StmConfig {
    /// Sanity checks.
    pub fn validate(&self) -> Result<(), String> {
        if !(2..=256).contains(&self.s) {
            return Err(format!("s = {} outside 2..=256", self.s));
        }
        if self.b == 0 || self.l == 0 {
            return Err("B and L must be positive".into());
        }
        Ok(())
    }
}

/// Number of buffer transfers (cycles) needed to move a sequence of
/// elements whose line indices are `lines` (non-decreasing — blockarrays
/// are stored line-major), given bandwidth `b` and `l` accessible lines.
///
/// Greedy grouping: a transfer takes as many in-order elements as fit
/// (≤ `b`) whose lines fall inside the `l`-line window anchored at the
/// first element of the transfer.
pub fn count_batches(lines: &[u8], b: u64, l: usize) -> u64 {
    debug_assert!(
        lines.windows(2).all(|w| w[0] <= w[1]),
        "lines must be sorted"
    );
    let mut batches = 0u64;
    let mut i = 0usize;
    while i < lines.len() {
        let first = lines[i] as usize;
        let mut taken = 0u64;
        while i < lines.len() && taken < b && (lines[i] as usize) < first + l {
            i += 1;
            taken += 1;
        }
        batches += 1;
    }
    batches
}

/// Timing of one block transposition through the unit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockTiming {
    /// Elements in the block (`z`).
    pub entries: u64,
    /// Buffer transfers of the write phase.
    pub write_batches: u64,
    /// Buffer transfers of the read phase.
    pub read_batches: u64,
}

impl BlockTiming {
    /// Unit-busy cycles of the write phase (transfers + pipeline fill).
    pub fn write_cycles(&self) -> u64 {
        self.write_batches + PHASE_PIPELINE_CYCLES
    }

    /// Unit-busy cycles of the read phase (transfers + pipeline drain).
    pub fn read_cycles(&self) -> u64 {
        self.read_batches + PHASE_PIPELINE_CYCLES
    }

    /// Total unit-busy cycles for the block.
    pub fn total_cycles(&self) -> u64 {
        self.write_cycles() + self.read_cycles()
    }
}

/// Host-level STM unit: transposes one blockarray at a time, reporting
/// the batch counts the cycle model and Fig. 10 are built on. The
/// engine-integrated version is [`crate::coproc::StmCoprocessor`]; the two
/// share this module's batch model.
///
/// ```
/// use stm_core::unit::{StmConfig, StmUnit};
/// let mut unit = StmUnit::new(StmConfig { s: 8, b: 4, l: 4 });
/// let block = [(0u8, 3u8, 10u32), (2, 0, 11), (2, 5, 12)];
/// let (transposed, timing) = unit.transpose_block(&block);
/// assert_eq!(transposed, vec![(0, 2, 11), (3, 0, 10), (5, 2, 12)]);
/// assert!(timing.total_cycles() >= 6); // the 3+3-cycle pipeline penalty
/// ```
#[derive(Debug, Clone)]
pub struct StmUnit {
    cfg: StmConfig,
    mem: SxsMemory,
}

impl StmUnit {
    /// Builds a unit.
    pub fn new(cfg: StmConfig) -> Self {
        cfg.validate().expect("invalid STM configuration");
        StmUnit {
            mem: SxsMemory::new(cfg.s),
            cfg,
        }
    }

    /// Configuration.
    pub fn cfg(&self) -> &StmConfig {
        &self.cfg
    }

    /// Transposes one blockarray given as `(row, col, payload)` entries in
    /// row-major order. Returns the transposed blockarray — `(row, col,
    /// payload)` with swapped coordinates, in row-major order of the *new*
    /// coordinates — and the phase timing.
    ///
    /// Panics if entries are not row-major sorted (HiSM guarantees it).
    pub fn transpose_block(
        &mut self,
        entries: &[(u8, u8, u32)],
    ) -> (Vec<(u8, u8, u32)>, BlockTiming) {
        assert!(
            entries
                .windows(2)
                .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)),
            "blockarray must be strictly row-major"
        );
        self.mem.clear();
        for &(r, c, p) in entries {
            self.mem.insert(r, c, p);
        }
        let write_lines: Vec<u8> = entries.iter().map(|e| e.0).collect();
        let drained = self.mem.drain_column_major();
        let read_lines: Vec<u8> = drained.iter().map(|e| e.0).collect();
        let timing = BlockTiming {
            entries: entries.len() as u64,
            write_batches: count_batches(&write_lines, self.cfg.b, self.cfg.l),
            read_batches: count_batches(&read_lines, self.cfg.b, self.cfg.l),
        };
        (drained, timing)
    }
}

/// Computes a block's [`BlockTiming`] directly from its entry positions
/// (row-major order), without driving the `s x s` memory — `O(z log z)`,
/// for the Fig. 10 parameter sweeps over large matrices. Equivalent to [`StmUnit::transpose_block`]'s timing (tested).
pub fn block_timing(positions: &[(u8, u8)], cfg: &StmConfig) -> BlockTiming {
    debug_assert!(
        positions.windows(2).all(|w| w[0] < w[1]),
        "positions must be row-major"
    );
    let write_lines: Vec<u8> = positions.iter().map(|&(r, _)| r).collect();
    let mut transposed: Vec<(u8, u8)> = positions.iter().map(|&(r, c)| (c, r)).collect();
    transposed.sort_unstable();
    let read_lines: Vec<u8> = transposed.iter().map(|&(c, _)| c).collect();
    BlockTiming {
        entries: positions.len() as u64,
        write_batches: count_batches(&write_lines, cfg.b, cfg.l),
        read_batches: count_batches(&read_lines, cfg.b, cfg.l),
    }
}

/// Buffer bandwidth utilization over a set of block timings —
/// `BU = (Z/C)/B` with `Z` the elements moved per phase and `C` the
/// average phase time including the per-block 3-cycle penalties
/// (DESIGN.md §2.2 spells out this reading of the paper's Eq. 1):
/// `BU = 2 ΣZ / (B · Σ(write_batches + read_batches + 6))`.
pub fn buffer_utilization(timings: &[BlockTiming], b: u64) -> f64 {
    let z: u64 = timings.iter().map(|t| t.entries).sum();
    let c: u64 = timings.iter().map(|t| t.total_cycles()).sum();
    if c == 0 {
        return 0.0;
    }
    2.0 * z as f64 / (b as f64 * c as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_single_line_bandwidth_one() {
        // 5 elements in one row, B=1: 5 transfers.
        assert_eq!(count_batches(&[2, 2, 2, 2, 2], 1, 1), 5);
    }

    #[test]
    fn batches_bandwidth_limits_group_size() {
        assert_eq!(count_batches(&[2; 10], 4, 1), 3); // ceil(10/4)
    }

    #[test]
    fn batches_line_window_splits_rows() {
        // Rows 0,1,2,3 one element each. L=1: 4 transfers even at B=4.
        assert_eq!(count_batches(&[0, 1, 2, 3], 4, 1), 4);
        // L=4: one transfer.
        assert_eq!(count_batches(&[0, 1, 2, 3], 4, 4), 1);
        // L=2: rows {0,1} then {2,3}.
        assert_eq!(count_batches(&[0, 1, 2, 3], 4, 2), 2);
    }

    #[test]
    fn batches_window_is_anchored_not_sliding() {
        // L=2 anchored at row 0 covers rows 0-1; row 2 starts a new batch.
        assert_eq!(count_batches(&[0, 1, 2], 8, 2), 2);
    }

    #[test]
    fn empty_block_has_zero_batches() {
        assert_eq!(count_batches(&[], 4, 4), 0);
    }

    #[test]
    fn unit_transposes_a_block() {
        let mut u = StmUnit::new(StmConfig { s: 8, b: 4, l: 1 });
        // Row-major entries of the example in the paper's Fig. 2 spirit.
        let block = [(0u8, 1u8, 10u32), (0, 5, 11), (2, 1, 12), (7, 0, 13)];
        let (t, timing) = u.transpose_block(&block);
        assert_eq!(t, vec![(0, 7, 13), (1, 0, 10), (1, 2, 12), (5, 0, 11)]);
        assert_eq!(timing.entries, 4);
        // Write: rows 0(2 elems),2,7 → batches: [0,0],[2],[7] = 3.
        assert_eq!(timing.write_batches, 3);
        // Read: cols 0(1),1(2),5(1) → new rows 0,1,1,5 → [0],[1,1],[5] = 3.
        assert_eq!(timing.read_batches, 3);
        assert_eq!(timing.total_cycles(), 3 + 3 + 6);
    }

    #[test]
    fn transpose_twice_is_identity() {
        let mut u = StmUnit::new(StmConfig { s: 8, b: 2, l: 2 });
        let block = [(0u8, 3u8, 1u32), (1, 1, 2), (3, 0, 3), (3, 7, 4), (6, 6, 5)];
        let (t, _) = u.transpose_block(&block);
        let (tt, _) = u.transpose_block(&t);
        assert_eq!(tt, block.to_vec());
    }

    #[test]
    #[should_panic(expected = "row-major")]
    fn unsorted_blockarray_panics() {
        let mut u = StmUnit::new(StmConfig::default());
        u.transpose_block(&[(1, 0, 1), (0, 0, 2)]);
    }

    #[test]
    fn bu_is_near_one_at_b1_for_dense_rows() {
        // One full 64-row dense block: write = read = 4096 batches at B=1.
        let t = BlockTiming {
            entries: 4096,
            write_batches: 4096,
            read_batches: 4096,
        };
        let bu = buffer_utilization(&[t], 1);
        assert!(bu > 0.999, "bu = {bu}");
    }

    #[test]
    fn bu_penalty_dominates_tiny_blocks() {
        // 1-entry block at B=1: 2 / (1*(1+1+6)) = 0.25.
        let t = BlockTiming {
            entries: 1,
            write_batches: 1,
            read_batches: 1,
        };
        assert!((buffer_utilization(&[t], 1) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn bu_increasing_l_never_hurts() {
        let mut entries = Vec::new();
        for r in 0..32u8 {
            for c in 0..2u8 {
                entries.push((r, c * 3, (r + c) as u32));
            }
        }
        entries.sort_by_key(|e| (e.0, e.1));
        let bu_for = |l: usize| {
            let mut u = StmUnit::new(StmConfig { s: 64, b: 4, l });
            let (_, t) = u.transpose_block(&entries);
            buffer_utilization(&[t], 4)
        };
        assert!(bu_for(2) >= bu_for(1));
        assert!(bu_for(4) >= bu_for(2));
        assert!(bu_for(8) >= bu_for(4));
    }

    #[test]
    fn bu_of_empty_set_is_zero() {
        assert_eq!(buffer_utilization(&[], 4), 0.0);
    }

    #[test]
    fn block_timing_matches_unit_transpose() {
        let entries: Vec<(u8, u8, u32)> = vec![
            (0, 1, 1),
            (0, 5, 2),
            (1, 1, 3),
            (2, 0, 4),
            (2, 7, 5),
            (5, 5, 6),
            (7, 0, 7),
        ];
        let positions: Vec<(u8, u8)> = entries.iter().map(|&(r, c, _)| (r, c)).collect();
        for (b, l) in [(1u64, 1usize), (4, 1), (4, 4), (2, 2), (8, 8)] {
            let cfg = StmConfig { s: 8, b, l };
            let mut unit = StmUnit::new(cfg);
            let (_, via_unit) = unit.transpose_block(&entries);
            assert_eq!(block_timing(&positions, &cfg), via_unit, "B={b} L={l}");
        }
    }
}
