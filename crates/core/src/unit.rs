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

/// Buffer transfers formed element by element: fed the line of each
/// element in turn (rows in the write phase, columns in the read
/// phase), a transfer takes up to `b` in-order elements whose lines lie
/// within the `l`-line window anchored at its first element.
/// [`block_timing`] forms a whole block's transfers with it, and
/// [`crate::coproc::StmCoprocessor`] each instruction's.
#[derive(Debug, Clone, Default)]
pub(crate) struct Groups {
    /// Elements per transfer, in order.
    pub(crate) sizes: Vec<usize>,
    /// First line of the open (last) transfer.
    first: usize,
}

impl Groups {
    pub(crate) fn clear(&mut self) {
        self.sizes.clear();
    }

    pub(crate) fn push(&mut self, line: u8, b: u64, l: usize) {
        match self.sizes.last_mut() {
            Some(taken) if (*taken as u64) < b && (line as usize) < self.first + l => *taken += 1,
            _ => {
                self.sizes.push(1);
                self.first = line as usize;
            }
        }
    }

    /// The transfers `lines` form from an empty start.
    fn count(&mut self, lines: impl Iterator<Item = u8>, cfg: &StmConfig) -> u64 {
        self.clear();
        for line in lines {
            self.push(line, cfg.b, cfg.l);
        }
        self.sizes.len() as u64
    }
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

/// A block's [`BlockTiming`] from its entry positions (row-major
/// order): the write phase forms transfers over the rows in order and
/// the read phase over the sorted columns, each with the greedy rule
/// the coprocessor applies — the Fig. 10 model. The simulator's
/// sessions form transfers per `v_stcr`/`v_ldcc` instruction of at most
/// `s` elements instead, so blocks of more than `s` entries can take
/// more transfers there.
pub fn block_timing(positions: &[(u8, u8)], cfg: &StmConfig) -> BlockTiming {
    debug_assert!(
        positions.windows(2).all(|w| w[0] < w[1]),
        "positions must be row-major"
    );
    let mut cols: Vec<u8> = positions.iter().map(|&(_, c)| c).collect();
    cols.sort_unstable();
    let mut groups = Groups::default();
    BlockTiming {
        entries: positions.len() as u64,
        write_batches: groups.count(positions.iter().map(|&(r, _)| r), cfg),
        read_batches: groups.count(cols.into_iter(), cfg),
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

    /// Transfers of the line sequence `lines` at bandwidth `b` over `l`
    /// lines.
    fn batches(lines: &[u8], b: u64, l: usize) -> u64 {
        Groups::default().count(lines.iter().copied(), &StmConfig { s: 8, b, l })
    }

    #[test]
    fn batches_single_line_bandwidth_one() {
        // 5 elements in one row, B=1: 5 transfers.
        assert_eq!(batches(&[2, 2, 2, 2, 2], 1, 1), 5);
    }

    #[test]
    fn batches_bandwidth_limits_group_size() {
        assert_eq!(batches(&[2; 10], 4, 1), 3); // ceil(10/4)
    }

    #[test]
    fn batches_line_window_splits_rows() {
        // Rows 0,1,2,3 one element each. L=1: 4 transfers even at B=4.
        assert_eq!(batches(&[0, 1, 2, 3], 4, 1), 4);
        // L=4: one transfer.
        assert_eq!(batches(&[0, 1, 2, 3], 4, 4), 1);
        // L=2: rows {0,1} then {2,3}.
        assert_eq!(batches(&[0, 1, 2, 3], 4, 2), 2);
    }

    #[test]
    fn batches_window_is_anchored_not_sliding() {
        // L=2 anchored at row 0 covers rows 0-1; row 2 starts a new batch.
        assert_eq!(batches(&[0, 1, 2], 8, 2), 2);
    }

    #[test]
    fn empty_block_has_zero_batches() {
        assert_eq!(batches(&[], 4, 4), 0);
    }

    #[test]
    fn transfer_sizes_cover_every_element_in_order() {
        let mut g = Groups::default();
        for line in [0u8, 0, 1, 3, 3, 3, 3, 3, 7] {
            g.push(line, 4, 2);
        }
        assert_eq!(g.sizes, vec![3, 4, 1, 1]);
    }

    #[test]
    fn block_timing_counts_both_phases() {
        let positions = [(0u8, 1u8), (0, 5), (2, 1), (7, 0)];
        let timing = block_timing(&positions, &StmConfig { s: 8, b: 4, l: 1 });
        assert_eq!(timing.entries, 4);
        // Write: rows 0(2 elems),2,7 → batches: [0,0],[2],[7] = 3.
        assert_eq!(timing.write_batches, 3);
        // Read: cols 0(1),1(2),5(1) → [0],[1,1],[5] = 3.
        assert_eq!(timing.read_batches, 3);
        assert_eq!(timing.total_cycles(), 3 + 3 + 6);
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
        let mut positions = Vec::new();
        for r in 0..32u8 {
            for c in 0..2u8 {
                positions.push((r, c * 3));
            }
        }
        let bu_for = |l: usize| {
            let t = block_timing(&positions, &StmConfig { s: 64, b: 4, l });
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
}
