//! A cycle-stepped micro-architectural model of the STM — the unit
//! simulated stage by stage, hardware-style, as an *independent check* of
//! the analytic batch timing in [`crate::unit`].
//!
//! Where [`crate::unit::block_timing`] counts buffer transfers with a
//! closed-form greedy rule, this model steps the paper's Fig. 3 datapath
//! one cycle at a time:
//!
//! * **write phase** — stage A: the I/O buffer accepts up to `B` elements
//!   of ≤ `L` consecutive rows from the input stream; stage B: the
//!   non-zero locator scatters the transfer across the row buffer(s) and
//!   sets the indicators; stage C: the row buffers merge into the `s x s`
//!   memory. Three stages ⇒ the 3-cycle fill the paper quotes.
//! * **read phase** — mirrored: stage A selects the next ≤ `L`
//!   consecutive columns and the locator extracts ≤ `B` non-zeros;
//!   stage B compacts them into the I/O buffer; stage C presents them to
//!   the register file. Three stages ⇒ the 3-cycle drain.
//!
//! The exhaustive s = 4 enumeration in this crate, the property test in
//! `tests/proptest_kernels.rs` and the unit tests below pin `MicroStm`
//! cycle counts to the analytic [`BlockTiming`] exactly — if either
//! model drifts, the suite fails.

use crate::sxs::SxsMemory;
use crate::unit::{BlockTiming, StmConfig, PHASE_PIPELINE_CYCLES};

/// One write-phase pipeline token: a buffer transfer in flight.
#[derive(Debug, Clone)]
struct Transfer {
    /// `(row, col, payload)` elements of the transfer.
    elems: Vec<(u8, u8, u32)>,
}

/// The cycle-stepped unit model.
#[derive(Debug)]
pub struct MicroStm {
    cfg: StmConfig,
    mem: SxsMemory,
    /// Cycles consumed so far (across both phases of the current block).
    cycles: u64,
    write_transfers: u64,
    read_transfers: u64,
}

impl MicroStm {
    /// Builds the model.
    pub fn new(cfg: StmConfig) -> Self {
        cfg.validate().expect("invalid STM configuration");
        MicroStm {
            mem: SxsMemory::new(cfg.s),
            cfg,
            cycles: 0,
            write_transfers: 0,
            read_transfers: 0,
        }
    }

    /// Transposes one blockarray, stepping the datapath cycle by cycle.
    /// Returns the transposed blockarray and the observed timing.
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
        self.cycles = 0;
        self.write_transfers = 0;
        self.read_transfers = 0;

        // -------- write phase --------
        // Transfers enter stage A one per cycle and land in the s x s
        // memory exactly PHASE_PIPELINE_CYCLES later (stages A → B → C).
        let mut t = 0u64;
        let mut pending = entries.to_vec();
        let mut pipe: std::collections::VecDeque<(u64, Transfer)> = Default::default();
        while !pending.is_empty() || !pipe.is_empty() {
            t += 1;
            // Stage C: land the transfer that entered 3 cycles ago.
            if let Some(&(entered, _)) = pipe.front() {
                if t - entered >= PHASE_PIPELINE_CYCLES {
                    let (_, done) = pipe.pop_front().expect("front exists");
                    for (r, c, p) in done.elems {
                        self.mem.insert(r, c, p);
                    }
                }
            }
            // Stage A: accept the next transfer from the stream.
            if !pending.is_empty() {
                let take = self.accept_count(&pending);
                let elems: Vec<_> = pending.drain(..take).collect();
                self.write_transfers += 1;
                pipe.push_back((t, Transfer { elems }));
            }
        }
        self.cycles += t;

        // -------- read phase --------
        let mut remaining: Vec<_> = self.mem.column_major_from(0).collect(); // (col, row, payload)
        let mut out: Vec<(u8, u8, u32)> = Vec::with_capacity(entries.len());
        let mut t = 0u64;
        type ReadToken = (u64, Vec<(u8, u8, u32)>);
        let mut in_flight: std::collections::VecDeque<ReadToken> = Default::default();
        while !remaining.is_empty() || !in_flight.is_empty() {
            t += 1;
            if let Some(&(entered, _)) = in_flight.front() {
                if t - entered >= PHASE_PIPELINE_CYCLES {
                    let (_, done) = in_flight.pop_front().expect("front exists");
                    out.extend(done);
                }
            }
            if !remaining.is_empty() {
                let take = self.accept_count(&remaining);
                let elems: Vec<_> = remaining.drain(..take).collect();
                self.read_transfers += 1;
                in_flight.push_back((t, elems));
            }
        }
        self.cycles += t;

        let timing = BlockTiming {
            entries: entries.len() as u64,
            write_batches: self.write_transfers,
            read_batches: self.read_transfers,
        };
        (out, timing)
    }

    /// Total cycles the last [`MicroStm::transpose_block`] consumed.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// How many elements the next transfer takes: ≤ `B` in-order elements
    /// whose line (field 0) lies within `L` consecutive lines of the
    /// first element's — the hardware's greedy fill of the I/O buffer.
    fn accept_count(&self, stream: &[(u8, u8, u32)]) -> usize {
        let first = stream[0].0 as usize;
        let mut take = 0usize;
        while take < stream.len()
            && (take as u64) < self.cfg.b
            && (stream[take].0 as usize) < first + self.cfg.l
        {
            take += 1;
        }
        take
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coproc::StmCoprocessor;
    use crate::unit::block_timing;
    use stm_hism::image::{pack_pos, unpack_pos};
    use stm_vpsim::{Engine, Memory, VReg, VpConfig};

    fn entries(pattern: &[(u8, u8)]) -> Vec<(u8, u8, u32)> {
        let mut v: Vec<(u8, u8, u32)> = pattern
            .iter()
            .enumerate()
            .map(|(k, &(r, c))| (r, c, k as u32 + 1))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn micro_model_matches_analytic_batches() {
        let block = entries(&[(0, 1), (0, 5), (1, 1), (2, 0), (2, 7), (5, 5), (7, 0)]);
        let positions: Vec<(u8, u8)> = block.iter().map(|&(r, c, _)| (r, c)).collect();
        for (b, l) in [(1u64, 1usize), (4, 1), (4, 4), (2, 2), (8, 8)] {
            let cfg = StmConfig { s: 8, b, l };
            let mut micro = MicroStm::new(cfg);
            let (_, micro_t) = micro.transpose_block(&block);
            assert_eq!(micro_t, block_timing(&positions, &cfg), "B={b} L={l}");
        }
    }

    #[test]
    fn micro_cycle_count_equals_analytic_total() {
        // The stepped pipeline's cycle count must equal transfers + 3 per
        // phase — exactly BlockTiming::total_cycles().
        let block = entries(&[(0, 0), (0, 1), (1, 0), (3, 3), (3, 4), (6, 2)]);
        for (b, l) in [(1u64, 1usize), (4, 4), (2, 8)] {
            let cfg = StmConfig { s: 8, b, l };
            let mut micro = MicroStm::new(cfg);
            let (_, t) = micro.transpose_block(&block);
            assert_eq!(micro.cycles(), t.total_cycles(), "B={b} L={l}");
        }
    }

    #[test]
    fn micro_model_output_matches_the_coprocessor() {
        let block = entries(&[(0, 3), (1, 1), (2, 6), (4, 0), (4, 4), (7, 7)]);
        let cfg = StmConfig { s: 8, b: 4, l: 4 };
        let mut micro = MicroStm::new(cfg);
        let (a, _) = micro.transpose_block(&block);
        let vp = VpConfig {
            section_size: 8,
            ..VpConfig::paper()
        };
        let mut e = Engine::new(vp, Memory::new());
        let mut stm = StmCoprocessor::new(cfg);
        stm.icm(&mut e);
        let payload = VReg::ready_at(block.iter().map(|b| b.2).collect(), 0);
        let pos = VReg::ready_at(block.iter().map(|b| pack_pos(b.0, b.1)).collect(), 0);
        stm.v_stcr(&mut e, &payload, &pos).unwrap();
        let (vals, tpos) = stm.v_ldcc(&mut e, 8);
        let b: Vec<(u8, u8, u32)> = vals
            .data
            .iter()
            .zip(&tpos.data)
            .map(|(&v, &p)| {
                let (r, c) = unpack_pos(p);
                (r, c, v)
            })
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_block_costs_nothing() {
        let mut micro = MicroStm::new(StmConfig::default());
        let (out, t) = micro.transpose_block(&[]);
        assert!(out.is_empty());
        assert_eq!(micro.cycles(), 0);
        assert_eq!(t.write_batches, 0);
    }

    #[test]
    fn single_element_pays_the_full_pipeline() {
        let mut micro = MicroStm::new(StmConfig::default());
        let (_, t) = micro.transpose_block(&[(3, 5, 42)]);
        // 1 transfer + 3 fill + 1 transfer + 3 drain = 8 cycles.
        assert_eq!(micro.cycles(), 8);
        assert_eq!(t.total_cycles(), 8);
    }

    #[test]
    fn dense_row_streams_at_bandwidth() {
        let block = entries(&(0..8u8).map(|c| (0u8, c)).collect::<Vec<_>>());
        let cfg = StmConfig { s: 8, b: 4, l: 1 };
        let mut micro = MicroStm::new(cfg);
        let (_, t) = micro.transpose_block(&block);
        assert_eq!(t.write_batches, 2); // 8 elements at B=4, same row
        assert_eq!(t.read_batches, 8); // one element per column
    }
}
