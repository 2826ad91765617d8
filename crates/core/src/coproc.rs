//! The STM as a vector-processor functional unit: the `icm`, `v_stcr` and
//! `v_ldcc` instructions of the paper's Fig. 7, wired into the simulator
//! engine.
//!
//! * `icm` — initialize the `s x s` memory (reset all non-zero indicators);
//! * `v_stcr vr1, vr2` — store the elements of `vr1` row-wise into the
//!   `s x s` memory at the positions carried by `vr2`, through the I/O
//!   buffer (one buffer transfer of ≤ `B` elements within `L` consecutive
//!   rows per cycle, then a 3-stage pipeline into the memory);
//! * `v_ldcc vr1, vr2` — load the next elements *column-wise* from the
//!   `s x s` memory: values into `vr1` and the **transposed** positions
//!   into `vr2`, again batched by `B`/`L` over columns with a 3-stage
//!   drain pipeline.
//!
//! Because the memory "has to be filled before it can be read back", the
//! first `v_ldcc` after a write phase stalls until the last `v_stcr`
//! element has landed — the unit is not fully pipelined across phases,
//! exactly as the paper states.

use crate::report::StmStats;
use crate::sxs::SxsMemory;
use crate::unit::{Groups, StmConfig, PHASE_PIPELINE_CYCLES};
use stm_hism::image::{pack_pos, unpack_pos};
use stm_obs::{Category, Lane};
use stm_vpsim::{Engine, Fu, Ready, Stream, VReg};

/// Trace bookkeeping for one block session (`icm` .. last drain):
/// the open span plus per-session transfer counts feeding the
/// buffer-utilization sample emitted when the session closes.
#[derive(Debug, Clone)]
struct SessionSpan {
    span: u32,
    start: u64,
    last_done: u64,
    write_batches: u64,
    read_batches: u64,
}

/// The engine-integrated STM unit.
#[derive(Debug, Clone)]
pub struct StmCoprocessor {
    cfg: StmConfig,
    mem: SxsMemory,
    /// Cycle at which the current fill completes (fill-before-read barrier).
    fill_done: u64,
    /// Elements the current read phase has drained so far, and the
    /// column-major position (`col * s + row`) the next `v_ldcc` resumes
    /// from.
    read: usize,
    read_from: usize,
    /// Buffer-transfer sizes of the instruction being issued (reused).
    groups: Groups,
    /// Transfer sizes of every instruction of the latest planned
    /// session, in issue order: with the session's entry count,
    /// everything its timing depends on.
    transfers: Vec<u64>,
    /// Entries written in the current block session (for stats).
    session_entries: u64,
    /// Open trace span for the current block session, when recording.
    session_span: Option<SessionSpan>,
    stats: StmStats,
}

impl StmCoprocessor {
    /// Builds the unit. `cfg.s` must match the engine's section size
    /// (checked at each instruction).
    pub fn new(cfg: StmConfig) -> Self {
        cfg.validate().expect("invalid STM configuration");
        StmCoprocessor {
            mem: SxsMemory::new(cfg.s),
            cfg,
            fill_done: 0,
            read: 0,
            read_from: 0,
            groups: Groups::default(),
            transfers: Vec::new(),
            session_entries: 0,
            session_span: None,
            stats: StmStats::default(),
        }
    }

    /// Hardware parameters.
    pub fn cfg(&self) -> &StmConfig {
        &self.cfg
    }

    /// Accumulated unit statistics.
    pub fn stats(&self) -> &StmStats {
        &self.stats
    }

    /// `icm`: initialize the `s x s` memory for the next block. Ends the
    /// previous block session.
    pub fn icm(&mut self, e: &mut Engine) {
        self.close_session(e);
        self.reset();
        self.stats.sessions += 1;
        // One cycle on the STM port to flash-clear the indicator plane.
        e.run_stream("icm", Fu::Stm, Stream::new(0, 1, 0, 1), Ready::None);
        if e.recorder().is_enabled() {
            let start = e.cycles();
            let span = e
                .recorder()
                .begin(Lane::StmBlock, Category::Stm, "stm.block", start);
            self.session_span = Some(SessionSpan {
                span,
                start,
                last_done: start,
                write_batches: 0,
                read_batches: 0,
            });
        }
    }

    /// The functional half of `icm`: an empty unit for a new block.
    fn reset(&mut self) {
        self.mem.clear();
        self.read = 0;
        self.read_from = 0;
        self.fill_done = 0;
        self.session_entries = 0;
    }

    /// Closes the current block-session trace span, if one is open:
    /// emits its `End` plus a per-session buffer-utilization sample
    /// (entries moved per buffer slot offered, mirroring
    /// [`StmStats::buffer_utilization`] for a single block). Kernels
    /// call this after the last drain; `icm` calls it implicitly when a
    /// new block starts. A no-op when not recording.
    pub fn close_session(&mut self, e: &Engine) {
        let Some(s) = self.session_span.take() else {
            return;
        };
        let rec = e.recorder();
        let end = s.start.max(s.last_done);
        let transfers = s.write_batches + s.read_batches + 2 * PHASE_PIPELINE_CYCLES;
        let moved = 2 * self.session_entries;
        let bu = if transfers == 0 {
            0.0
        } else {
            moved as f64 / (self.cfg.b * transfers) as f64
        };
        rec.sample(Lane::StmBlock, "stm.buffer_utilization", end, bu);
        rec.end(Lane::StmBlock, Category::Stm, "stm.block", end, s.span);
        rec.observe("stm.session_entries", self.session_entries);
    }

    /// `v_stcr`: stores `payload` elements at the `pos` positions into the
    /// `s x s` memory (write phase). Chained on both sources.
    ///
    /// Positions come straight from an untrusted memory image, so
    /// coordinates outside the `s x s` block are a typed error (the
    /// hardware would raise a position fault), not a panic.
    pub fn v_stcr(&mut self, e: &mut Engine, payload: &VReg, pos: &VReg) -> Result<(), String> {
        assert_eq!(payload.len(), pos.len(), "vector length mismatch");
        assert_eq!(
            self.cfg.s,
            e.cfg().section_size,
            "STM/engine section size mismatch"
        );
        self.write_rows(pos.data.iter().copied().zip(payload.data.iter().copied()))?;
        let ready = e.ready2(payload, pos);
        let last = e
            .run_batched(
                "v_stcr",
                Fu::Stm,
                0,
                PHASE_PIPELINE_CYCLES,
                &self.groups.sizes,
                ready,
            )
            .last()
            .copied()
            .unwrap_or(0);
        let batches = self.groups.sizes.len() as u64;
        self.fill_done = self.fill_done.max(last);
        self.stats.write_batches += batches;
        self.stats.entries += payload.len() as u64;
        self.session_entries += payload.len() as u64;
        if let Some(s) = &mut self.session_span {
            s.write_batches += batches;
            s.last_done = s.last_done.max(last);
        }
        Ok(())
    }

    /// The functional half of `v_stcr`: stores `(pos, payload)` entries
    /// row-wise and forms the instruction's buffer transfers.
    fn write_rows(&mut self, entries: impl Iterator<Item = (u32, u32)>) -> Result<(), String> {
        let (s, b, l) = (self.cfg.s, self.cfg.b, self.cfg.l);
        self.groups.clear();
        for (p, value) in entries {
            let (r, c) = unpack_pos(p);
            if s < 256 && ((r as usize) >= s || (c as usize) >= s) {
                return Err(format!(
                    "v_stcr position ({r},{c}) outside the {s}x{s} block"
                ));
            }
            self.mem.insert(r, c, value);
            self.groups.push(r, b, l);
        }
        if self.read > 0 {
            // Writing into a partly drained memory: the read phase goes on
            // after the first `read` elements of the new drain order.
            self.read_from = self
                .mem
                .column_major_from(0)
                .nth(self.read - 1)
                .map_or(s * s, |(c, r, _)| c as usize * s + r as usize + 1);
        }
        Ok(())
    }

    /// The functional half of `v_ldcc`: drains up to `vl` elements
    /// column-wise, handing each `(payload, transposed pos)` to `out`,
    /// and forms the instruction's buffer transfers.
    fn read_cols(&mut self, vl: usize, mut out: impl FnMut(u32, u32)) {
        let n = vl.min(self.remaining());
        let (s, b, l) = (self.cfg.s, self.cfg.b, self.cfg.l);
        self.groups.clear();
        // The drain yields (old_col, old_row, payload); the old column is
        // the line being read and the new row coordinate.
        for (c, r, p) in self.mem.column_major_from(self.read_from).take(n) {
            out(p, pack_pos(c, r));
            self.groups.push(c, b, l);
            self.read_from = c as usize * s + r as usize + 1;
        }
        self.read += n;
    }

    fn note_transfers(&mut self) {
        let sizes = self.groups.sizes.iter().map(|&g| g as u64);
        self.transfers.extend(sizes);
    }

    /// Transfer sizes of every instruction of the latest
    /// [`StmCoprocessor::plan_session`], in issue order: the timed
    /// session forms the same.
    pub(crate) fn transfers(&self) -> &[u64] {
        &self.transfers
    }

    /// Runs a whole block session functionally, without the engine:
    /// `icm`, `v_stcr` over the `[payload, pos]` entry words `words` in
    /// strips of at most `s` entries, then `v_ldcc` strips until the
    /// unit is drained, the way `transpose_hism` issues them. The
    /// drained `[payload, pos]` words go to `out` and the session's
    /// [`StmCoprocessor::transfers`] are those the timed session forms.
    ///
    /// Returns `None` — the caller then runs the session on the engine —
    /// unless every position lies in the block and no two entries share
    /// one. The unit's statistics move only on
    /// [`StmCoprocessor::commit_planned`].
    pub(crate) fn plan_session(&mut self, words: &[u32], out: &mut Vec<u32>) -> Option<Planned> {
        let s = self.cfg.s;
        self.reset();
        self.transfers.clear();
        for strip in words.chunks(2 * s) {
            self.write_rows(strip.chunks_exact(2).map(|w| (w[1], w[0])))
                .ok()?;
            self.note_transfers();
        }
        let entries = words.len() / 2;
        if self.mem.count() != entries {
            return None;
        }
        let write_batches = self.transfers.len() as u64;
        out.clear();
        while self.remaining() > 0 {
            self.read_cols(s, |p, q| out.extend([p, q]));
            self.note_transfers();
        }
        Some(Planned {
            entries: entries as u64,
            write_batches,
            read_batches: self.transfers.len() as u64 - write_batches,
        })
    }

    /// Charges a planned session to the unit's statistics, as timing it
    /// would have.
    pub(crate) fn commit_planned(&mut self, p: Planned) {
        self.stats.sessions += 1;
        self.stats.entries += p.entries;
        self.stats.write_batches += p.write_batches;
        self.stats.read_batches += p.read_batches;
        self.session_entries = p.entries;
    }

    /// Elements still pending for the read phase of the current block.
    pub fn remaining(&self) -> usize {
        self.mem.count() - self.read
    }

    /// `v_ldcc`: loads up to `vl` elements column-wise from the `s x s`
    /// memory. Returns `(values, positions)` where the positions are the
    /// *transposed* coordinates (`new row = old column`, `new col = old
    /// row`), in row-major order of the new coordinates — i.e. the output
    /// blockarray of the transposed block.
    pub fn v_ldcc(&mut self, e: &mut Engine, vl: usize) -> (VReg, VReg) {
        assert_eq!(
            self.cfg.s,
            e.cfg().section_size,
            "STM/engine section size mismatch"
        );
        // Fill-before-read: stall issue until the last write landed.
        e.stall_until(self.fill_done);
        let n = vl.min(self.remaining());
        let mut payload = Vec::with_capacity(n);
        let mut pos = Vec::with_capacity(n);
        self.read_cols(vl, |p, q| {
            payload.push(p);
            pos.push(q);
        });
        let done = e.run_batched(
            "v_ldcc",
            Fu::Stm,
            0,
            PHASE_PIPELINE_CYCLES,
            &self.groups.sizes,
            Ready::None,
        );
        let last = done.last().copied().unwrap_or(0);
        let (payload, pos) = (
            VReg {
                data: payload,
                ready: done.to_vec(),
            },
            VReg {
                data: pos,
                ready: done.to_vec(),
            },
        );
        let batches = self.groups.sizes.len() as u64;
        self.stats.read_batches += batches;
        if let Some(s) = &mut self.session_span {
            s.read_batches += batches;
            s.last_done = s.last_done.max(last);
        }
        (payload, pos)
    }
}

/// What a planned block session charges to the unit's statistics (see
/// [`StmCoprocessor::plan_session`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Planned {
    entries: u64,
    write_batches: u64,
    read_batches: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_vpsim::{Memory, VpConfig};

    fn setup(b: u64, l: usize) -> (Engine, StmCoprocessor) {
        let mut cfg = VpConfig::paper();
        cfg.section_size = 8;
        let e = Engine::new(cfg, Memory::new());
        let stm = StmCoprocessor::new(StmConfig { s: 8, b, l });
        (e, stm)
    }

    fn vreg(data: Vec<u32>) -> VReg {
        VReg::ready_at(data, 0)
    }

    #[test]
    fn write_then_read_transposes() {
        let (mut e, mut stm) = setup(4, 1);
        stm.icm(&mut e);
        let payload = vreg(vec![10, 11, 12]);
        let pos = vreg(vec![pack_pos(0, 3), pack_pos(1, 0), pack_pos(1, 3)]);
        stm.v_stcr(&mut e, &payload, &pos).unwrap();
        let (vals, tpos) = stm.v_ldcc(&mut e, 8);
        assert_eq!(vals.data, vec![11, 10, 12]);
        assert_eq!(
            tpos.data,
            vec![pack_pos(0, 1), pack_pos(3, 0), pack_pos(3, 1)]
        );
        assert_eq!(stm.remaining(), 0);
    }

    #[test]
    fn read_stalls_until_fill_completes() {
        let (mut e, mut stm) = setup(1, 1);
        stm.icm(&mut e);
        // 6 elements in 6 different rows at B=1: 6 transfers + 3 pipeline.
        let payload = vreg((0..6).collect());
        let pos = vreg((0..6u32).map(|r| pack_pos(r as u8, 0)).collect());
        stm.v_stcr(&mut e, &payload, &pos).unwrap();
        let fill_done = stm.fill_done;
        assert!(fill_done >= 6 + PHASE_PIPELINE_CYCLES);
        let (vals, _) = stm.v_ldcc(&mut e, 8);
        // First read element cannot complete before the fill finished.
        assert!(
            vals.ready[0] >= fill_done,
            "{} < {fill_done}",
            vals.ready[0]
        );
    }

    #[test]
    fn strip_mined_reads_resume_at_cursor() {
        let (mut e, mut stm) = setup(4, 8);
        stm.icm(&mut e);
        let n = 8usize;
        let payload = vreg((0..n as u32).collect());
        let pos = vreg((0..n).map(|k| pack_pos(k as u8, (7 - k) as u8)).collect());
        stm.v_stcr(&mut e, &payload, &pos).unwrap();
        let (a, _) = stm.v_ldcc(&mut e, 5);
        let (bv, _) = stm.v_ldcc(&mut e, 5);
        assert_eq!(a.len(), 5);
        assert_eq!(bv.len(), 3);
        // Column-major of the anti-diagonal = reversed payload order.
        let all: Vec<u32> = a.data.iter().chain(&bv.data).copied().collect();
        assert_eq!(all, vec![7, 6, 5, 4, 3, 2, 1, 0]);
    }

    #[test]
    fn bandwidth_b_speeds_up_dense_rows() {
        let run = |b: u64| {
            let (mut e, mut stm) = setup(b, 1);
            stm.icm(&mut e);
            // One full row of 8 elements.
            let payload = vreg((0..8).collect());
            let pos = vreg((0..8u32).map(|c| pack_pos(0, c as u8)).collect());
            stm.v_stcr(&mut e, &payload, &pos).unwrap();
            let (_, _) = stm.v_ldcc(&mut e, 8);
            e.cycles()
        };
        assert!(run(4) < run(1));
    }

    #[test]
    fn l_lines_speed_up_scattered_rows() {
        let run = |l: usize| {
            let (mut e, mut stm) = setup(4, l);
            stm.icm(&mut e);
            // One element in each of 8 consecutive rows, same column.
            let payload = vreg((0..8).collect());
            let pos = vreg((0..8u32).map(|r| pack_pos(r as u8, 3)).collect());
            stm.v_stcr(&mut e, &payload, &pos).unwrap();
            let (_, _) = stm.v_ldcc(&mut e, 8);
            e.cycles()
        };
        // Write phase: L=4 groups 8 rows into 2 transfers vs 8; the read
        // phase (one dense column) is unaffected by L here.
        assert!(run(4) < run(1));
    }

    #[test]
    fn stats_accumulate_across_blocks() {
        let (mut e, mut stm) = setup(4, 4);
        for _ in 0..3 {
            stm.icm(&mut e);
            let payload = vreg(vec![1, 2]);
            let pos = vreg(vec![pack_pos(0, 0), pack_pos(0, 1)]);
            stm.v_stcr(&mut e, &payload, &pos).unwrap();
            stm.v_ldcc(&mut e, 8);
        }
        let st = stm.stats();
        assert_eq!(st.sessions, 3);
        assert_eq!(st.entries, 6);
        assert_eq!(st.write_batches, 3); // rows [0,0]: one transfer per block
        assert_eq!(st.read_batches, 3); // cols [0,1] fit one L=4 window
    }

    #[test]
    fn out_of_block_positions_are_a_typed_error() {
        let (mut e, mut stm) = setup(4, 4);
        stm.icm(&mut e);
        let payload = vreg(vec![1]);
        let pos = vreg(vec![pack_pos(9, 0)]); // s = 8: row 9 is outside
        let err = stm.v_stcr(&mut e, &payload, &pos).unwrap_err();
        assert!(err.contains("(9,0)"), "{err}");
    }

    #[test]
    fn dense_256_block_transposes() {
        let mut cfg = VpConfig::paper();
        cfg.section_size = 256;
        let mut e = Engine::new(cfg, Memory::new());
        let mut stm = StmCoprocessor::new(StmConfig { s: 256, b: 4, l: 4 });
        stm.icm(&mut e);
        for r in 0..256u32 {
            let payload = vreg((0..256).map(|c| r << 8 | c).collect());
            let pos = vreg((0..256).map(|c| pack_pos(r as u8, c as u8)).collect());
            stm.v_stcr(&mut e, &payload, &pos).unwrap();
        }
        assert_eq!(stm.remaining(), 256 * 256);
        let (mut vals, mut tpos) = (Vec::new(), Vec::new());
        while stm.remaining() > 0 {
            let (v, p) = stm.v_ldcc(&mut e, 256);
            vals.extend(v.data);
            tpos.extend(p.data);
        }
        // Row-major order of the transposed block; each value names its
        // source position (old row << 8 | old col).
        for (k, (&v, &p)) in vals.iter().zip(&tpos).enumerate() {
            let (nr, nc) = ((k >> 8) as u32, (k & 0xff) as u32);
            assert_eq!(p, pack_pos(nr as u8, nc as u8));
            assert_eq!(v, nc << 8 | nr);
        }
        assert_eq!(vals.len(), 256 * 256);
        let st = stm.stats();
        // 256 elements per line at B = 4: 64 transfers per line and phase.
        assert_eq!((st.write_batches, st.read_batches), (256 * 64, 256 * 64));
    }

    #[test]
    fn write_after_partial_read_resumes_by_count() {
        let (mut e, mut stm) = setup(4, 4);
        stm.icm(&mut e);
        let pos = vreg(vec![pack_pos(0, 2), pack_pos(0, 4)]);
        stm.v_stcr(&mut e, &vreg(vec![20, 40]), &pos).unwrap();
        assert_eq!(stm.v_ldcc(&mut e, 1).0.data, vec![20]);
        // A later write lands in front of the read position: the read
        // phase skips as many elements as it already delivered.
        let pos = vreg(vec![pack_pos(0, 1), pack_pos(0, 6)]);
        stm.v_stcr(&mut e, &vreg(vec![10, 60]), &pos).unwrap();
        assert_eq!(stm.remaining(), 3);
        assert_eq!(stm.v_ldcc(&mut e, 8).0.data, vec![20, 40, 60]);
    }

    #[test]
    fn sessions_a_replay_could_not_reproduce_are_not_planned() {
        let (_, mut stm) = setup(4, 4);
        let mut out = Vec::new();
        // Two entries at one position: the drain would yield one.
        let dup = [1, pack_pos(2, 3), 2, pack_pos(2, 3)];
        assert!(stm.plan_session(&dup, &mut out).is_none());
        // A position outside the 8 x 8 block.
        let outside = [1, pack_pos(9, 0)];
        assert!(stm.plan_session(&outside, &mut out).is_none());
    }

    #[test]
    fn icm_resets_state_between_blocks() {
        let (mut e, mut stm) = setup(4, 4);
        stm.icm(&mut e);
        let payload = vreg(vec![9]);
        let pos = vreg(vec![pack_pos(5, 5)]);
        stm.v_stcr(&mut e, &payload, &pos).unwrap();
        stm.v_ldcc(&mut e, 8);
        stm.icm(&mut e);
        assert_eq!(stm.remaining(), 0);
    }
}
