//! Exhaustive agreement of the STM block models on small blocks.
//!
//! Every occupancy pattern of a 4 x 4 block (65,536 of them) runs under
//! B ∈ {1, 2, 4, 8} and L ∈ {1, 2, 4} through:
//!
//! * [`block_timing`], the whole-block batch rule behind Fig. 10;
//! * [`MicroStm`], the cycle-stepped Fig. 3 datapath;
//! * an engine-driven [`StmCoprocessor`] session, issued the way the
//!   HiSM kernel issues it (`icm`, `v_stcr` strips of at most `s`
//!   entries, `v_ldcc` strips of at most `s` until drained), and the
//!   same session planned without the engine.
//!
//! Outputs must equal a naive coordinate swap, and the coprocessor's
//! batches must equal [`block_timing`] summed over its instructions'
//! strips. The coprocessor and whole-block [`block_timing`] agree on
//! every block of at most `s` entries; past that a simulated buffer
//! transfer never spans two instructions, so the two part ways. The
//! number of such cases is pinned in [`DISAGREEMENTS`]: a model change
//! that moves it must update it on purpose.
//!
//! Each pattern's one-block HiSM image is also transposed by the
//! simulated kernel and by the host bit-plane drain, which must write
//! the same words. At s = 8 every pattern confined to one row or one
//! column runs through the same checks.

use crate::coproc::StmCoprocessor;
use crate::exec::ExecCtx;
use crate::kernels::transpose_hism;
use crate::micro::MicroStm;
use crate::unit::{block_timing, StmConfig};
use stm_hism::image::{pack_pos, unpack_pos, HismImage};
use stm_sparse::Coo;
use stm_vpsim::{Engine, Memory, VReg, VpConfig};

const BS: [u64; 4] = [1, 2, 4, 8];
const LS: [usize; 3] = [1, 2, 4];

/// s = 4 cases, per (B, L), in which the coprocessor's batches differ
/// from whole-block [`block_timing`]: rows follow [`BS`], columns [`LS`].
const DISAGREEMENTS: [[u64; 3]; 4] = [
    [0, 0, 0],
    [34_614, 2_651, 0],
    [53_591, 30_589, 0],
    [53_591, 57_068, 63_019],
];

/// The entries of occupancy `pattern` (bit `r * s + c` set means `(r,
/// c)` holds an entry) in row-major order, numbered from 1.
fn block(pattern: u64, s: usize) -> Vec<(u8, u8, u32)> {
    (0..s * s)
        .filter(|&k| pattern >> k & 1 == 1)
        .enumerate()
        .map(|(n, k)| ((k / s) as u8, (k % s) as u8, n as u32 + 1))
        .collect()
}

fn positions(entries: &[(u8, u8, u32)]) -> Vec<(u8, u8)> {
    entries.iter().map(|&(r, c, _)| (r, c)).collect()
}

/// One (s, B, L) geometry with every model of it, reused across cases.
struct Rig {
    cfg: StmConfig,
    e: Engine,
    timed: StmCoprocessor,
    planned: StmCoprocessor,
    micro: MicroStm,
}

impl Rig {
    fn new(s: usize, b: u64, l: usize) -> Self {
        let cfg = StmConfig { s, b, l };
        let vp = VpConfig {
            section_size: s,
            ..VpConfig::paper()
        };
        Rig {
            cfg,
            e: Engine::new(vp, Memory::new()),
            timed: StmCoprocessor::new(cfg),
            planned: StmCoprocessor::new(cfg),
            micro: MicroStm::new(cfg),
        }
    }

    /// Runs `entries` through every model and checks them against each
    /// other. Returns whether the coprocessor's batches differ from
    /// whole-block [`block_timing`].
    fn check(&mut self, entries: &[(u8, u8, u32)]) -> bool {
        let (cfg, s) = (self.cfg, self.cfg.s);
        let case = format!("s={s} B={} L={} {entries:?}", cfg.b, cfg.l);
        let z = entries.len() as u64;
        let whole = block_timing(&positions(entries), &cfg);
        let mut naive: Vec<(u8, u8, u32)> = entries.iter().map(|&(r, c, p)| (c, r, p)).collect();
        naive.sort_unstable();

        let (micro_out, micro_t) = self.micro.transpose_block(entries);
        assert_eq!(micro_t, whole, "MicroStm timing, {case}");
        let stepped = if z == 0 { 0 } else { whole.total_cycles() };
        assert_eq!(self.micro.cycles(), stepped, "MicroStm cycles, {case}");
        assert_eq!(micro_out, naive, "MicroStm output, {case}");

        // The timed session, issued the way the HiSM kernel issues it.
        let before = *self.timed.stats();
        self.timed.icm(&mut self.e);
        for strip in entries.chunks(s) {
            let payload = VReg::ready_at(strip.iter().map(|e| e.2).collect(), 0);
            let pos = VReg::ready_at(strip.iter().map(|e| pack_pos(e.0, e.1)).collect(), 0);
            self.timed.v_stcr(&mut self.e, &payload, &pos).unwrap();
        }
        let mut drained = Vec::new();
        while self.timed.remaining() > 0 {
            let (v, p) = self.timed.v_ldcc(&mut self.e, s);
            drained.extend(v.data.iter().zip(&p.data).flat_map(|(&v, &p)| [v, p]));
        }
        let after = *self.timed.stats();
        let (write, read) = (
            after.write_batches - before.write_batches,
            after.read_batches - before.read_batches,
        );
        let out: Vec<(u8, u8, u32)> = drained
            .chunks_exact(2)
            .map(|w| {
                let (r, c) = unpack_pos(w[1]);
                (r, c, w[0])
            })
            .collect();
        assert_eq!(out, naive, "coprocessor output, {case}");

        // Batches are block_timing's, summed over each instruction's
        // strip: written strips in row-major order, read strips in
        // drain order.
        let strip_write: u64 = entries
            .chunks(s)
            .map(|strip| block_timing(&positions(strip), &cfg).write_batches)
            .sum();
        let strip_read: u64 = naive
            .chunks(s)
            .map(|strip| {
                let mut p: Vec<(u8, u8)> = strip.iter().map(|&(r, c, _)| (c, r)).collect();
                p.sort_unstable();
                block_timing(&p, &cfg).read_batches
            })
            .sum();
        assert_eq!((write, read), (strip_write, strip_read), "strips, {case}");
        let agrees = (write, read) == (whole.write_batches, whole.read_batches);
        if z <= s as u64 {
            assert!(agrees, "whole block of at most s entries, {case}");
        }

        // The planned session forms what the timed one did.
        let words: Vec<u32> = entries
            .iter()
            .flat_map(|&(r, c, p)| [p, pack_pos(r, c)])
            .collect();
        let mut planned_out = Vec::new();
        let plan = self.planned.plan_session(&words, &mut planned_out);
        let plan = plan.unwrap_or_else(|| panic!("session not planned, {case}"));
        assert_eq!(planned_out, drained, "planned output, {case}");
        self.planned.commit_planned(plan);
        assert_eq!(self.planned.stats(), self.timed.stats(), "{case}");
        let transfers = self.planned.transfers();
        assert_eq!(transfers.len() as u64, write + read, "{case}");
        let (w, r) = transfers.split_at(write as usize);
        assert_eq!(w.iter().sum::<u64>(), z, "planned write transfers, {case}");
        assert_eq!(r.iter().sum::<u64>(), z, "planned read transfers, {case}");
        !agrees
    }
}

/// The simulated kernel and the host drain transpose `pattern`'s
/// one-block image to the same words.
fn check_image(pattern: u64, s: usize, ctx: &ExecCtx) {
    let triplets = block(pattern, s)
        .into_iter()
        .map(|(r, c, p)| (r as usize, c as usize, p as f32))
        .collect();
    let coo = Coo::from_triplets(s, s, triplets).unwrap();
    let h = stm_hism::build::from_coo(&coo, s).unwrap();
    let image = HismImage::encode(&h);
    let (sim, _) = transpose_hism(ctx, &image).unwrap();
    let (host, _) = stm_host::hism::transpose_hism(&image, s).unwrap();
    assert_eq!(sim.words, host.words, "s={s} pattern {pattern:#x}");
}

/// Runs every s = 4 pattern at bandwidth `BS[bi]` under every L, and
/// pins the disagreement counts.
fn enumerate_s4(bi: usize) {
    let counts = LS.map(|l| {
        let mut rig = Rig::new(4, BS[bi], l);
        (0..1u64 << 16).filter(|&p| rig.check(&block(p, 4))).count() as u64
    });
    assert_eq!(counts, DISAGREEMENTS[bi], "B={}", BS[bi]);
}

#[test]
fn every_s4_block_at_b1() {
    enumerate_s4(0);
}

#[test]
fn every_s4_block_at_b2() {
    enumerate_s4(1);
}

#[test]
fn every_s4_block_at_b4() {
    enumerate_s4(2);
}

#[test]
fn every_s4_block_at_b8() {
    enumerate_s4(3);
}

#[test]
fn the_disagreements_total_295123() {
    let total: u64 = DISAGREEMENTS.iter().flatten().sum();
    assert_eq!(total, 295_123);
}

#[test]
fn every_s4_image_transposes_like_the_host_drain() {
    let ctx = ExecCtx {
        vp: VpConfig {
            section_size: 4,
            ..VpConfig::paper()
        },
        stm: StmConfig { s: 4, b: 4, l: 4 },
        ..ExecCtx::paper()
    };
    for p in 0..1u64 << 16 {
        check_image(p, 4, &ctx);
    }
}

#[test]
fn every_s8_block_confined_to_one_line() {
    let s = 8;
    // Each row's and each column's 255 non-empty subsets.
    let mut patterns: Vec<u64> = (0..s)
        .flat_map(|line| {
            (1..1u64 << s).flat_map(move |sub| {
                let (mut row, mut col) = (0u64, 0u64);
                for k in (0..s).filter(|&k| sub >> k & 1 == 1) {
                    row |= 1 << (line * s + k);
                    col |= 1 << (k * s + line);
                }
                [row, col]
            })
        })
        .collect();
    patterns.sort_unstable();
    patterns.dedup();
    for b in BS {
        for l in LS {
            let mut rig = Rig::new(s, b, l);
            for &p in &patterns {
                assert!(!rig.check(&block(p, s)));
            }
        }
    }
    let ctx = ExecCtx {
        vp: VpConfig {
            section_size: s,
            ..VpConfig::paper()
        },
        stm: StmConfig { s, b: 4, l: 4 },
        ..ExecCtx::paper()
    };
    for &p in &patterns {
        check_image(p, s, &ctx);
    }
}
