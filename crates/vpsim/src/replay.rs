//! Timing replay: FastSim-style memoization (Schnarr and Larus, ASPLOS
//! 1998) of one loop body's effect on the engine's timing.
//!
//! A kernel loop that issues the same instruction shapes over and over
//! (a CRS scatter row of a given length, a HiSM leaf session with given
//! buffer transfers) re-times one short sequence hundreds of thousands
//! of times. Timing is translation invariant: expressed relative to the
//! issue clock ([`TimingState`]), a body started in a state it was seen
//! in before does exactly what it did then. [`Replay`] records that
//! effect once per (body key, state) and replays it afterwards, so only
//! the body's functional work runs.
//!
//! Replay is exact wherever the engine offers a state, and off
//! elsewhere ([`crate::Engine::timing_state`]); a body that would cross
//! the cycle budget is timed, not replayed. A table lives as long as the
//! caller keeps it: kernels keep one per simulated run.

use crate::engine::{Engine, TimingMark, TimingRecord, TimingState};
use crate::mem::Memory;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};

/// Recorded bodies a table keeps at most: a loop whose states never
/// repeat stops recording instead of growing without bound. The scalar
/// core's segment memo ([`crate::scalar::cpu`]) keeps the same bound.
pub(crate) const CAPACITY: usize = 1 << 12;

/// Misses a table takes before it judges whether replay pays: from
/// then on it stays on only while at least one lookup in four hits.
/// Where states do not repeat, lookups and recording only cost.
const WARMUP: u64 = 256;

/// Whether a memo table with `hits` and `misses` so far still pays
/// (see [`WARMUP`]); once it does not, its owner turns it off for the
/// rest of the run.
#[inline]
pub(crate) fn pays(hits: u64, misses: u64) -> bool {
    misses < WARMUP || misses <= 3 * hits
}

/// Distinct (key, state) pairs a table notes at most.
const SIGHTINGS: usize = 1 << 16;

pub(crate) type Words = BuildHasherDefault<WordHasher>;

/// A memo table of loop-body timing, keyed by a body key the kernel
/// chooses (the words that fix the body's instruction shapes) plus the
/// engine's [`TimingState`] at the body's start.
///
/// A body is recorded on its second sighting, not its first, so bodies
/// that never repeat cost one hash each; and where fewer than one
/// lookup in four hits (after 256 misses), [`Replay::state`] turns the
/// table off for the rest of its run.
#[derive(Debug, Default)]
pub struct Replay {
    table: HashMap<Box<[u64]>, TimingRecord, Words>,
    /// Hashes of the (key, state) pairs seen so far. Two pairs sharing
    /// a hash only record a body one sighting early.
    sighted: HashSet<u64, Words>,
    /// Lookup scratch: body key then state words.
    key: Vec<u64>,
    hits: u64,
    misses: u64,
}

impl Replay {
    /// An empty table.
    pub fn new() -> Self {
        Replay::default()
    }

    /// Bodies replayed so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Bodies timed while the table was on: lookups that found no
    /// usable record, and [`Replay::run`] bodies on their first sighting.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The engine's relative timing state, or `None` when replay is off
    /// on the engine ([`Engine::timing_state`]) or this table has
    /// stopped paying.
    pub fn state(&self, e: &Engine) -> Option<TimingState> {
        if !pays(self.hits, self.misses) {
            return None;
        }
        e.timing_state()
    }

    fn set_key(&mut self, key: &[u64], state: &TimingState) {
        self.key.clear();
        self.key.extend_from_slice(key);
        self.key.extend_from_slice(state.words());
    }

    /// True when body `key` was sighted from `state` before; notes the
    /// pair otherwise. Only a body sighted before is worth recording.
    pub fn sighted(&mut self, key: &[u64], state: &TimingState) -> bool {
        self.set_key(key, state);
        let h = self.table.hasher().hash_one(self.key.as_slice());
        self.sighted.contains(&h) || (self.sighted.len() < SIGHTINGS && !self.sighted.insert(h))
    }

    /// Replays body `key` when it was recorded from `state`, the engine's
    /// current state: the engine's timing, statistics and stall accounts
    /// advance exactly as timing the body would advance them, and the
    /// caller must then do only the body's functional work. Returns false
    /// (changing nothing) when the pair is unrecorded or the body would
    /// cross the cycle budget.
    pub fn replay(&mut self, e: &mut Engine, key: &[u64], state: &TimingState) -> bool {
        self.set_key(key, state);
        let replayed = self
            .table
            .get(self.key.as_slice())
            .is_some_and(|rec| e.replay_timing(rec));
        if replayed {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        replayed
    }

    /// Marks the start of a body to time and [`Replay::record`]
    /// (`None` when replay is off on the engine).
    pub fn start(&self, e: &Engine) -> Option<TimingMark> {
        e.timing_mark()
    }

    /// Records what the body timed since `mark` did, under `key` (which
    /// may be known only once the body has run). Records nothing once
    /// the table is full.
    pub fn record(&mut self, e: &Engine, mark: &TimingMark, key: &[u64]) {
        if self.table.len() >= CAPACITY {
            return;
        }
        let full: Box<[u64]> = key.iter().chain(mark.state.words()).copied().collect();
        self.table.insert(full, e.timing_record(mark));
    }

    /// One loop body whose key is known up front: replays it and runs
    /// `functional` on the engine's memory, or runs `timed` (recording
    /// it from its second sighting on).
    pub fn run<R>(
        &mut self,
        e: &mut Engine,
        key: &[u64],
        functional: impl FnOnce(&mut Memory) -> R,
        timed: impl FnOnce(&mut Engine) -> R,
    ) -> R {
        let Some(state) = self.state(e) else {
            return timed(e);
        };
        if !self.sighted(key, &state) {
            // Never recorded: nothing to look up yet.
            self.misses += 1;
            return timed(e);
        }
        if self.replay(e, key, &state) {
            return functional(e.mem_mut());
        }
        let mark = self.start(e);
        let out = timed(e);
        if let Some(mark) = mark {
            self.record(e, &mark, key);
        }
        out
    }
}

/// A word-at-a-time multiply-rotate hasher for memo keys: a key is a
/// handful of small words, and SipHash costs more than a replayed body
/// saves. Not a digest (`stm_sparse::hash` is the workspace's digest);
/// it only places keys in a table whose lookups compare keys in full.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct WordHasher(u64);

impl WordHasher {
    fn add(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(w));
        }
    }

    fn write_u64(&mut self, w: u64) {
        self.add(w);
    }

    fn write_usize(&mut self, w: usize) {
        self.add(w as u64);
    }

    fn finish(&self) -> u64 {
        // The multiply leaves its best bits high; the table indexes by
        // the low ones.
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MidRunFlip, VpConfig};
    use crate::engine::{DeadlineExceeded, VReg};
    use stm_obs::Recorder;

    /// A loop body touching every port: a chained gather/scatter pair, an
    /// ALU op, an STM stream and a scalar tail.
    fn body(e: &mut Engine) {
        let idx = e.v_ld(0, 12);
        let vals = e.v_ld_idx(100, &idx);
        let inc = e.v_add_imm(&vals, 1);
        e.v_st_idx(&inc, 200, &idx);
        e.run_stream(
            "stm",
            crate::Fu::Stm,
            crate::Stream::new(0, 1, 3, 5),
            crate::Ready::None,
        );
        e.loop_overhead();
    }

    fn engine(cfg: VpConfig) -> Engine {
        let mut mem = Memory::new();
        mem.write_block(0, &(0..12).collect::<Vec<_>>());
        Engine::new(cfg, mem)
    }

    /// Everything replay must reproduce, rendered for comparison.
    fn snapshot(e: &Engine) -> String {
        format!(
            "{} {:?} {:?} {:?} {:?}",
            e.cycles(),
            e.stats(),
            e.fu_busy(),
            e.stall_breakdown(),
            e.timing_state()
        )
    }

    /// Prefixes leaving the engine in one relative state at two different
    /// clocks: units still busy past the clock (a load in flight), or
    /// every unit idle in the past (a long scalar phase).
    type Prefix = fn(&mut Engine, u64);

    fn prefixes() -> [(Prefix, &'static str); 2] {
        [
            (
                |e, t| {
                    e.advance_serial(t);
                    e.v_ld(500, 64);
                },
                "busy in the future",
            ),
            (
                |e, t| {
                    e.v_ld(500, 64);
                    e.advance_serial(t);
                },
                "busy in the past",
            ),
        ]
    }

    #[test]
    fn a_replayed_body_matches_direct_execution_at_another_clock() {
        for (prefix, label) in prefixes() {
            let mut r = Replay::new();
            let mut rec = engine(VpConfig::paper());
            prefix(&mut rec, 10);
            let state = rec.timing_state().unwrap();
            let mark = r.start(&rec).unwrap();
            body(&mut rec);
            r.record(&rec, &mark, &[7]);

            let (mut direct, mut replayed) = (engine(VpConfig::paper()), engine(VpConfig::paper()));
            prefix(&mut direct, 1000);
            prefix(&mut replayed, 1000);
            assert_eq!(replayed.timing_state(), Some(state), "{label}");
            assert!(r.replay(&mut replayed, &[7], &state), "{label}");
            assert_eq!(r.hits(), 1);
            body(&mut direct);
            assert_eq!(snapshot(&replayed), snapshot(&direct), "{label}");
            // The state left behind times later work identically too.
            for e in [&mut direct, &mut replayed] {
                body(e);
                e.advance_serial(3);
            }
            assert_eq!(snapshot(&replayed), snapshot(&direct), "{label}");
        }
    }

    #[test]
    fn an_unrecorded_key_or_state_is_not_replayed() {
        let mut r = Replay::new();
        let mut e = engine(VpConfig::paper());
        let state = e.timing_state().unwrap();
        let mark = r.start(&e).unwrap();
        body(&mut e);
        r.record(&e, &mark, &[1]);
        let before = snapshot(&e);
        let now = e.timing_state().unwrap();
        assert!(!r.replay(&mut e, &[2], &now));
        assert_ne!(now, state, "the body leaves a unit busy");
        assert!(!r.replay(&mut e, &[1], &now));
        assert_eq!(snapshot(&e), before, "a refused replay changes nothing");
        assert_eq!((r.hits(), r.misses()), (0, 2));
    }

    #[test]
    fn replay_is_refused_where_the_body_would_cross_the_budget() {
        let mut r = Replay::new();
        let mut e = engine(VpConfig::paper());
        let state = e.timing_state().unwrap();
        let mark = r.start(&e).unwrap();
        body(&mut e);
        r.record(&e, &mark, &[1]);
        let body_cycles = e.cycles();
        // A budget one cycle short of the body: the replay must leave the
        // abort to the timed body, with the payload timing it gives.
        let cfg = VpConfig {
            cycle_budget: Some(body_cycles - 1),
            ..VpConfig::paper()
        };
        let mut budgeted = engine(cfg.clone());
        assert!(!r.replay(&mut budgeted, &[1], &state));
        assert_eq!(budgeted.cycles(), 0);
        let caught = std::panic::catch_unwind(move || {
            let mut e = engine(cfg);
            body(&mut e);
            body(&mut e);
        })
        .expect_err("the timed bodies cross the budget");
        assert!(caught.downcast_ref::<DeadlineExceeded>().is_some());
        // At the budget exactly the replay goes ahead.
        let mut exact = engine(VpConfig {
            cycle_budget: Some(body_cycles),
            ..VpConfig::paper()
        });
        assert!(r.replay(&mut exact, &[1], &state));
        assert_eq!(exact.cycles(), body_cycles);
    }

    #[test]
    fn there_is_no_state_where_replay_would_not_be_exact() {
        let mut traced = engine(VpConfig::paper());
        traced.set_recorder(Recorder::enabled(64));
        assert_eq!(traced.timing_state(), None, "live recorder");
        let flip = MidRunFlip {
            after_cycle: 50,
            word: 3,
            bit: 1,
        };
        let mut armed = engine(VpConfig {
            mid_run_flip: Some(flip),
            ..VpConfig::paper()
        });
        assert_eq!(armed.timing_state(), None, "armed flip");
        // Once the flip has fired the state is back.
        armed.advance_serial(60);
        armed.loop_overhead();
        assert!(armed.timing_state().is_some());
        let ports = engine(VpConfig {
            mem_ports: 2,
            ..VpConfig::paper()
        });
        assert_eq!(ports.timing_state(), None, "two memory ports");
        let mut r = Replay::new();
        assert_eq!(r.start(&ports).map(|_| ()), None);
        // `run` then simply times the body.
        let mut e = traced;
        r.run(&mut e, &[1], |_| unreachable!(), body);
        r.run(&mut e, &[1], |_| unreachable!(), body);
        assert_eq!((r.hits(), r.misses()), (0, 0));
    }

    #[test]
    fn stalls_stay_in_order_after_a_replay() {
        // Debug builds assert that front-end stalls arrive in order; a
        // replayed body must leave the stall edge where timing left it.
        let mut r = Replay::new();
        let mut e = engine(VpConfig::paper());
        for _ in 0..4 {
            r.run(&mut e, &[1], |_| (), body);
        }
        assert!(r.hits() > 0);
        e.stall_until(e.cycles() + 5);
        e.scalar_cycles(2);
        e.advance_serial(1);
        let v = e.v_ld(0, 4);
        e.v_st(50, &VReg::ready_at(v.data, 0));
        e.stall_breakdown().check_conservation().unwrap();
    }

    #[test]
    fn word_hasher_spreads_small_keys() {
        let h = |k: &[u64]| Words::default().hash_one(k);
        assert_ne!(h(&[1, 2]), h(&[2, 1]));
        assert_ne!(h(&[1]), h(&[1, 0]));
        let buckets: std::collections::HashSet<u64> = (0..64u64).map(|i| h(&[i]) & 63).collect();
        assert!(buckets.len() > 32, "low bits cluster: {}", buckets.len());
    }
}
