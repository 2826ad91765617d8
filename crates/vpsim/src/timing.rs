//! Pluggable timing models: the seam between *what* the engine moves and
//! *when* it completes.
//!
//! The engine's functional semantics (real data movement on [`Memory`])
//! never depend on the model — every model sees the same instruction
//! stream and produces per-element completion times for it. Two models
//! ship with the simulator:
//!
//! * [`PaperTiming`] — the machine of the paper: memory startup, per-cycle
//!   acceptance rates, pipeline latency, and chaining, exactly as the
//!   worked examples in Section IV-A (64-word contiguous load = 36
//!   cycles, indexed = 84).
//! * [`IdealTiming`] — a zero-latency machine: every element of an
//!   instruction completes the cycle it issues and issue itself is free,
//!   so the cycle count collapses to the functional-unit serialization
//!   floor. Running a kernel under both models separates *algorithm*
//!   cost (instruction count, data volume) from *machine* cost (startup,
//!   bandwidth, latency).
//!
//! Models are stateless and selected by [`TimingKind`], which is what
//! kernel-level code (`ExecCtx` in `stm-core`, the bench harness's
//! `--timing` handling) passes around.
//!
//! [`Memory`]: crate::mem::Memory

use crate::config::VpConfig;
use crate::stream::{stream_through, Ready, Stream};

/// A timing model: maps an issued vector instruction to per-element
/// completion times. Implementations must be stateless (the engine holds
/// a `&'static dyn TimingModel`) and deterministic.
///
/// Completion times go into a buffer the caller supplies (`out`, cleared
/// first), so a model allocates nothing per instruction.
pub trait TimingModel: std::fmt::Debug + Sync {
    /// Short stable name (used by `--timing` flags and reports).
    fn name(&self) -> &'static str;

    /// Cycles the issue clock advances per vector instruction.
    fn issue_cycles(&self, cfg: &VpConfig) -> u64;

    /// Scalar/control cycles actually charged for a nominal scalar cost
    /// (loop overhead, scalar-core phases, recursion bookkeeping).
    fn scalar_cycles(&self, nominal: u64) -> u64;

    /// Completion times of stream `s` issued at `issue`, one per slot:
    /// slots accepted at `s.rate` per cycle from `issue + s.startup`, each
    /// completing `s.latency` cycles after acceptance, each no earlier
    /// than its element's readiness under `ready` (chaining).
    fn stream(&self, issue: u64, s: Stream, ready: Ready<'_>, out: &mut Vec<u64>);

    /// Completion time of the last slot of `s` with no readiness
    /// constraint (`issue` for an empty stream): the last element
    /// [`TimingModel::stream`] would write under [`Ready::None`].
    fn stream_last(&self, issue: u64, s: Stream) -> u64;

    /// Completion times of a batched instruction: one whole group
    /// accepted per cycle (e.g. one STM buffer transfer), each group no
    /// earlier than its elements' readiness, every element completing
    /// `latency` cycles after its group. Flattened in group order.
    fn batched(
        &self,
        issue: u64,
        startup: u64,
        latency: u64,
        group_sizes: &[usize],
        ready: Ready<'_>,
        out: &mut Vec<u64>,
    );

    /// Completion time of the last element of an unconstrained batched
    /// instruction (`issue` when it moves nothing): the last element
    /// [`TimingModel::batched`] would write under [`Ready::None`].
    fn batched_last(&self, issue: u64, startup: u64, latency: u64, group_sizes: &[usize]) -> u64;
}

/// The paper's occupancy/chaining machine (the default model).
#[derive(Debug, Clone, Copy, Default)]
pub struct PaperTiming;

impl TimingModel for PaperTiming {
    fn name(&self) -> &'static str {
        "paper"
    }

    fn issue_cycles(&self, cfg: &VpConfig) -> u64 {
        cfg.issue_cycles
    }

    fn scalar_cycles(&self, nominal: u64) -> u64 {
        nominal
    }

    fn stream(&self, issue: u64, s: Stream, ready: Ready<'_>, out: &mut Vec<u64>) {
        stream_through(issue, s, ready, out)
    }

    fn stream_last(&self, issue: u64, s: Stream) -> u64 {
        // Unconstrained slots are accepted `rate` per cycle from
        // `issue + startup` without gaps.
        match s.len() {
            0 => issue,
            n => issue + s.startup + (n as u64 - 1) / s.rate + s.latency,
        }
    }

    fn batched(
        &self,
        issue: u64,
        startup: u64,
        latency: u64,
        group_sizes: &[usize],
        ready: Ready<'_>,
        out: &mut Vec<u64>,
    ) {
        let n: usize = group_sizes.iter().sum();
        ready.check_len(n);
        out.clear();
        out.reserve(n);
        let mut t = issue + startup;
        let mut k = 0usize;
        for &g in group_sizes {
            let accept = t.max(ready.max_over(k..k + g));
            out.extend(std::iter::repeat_n(accept + latency, g));
            k += g;
            t = accept + 1;
        }
    }

    fn batched_last(&self, issue: u64, startup: u64, latency: u64, group_sizes: &[usize]) -> u64 {
        // Unconstrained groups are accepted one per cycle; the last
        // completion belongs to the last group that moves anything.
        group_sizes
            .iter()
            .rposition(|&g| g > 0)
            .map_or(issue, |i| issue + startup + i as u64 + latency)
    }
}

/// A zero-latency machine: startup, acceptance rates, pipeline latency,
/// and scalar overhead all vanish; every element completes at issue.
///
/// Chaining inputs are *ignored* on purpose — under an infinitely fast
/// machine every producer has already finished — so the model is a true
/// lower bound, not merely a faster pipeline.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdealTiming;

impl TimingModel for IdealTiming {
    fn name(&self) -> &'static str {
        "ideal"
    }

    fn issue_cycles(&self, _cfg: &VpConfig) -> u64 {
        0
    }

    fn scalar_cycles(&self, _nominal: u64) -> u64 {
        0
    }

    fn stream(&self, issue: u64, s: Stream, _ready: Ready<'_>, out: &mut Vec<u64>) {
        out.clear();
        out.resize(s.len(), issue);
    }

    fn stream_last(&self, issue: u64, _s: Stream) -> u64 {
        issue
    }

    fn batched(
        &self,
        issue: u64,
        _startup: u64,
        _latency: u64,
        group_sizes: &[usize],
        _ready: Ready<'_>,
        out: &mut Vec<u64>,
    ) {
        out.clear();
        out.resize(group_sizes.iter().sum(), issue);
    }

    fn batched_last(&self, issue: u64, _startup: u64, _latency: u64, _groups: &[usize]) -> u64 {
        issue
    }
}

/// Selects a [`TimingModel`] by value — the form kernel configuration and
/// command-line flags use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimingKind {
    /// The paper's occupancy/chaining model ([`PaperTiming`]).
    #[default]
    Paper,
    /// The zero-latency bound ([`IdealTiming`]).
    Ideal,
}

static PAPER: PaperTiming = PaperTiming;
static IDEAL: IdealTiming = IdealTiming;

impl TimingKind {
    /// The model this kind selects.
    pub fn model(self) -> &'static dyn TimingModel {
        match self {
            TimingKind::Paper => &PAPER,
            TimingKind::Ideal => &IDEAL,
        }
    }

    /// Short stable name (`"paper"` / `"ideal"`).
    pub fn name(self) -> &'static str {
        self.model().name()
    }

    /// Parses a name as written on a `--timing` flag.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "paper" => Some(TimingKind::Paper),
            "ideal" => Some(TimingKind::Ideal),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(model: &dyn TimingModel, issue: u64, s: Stream, ready: Ready) -> Vec<u64> {
        let mut out = vec![99; 3]; // stale contents must be cleared
        model.stream(issue, s, ready, &mut out);
        out
    }

    fn batched(
        model: &dyn TimingModel,
        issue: u64,
        startup: u64,
        latency: u64,
        groups: &[usize],
    ) -> Vec<u64> {
        let mut out = vec![99; 3];
        model.batched(issue, startup, latency, groups, Ready::None, &mut out);
        out
    }

    #[test]
    fn paper_stream_matches_stream_through() {
        let ready: Vec<u64> = (0..16).map(|i| (i * 5) % 40).collect();
        let s = Stream::new(20, 4, 2, 16);
        let mut want = Vec::new();
        stream_through(3, s, Ready::One(&ready), &mut want);
        assert_eq!(stream(&PaperTiming, 3, s, Ready::One(&ready)), want);
    }

    #[test]
    fn paper_stream_last_matches_stream() {
        for (issue, startup, rate, latency) in [(0, 20, 4, 0), (7, 0, 1, 3), (3, 5, 2, 9)] {
            for n in [0usize, 1, 2, 3, 4, 5, 63, 64, 65] {
                for slots in [1, 2] {
                    let s = Stream {
                        slots,
                        ..Stream::new(startup, rate, latency, n)
                    };
                    let want = stream(&PaperTiming, issue, s, Ready::None);
                    assert_eq!(
                        PaperTiming.stream_last(issue, s),
                        want.last().copied().unwrap_or(issue),
                        "issue {issue} startup {startup} rate {rate} latency {latency} n {n} slots {slots}"
                    );
                }
            }
        }
    }

    #[test]
    fn paper_batched_last_matches_batched() {
        for groups in [&[][..], &[3], &[2, 1, 2], &[1, 0], &[0, 0], &[4, 4, 4, 1]] {
            let want = batched(&PaperTiming, 5, 2, 3, groups);
            assert_eq!(
                PaperTiming.batched_last(5, 2, 3, groups),
                want.last().copied().unwrap_or(5),
                "groups {groups:?}"
            );
        }
    }

    #[test]
    fn ideal_completes_everything_at_issue() {
        let s = Stream {
            slots: 2,
            ..Stream::new(20, 1, 9, 5)
        };
        assert_eq!(stream(&IdealTiming, 7, s, Ready::At(50)), vec![7; 10]);
        assert_eq!(IdealTiming.stream_last(7, s), 7);
        assert_eq!(batched(&IdealTiming, 7, 20, 9, &[2, 3]), vec![7; 5]);
        assert_eq!(IdealTiming.batched_last(7, 20, 9, &[2, 3]), 7);
        assert_eq!(IdealTiming.issue_cycles(&VpConfig::paper()), 0);
        assert_eq!(IdealTiming.scalar_cycles(1000), 0);
    }

    #[test]
    fn kind_round_trips_through_names() {
        for kind in [TimingKind::Paper, TimingKind::Ideal] {
            assert_eq!(TimingKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(TimingKind::from_name("warp-speed"), None);
        assert_eq!(TimingKind::default(), TimingKind::Paper);
    }

    #[test]
    fn paper_batched_groups_accept_once_per_cycle() {
        // Three groups, no chaining: accepts at 10, 11, 12 (+latency 3).
        assert_eq!(
            batched(&PaperTiming, 0, 10, 3, &[2, 1, 2]),
            vec![13, 13, 14, 15, 15]
        );
    }

    #[test]
    fn paper_batched_groups_wait_for_their_elements() {
        // The second group holds an element ready at 20 on one source.
        let (a, b) = ([0u64, 0, 0, 0], [0u64, 0, 20, 0]);
        let mut out = Vec::new();
        PaperTiming.batched(0, 10, 3, &[2, 2], Ready::Max(&a, &b), &mut out);
        assert_eq!(out, vec![13, 13, 23, 23]);
    }
}
