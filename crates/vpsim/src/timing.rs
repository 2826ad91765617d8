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
use crate::stream::stream_through;

/// A timing model: maps an issued vector instruction to per-element
/// completion times. Implementations must be stateless (the engine holds
/// a `&'static dyn TimingModel`) and deterministic.
pub trait TimingModel: std::fmt::Debug + Sync {
    /// Short stable name (used by `--timing` flags and reports).
    fn name(&self) -> &'static str;

    /// Cycles the issue clock advances per vector instruction.
    fn issue_cycles(&self, cfg: &VpConfig) -> u64;

    /// Scalar/control cycles actually charged for a nominal scalar cost
    /// (loop overhead, scalar-core phases, recursion bookkeeping).
    fn scalar_cycles(&self, nominal: u64) -> u64;

    /// Per-element completion times of a streamed instruction: `n`
    /// elements accepted at `rate` per cycle from `issue + startup`, each
    /// completing `latency` cycles after acceptance, each no earlier than
    /// its `input_ready` time (chaining).
    fn stream(
        &self,
        issue: u64,
        startup: u64,
        rate: u64,
        latency: u64,
        n: usize,
        input_ready: Option<&[u64]>,
    ) -> Vec<u64>;

    /// Completion time of the last element of an unchained stream
    /// (`issue` for an empty one): the last element of
    /// `stream(.., None)`, which is what the default derives it from.
    fn stream_last(&self, issue: u64, startup: u64, rate: u64, latency: u64, n: usize) -> u64 {
        self.stream(issue, startup, rate, latency, n, None)
            .last()
            .copied()
            .unwrap_or(issue)
    }

    /// Per-element completion times of a batched instruction: one whole
    /// group accepted per cycle (e.g. one STM buffer transfer), each group
    /// no earlier than its elements' readiness, every element completing
    /// `latency` cycles after its group. Flattened in group order.
    fn batched(
        &self,
        issue: u64,
        startup: u64,
        latency: u64,
        group_sizes: &[usize],
        input_ready: Option<&[u64]>,
    ) -> Vec<u64>;
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

    fn stream(
        &self,
        issue: u64,
        startup: u64,
        rate: u64,
        latency: u64,
        n: usize,
        input_ready: Option<&[u64]>,
    ) -> Vec<u64> {
        stream_through(issue, startup, rate, latency, n, input_ready)
    }

    fn stream_last(&self, issue: u64, startup: u64, rate: u64, latency: u64, n: usize) -> u64 {
        // Unchained elements are accepted `rate` per cycle from
        // `issue + startup` without gaps.
        match n {
            0 => issue,
            n => issue + startup + (n as u64 - 1) / rate + latency,
        }
    }

    fn batched(
        &self,
        issue: u64,
        startup: u64,
        latency: u64,
        group_sizes: &[usize],
        input_ready: Option<&[u64]>,
    ) -> Vec<u64> {
        let n: usize = group_sizes.iter().sum();
        let mut done = Vec::with_capacity(n);
        let mut t = issue + startup;
        let mut k = 0usize;
        for &g in group_sizes {
            let group_ready = input_ready
                .map(|r| r[k..k + g].iter().copied().max().unwrap_or(0))
                .unwrap_or(0);
            let accept = t.max(group_ready);
            for _ in 0..g {
                done.push(accept + latency);
            }
            k += g;
            t = accept + 1;
        }
        done
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

    fn stream(
        &self,
        issue: u64,
        _startup: u64,
        _rate: u64,
        _latency: u64,
        n: usize,
        _input_ready: Option<&[u64]>,
    ) -> Vec<u64> {
        vec![issue; n]
    }

    fn batched(
        &self,
        issue: u64,
        _startup: u64,
        _latency: u64,
        group_sizes: &[usize],
        _input_ready: Option<&[u64]>,
    ) -> Vec<u64> {
        vec![issue; group_sizes.iter().sum()]
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

    #[test]
    fn paper_stream_matches_stream_through() {
        let ready: Vec<u64> = (0..16).map(|i| (i * 5) % 40).collect();
        assert_eq!(
            PaperTiming.stream(3, 20, 4, 2, 16, Some(&ready)),
            stream_through(3, 20, 4, 2, 16, Some(&ready))
        );
    }

    #[test]
    fn paper_stream_last_matches_stream() {
        for (issue, startup, rate, latency) in [(0, 20, 4, 0), (7, 0, 1, 3), (3, 5, 2, 9)] {
            for n in [0usize, 1, 2, 3, 4, 5, 63, 64, 65] {
                let want = PaperTiming.stream(issue, startup, rate, latency, n, None);
                assert_eq!(
                    PaperTiming.stream_last(issue, startup, rate, latency, n),
                    want.last().copied().unwrap_or(issue),
                    "issue {issue} startup {startup} rate {rate} latency {latency} n {n}"
                );
            }
        }
    }

    #[test]
    fn ideal_completes_everything_at_issue() {
        let done = IdealTiming.stream(7, 20, 1, 9, 5, None);
        assert_eq!(done, vec![7; 5]);
        let batched = IdealTiming.batched(7, 20, 9, &[2, 3], None);
        assert_eq!(batched, vec![7; 5]);
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
        let done = PaperTiming.batched(0, 10, 3, &[2, 1, 2], None);
        assert_eq!(done, vec![13, 13, 14, 15, 15]);
    }
}
