//! The timing primitive: streaming `n` elements through a pipelined unit.
//!
//! Every vector instruction in this simulator — memory, ALU, or STM — is
//! timed by pushing its elements through [`stream_through`]: the unit
//! accepts up to `rate` elements per cycle starting `startup` cycles after
//! issue, each element cannot be accepted before its input is ready
//! (chaining), and every accepted element completes `latency` cycles later.
//!
//! Input readiness is a borrowed [`Ready`] operand rather than a
//! materialised vector, and completions go into a buffer the caller
//! supplies, so timing an instruction allocates nothing of its own.

use std::ops::Range;

/// Per-element readiness of a streamed instruction's input operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ready<'a> {
    /// No input operand: every element is available at issue.
    None,
    /// Every element is available at cycle `t`: an unchained operand,
    /// seen whole at its producer's completion.
    At(u64),
    /// One chained register: element `i` is available at `r[i]`.
    One(&'a [u64]),
    /// Two chained registers: element `i` is available at the later of
    /// `a[i]` and `b[i]`.
    Max(&'a [u64], &'a [u64]),
}

impl Ready<'_> {
    /// True for [`Ready::None`]: the instruction has no input operand.
    pub fn is_none(&self) -> bool {
        matches!(self, Ready::None)
    }

    /// Latest availability over the elements in `range` (0 for an empty
    /// range): the readiness gate of one batched group.
    pub fn max_over(&self, range: Range<usize>) -> u64 {
        let max = |r: &[u64]| r.iter().copied().max().unwrap_or(0);
        match *self {
            Ready::None => 0,
            Ready::At(t) => {
                if range.is_empty() {
                    0
                } else {
                    t
                }
            }
            Ready::One(r) => max(&r[range]),
            Ready::Max(a, b) => max(&a[range.clone()]).max(max(&b[range])),
        }
    }

    /// Asserts a per-element operand covers exactly `n` elements.
    pub fn check_len(&self, n: usize) {
        match *self {
            Ready::None | Ready::At(_) => {}
            Ready::One(r) => assert_eq!(r.len(), n, "input_ready length mismatch"),
            Ready::Max(a, b) => {
                assert_eq!(a.len(), n, "input_ready length mismatch");
                assert_eq!(b.len(), n, "input_ready length mismatch");
            }
        }
    }
}

/// The shape of a streamed instruction, independent of when it issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stream {
    /// Dead time before the first element can be accepted (e.g. the
    /// 20-cycle memory startup).
    pub startup: u64,
    /// Slots accepted per cycle (≥ 1).
    pub rate: u64,
    /// Pipeline depth from acceptance to completion.
    pub latency: u64,
    /// Elements streamed.
    pub n: usize,
    /// Slots each element occupies (≥ 1): a read-modify-write element
    /// moves two words on a one-word-per-cycle port. An element's slots
    /// share its readiness and complete separately.
    pub slots: usize,
}

impl Stream {
    /// A stream of `n` one-slot elements.
    pub fn new(startup: u64, rate: u64, latency: u64, n: usize) -> Self {
        Stream {
            startup,
            rate,
            latency,
            n,
            slots: 1,
        }
    }

    /// Completion times the stream produces: one per slot.
    pub fn len(&self) -> usize {
        self.n * self.slots
    }

    /// True when the stream moves nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Completion times of stream `s` issued at `issue`, one per slot,
/// written into `out` (cleared first).
///
/// The unit accepts up to `s.rate` slots per cycle from `issue +
/// s.startup`; no slot is accepted before its element's readiness under
/// `ready`; each accepted slot completes `s.latency` cycles later.
pub fn stream_through(issue: u64, s: Stream, ready: Ready<'_>, out: &mut Vec<u64>) {
    assert!(s.rate >= 1, "rate must be at least one element per cycle");
    assert!(s.slots >= 1, "an element occupies at least one slot");
    ready.check_len(s.n);
    out.clear();
    out.resize(s.len(), 0);
    let start = issue + s.startup;
    match ready {
        Ready::None => accept(start, s, std::iter::repeat_n(0, s.n), out),
        Ready::At(t) => accept(start, s, std::iter::repeat_n(t, s.n), out),
        Ready::One(r) => accept(start, s, r.iter().copied(), out),
        Ready::Max(a, b) => accept(start, s, a.iter().zip(b).map(|(x, y)| *x.max(y)), out),
    }
}

/// The acceptance loop from cycle `t`: element `i`, available at the
/// `i`-th item of `avail`, fills the `i`-th run of `s.slots` entries of
/// `out`.
#[inline(always)]
fn accept(t: u64, s: Stream, avail: impl Iterator<Item = u64>, out: &mut [u64]) {
    let mut unit = Acceptor { t, used: 0, s };
    for (a, slots) in avail.zip(out.chunks_exact_mut(s.slots)) {
        unit.wait(a);
        for slot in slots {
            *slot = unit.accept();
        }
    }
}

/// A unit's acceptance state: the cycle currently accepting and the
/// slots it has taken.
struct Acceptor {
    t: u64,
    used: u64,
    s: Stream,
}

impl Acceptor {
    /// An element not ready until `a` stalls acceptance to a fresh cycle.
    #[inline(always)]
    fn wait(&mut self, a: u64) {
        if a > self.t {
            self.t = a;
            self.used = 0;
        }
    }

    /// Accepts one slot; returns its completion time.
    #[inline(always)]
    fn accept(&mut self) -> u64 {
        if self.used == self.s.rate {
            self.t += 1;
            self.used = 0;
        }
        self.used += 1;
        self.t + self.s.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The duration, measured from `issue`, until the last element of a
    /// stream completes — `0` for an empty stream.
    fn stream_span(issue: u64, completion: &[u64]) -> u64 {
        completion.last().map_or(0, |&last| last + 1 - issue)
    }

    fn run(issue: u64, startup: u64, rate: u64, latency: u64, n: usize, ready: Ready) -> Vec<u64> {
        let mut out = Vec::new();
        stream_through(
            issue,
            Stream::new(startup, rate, latency, n),
            ready,
            &mut out,
        );
        out
    }

    #[test]
    fn paper_contiguous_load_example() {
        // 64 one-word elements, startup 20, 4 words/cycle: 36 cycles total.
        let done = run(0, 20, 4, 0, 64, Ready::None);
        assert_eq!(stream_span(0, &done), 36);
        assert_eq!(done[0], 20);
        assert_eq!(done[3], 20);
        assert_eq!(done[4], 21);
    }

    #[test]
    fn paper_indexed_load_example() {
        // 64 elements at 1 word/cycle: 20 + 64 = 84 cycles.
        let done = run(0, 20, 1, 0, 64, Ready::None);
        assert_eq!(stream_span(0, &done), 84);
    }

    #[test]
    fn issue_offset_shifts_everything() {
        let a = run(0, 5, 2, 1, 6, Ready::None);
        let b = run(100, 5, 2, 1, 6, Ready::None);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x + 100, *y);
        }
    }

    #[test]
    fn chaining_throttles_to_producer() {
        // Producer delivers one element every 3 cycles; consumer rate 4
        // must follow the producer, not its own rate.
        let ready: Vec<u64> = (0..8).map(|i| 30 + 3 * i).collect();
        let done = run(0, 0, 4, 2, 8, Ready::One(&ready));
        for (i, d) in done.iter().enumerate() {
            assert_eq!(*d, 30 + 3 * i as u64 + 2);
        }
    }

    #[test]
    fn consumer_rate_limits_fast_producer() {
        // All inputs ready at cycle 10; rate 2 → pairs complete together.
        let done = run(0, 0, 2, 0, 6, Ready::At(10));
        assert_eq!(done, vec![10, 10, 11, 11, 12, 12]);
    }

    #[test]
    fn two_sources_gate_on_the_later() {
        let (a, b) = ([5u64, 30, 0], [20u64, 1, 40]);
        let done = run(0, 0, 4, 0, 3, Ready::Max(&a, &b));
        assert_eq!(done, vec![20, 30, 40]);
    }

    #[test]
    fn slots_share_their_element_readiness() {
        // Two slots per element at one slot per cycle: each element takes
        // two cycles, gated only by its own readiness.
        let ready = [0u64, 0, 10];
        let mut out = Vec::new();
        let s = Stream {
            slots: 2,
            ..Stream::new(0, 1, 0, 3)
        };
        stream_through(0, s, Ready::One(&ready), &mut out);
        assert_eq!(out, vec![0, 1, 2, 3, 10, 11]);
    }

    #[test]
    fn empty_stream() {
        let done = run(5, 20, 4, 0, 0, Ready::None);
        assert!(done.is_empty());
        assert_eq!(stream_span(5, &done), 0);
    }

    #[test]
    fn completions_are_monotone() {
        let ready: Vec<u64> = vec![50, 10, 60, 12, 70, 13];
        let done = run(0, 4, 2, 3, 6, Ready::One(&ready));
        assert!(done.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn more_bandwidth_is_never_slower() {
        let ready: Vec<u64> = (0..32).map(|i| (i * 7) % 90).collect();
        let slow = run(0, 10, 1, 2, 32, Ready::One(&ready));
        let fast = run(0, 10, 4, 2, 32, Ready::One(&ready));
        for (s, f) in slow.iter().zip(&fast) {
            assert!(f <= s);
        }
    }

    #[test]
    fn max_over_gates_groups() {
        let (a, b) = ([1u64, 9, 3], [4u64, 2, 8]);
        assert_eq!(Ready::None.max_over(0..3), 0);
        assert_eq!(Ready::At(7).max_over(0..2), 7);
        assert_eq!(Ready::At(7).max_over(1..1), 0);
        assert_eq!(Ready::One(&a).max_over(1..3), 9);
        assert_eq!(Ready::Max(&a, &b).max_over(2..3), 8);
        assert_eq!(Ready::Max(&a, &b).max_over(0..0), 0);
    }
}
