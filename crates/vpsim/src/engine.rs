//! The vector execution engine: functional semantics + per-element timing.
//!
//! Kernels are ordinary Rust functions that call the `v_*` methods below —
//! the embedded equivalent of the paper's hand-coded vector assembly. Each
//! call (1) performs the real data movement on [`Memory`] and (2) computes
//! per-element completion times, respecting functional-unit occupancy and
//! vector chaining. The engine's final cycle count is the time the last
//! element of the last instruction completes.

use crate::config::{MidRunFlip, VpConfig};
use crate::mem::Memory;
use crate::stats::{EngineStats, FuBusy, StallBreakdown, StallCauses};
use crate::stream::{Ready, Stream};
use crate::timing::{TimingKind, TimingModel};
use stm_obs::{Category, Lane, Recorder};

/// Typed abort payload: the engine exceeded its configured cycle budget
/// ([`VpConfig::cycle_budget`]).
///
/// The engine aborts by unwinding with this struct as the panic payload
/// (via `std::panic::panic_any`), so a harness that `catch_unwind`s a
/// kernel can downcast the payload and report a typed deadline error
/// instead of a generic panic. The check runs at every watchdog point —
/// instruction issue, serial phases, STM stalls — so a runaway kernel is
/// stopped within one instruction of crossing the budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlineExceeded {
    /// The configured budget in cycles.
    pub budget: u64,
    /// The simulated cycle count at the watchdog point that fired.
    pub cycles: u64,
}

impl std::fmt::Display for DeadlineExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cycle budget exceeded: {} cycles > budget {}",
            self.cycles, self.budget
        )
    }
}

/// Why the in-order front end was not issuing during an interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StallKind {
    /// Waiting for a busy functional-unit port to free.
    Port,
    /// Blocked on an STM barrier (`Engine::stall_until`).
    Stm,
    /// Executing scalar/control code (loop overhead, serial phases).
    Scalar,
}

/// Per-port stall accounting state: the running bucket totals plus the
/// port's occupancy edge.
#[derive(Debug, Clone, Copy, Default)]
struct PortAcct {
    busy: u64,
    chain_wait: u64,
    port_wait: u64,
    stm_wait: u64,
    scalar_wait: u64,
    /// End of this port's latest occupancy interval.
    last_end: u64,
}

impl PortAcct {
    /// Charges the part of the front-end stall `[start, end)` that falls
    /// in this port's idle gap, i.e. after its `last_end`. Stalls are
    /// charged as they happen: a stall ends at or before the next issue
    /// on any port, and `last_end` moves only when this port retires, so
    /// every stall lies wholly before the port's next gap closes. Gap
    /// time no stall covers is left for the `idle` bucket (computed as
    /// the remainder in [`Engine::stall_breakdown`]).
    fn charge(&mut self, start: u64, end: u64, kind: StallKind) {
        let d = end.saturating_sub(start.max(self.last_end));
        match kind {
            StallKind::Port => self.port_wait += d,
            StallKind::Stm => self.stm_wait += d,
            StallKind::Scalar => self.scalar_wait += d,
        }
    }

    /// The buckets charged since the `earlier` snapshot of this account
    /// (`last_end` is timing state, not a bucket, and stays 0).
    fn since(&self, earlier: &PortAcct) -> PortAcct {
        PortAcct {
            busy: self.busy - earlier.busy,
            chain_wait: self.chain_wait - earlier.chain_wait,
            port_wait: self.port_wait - earlier.port_wait,
            stm_wait: self.stm_wait - earlier.stm_wait,
            scalar_wait: self.scalar_wait - earlier.scalar_wait,
            last_end: 0,
        }
    }

    /// Adds the buckets of `delta` (a [`PortAcct::since`] difference).
    fn merge(&mut self, delta: &PortAcct) {
        self.busy += delta.busy;
        self.chain_wait += delta.chain_wait;
        self.port_wait += delta.port_wait;
        self.stm_wait += delta.stm_wait;
        self.scalar_wait += delta.scalar_wait;
    }

    /// Cycles the port held an instruction (busy plus chaining wait).
    fn occupancy(&self) -> u64 {
        self.busy + self.chain_wait
    }

    /// Folds the account into a [`StallCauses`] row over a run of
    /// `total` cycles, leaving the uncovered remainder as `idle`.
    fn causes(&self, total: u64) -> StallCauses {
        let attributed =
            self.busy + self.chain_wait + self.port_wait + self.stm_wait + self.scalar_wait;
        debug_assert!(
            attributed <= total,
            "stall accounting over-attributed: {attributed} > {total}"
        );
        StallCauses {
            busy: self.busy,
            chain_wait: self.chain_wait,
            port_wait: self.port_wait,
            stm_wait: self.stm_wait,
            scalar_wait: self.scalar_wait,
            idle: total.saturating_sub(attributed),
        }
    }
}

/// The engine's timing state relative to its issue clock: the memory
/// port's, the ALU's and the STM's busy-until times, the completion
/// horizon, and the three ports' stall-account `last_end` edges, each as
/// its distance past the clock, clamped at 0.
///
/// Clamping is exact: the engine reads each of these times only as
/// `max(t, clock)` for a clock at or after the current one (at issue,
/// in [`Engine::cycles`] and in the stall charge) and otherwise only
/// overwrites or raises them (DESIGN §3 lists the sites), so a time
/// already in the past behaves like the clock itself. Two bodies
/// started in equal states with equal instruction shapes therefore time
/// identically, shifted by their start clocks. See [`crate::replay`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimingState([u64; STATE_WORDS]);

/// Words in a [`TimingState`].
const STATE_WORDS: usize = 7;

impl TimingState {
    /// The state as words (for memo keys).
    pub fn words(&self) -> &[u64] {
        &self.0
    }
}

/// The engine at the start of a timed loop body, which
/// [`crate::replay::Replay::record`] measures the body's effect against.
#[derive(Debug, Clone)]
pub struct TimingMark {
    pub(crate) state: TimingState,
    clock: u64,
    stall_end: u64,
    stats: EngineStats,
    accts: [PortAcct; 3],
}

/// What one loop body did to the engine's timing, relative to where it
/// started: replaying it from an equal [`TimingState`] leaves the engine
/// exactly as timing the body would.
#[derive(Debug, Clone)]
pub(crate) struct TimingRecord {
    /// Issue-clock advance.
    advance: u64,
    /// Final state, relative to the final clock.
    end: [u64; STATE_WORDS],
    /// [`Engine::cycles`] at the end, relative to the start clock.
    cycles: u64,
    /// End of the body's last front-end stall relative to the start
    /// clock, when it stalled at all.
    stall_end: Option<u64>,
    stats: EngineStats,
    /// Stall-bucket deltas of the memory port, the ALU and the STM.
    accts: [PortAcct; 3],
}

/// Functional-unit ports of the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fu {
    /// The vector load/store unit (one port: contiguous and indexed
    /// accesses serialize against each other, as on real VPs).
    Mem,
    /// The vector ALU.
    Alu,
    /// The Sparse matrix Transposition Mechanism (driven by `stm-core`).
    Stm,
}

/// Cost class of a vector instruction — the single place per-op statistics
/// are accounted (see [`Engine::account`]), instead of each `v_*` method
/// bumping counters by hand.
#[derive(Debug, Clone, Copy)]
enum OpClass {
    /// Contiguous memory stream moving `words` memory words.
    MemContig { words: u64 },
    /// Indexed (gather/scatter) memory stream moving `words` words.
    MemIndexed { words: u64 },
    /// Vector ALU operation.
    Alu,
    /// STM coprocessor operation.
    Stm,
    /// Untyped stream (external callers of [`Engine::run_stream`] on a
    /// unit the engine does not classify): element count only.
    Generic,
}

/// A vector register: element data plus per-element ready times.
///
/// The simulator does not model a named register file — kernels hold
/// `VReg` values directly, which is timing-equivalent as long as the
/// kernel respects the machine's register count (the paper's kernels use
/// two vector registers at a time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VReg {
    /// Element payloads (32-bit words).
    pub data: Vec<u32>,
    /// Cycle at which each element becomes readable (for chaining).
    pub ready: Vec<u64>,
}

impl VReg {
    /// A register whose elements are all available at cycle `at`.
    pub fn ready_at(data: Vec<u32>, at: u64) -> Self {
        let ready = vec![at; data.len()];
        VReg { data, ready }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the register holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Cycle at which the whole register is available.
    pub fn last_ready(&self) -> u64 {
        self.ready.iter().copied().max().unwrap_or(0)
    }

    /// A sub-register view (copy) of elements `range` — what `ssvl` +
    /// register addressing give a strip-mined loop.
    pub fn slice(&self, range: std::ops::Range<usize>) -> VReg {
        VReg {
            data: self.data[range.clone()].to_vec(),
            ready: self.ready[range].to_vec(),
        }
    }

    fn assert_same_len(&self, other: &VReg) {
        assert_eq!(self.len(), other.len(), "vector length mismatch");
    }
}

/// The vector processor engine.
#[derive(Debug, Clone)]
pub struct Engine {
    cfg: VpConfig,
    mem: Memory,
    /// Next instruction-issue cycle.
    clock: u64,
    /// Per-memory-port busy-until cycles (the paper's machine has one).
    mem_busy: Vec<u64>,
    /// Busy-until cycles of the ALU and the STM.
    busy: [u64; 2],
    /// Latest completion observed so far.
    horizon: u64,
    stats: EngineStats,
    /// End of the latest front-end stall (stalls arrive in order and
    /// never overlap; checked in debug builds).
    stall_end: u64,
    /// Per-memory-port stall accounts (parallel to `mem_busy`).
    mem_acct: Vec<PortAcct>,
    /// Stall accounts of the ALU and STM ports.
    fu_acct: [PortAcct; 2],
    /// The armed-but-not-yet-fired mid-run bit flip, if any (disarmed
    /// once it fires).
    armed_flip: Option<MidRunFlip>,
    /// Structured observability sink (no-op unless a live recorder is
    /// installed via [`Engine::set_recorder`]).
    obs: Recorder,
    /// The timing model completing every instruction (see [`crate::timing`]).
    timing: &'static dyn TimingModel,
    /// Completion times of the latest instruction whose completions no
    /// register keeps (stores, STM transfers): reused, so those
    /// instructions allocate nothing.
    done: Vec<u64>,
}

impl Engine {
    /// Creates an engine over a memory with the given machine config and
    /// the paper's timing model.
    pub fn new(cfg: VpConfig, mem: Memory) -> Self {
        Self::with_timing(cfg, mem, TimingKind::default())
    }

    /// Creates an engine with an explicit timing model. Functional results
    /// are identical across models; only completion times differ.
    pub fn with_timing(cfg: VpConfig, mem: Memory, timing: TimingKind) -> Self {
        cfg.validate().expect("invalid machine configuration");
        let ports = cfg.mem_ports;
        let armed_flip = cfg.mid_run_flip;
        Engine {
            cfg,
            mem,
            clock: 0,
            mem_busy: vec![0; ports],
            busy: [0; 2],
            horizon: 0,
            stats: EngineStats::default(),
            stall_end: 0,
            mem_acct: vec![PortAcct::default(); ports],
            fu_acct: [PortAcct::default(); 2],
            armed_flip,
            obs: Recorder::disabled(),
            timing: timing.model(),
            done: Vec::new(),
        }
    }

    /// The timing model this engine runs under.
    pub fn timing(&self) -> &'static dyn TimingModel {
        self.timing
    }

    /// Installs a structured-event recorder: every retired instruction
    /// becomes a `Complete` span on its functional-unit lane, serial
    /// phases land on the scalar lane. A disabled recorder (the default)
    /// records nothing.
    pub fn set_recorder(&mut self, rec: Recorder) {
        self.obs = rec;
    }

    /// The installed observability recorder (shared handle).
    pub fn recorder(&self) -> &Recorder {
        &self.obs
    }

    /// Per-functional-unit occupancy (busy plus chaining wait) of the
    /// run so far, read off the stall accounts; memory sums its ports.
    pub fn fu_busy(&self) -> FuBusy {
        FuBusy {
            mem: self.mem_acct.iter().map(PortAcct::occupancy).sum(),
            alu: self.fu_acct[0].occupancy(),
            stm: self.fu_acct[1].occupancy(),
        }
    }

    /// Per-port stall-cause breakdown of the run so far: every port's
    /// cycles split into busy / chaining wait / port-conflict wait /
    /// STM-barrier wait / scalar wait / idle, each row summing exactly
    /// to [`Engine::cycles`]. Purely observational — calling it never
    /// perturbs timing.
    pub fn stall_breakdown(&self) -> StallBreakdown {
        let total = self.cycles();
        StallBreakdown {
            mem: self.mem_acct.iter().map(|a| a.causes(total)).collect(),
            alu: self.fu_acct[0].causes(total),
            stm: self.fu_acct[1].causes(total),
            cycles: total,
        }
    }

    /// Machine configuration.
    pub fn cfg(&self) -> &VpConfig {
        &self.cfg
    }

    /// Shared memory (read access).
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Shared memory (write access, e.g. for the scalar core phases).
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Consumes the engine, returning the memory (for result decoding).
    pub fn into_mem(self) -> Memory {
        self.mem
    }

    /// Total cycles elapsed: the later of the issue clock and the last
    /// element completion.
    pub fn cycles(&self) -> u64 {
        self.horizon.max(self.clock)
    }

    /// Run statistics so far.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Run statistics with the guarded-memory OOB event count folded in.
    /// Kernels report this snapshot so corrupted runs expose their fault
    /// activity alongside the timing numbers.
    pub fn stats_snapshot(&self) -> EngineStats {
        EngineStats {
            mem_oob_events: self.mem.oob_events(),
            ..self.stats
        }
    }

    /// The first out-of-bounds access the guarded memory recorded, if any.
    pub fn mem_fault(&self) -> Option<crate::mem::MemFault> {
        self.mem.fault()
    }

    /// The timing state relative to the issue clock, or `None` where
    /// replaying a recorded body would not be exact: under a live
    /// recorder (replay emits no spans), with a mid-run flip still armed
    /// (it fires at a watchdog point inside some body), and with more
    /// than one memory port (port choice reads the raw busy order).
    pub fn timing_state(&self) -> Option<TimingState> {
        if self.obs.is_enabled() || self.armed_flip.is_some() || self.mem_busy.len() != 1 {
            return None;
        }
        Some(TimingState(self.relative_times()))
    }

    /// The state's times, each as its clamped distance past the clock.
    fn relative_times(&self) -> [u64; STATE_WORDS] {
        [
            self.mem_busy[0],
            self.busy[0],
            self.busy[1],
            self.horizon,
            self.mem_acct[0].last_end,
            self.fu_acct[0].last_end,
            self.fu_acct[1].last_end,
        ]
        .map(|t| t.saturating_sub(self.clock))
    }

    /// Marks the start of a loop body to record (`None` when replay is
    /// off; see [`Engine::timing_state`]).
    pub(crate) fn timing_mark(&self) -> Option<TimingMark> {
        Some(TimingMark {
            state: self.timing_state()?,
            clock: self.clock,
            stall_end: self.stall_end,
            stats: self.stats,
            accts: [self.mem_acct[0], self.fu_acct[0], self.fu_acct[1]],
        })
    }

    /// What the body timed since `mark` did to the engine.
    pub(crate) fn timing_record(&self, mark: &TimingMark) -> TimingRecord {
        let accts = [self.mem_acct[0], self.fu_acct[0], self.fu_acct[1]];
        TimingRecord {
            advance: self.clock - mark.clock,
            end: self.relative_times(),
            cycles: self.cycles() - mark.clock,
            stall_end: (self.stall_end != mark.stall_end).then(|| self.stall_end - mark.clock),
            stats: self.stats.since(&mark.stats),
            accts: std::array::from_fn(|k| accts[k].since(&mark.accts[k])),
        }
    }

    /// Applies `rec`, recorded from the current [`TimingState`], as if
    /// its body had been timed here. Refused (returns false, changes
    /// nothing) when the body would cross the cycle budget: the caller
    /// then times it, so the watchdog fires where it always does.
    pub(crate) fn replay_timing(&mut self, rec: &TimingRecord) -> bool {
        let start = self.clock;
        if self
            .cfg
            .cycle_budget
            .is_some_and(|b| start + rec.cycles > b)
        {
            return false;
        }
        self.clock = start + rec.advance;
        let [mem, alu, stm, horizon, mem_end, alu_end, stm_end] = rec.end.map(|t| self.clock + t);
        self.mem_busy[0] = mem;
        self.busy = [alu, stm];
        self.horizon = horizon;
        self.mem_acct[0].last_end = mem_end;
        self.fu_acct[0].last_end = alu_end;
        self.fu_acct[1].last_end = stm_end;
        if let Some(t) = rec.stall_end {
            self.stall_end = start + t;
        }
        self.stats.merge(&rec.stats);
        self.mem_acct[0].merge(&rec.accts[0]);
        self.fu_acct[0].merge(&rec.accts[1]);
        self.fu_acct[1].merge(&rec.accts[2]);
        true
    }

    /// Charges the front-end stall `[start, end)` tagged `kind` to every
    /// port's idle gap (see [`PortAcct::charge`]). The issue clock is
    /// monotone and every stall ends at (or before) the post-advance
    /// clock, so stalls arrive sorted and disjoint by construction.
    fn note_stall(&mut self, start: u64, end: u64, kind: StallKind) {
        if end > start {
            debug_assert!(self.stall_end <= start, "stalls out of order");
            self.stall_end = end;
            for acct in self.mem_acct.iter_mut().chain(&mut self.fu_acct) {
                acct.charge(start, end, kind);
            }
        }
    }

    /// The deadline watchdog: unwinds with a typed [`DeadlineExceeded`]
    /// payload once the run has consumed more cycles than the configured
    /// budget. Called at every point the engine advances its timeline, so
    /// the abort happens within one watchdog interval (one instruction /
    /// one serial phase) of crossing the budget. A no-op without a budget.
    fn check_deadline(&self) {
        if let Some(budget) = self.cfg.cycle_budget {
            let cycles = self.cycles();
            if cycles > budget {
                std::panic::panic_any(DeadlineExceeded { budget, cycles });
            }
        }
    }

    /// Fires the armed mid-run bit flip once the clock has passed its
    /// threshold: a direct XOR into memory with no guard, no fault
    /// record, and no cycle charge — a modelled soft error is silent by
    /// construction. A no-op when nothing is armed (the common case).
    fn maybe_flip(&mut self) {
        if let Some(f) = self.armed_flip {
            if self.cycles() >= f.after_cycle {
                self.armed_flip = None;
                self.mem.corrupt(f.word, 1 << (f.bit & 31));
            }
        }
    }

    /// The combined watchdog run at every timeline advance: fire any due
    /// mid-run fault, then enforce the cycle budget.
    fn watchdog(&mut self) {
        self.maybe_flip();
        self.check_deadline();
    }

    /// Charges scalar loop-control overhead on the issue timeline (it can
    /// overlap in-flight vector work, like scalar code on a decoupled VP).
    pub fn loop_overhead(&mut self) {
        let c = self.timing.scalar_cycles(self.cfg.loop_overhead);
        self.note_stall(self.clock, self.clock + c, StallKind::Scalar);
        self.clock += c;
        self.stats.overhead_cycles += c;
        self.watchdog();
    }

    /// Charges an arbitrary number of scalar cycles on the issue timeline.
    pub fn scalar_cycles(&mut self, cycles: u64) {
        let c = self.timing.scalar_cycles(cycles);
        self.note_stall(self.clock, self.clock + c, StallKind::Scalar);
        self.clock += c;
        self.stats.overhead_cycles += c;
        self.watchdog();
    }

    /// Serializes with a scalar-core phase of `cycles` length: everything
    /// in flight completes, then the scalar phase runs to completion.
    /// (The drain up to `start` is in-flight vector work — ports are
    /// either occupied or idle there — so only the scalar phase itself
    /// lands on the stall timeline.)
    pub fn advance_serial(&mut self, cycles: u64) {
        let c = self.timing.scalar_cycles(cycles);
        let start = self.cycles();
        self.note_stall(start, start + c, StallKind::Scalar);
        self.clock = start + c;
        self.horizon = self.horizon.max(self.clock);
        self.stats.scalar_cycles += c;
        if self.obs.is_enabled() {
            self.obs
                .complete(Lane::Scalar, Category::Scalar, "serial", start, c, 0);
        }
        self.watchdog();
    }

    /// Blocks instruction issue until cycle `t` (used by the STM's
    /// fill-before-read barrier).
    pub fn stall_until(&mut self, t: u64) {
        self.note_stall(self.clock, t, StallKind::Stm);
        self.clock = self.clock.max(t);
        self.watchdog();
    }

    /// Issues an instruction on `fu`: waits for the issue slot and for a
    /// unit port to be free; returns the start cycle and the port taken.
    fn issue(&mut self, fu: Fu) -> (u64, usize) {
        self.watchdog();
        let (port, unit_free) = match fu {
            Fu::Mem => {
                let (port, &busy) = self
                    .mem_busy
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &b)| b)
                    .expect("at least one memory port");
                (port, busy)
            }
            Fu::Alu => (0, self.busy[0]),
            Fu::Stm => (0, self.busy[1]),
        };
        let t = self.clock.max(unit_free);
        // The front end waited for the chosen port itself to free; on
        // every *other* port this interval shows up as port-conflict
        // wait (the chosen port's own gap here is empty).
        self.note_stall(self.clock, t, StallKind::Port);
        self.clock = t + self.timing.issue_cycles(&self.cfg);
        self.stats.instructions += 1;
        (t, port)
    }

    /// The one place per-instruction statistics are charged.
    fn account(&mut self, class: OpClass, elements: u64) {
        self.stats.elements += elements;
        match class {
            OpClass::MemContig { words } => {
                self.stats.mem_contig_ops += 1;
                self.stats.mem_words += words;
            }
            OpClass::MemIndexed { words } => {
                self.stats.mem_indexed_ops += 1;
                self.stats.mem_words += words;
            }
            OpClass::Alu => self.stats.alu_ops += 1,
            OpClass::Stm => self.stats.stm_ops += 1,
            OpClass::Generic => {}
        }
    }

    /// Retires an instruction: updates port occupancy, the horizon, and
    /// the port's stall account. `unconstrained_last` is the completion of
    /// the same instruction re-timed without operand constraints (`None`
    /// when the instruction had no chained inputs); the difference
    /// between actual and unconstrained occupancy is charged as
    /// chaining wait.
    fn retire(
        &mut self,
        op: &'static str,
        fu: Fu,
        port: usize,
        issue: u64,
        completion: &[u64],
        unconstrained_last: Option<u64>,
    ) {
        if let Some(&last) = completion.last() {
            let (acct, busy) = match fu {
                Fu::Mem => (&mut self.mem_acct[port], &mut self.mem_busy[port]),
                Fu::Alu => (&mut self.fu_acct[0], &mut self.busy[0]),
                Fu::Stm => (&mut self.fu_acct[1], &mut self.busy[1]),
            };
            let occupancy = last + 1 - issue.min(last);
            let pure = unconstrained_last
                .map(|ml| ml + 1 - issue.min(ml))
                .unwrap_or(occupancy)
                .min(occupancy);
            acct.busy += pure;
            acct.chain_wait += occupancy - pure;
            acct.last_end = last + 1;
            *busy = last + 1;
            self.horizon = self.horizon.max(last + 1);
        }
        if self.obs.is_enabled() {
            let (lane, cat) = match fu {
                Fu::Mem => (Lane::Mem(port as u8), Category::Mem),
                Fu::Alu => (Lane::Alu, Category::Alu),
                Fu::Stm => (Lane::Stm, Category::Stm),
            };
            let last = completion.last().copied().unwrap_or(issue);
            let dur = (last + 1).saturating_sub(issue);
            self.obs
                .complete(lane, cat, op, issue, dur, completion.len() as u64);
            self.obs.observe("instr.cycles", dur);
        }
    }

    /// Availability of a source register under the chaining setting:
    /// with chaining each element forwards individually; without, the
    /// consumer sees every element at the producer's completion.
    pub fn ready<'a>(&self, reg: &'a VReg) -> Ready<'a> {
        if self.cfg.chaining {
            Ready::One(&reg.ready)
        } else {
            Ready::At(reg.last_ready())
        }
    }

    /// Availability of two source registers (a two-source chain): each
    /// element waits for the later of its two operands.
    pub fn ready2<'a>(&self, a: &'a VReg, b: &'a VReg) -> Ready<'a> {
        a.assert_same_len(b);
        if self.cfg.chaining {
            Ready::Max(&a.ready, &b.ready)
        } else {
            Ready::At(a.last_ready().max(b.last_ready()))
        }
    }

    /// Runs a *batched* stream on `fu`: the unit accepts one whole group
    /// per cycle (a group being, e.g., one STM buffer transfer), each group
    /// no earlier than its elements' readiness; every element completes
    /// `latency` cycles after its group is accepted. Returns per-element
    /// completion times, flattened in group order; they live in the
    /// engine's completion buffer until the next instruction.
    pub fn run_batched(
        &mut self,
        op: &'static str,
        fu: Fu,
        startup: u64,
        latency: u64,
        group_sizes: &[usize],
        ready: Ready<'_>,
    ) -> &[u64] {
        let n: usize = group_sizes.iter().sum();
        ready.check_len(n);
        let (issue, port) = self.issue(fu);
        let mut done = std::mem::take(&mut self.done);
        self.timing
            .batched(issue, startup, latency, group_sizes, ready, &mut done);
        let pure_last = (!ready.is_none()).then(|| {
            self.timing
                .batched_last(issue, startup, latency, group_sizes)
        });
        self.retire(op, fu, port, issue, &done, pure_last);
        self.account(Self::unit_class(fu), n as u64);
        self.done = done;
        &self.done
    }

    /// Generic stream execution on a functional unit — also the hook the
    /// STM coprocessor in `stm-core` uses to time its instructions.
    /// `op` is the mnemonic its recorder span carries. Returns
    /// the completion times, held in the engine's completion buffer
    /// until the next instruction.
    pub fn run_stream(&mut self, op: &'static str, fu: Fu, s: Stream, ready: Ready<'_>) -> &[u64] {
        self.exec_done(op, fu, Self::unit_class(fu), s, ready);
        &self.done
    }

    /// The cost class of an untyped stream on `fu`.
    fn unit_class(fu: Fu) -> OpClass {
        if fu == Fu::Stm {
            OpClass::Stm
        } else {
            OpClass::Generic
        }
    }

    /// The single stream funnel every `v_*` instruction goes through:
    /// issue, model-supplied completion times written into `out`,
    /// retirement, and cost accounting (`s.n` elements are charged to
    /// statistics).
    fn exec_stream(
        &mut self,
        op: &'static str,
        fu: Fu,
        class: OpClass,
        s: Stream,
        ready: Ready<'_>,
        out: &mut Vec<u64>,
    ) {
        let (issue, port) = self.issue(fu);
        self.timing.stream(issue, s, ready, out);
        let pure_last = (!ready.is_none()).then(|| self.timing.stream_last(issue, s));
        self.retire(op, fu, port, issue, out, pure_last);
        self.account(class, s.n as u64);
    }

    /// [`Engine::exec_stream`] into the engine's completion buffer, for
    /// instructions whose completions no register keeps.
    fn exec_done(&mut self, op: &'static str, fu: Fu, class: OpClass, s: Stream, ready: Ready<'_>) {
        let mut done = std::mem::take(&mut self.done);
        self.exec_stream(op, fu, class, s, ready, &mut done);
        self.done = done;
    }

    /// A store: streams `s` on the memory port into the completion
    /// buffer and returns the completion time of its last slot (0 when
    /// it moves nothing).
    fn store(&mut self, op: &'static str, class: OpClass, s: Stream, ready: Ready<'_>) -> u64 {
        self.exec_done(op, Fu::Mem, class, s, ready);
        self.done.last().copied().unwrap_or(0)
    }

    /// Completes a load or ALU result holding `data`: its ready times
    /// are the stream's completions, its only allocation besides `data`.
    fn produce(
        &mut self,
        op: &'static str,
        fu: Fu,
        class: OpClass,
        s: Stream,
        ready: Ready<'_>,
        data: Vec<u32>,
    ) -> VReg {
        let mut done = Vec::with_capacity(s.len());
        self.exec_stream(op, fu, class, s, ready, &mut done);
        VReg { data, ready: done }
    }

    /// A memory stream of `n` elements at `rate` after the memory startup.
    fn mem_stream(&self, rate: u64, n: usize) -> Stream {
        Stream::new(self.cfg.mem_startup, rate, 0, n)
    }

    // ------------------------------------------------------------------
    // Vector memory instructions
    // ------------------------------------------------------------------

    /// `v_ld`: contiguous load of `n` one-word elements from `addr`.
    pub fn v_ld(&mut self, addr: u32, n: usize) -> VReg {
        let data = self.mem.read_block(addr, n);
        let s = self.mem_stream(self.cfg.contig_rate(1), n);
        let class = OpClass::MemContig { words: n as u64 };
        self.produce("v_ld", Fu::Mem, class, s, Ready::None, data)
    }

    /// `v_st`: contiguous store of a register to `addr`. Returns the
    /// completion time of the last element.
    pub fn v_st(&mut self, addr: u32, src: &VReg) -> u64 {
        self.mem.write_block(addr, &src.data);
        let n = src.len();
        let s = self.mem_stream(self.cfg.contig_rate(1), n);
        let class = OpClass::MemContig { words: n as u64 };
        self.store("v_st", class, s, self.ready(src))
    }

    /// `v_ld_strided`: loads `n` one-word elements starting at `addr`
    /// with a constant word stride — the access a *dense* transpose uses
    /// ("addressing a row-wise stored matrix with a stride equal to the
    /// number of rows", paper Section II). Non-unit strides go at the
    /// indexed rate (1 word/cycle), unit stride at the contiguous rate.
    pub fn v_ld_strided(&mut self, addr: u32, stride: u32, n: usize) -> VReg {
        let data: Vec<u32> = (0..n as u32)
            .map(|k| self.mem.read(addr.wrapping_add(k * stride)))
            .collect();
        let words = n as u64;
        let (rate, class) = if stride == 1 {
            (self.cfg.contig_rate(1), OpClass::MemContig { words })
        } else {
            (self.cfg.indexed_rate(1), OpClass::MemIndexed { words })
        };
        let s = self.mem_stream(rate, n);
        self.produce("v_ld_str", Fu::Mem, class, s, Ready::None, data)
    }

    /// `v_ldb`-style paired load: `n` two-word entries `[payload, pos]`
    /// streamed contiguously from `addr` into two registers. The stream
    /// rate honours `VpConfig::words_per_entry`.
    pub fn v_ld_pair(&mut self, addr: u32, n: usize) -> (VReg, VReg) {
        let (mut payload, mut pos) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for k in 0..n as u32 {
            payload.push(self.mem.read(addr + 2 * k));
            pos.push(self.mem.read(addr + 2 * k + 1));
        }
        let s = self.mem_stream(self.cfg.contig_rate(self.cfg.words_per_entry), n);
        let class = OpClass::MemContig {
            words: 2 * n as u64,
        };
        let payload = self.produce("v_ldb", Fu::Mem, class, s, Ready::None, payload);
        let pos = VReg {
            data: pos,
            ready: payload.ready.clone(),
        };
        (payload, pos)
    }

    /// `v_stb`-style paired store: writes `[payload, pos]` entries back to
    /// `addr` contiguously, chained on both source registers.
    pub fn v_st_pair(&mut self, addr: u32, payload: &VReg, pos: &VReg) -> u64 {
        payload.assert_same_len(pos);
        let n = payload.len();
        for (k, (&p, &q)) in (0..n as u32).zip(payload.data.iter().zip(&pos.data)) {
            self.mem.write(addr + 2 * k, p);
            self.mem.write(addr + 2 * k + 1, q);
        }
        let s = self.mem_stream(self.cfg.contig_rate(self.cfg.words_per_entry), n);
        let class = OpClass::MemContig {
            words: 2 * n as u64,
        };
        self.store("v_stb", class, s, self.ready2(payload, pos))
    }

    /// `v_ld_idx`: gather — element `i` loads from `base + idx[i]`.
    pub fn v_ld_idx(&mut self, base: u32, idx: &VReg) -> VReg {
        let data: Vec<u32> = idx
            .data
            .iter()
            .map(|&off| self.mem.read(base.wrapping_add(off)))
            .collect();
        let n = idx.len();
        let s = self.mem_stream(self.cfg.indexed_rate(1), n);
        let class = OpClass::MemIndexed { words: n as u64 };
        self.produce("v_ld_idx", Fu::Mem, class, s, self.ready(idx), data)
    }

    /// `v_st_idx`: scatter — element `i` stores `vals[i]` to `base + idx[i]`.
    ///
    /// When two elements of `idx` collide, the later element wins, matching
    /// left-to-right execution of the scalar loop being vectorized.
    pub fn v_st_idx(&mut self, vals: &VReg, base: u32, idx: &VReg) -> u64 {
        let ready = self.ready2(vals, idx);
        for (&v, &off) in vals.data.iter().zip(&idx.data) {
            self.mem.write(base.wrapping_add(off), v);
        }
        let n = vals.len();
        let s = self.mem_stream(self.cfg.indexed_rate(1), n);
        let class = OpClass::MemIndexed { words: n as u64 };
        self.store("v_st_idx", class, s, ready)
    }

    // ------------------------------------------------------------------
    // Vector ALU instructions
    // ------------------------------------------------------------------

    /// Shared timing/accounting path of every ALU instruction: `n`
    /// elements at `lanes` per cycle after the ALU pipeline fill.
    fn alu(&mut self, op: &'static str, ready: Ready<'_>, data: Vec<u32>) -> VReg {
        let s = Stream::new(self.cfg.alu_latency, self.cfg.lanes, 0, data.len());
        self.produce(op, Fu::Alu, OpClass::Alu, s, ready, data)
    }

    fn alu_unop(&mut self, op: &'static str, src: &VReg, f: impl Fn(u32) -> u32) -> VReg {
        let data = src.data.iter().map(|&x| f(x)).collect();
        self.alu(op, self.ready(src), data)
    }

    fn alu_binop(
        &mut self,
        op: &'static str,
        a: &VReg,
        b: &VReg,
        f: impl Fn(u32, u32) -> u32,
    ) -> VReg {
        let ready = self.ready2(a, b);
        let data = a.data.iter().zip(&b.data).map(|(&x, &y)| f(x, y)).collect();
        self.alu(op, ready, data)
    }

    /// `v_setimm`: broadcast an immediate into an `n`-element register.
    pub fn v_set_imm(&mut self, n: usize, value: u32) -> VReg {
        self.alu("v_setimm", Ready::None, vec![value; n])
    }

    /// `v_iota`: element `i` gets `start + i * step` (index generation).
    pub fn v_iota(&mut self, n: usize, start: u32, step: u32) -> VReg {
        let data = (0..n as u32)
            .map(|i| start.wrapping_add(i.wrapping_mul(step)))
            .collect();
        self.alu("v_iota", Ready::None, data)
    }

    /// `v_add_imm`: adds an immediate to every element (wrapping).
    pub fn v_add_imm(&mut self, src: &VReg, imm: u32) -> VReg {
        self.alu_unop("v_add_imm", src, |x| x.wrapping_add(imm))
    }

    /// `v_sll_imm`: logical left shift by an immediate.
    pub fn v_sll_imm(&mut self, src: &VReg, sh: u32) -> VReg {
        self.alu_unop("v_sll_imm", src, |x| x << sh)
    }

    /// `v_add`: element-wise addition of two registers (wrapping).
    pub fn v_add(&mut self, a: &VReg, b: &VReg) -> VReg {
        self.alu_binop("v_add", a, b, u32::wrapping_add)
    }

    /// `v_and_imm`: bitwise AND with an immediate (e.g. extracting the
    /// 8-bit column field of a packed HiSM position word).
    pub fn v_and_imm(&mut self, src: &VReg, mask: u32) -> VReg {
        self.alu_unop("v_and_imm", src, |x| x & mask)
    }

    /// `v_srl_imm`: logical right shift by an immediate (e.g. extracting
    /// the row field of a packed position word).
    pub fn v_srl_imm(&mut self, src: &VReg, sh: u32) -> VReg {
        self.alu_unop("v_srl_imm", src, |x| x >> sh)
    }

    /// `v_fmul`: element-wise IEEE-754 single-precision multiply (the
    /// elements are f32 bit patterns).
    pub fn v_fmul(&mut self, a: &VReg, b: &VReg) -> VReg {
        self.alu_binop("v_fmul", a, b, |x, y| {
            (f32::from_bits(x) * f32::from_bits(y)).to_bits()
        })
    }

    /// `v_fadd`: element-wise single-precision add.
    pub fn v_fadd(&mut self, a: &VReg, b: &VReg) -> VReg {
        self.alu_binop("v_fadd", a, b, |x, y| {
            (f32::from_bits(x) + f32::from_bits(y)).to_bits()
        })
    }

    /// `v_sca_f32`: indexed scatter-*accumulate* — element `i` performs
    /// `mem[base + idx[i]] +=f32 vals[i]`, left to right (so colliding
    /// indices accumulate correctly, like the sequential loop being
    /// vectorized). Each element is a read-modify-write: two words on the
    /// 1-word-per-cycle indexed port, i.e. half the scatter rate.
    pub fn v_scatter_add_f32(&mut self, vals: &VReg, base: u32, idx: &VReg) -> u64 {
        let ready = self.ready2(vals, idx);
        for (&v, &off) in vals.data.iter().zip(&idx.data) {
            let addr = base.wrapping_add(off);
            let acc = f32::from_bits(self.mem.read(addr)) + f32::from_bits(v);
            self.mem.write(addr, acc.to_bits());
        }
        // Two word slots per element on the indexed port.
        let n = vals.len();
        let s = Stream {
            slots: 2,
            ..self.mem_stream(self.cfg.mem_indexed_words_per_cycle, n)
        };
        let class = OpClass::MemIndexed {
            words: 2 * n as u64,
        };
        self.store("v_sca_f32", class, s, ready)
    }

    /// `v_cmp_eq_imm`: element-wise compare against an immediate,
    /// producing a 0/1 mask register (the mask-vector primitive of the
    /// paper's *rejected* vectorized histogram: "a mask vector `M_i[j]` is
    /// generated, so that `M_i[j] = 1` iff `JA[j] = i`").
    pub fn v_cmp_eq_imm(&mut self, src: &VReg, imm: u32) -> VReg {
        self.alu_unop("v_cmp_eq", src, |x| (x == imm) as u32)
    }

    /// `v_reduce_add`: sums a register into element 0 of a 1-element
    /// result via the log-step slide/add network (charged as
    /// `ceil(log2 n)` chained ALU passes, like the scan).
    pub fn v_reduce_add(&mut self, src: &VReg) -> VReg {
        let mut cur = src.clone();
        let mut k = 1usize;
        while k < cur.len() {
            let shifted = self.v_slide_up(&cur, k, 0);
            cur = self.v_add(&cur, &shifted);
            k *= 2;
        }
        let total = cur.data.last().copied().unwrap_or(0);
        let ready = cur.ready.last().copied().unwrap_or(0);
        VReg {
            data: vec![total],
            ready: vec![ready],
        }
    }

    /// `v_slide_up`: shifts elements towards higher indices by `k`,
    /// filling vacated slots with `fill` — the register-slide primitive
    /// the log-step scan-add (Wang et al. \[11\]) is built from.
    pub fn v_slide_up(&mut self, src: &VReg, k: usize, fill: u32) -> VReg {
        let n = src.len();
        let mut data = vec![fill; n];
        if k < n {
            data[k..n].copy_from_slice(&src.data[..n - k]);
        }
        self.alu("v_slide", self.ready(src), data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> Engine {
        Engine::new(VpConfig::paper(), Memory::new())
    }

    #[test]
    fn deadline_aborts_with_a_typed_payload() {
        let cfg = VpConfig {
            cycle_budget: Some(40),
            ..VpConfig::paper()
        };
        let caught = std::panic::catch_unwind(move || {
            let mut e = Engine::new(cfg, Memory::new());
            // Each 64-word load is 36 cycles; the second crosses the
            // budget and the third must never issue.
            for _ in 0..100 {
                e.v_ld(0, 64);
            }
        })
        .expect_err("budget must abort the run");
        let d = caught
            .downcast_ref::<DeadlineExceeded>()
            .expect("payload must be the typed DeadlineExceeded");
        assert_eq!(d.budget, 40);
        assert!(d.cycles > 40, "fired before the budget: {}", d.cycles);
        // Within one watchdog interval: one instruction past the budget.
        assert!(d.cycles <= 40 + 36, "fired late: {}", d.cycles);
        assert!(d.to_string().contains("budget 40"), "{d}");
    }

    #[test]
    fn deadline_covers_serial_and_stall_paths() {
        let cfg = VpConfig {
            cycle_budget: Some(10),
            ..VpConfig::paper()
        };
        for op in [
            (|e: &mut Engine| e.advance_serial(100)) as fn(&mut Engine),
            |e| e.scalar_cycles(100),
            |e| e.stall_until(100),
        ] {
            let cfg = cfg.clone();
            let caught = std::panic::catch_unwind(move || op(&mut Engine::new(cfg, Memory::new())))
                .expect_err("serial path must hit the watchdog");
            assert!(caught.downcast_ref::<DeadlineExceeded>().is_some());
        }
    }

    #[test]
    fn generous_deadline_is_cycle_invisible() {
        let mut plain = engine();
        let mut budgeted = Engine::new(
            VpConfig {
                cycle_budget: Some(u64::MAX),
                ..VpConfig::paper()
            },
            Memory::new(),
        );
        for e in [&mut plain, &mut budgeted] {
            e.v_ld(0, 64);
            e.loop_overhead();
            e.v_ld(64, 64);
        }
        assert_eq!(plain.cycles(), budgeted.cycles());
    }

    #[test]
    fn mem_model_contiguous_64_word_load_is_36_cycles() {
        // The paper's worked example (Section IV-A).
        let mut e = engine();
        let r = e.v_ld(0, 64);
        assert_eq!(r.last_ready() + 1, 36);
    }

    #[test]
    fn mem_model_indexed_64_word_load_is_84_cycles() {
        let mut e = engine();
        let idx = VReg::ready_at((0..64).collect(), 0);
        let r = e.v_ld_idx(0, &idx);
        assert_eq!(r.last_ready() + 1, 84);
    }

    #[test]
    fn load_reads_real_data() {
        let mut mem = Memory::new();
        mem.write_block(10, &[7, 8, 9]);
        let mut e = Engine::new(VpConfig::paper(), mem);
        let r = e.v_ld(10, 3);
        assert_eq!(r.data, vec![7, 8, 9]);
    }

    #[test]
    fn store_writes_real_data() {
        let mut e = engine();
        let r = VReg::ready_at(vec![1, 2, 3], 0);
        e.v_st(100, &r);
        assert_eq!(e.mem().read_block(100, 3), vec![1, 2, 3]);
    }

    #[test]
    fn strided_load_gathers_columns() {
        let mut mem = Memory::new();
        // 3x4 row-major matrix; column 1 = words 1, 5, 9.
        mem.write_block(0, &[0, 1, 2, 3, 10, 11, 12, 13, 20, 21, 22, 23]);
        let mut e = Engine::new(VpConfig::paper(), mem);
        let col = e.v_ld_strided(1, 4, 3);
        assert_eq!(col.data, vec![1, 11, 21]);
        // Non-unit stride runs at the 1-word/cycle indexed rate: 20+3.
        assert_eq!(col.last_ready() + 1, 23);
        let row = e.v_ld_strided(4, 1, 4);
        assert_eq!(row.data, vec![10, 11, 12, 13]);
    }

    #[test]
    fn pair_load_deinterleaves() {
        let mut mem = Memory::new();
        mem.write_block(0, &[10, 11, 20, 21, 30, 31]);
        let mut e = Engine::new(VpConfig::paper(), mem);
        let (payload, pos) = e.v_ld_pair(0, 3);
        assert_eq!(payload.data, vec![10, 20, 30]);
        assert_eq!(pos.data, vec![11, 21, 31]);
        // Default words_per_entry = 1: 4 entries/cycle → 20 + 1 = 21.
        assert_eq!(payload.last_ready() + 1, 21);
    }

    #[test]
    fn pair_load_rate_honours_words_per_entry() {
        let mut cfg = VpConfig::paper();
        cfg.words_per_entry = 2;
        let mut mem = Memory::new();
        mem.write_block(0, &[0; 12]);
        let mut e = Engine::new(cfg, mem);
        let (payload, _) = e.v_ld_pair(0, 6);
        // 6 entries of 2 charged words at 2 entries/cycle: 20 + 3 = 23.
        assert_eq!(payload.last_ready() + 1, 23);
    }

    #[test]
    fn pair_store_interleaves() {
        let mut e = engine();
        let payload = VReg::ready_at(vec![1, 2], 0);
        let pos = VReg::ready_at(vec![9, 8], 0);
        e.v_st_pair(50, &payload, &pos);
        assert_eq!(e.mem().read_block(50, 4), vec![1, 9, 2, 8]);
    }

    #[test]
    fn gather_scatter_round_trip() {
        let mut mem = Memory::new();
        mem.write_block(0, &[5, 6, 7, 8]);
        let mut e = Engine::new(VpConfig::paper(), mem);
        let idx = VReg::ready_at(vec![3, 1], 0);
        let g = e.v_ld_idx(0, &idx);
        assert_eq!(g.data, vec![8, 6]);
        e.v_st_idx(&g, 100, &idx);
        assert_eq!(e.mem().read(103), 8);
        assert_eq!(e.mem().read(101), 6);
    }

    #[test]
    fn scatter_collision_last_wins() {
        let mut e = engine();
        let idx = VReg::ready_at(vec![0, 0], 0);
        let vals = VReg::ready_at(vec![1, 2], 0);
        e.v_st_idx(&vals, 40, &idx);
        assert_eq!(e.mem().read(40), 2);
    }

    #[test]
    fn chaining_overlaps_load_and_alu() {
        // Load chained into an ALU op (different FUs): with chaining the
        // ALU consumes elements as they arrive; without, it waits for the
        // whole register.
        let run = |chaining: bool| {
            let mut cfg = VpConfig::paper();
            cfg.chaining = chaining;
            let mut e = Engine::new(cfg, Memory::new());
            let r = e.v_ld(0, 64);
            e.v_add_imm(&r, 1);
            e.cycles()
        };
        let chained = run(true);
        let unchained = run(false);
        assert!(chained < unchained, "{chained} !< {unchained}");
        // Chained: ALU tracks the memory stream, last element at 35 → 36.
        assert_eq!(chained, 36);
        // Unchained: ALU starts at the load's completion (cycle 35) and
        // pushes 64 elements at 4/cycle → 35 + 15 + 1 = 51.
        assert_eq!(unchained, 51);
    }

    #[test]
    fn mem_to_mem_chain_serializes_on_the_port() {
        // v_ld chained into v_st still serializes: there is one memory
        // port, so chaining cannot overlap two memory instructions.
        let mut e = engine();
        let r = e.v_ld(0, 64);
        e.v_st(1000, &r);
        assert_eq!(e.cycles(), 36 + 36);
    }

    #[test]
    fn dual_ported_memory_overlaps_independent_loads() {
        let mut cfg = VpConfig::paper();
        cfg.mem_ports = 2;
        let mut e = Engine::new(cfg, Memory::new());
        let a = e.v_ld(0, 64);
        let b = e.v_ld(1000, 64);
        // Both streams run concurrently on separate ports.
        assert!(b.last_ready() <= a.last_ready() + 2);
        assert_eq!(e.cycles(), 37); // 36 + 1 issue-slot skew
    }

    #[test]
    fn fu_occupancy_serializes_memory_ops() {
        let mut e = engine();
        let a = e.v_ld(0, 64);
        let b = e.v_ld(1000, 64);
        // Second load cannot start until the port frees.
        assert!(b.ready[0] > a.last_ready());
    }

    #[test]
    fn alu_ops_compute() {
        let mut e = engine();
        let a = e.v_iota(8, 5, 2);
        assert_eq!(a.data, vec![5, 7, 9, 11, 13, 15, 17, 19]);
        let b = e.v_add_imm(&a, 1);
        assert_eq!(b.data[0], 6);
        let c = e.v_add(&a, &b);
        assert_eq!(c.data[7], 19 + 20);
        let d = e.v_slide_up(&a, 2, 0);
        assert_eq!(d.data, vec![0, 0, 5, 7, 9, 11, 13, 15]);
        let s = e.v_sll_imm(&a, 1);
        assert_eq!(s.data[0], 10);
    }

    #[test]
    fn alu_and_mem_overlap() {
        // Independent ALU work can proceed while the memory port streams.
        let mut e = engine();
        let _ld = e.v_ld(0, 64); // mem busy till ~35
        let before = e.cycles();
        let _a = e.v_set_imm(64, 1); // issues immediately on the ALU
                                     // ALU op of 64 elems at 4/cycle + latency ≈ done before the load.
        assert!(e.cycles() <= before.max(36));
    }

    #[test]
    fn stats_accumulate() {
        let mut e = engine();
        let r = e.v_ld(0, 16);
        e.v_st(100, &r);
        let idx = VReg::ready_at(vec![0, 1], 0);
        e.v_ld_idx(0, &idx);
        e.v_set_imm(4, 0);
        let s = e.stats();
        assert_eq!(s.mem_contig_ops, 2);
        assert_eq!(s.mem_indexed_ops, 1);
        assert_eq!(s.alu_ops, 1);
        assert_eq!(s.instructions, 4);
        assert_eq!(s.mem_words, 16 + 16 + 2);
    }

    #[test]
    fn advance_serial_serializes() {
        let mut e = engine();
        e.v_ld(0, 64); // finishes at 36
        e.advance_serial(100);
        assert_eq!(e.cycles(), 136);
        assert_eq!(e.stats().scalar_cycles, 100);
    }

    #[test]
    fn stall_until_blocks_issue() {
        let mut e = engine();
        e.stall_until(500);
        let r = e.v_ld(0, 4);
        assert!(r.ready[0] >= 500 + 20);
    }

    #[test]
    fn mask_and_reduce_ops() {
        let mut e = engine();
        let v = VReg::ready_at(vec![3, 7, 3, 1, 3], 0);
        let m = e.v_cmp_eq_imm(&v, 3);
        assert_eq!(m.data, vec![1, 0, 1, 0, 1]);
        let r = e.v_reduce_add(&m);
        assert_eq!(r.data, vec![3]);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn f32_ops_compute() {
        let mut e = engine();
        let a = VReg::ready_at(vec![2.0f32.to_bits(), (-3.0f32).to_bits()], 0);
        let b = VReg::ready_at(vec![4.0f32.to_bits(), 0.5f32.to_bits()], 0);
        let m = e.v_fmul(&a, &b);
        assert_eq!(f32::from_bits(m.data[0]), 8.0);
        assert_eq!(f32::from_bits(m.data[1]), -1.5);
        let s = e.v_fadd(&a, &b);
        assert_eq!(f32::from_bits(s.data[0]), 6.0);
    }

    #[test]
    fn position_unpack_ops() {
        let mut e = engine();
        let pos = VReg::ready_at(vec![(5u32 << 8) | 9, 63 << 8], 0);
        let rows = e.v_srl_imm(&pos, 8);
        let cols = e.v_and_imm(&pos, 0xff);
        assert_eq!(rows.data, vec![5, 63]);
        assert_eq!(cols.data, vec![9, 0]);
    }

    #[test]
    fn scatter_add_accumulates_collisions() {
        let mut e = engine();
        e.mem_mut().write_f32(100, 1.0);
        let vals = VReg::ready_at(vec![2.0f32.to_bits(), 3.0f32.to_bits()], 0);
        let idx = VReg::ready_at(vec![0, 0], 0);
        e.v_scatter_add_f32(&vals, 100, &idx);
        assert_eq!(e.mem().read_f32(100), 6.0);
    }

    #[test]
    fn scatter_add_costs_two_words_per_element() {
        // 8 elements: 20 + 16 = 36 cycles vs a plain 8-element scatter's
        // 20 + 8 = 28.
        let mut e = engine();
        let vals = VReg::ready_at(vec![1.0f32.to_bits(); 8], 0);
        let idx = VReg::ready_at((0..8).collect(), 0);
        let done = e.v_scatter_add_f32(&vals, 50, &idx);
        assert_eq!(done + 1, 36);
    }

    #[test]
    fn recorder_captures_instruction_spans() {
        let mut e = engine();
        let rec = Recorder::enabled(256);
        e.set_recorder(rec.clone());
        let r = e.v_ld(0, 64);
        e.v_add_imm(&r, 1);
        e.advance_serial(10);
        let snap = rec.snapshot();
        assert!(stm_obs::check::validate(&snap).is_ok());
        let names: Vec<&str> = snap.events.iter().map(|ev| ev.name).collect();
        assert_eq!(names, vec!["v_ld", "v_add_imm", "serial"]);
        assert_eq!(snap.events[0].lane, Lane::Mem(0));
        assert_eq!(snap.events[1].lane, Lane::Alu);
        assert_eq!(snap.events[2].lane, Lane::Scalar);
        // The load span covers the paper's 36-cycle worked example.
        match snap.events[0].kind {
            stm_obs::EventKind::Complete { dur, elements } => {
                assert_eq!(dur, 36);
                assert_eq!(elements, 64);
            }
            ref other => panic!("unexpected kind {other:?}"),
        }
    }

    #[test]
    fn recorder_off_by_default_records_nothing() {
        let mut e = engine();
        assert!(!e.recorder().is_enabled());
        e.v_ld(0, 8);
        assert!(e.recorder().snapshot().events.is_empty());
    }

    #[test]
    fn empty_vectors_are_free_of_elements() {
        let mut e = engine();
        let r = e.v_ld(0, 0);
        assert!(r.is_empty());
        e.v_st(10, &r);
        // Only issue cost accrues.
        assert!(e.cycles() <= 4);
    }

    // ------------------------------------------------------------------
    // Stall-cause accounting
    // ------------------------------------------------------------------

    /// Asserts the breakdown conserves cycles and agrees with the coarse
    /// FuBusy occupancy accounting.
    fn check_breakdown(e: &Engine) -> crate::stats::StallBreakdown {
        let bd = e.stall_breakdown();
        assert_eq!(bd.cycles, e.cycles());
        bd.check_conservation().unwrap();
        let mem_occ: u64 = bd.mem.iter().map(|c| c.occupancy()).sum();
        assert_eq!(mem_occ, e.fu_busy().mem, "mem occupancy != FuBusy");
        assert_eq!(bd.alu.occupancy(), e.fu_busy().alu, "alu");
        assert_eq!(bd.stm.occupancy(), e.fu_busy().stm, "stm");
        bd
    }

    #[test]
    fn stall_breakdown_conserves_on_a_mixed_run() {
        let mut e = engine();
        let r = e.v_ld(0, 64);
        e.v_add_imm(&r, 1);
        e.loop_overhead();
        let s = e.v_ld(100, 32);
        e.v_st(200, &s);
        e.scalar_cycles(17);
        e.advance_serial(40);
        check_breakdown(&e);
    }

    #[test]
    fn unchained_consumer_accrues_chain_wait() {
        let mut cfg = VpConfig::paper();
        cfg.chaining = false;
        let mut e = Engine::new(cfg, Memory::new());
        let r = e.v_ld(0, 64);
        e.v_add_imm(&r, 1);
        let bd = check_breakdown(&e);
        assert!(bd.alu.chain_wait > 0, "{:?}", bd.alu);
        // Chained, the same sequence carries far less ALU wait.
        let mut e2 = engine();
        let r2 = e2.v_ld(0, 64);
        e2.v_add_imm(&r2, 1);
        let bd2 = check_breakdown(&e2);
        assert!(bd2.alu.chain_wait < bd.alu.chain_wait);
    }

    #[test]
    fn stm_barrier_wait_lands_in_stm_wait() {
        let mut e = engine();
        e.stall_until(500);
        e.v_ld(0, 4);
        let bd = check_breakdown(&e);
        assert_eq!(bd.mem[0].stm_wait, 500);
    }

    #[test]
    fn front_end_port_conflict_charges_other_units() {
        // Two serialized loads keep the single memory port busy; an ALU
        // op issued afterwards spent that conflict window waiting.
        let mut e = engine();
        let a = e.v_ld(0, 64);
        e.v_ld(1000, 64);
        e.v_add_imm(&a, 1);
        let bd = check_breakdown(&e);
        assert!(bd.alu.port_wait > 0, "{:?}", bd.alu);
    }

    #[test]
    fn scalar_phases_land_in_scalar_wait() {
        let mut e = engine();
        e.advance_serial(100);
        e.v_ld(0, 4);
        let bd = check_breakdown(&e);
        assert_eq!(bd.mem[0].scalar_wait, 100);
        assert_eq!(bd.alu.scalar_wait, 100);
    }

    #[test]
    fn dual_port_breakdown_covers_every_port() {
        let mut cfg = VpConfig::paper();
        cfg.mem_ports = 2;
        let mut e = Engine::new(cfg, Memory::new());
        e.v_ld(0, 64);
        e.v_ld(1000, 64);
        let bd = check_breakdown(&e);
        assert_eq!(bd.mem.len(), 2);
        assert!(bd.mem[0].busy > 0 && bd.mem[1].busy > 0);
    }

    #[test]
    fn breakdown_is_purely_observational() {
        let run = |observe: bool| {
            let mut e = engine();
            let r = e.v_ld(0, 64);
            if observe {
                let _ = e.stall_breakdown();
            }
            e.v_add_imm(&r, 1);
            e.advance_serial(10);
            if observe {
                let _ = e.stall_breakdown();
            }
            e.cycles()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn fully_chained_stream_is_pure_busy_on_mem() {
        // A single unchained load: occupancy is all busy, no chain wait.
        let mut e = engine();
        e.v_ld(0, 64);
        let bd = check_breakdown(&e);
        assert_eq!(bd.mem[0].busy, 36);
        assert_eq!(bd.mem[0].chain_wait, 0);
    }

    #[test]
    fn breakdown_on_an_idle_engine_is_all_idle() {
        let e = engine();
        let bd = check_breakdown(&e);
        assert_eq!(bd.cycles, 0);
        assert_eq!(bd.mem[0].total(), 0);
    }
}
