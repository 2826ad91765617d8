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
use crate::stats::{EngineStats, StallBreakdown, StallCauses};
use crate::timing::{TimingKind, TimingModel};
use crate::trace::{FuBusy, Trace, TraceEvent};
use std::borrow::Cow;
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
    busy_acct: FuBusy,
    /// End of the latest front-end stall (stalls arrive in order and
    /// never overlap; checked in debug builds).
    stall_end: u64,
    /// Per-memory-port stall accounts (parallel to `mem_busy`).
    mem_acct: Vec<PortAcct>,
    /// Stall accounts of the ALU and STM ports.
    fu_acct: [PortAcct; 2],
    trace: Option<Trace>,
    /// The armed-but-not-yet-fired mid-run bit flip, if any (disarmed
    /// once it fires).
    armed_flip: Option<MidRunFlip>,
    /// Structured observability sink (no-op unless a live recorder is
    /// installed via [`Engine::set_recorder`]).
    obs: Recorder,
    /// The timing model completing every instruction (see [`crate::timing`]).
    timing: &'static dyn TimingModel,
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
            busy_acct: FuBusy::default(),
            stall_end: 0,
            mem_acct: vec![PortAcct::default(); ports],
            fu_acct: [PortAcct::default(); 2],
            trace: None,
            armed_flip,
            obs: Recorder::disabled(),
            timing: timing.model(),
        }
    }

    /// The timing model this engine runs under.
    pub fn timing(&self) -> &'static dyn TimingModel {
        self.timing
    }

    /// Turns on instruction tracing, keeping at most `capacity` events.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(Trace::new(capacity));
    }

    /// The instruction trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
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

    /// Per-functional-unit busy-cycle accounting.
    pub fn fu_busy(&self) -> &FuBusy {
        &self.busy_acct
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
    /// both busy accountings. `unconstrained_last` is the completion of
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
            let acct = match fu {
                Fu::Mem => &mut self.mem_acct[port],
                Fu::Alu => &mut self.fu_acct[0],
                Fu::Stm => &mut self.fu_acct[1],
            };
            let occupancy = last + 1 - issue.min(last);
            let pure = unconstrained_last
                .map(|ml| ml + 1 - issue.min(ml))
                .unwrap_or(occupancy)
                .min(occupancy);
            acct.busy += pure;
            acct.chain_wait += occupancy - pure;
            acct.last_end = last + 1;
            match fu {
                Fu::Mem => self.mem_busy[port] = last + 1,
                Fu::Alu => self.busy[0] = last + 1,
                Fu::Stm => self.busy[1] = last + 1,
            }
            self.horizon = self.horizon.max(last + 1);
            self.busy_acct.add(fu, occupancy);
        }
        if let Some(trace) = &mut self.trace {
            trace.push(TraceEvent {
                op,
                fu,
                issue,
                first_done: completion.first().copied().unwrap_or(issue),
                last_done: completion.last().copied().unwrap_or(issue),
                elements: completion.len(),
            });
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

    /// Per-element availability of a source operand under the chaining
    /// setting (public for coprocessor crates such as the STM).
    pub fn chained_ready(&self, reg: &VReg) -> Vec<u64> {
        self.chain(reg).into_owned()
    }

    /// Element-wise max of two operands' availability (two-source chain).
    pub fn chained_ready2(&self, a: &VReg, b: &VReg) -> Vec<u64> {
        self.chain2(a, b)
    }

    /// Runs a *batched* stream on `fu`: the unit accepts one whole group
    /// per cycle (a group being, e.g., one STM buffer transfer), each group
    /// no earlier than its elements' readiness; every element completes
    /// `latency` cycles after its group is accepted. Returns per-element
    /// completion times, flattened in group order.
    pub fn run_batched(
        &mut self,
        op: &'static str,
        fu: Fu,
        startup: u64,
        latency: u64,
        group_sizes: &[usize],
        input_ready: Option<&[u64]>,
    ) -> Vec<u64> {
        let n: usize = group_sizes.iter().sum();
        if let Some(r) = input_ready {
            assert_eq!(r.len(), n, "input_ready length mismatch");
        }
        let (issue, port) = self.issue(fu);
        let done = self
            .timing
            .batched(issue, startup, latency, group_sizes, input_ready);
        let pure_last = input_ready.map(|_| {
            self.timing
                .batched(issue, startup, latency, group_sizes, None)
                .last()
                .copied()
                .unwrap_or(issue)
        });
        self.retire(op, fu, port, issue, &done, pure_last);
        let class = if fu == Fu::Stm {
            OpClass::Stm
        } else {
            OpClass::Generic
        };
        self.account(class, n as u64);
        done
    }

    /// Per-element availability of a source operand under the chaining
    /// setting: with chaining each element forwards individually; without,
    /// the consumer sees every element at the producer's completion.
    fn chain<'a>(&self, reg: &'a VReg) -> Cow<'a, [u64]> {
        if self.cfg.chaining {
            Cow::Borrowed(&reg.ready)
        } else {
            Cow::Owned(vec![reg.last_ready(); reg.len()])
        }
    }

    fn chain2(&self, a: &VReg, b: &VReg) -> Vec<u64> {
        a.assert_same_len(b);
        let (ra, rb) = (self.chain(a), self.chain(b));
        ra.iter().zip(rb.iter()).map(|(x, y)| *x.max(y)).collect()
    }

    /// Generic stream execution on a functional unit — also the hook the
    /// STM coprocessor in `stm-core` uses to time its instructions.
    /// `op` is the mnemonic recorded in the instruction trace.
    #[allow(clippy::too_many_arguments)]
    pub fn run_stream(
        &mut self,
        op: &'static str,
        fu: Fu,
        startup: u64,
        rate: u64,
        latency: u64,
        n: usize,
        input_ready: Option<&[u64]>,
    ) -> Vec<u64> {
        let class = if fu == Fu::Stm {
            OpClass::Stm
        } else {
            OpClass::Generic
        };
        self.exec_stream(
            op,
            fu,
            class,
            startup,
            rate,
            latency,
            n,
            n as u64,
            input_ready,
        )
    }

    /// The single stream funnel every `v_*` instruction goes through:
    /// issue, model-supplied completion times, retirement, and cost
    /// accounting. `elems` is the element count charged to statistics
    /// (it differs from `n` when an instruction streams several memory
    /// words per logical element, e.g. scatter-add).
    #[allow(clippy::too_many_arguments)]
    fn exec_stream(
        &mut self,
        op: &'static str,
        fu: Fu,
        class: OpClass,
        startup: u64,
        rate: u64,
        latency: u64,
        n: usize,
        elems: u64,
        input_ready: Option<&[u64]>,
    ) -> Vec<u64> {
        let (issue, port) = self.issue(fu);
        let done = self
            .timing
            .stream(issue, startup, rate, latency, n, input_ready);
        let pure_last =
            input_ready.map(|_| self.timing.stream_last(issue, startup, rate, latency, n));
        self.retire(op, fu, port, issue, &done, pure_last);
        self.account(class, elems);
        done
    }

    // ------------------------------------------------------------------
    // Vector memory instructions
    // ------------------------------------------------------------------

    /// `v_ld`: contiguous load of `n` one-word elements from `addr`.
    pub fn v_ld(&mut self, addr: u32, n: usize) -> VReg {
        let data = self.mem.read_block(addr, n);
        let rate = self.cfg.contig_rate(1);
        let startup = self.cfg.mem_startup;
        let class = OpClass::MemContig { words: n as u64 };
        let done = self.exec_stream("v_ld", Fu::Mem, class, startup, rate, 0, n, n as u64, None);
        VReg { data, ready: done }
    }

    /// `v_st`: contiguous store of a register to `addr`. Returns the
    /// completion time of the last element.
    pub fn v_st(&mut self, addr: u32, src: &VReg) -> u64 {
        self.mem.write_block(addr, &src.data);
        let rate = self.cfg.contig_rate(1);
        let startup = self.cfg.mem_startup;
        let input = self.chain(src);
        let n = src.len();
        let class = OpClass::MemContig { words: n as u64 };
        let done = self.exec_stream(
            "v_st",
            Fu::Mem,
            class,
            startup,
            rate,
            0,
            n,
            n as u64,
            Some(&input),
        );
        done.last().copied().unwrap_or(0)
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
        let startup = self.cfg.mem_startup;
        let done = self.exec_stream("v_ld_str", Fu::Mem, class, startup, rate, 0, n, words, None);
        VReg { data, ready: done }
    }

    /// `v_ldb`-style paired load: `n` two-word entries `[payload, pos]`
    /// streamed contiguously from `addr` into two registers. The stream
    /// rate honours `VpConfig::words_per_entry`.
    pub fn v_ld_pair(&mut self, addr: u32, n: usize) -> (VReg, VReg) {
        let raw = self.mem.read_block(addr, 2 * n);
        let payload: Vec<u32> = raw.iter().step_by(2).copied().collect();
        let pos: Vec<u32> = raw.iter().skip(1).step_by(2).copied().collect();
        let rate = self.cfg.contig_rate(self.cfg.words_per_entry);
        let startup = self.cfg.mem_startup;
        let class = OpClass::MemContig {
            words: 2 * n as u64,
        };
        let done = self.exec_stream("v_ldb", Fu::Mem, class, startup, rate, 0, n, n as u64, None);
        (
            VReg {
                data: payload,
                ready: done.clone(),
            },
            VReg {
                data: pos,
                ready: done,
            },
        )
    }

    /// `v_stb`-style paired store: writes `[payload, pos]` entries back to
    /// `addr` contiguously, chained on both source registers.
    pub fn v_st_pair(&mut self, addr: u32, payload: &VReg, pos: &VReg) -> u64 {
        payload.assert_same_len(pos);
        let n = payload.len();
        let mut raw = Vec::with_capacity(2 * n);
        for k in 0..n {
            raw.push(payload.data[k]);
            raw.push(pos.data[k]);
        }
        self.mem.write_block(addr, &raw);
        let rate = self.cfg.contig_rate(self.cfg.words_per_entry);
        let startup = self.cfg.mem_startup;
        let input = self.chain2(payload, pos);
        let class = OpClass::MemContig {
            words: 2 * n as u64,
        };
        let done = self.exec_stream(
            "v_stb",
            Fu::Mem,
            class,
            startup,
            rate,
            0,
            n,
            n as u64,
            Some(&input),
        );
        done.last().copied().unwrap_or(0)
    }

    /// `v_ld_idx`: gather — element `i` loads from `base + idx[i]`.
    pub fn v_ld_idx(&mut self, base: u32, idx: &VReg) -> VReg {
        let data: Vec<u32> = idx
            .data
            .iter()
            .map(|&off| self.mem.read(base.wrapping_add(off)))
            .collect();
        let rate = self.cfg.indexed_rate(1);
        let startup = self.cfg.mem_startup;
        let input = self.chain(idx);
        let n = idx.len();
        let class = OpClass::MemIndexed { words: n as u64 };
        let done = self.exec_stream(
            "v_ld_idx",
            Fu::Mem,
            class,
            startup,
            rate,
            0,
            n,
            n as u64,
            Some(&input),
        );
        VReg { data, ready: done }
    }

    /// `v_st_idx`: scatter — element `i` stores `vals[i]` to `base + idx[i]`.
    ///
    /// When two elements of `idx` collide, the later element wins, matching
    /// left-to-right execution of the scalar loop being vectorized.
    pub fn v_st_idx(&mut self, vals: &VReg, base: u32, idx: &VReg) -> u64 {
        vals.assert_same_len(idx);
        for k in 0..vals.len() {
            self.mem.write(base.wrapping_add(idx.data[k]), vals.data[k]);
        }
        let rate = self.cfg.indexed_rate(1);
        let startup = self.cfg.mem_startup;
        let input = self.chain2(vals, idx);
        let n = vals.len();
        let class = OpClass::MemIndexed { words: n as u64 };
        let done = self.exec_stream(
            "v_st_idx",
            Fu::Mem,
            class,
            startup,
            rate,
            0,
            n,
            n as u64,
            Some(&input),
        );
        done.last().copied().unwrap_or(0)
    }

    // ------------------------------------------------------------------
    // Vector ALU instructions
    // ------------------------------------------------------------------

    /// Shared timing/accounting path of every ALU instruction: `n`
    /// elements at `lanes` per cycle after the ALU pipeline fill.
    fn alu_stream(&mut self, op: &'static str, n: usize, input: Option<&[u64]>) -> Vec<u64> {
        let (startup, rate) = (self.cfg.alu_latency, self.cfg.lanes);
        self.exec_stream(
            op,
            Fu::Alu,
            OpClass::Alu,
            startup,
            rate,
            0,
            n,
            n as u64,
            input,
        )
    }

    fn alu_unop(&mut self, op: &'static str, src: &VReg, f: impl Fn(u32) -> u32) -> VReg {
        let data = src.data.iter().map(|&x| f(x)).collect();
        let input = self.chain(src);
        let done = self.alu_stream(op, src.len(), Some(&input));
        VReg { data, ready: done }
    }

    /// `v_setimm`: broadcast an immediate into an `n`-element register.
    pub fn v_set_imm(&mut self, n: usize, value: u32) -> VReg {
        let done = self.alu_stream("v_setimm", n, None);
        VReg {
            data: vec![value; n],
            ready: done,
        }
    }

    /// `v_iota`: element `i` gets `start + i * step` (index generation).
    pub fn v_iota(&mut self, n: usize, start: u32, step: u32) -> VReg {
        let done = self.alu_stream("v_iota", n, None);
        let data = (0..n as u32)
            .map(|i| start.wrapping_add(i.wrapping_mul(step)))
            .collect();
        VReg { data, ready: done }
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
        a.assert_same_len(b);
        let data = a
            .data
            .iter()
            .zip(&b.data)
            .map(|(x, y)| x.wrapping_add(*y))
            .collect();
        let input = self.chain2(a, b);
        let done = self.alu_stream("v_add", a.len(), Some(&input));
        VReg { data, ready: done }
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
        a.assert_same_len(b);
        let data = a
            .data
            .iter()
            .zip(&b.data)
            .map(|(&x, &y)| (f32::from_bits(x) * f32::from_bits(y)).to_bits())
            .collect();
        let input = self.chain2(a, b);
        let done = self.alu_stream("v_fmul", a.len(), Some(&input));
        VReg { data, ready: done }
    }

    /// `v_fadd`: element-wise single-precision add.
    pub fn v_fadd(&mut self, a: &VReg, b: &VReg) -> VReg {
        a.assert_same_len(b);
        let data = a
            .data
            .iter()
            .zip(&b.data)
            .map(|(&x, &y)| (f32::from_bits(x) + f32::from_bits(y)).to_bits())
            .collect();
        let input = self.chain2(a, b);
        let done = self.alu_stream("v_fadd", a.len(), Some(&input));
        VReg { data, ready: done }
    }

    /// `v_sca_f32`: indexed scatter-*accumulate* — element `i` performs
    /// `mem[base + idx[i]] +=f32 vals[i]`, left to right (so colliding
    /// indices accumulate correctly, like the sequential loop being
    /// vectorized). Each element is a read-modify-write: two words on the
    /// 1-word-per-cycle indexed port, i.e. half the scatter rate.
    pub fn v_scatter_add_f32(&mut self, vals: &VReg, base: u32, idx: &VReg) -> u64 {
        vals.assert_same_len(idx);
        for k in 0..vals.len() {
            let addr = base.wrapping_add(idx.data[k]);
            let acc = f32::from_bits(self.mem.read(addr)) + f32::from_bits(vals.data[k]);
            self.mem.write(addr, acc.to_bits());
        }
        // Two indexed words per element; the model's minimum rate is one
        // element per cycle, so charge the extra word as latency-per-pair
        // by halving throughput: use groups of one element every 2 cycles.
        let startup = self.cfg.mem_startup;
        let input = self.chain2(vals, idx);
        // rate 1 with an extra cycle per element: emulate via run_batched
        // with explicit per-element groups at 1 accept/cycle costs 1; we
        // charge 2 words by running a stream of 2*n "words".
        let n = vals.len();
        let word_ready: Vec<u64> = input.iter().flat_map(|&t| [t, t]).collect();
        let class = OpClass::MemIndexed {
            words: 2 * n as u64,
        };
        let done_words = self.exec_stream(
            "v_sca_f32",
            Fu::Mem,
            class,
            startup,
            self.cfg.mem_indexed_words_per_cycle,
            0,
            2 * n,    // word-slots streamed
            n as u64, // elements charged to statistics
            Some(&word_ready),
        );
        done_words.last().copied().unwrap_or(0)
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
        let input = self.chain(src);
        let done = self.alu_stream("v_slide", n, Some(&input));
        VReg { data, ready: done }
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
