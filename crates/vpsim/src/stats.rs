//! Cycle, instruction and per-unit busy accounting for the vector
//! engine.

use crate::engine::Fu;

/// Aggregate statistics of one engine run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Vector instructions issued.
    pub instructions: u64,
    /// Contiguous memory instructions (loads + stores).
    pub mem_contig_ops: u64,
    /// Indexed memory instructions (gathers + scatters).
    pub mem_indexed_ops: u64,
    /// Vector ALU instructions.
    pub alu_ops: u64,
    /// Instructions routed to the STM functional unit.
    pub stm_ops: u64,
    /// 32-bit words moved to/from main memory by vector instructions.
    pub mem_words: u64,
    /// Elements processed across all vector instructions.
    pub elements: u64,
    /// Cycles charged as scalar loop/control overhead.
    pub overhead_cycles: u64,
    /// Cycles spent in scalar-core phases (added via `Engine::advance`).
    pub scalar_cycles: u64,
    /// Out-of-bounds accesses recorded by the guarded memory (0 on clean
    /// runs; populated via `Engine::stats_snapshot`).
    pub mem_oob_events: u64,
}

impl EngineStats {
    /// Merges another stats block into this one (used when a kernel runs
    /// several engine phases).
    pub fn merge(&mut self, other: &EngineStats) {
        self.instructions += other.instructions;
        self.mem_contig_ops += other.mem_contig_ops;
        self.mem_indexed_ops += other.mem_indexed_ops;
        self.alu_ops += other.alu_ops;
        self.stm_ops += other.stm_ops;
        self.mem_words += other.mem_words;
        self.elements += other.elements;
        self.overhead_cycles += other.overhead_cycles;
        self.scalar_cycles += other.scalar_cycles;
        self.mem_oob_events += other.mem_oob_events;
    }

    /// What accrued since the `earlier` snapshot of the same run: the
    /// field-wise difference, which [`EngineStats::merge`] adds back.
    pub(crate) fn since(&self, earlier: &EngineStats) -> EngineStats {
        EngineStats {
            instructions: self.instructions - earlier.instructions,
            mem_contig_ops: self.mem_contig_ops - earlier.mem_contig_ops,
            mem_indexed_ops: self.mem_indexed_ops - earlier.mem_indexed_ops,
            alu_ops: self.alu_ops - earlier.alu_ops,
            stm_ops: self.stm_ops - earlier.stm_ops,
            mem_words: self.mem_words - earlier.mem_words,
            elements: self.elements - earlier.elements,
            overhead_cycles: self.overhead_cycles - earlier.overhead_cycles,
            scalar_cycles: self.scalar_cycles - earlier.scalar_cycles,
            mem_oob_events: self.mem_oob_events - earlier.mem_oob_events,
        }
    }
}

/// Where the cycles of one functional-unit port went, partitioned into
/// six disjoint buckets that sum to the engine total (checked by
/// [`StallBreakdown::check_conservation`]):
///
/// * `busy` — the port streamed elements at the pace its timing model
///   allows with every operand already available;
/// * `chain_wait` — the port held an instruction whose completion was
///   delayed past that pace by operand readiness (vector chaining);
/// * `port_wait` — the port sat idle because the in-order front end was
///   blocked waiting for *another* port to free;
/// * `stm_wait` — the front end was blocked on an STM barrier
///   (`Engine::stall_until`, the fill-before-read hand-off);
/// * `scalar_wait` — the front end was executing scalar/control code
///   (loop overhead, serialized scalar-core phases);
/// * `idle` — no instruction for the port and the front end was free
///   (the catch-all remainder, including issue-slot cycles).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallCauses {
    /// Cycles the port streamed at its unconstrained pace.
    pub busy: u64,
    /// Extra occupancy caused by waiting on chained operands.
    pub chain_wait: u64,
    /// Idle cycles while the front end waited on another busy port.
    pub port_wait: u64,
    /// Idle cycles while the front end waited on an STM barrier.
    pub stm_wait: u64,
    /// Idle cycles while the front end ran scalar/control code.
    pub scalar_wait: u64,
    /// Remaining idle cycles (no instruction, front end free).
    pub idle: u64,
}

impl StallCauses {
    /// Sum of all six buckets — equals the engine total when the
    /// accounting conserves cycles.
    pub fn total(&self) -> u64 {
        self.busy + self.chain_wait + self.port_wait + self.stm_wait + self.scalar_wait + self.idle
    }

    /// Occupancy of the port (busy + chain wait) — the quantity
    /// [`FuBusy`] reports per unit.
    pub fn occupancy(&self) -> u64 {
        self.busy + self.chain_wait
    }
}

/// Per-port stall-cause breakdown of one engine run: one
/// [`StallCauses`] row per memory port plus one each for the ALU and
/// the STM, all conservation-checked against the run total `cycles`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// One row per vector memory port, in port order.
    pub mem: Vec<StallCauses>,
    /// The vector ALU.
    pub alu: StallCauses,
    /// The STM functional-unit port.
    pub stm: StallCauses,
    /// The engine total every row must sum to.
    pub cycles: u64,
}

impl StallBreakdown {
    /// A breakdown for a kernel that ran entirely on the scalar core
    /// (no vector engine): every port spent the whole run waiting on
    /// scalar code, which keeps the conservation invariant uniform
    /// across kernels.
    pub fn scalar_only(mem_ports: usize, cycles: u64) -> Self {
        let row = StallCauses {
            scalar_wait: cycles,
            ..Default::default()
        };
        StallBreakdown {
            mem: vec![row; mem_ports],
            alu: row,
            stm: row,
            cycles,
        }
    }

    /// All rows with stable display names: `mem0`, `mem1`, …, `alu`,
    /// `stm`.
    pub fn units(&self) -> Vec<(String, StallCauses)> {
        let mut out: Vec<(String, StallCauses)> = self
            .mem
            .iter()
            .enumerate()
            .map(|(p, &c)| (format!("mem{p}"), c))
            .collect();
        out.push(("alu".to_string(), self.alu));
        out.push(("stm".to_string(), self.stm));
        out
    }

    /// Checks that every row's six buckets sum exactly to `cycles`.
    pub fn check_conservation(&self) -> Result<(), String> {
        for (name, causes) in self.units() {
            if causes.total() != self.cycles {
                return Err(format!(
                    "{name}: buckets sum to {} but the engine ran {} cycles ({causes:?})",
                    causes.total(),
                    self.cycles
                ));
            }
        }
        Ok(())
    }
}

/// Per-functional-unit occupancy: each unit's busy plus chaining-wait
/// cycles, with memory summed over its ports (see
/// [`crate::Engine::fu_busy`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FuBusy {
    /// Occupied cycles of the vector memory ports.
    pub mem: u64,
    /// Occupied cycles of the vector ALU.
    pub alu: u64,
    /// Occupied cycles of the STM.
    pub stm: u64,
}

impl FuBusy {
    /// Utilization of a unit over a run of `total` cycles (0 when idle).
    pub fn utilization(&self, fu: Fu, total: u64) -> f64 {
        if total == 0 {
            return 0.0;
        }
        let busy = match fu {
            Fu::Mem => self.mem,
            Fu::Alu => self.alu,
            Fu::Stm => self.stm,
        };
        busy as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_accounting_and_utilization() {
        let b = FuBusy {
            mem: 40,
            alu: 0,
            stm: 5,
        };
        assert!((b.utilization(Fu::Mem, 80) - 0.5).abs() < 1e-12);
        assert_eq!(b.utilization(Fu::Alu, 80), 0.0);
        assert_eq!(b.utilization(Fu::Mem, 0), 0.0);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = EngineStats {
            instructions: 2,
            mem_words: 10,
            ..Default::default()
        };
        let b = EngineStats {
            instructions: 3,
            alu_ops: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.instructions, 5);
        assert_eq!(a.mem_words, 10);
        assert_eq!(a.alu_ops, 1);
    }

    #[test]
    fn stall_causes_total_and_occupancy() {
        let c = StallCauses {
            busy: 10,
            chain_wait: 5,
            port_wait: 3,
            stm_wait: 2,
            scalar_wait: 1,
            idle: 4,
        };
        assert_eq!(c.total(), 25);
        assert_eq!(c.occupancy(), 15);
    }

    #[test]
    fn scalar_only_breakdown_conserves() {
        let bd = StallBreakdown::scalar_only(2, 100);
        assert_eq!(bd.mem.len(), 2);
        assert_eq!(bd.units().len(), 4);
        bd.check_conservation().unwrap();
        assert_eq!(bd.alu.scalar_wait, 100);
        assert_eq!(bd.stm.idle, 0);
    }

    #[test]
    fn conservation_check_reports_the_broken_unit() {
        let mut bd = StallBreakdown::scalar_only(1, 50);
        bd.alu.idle = 7; // now sums to 57 != 50
        let err = bd.check_conservation().unwrap_err();
        assert!(err.contains("alu"), "{err}");
    }

    #[test]
    fn default_breakdown_is_vacuously_conserved() {
        StallBreakdown::default().check_conservation().unwrap();
        assert!(StallBreakdown::default().mem.is_empty());
    }

    #[test]
    fn unit_names_are_stable() {
        let bd = StallBreakdown::scalar_only(2, 1);
        let names: Vec<String> = bd.units().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["mem0", "mem1", "alu", "stm"]);
    }
}
