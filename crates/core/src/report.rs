//! Result reporting shared by the kernels and the experiment harness.

use stm_vpsim::scalar::ScalarRunStats;
use stm_vpsim::stats::{EngineStats, StallBreakdown};
use stm_vpsim::FuBusy;

/// Accumulated STM-unit statistics over a kernel run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StmStats {
    /// Block sessions (one per `icm`; upper-level blocks contribute two —
    /// a lengths pass and a pointer pass).
    pub sessions: u64,
    /// Elements streamed into the unit (per session, counted once).
    pub entries: u64,
    /// Write-phase buffer transfers.
    pub write_batches: u64,
    /// Read-phase buffer transfers.
    pub read_batches: u64,
}

impl StmStats {
    /// Buffer bandwidth utilization at bandwidth `b`
    /// (`BU = 2Z / (B · (write + read + 6·sessions))`, DESIGN.md §2.2).
    pub fn buffer_utilization(&self, b: u64) -> f64 {
        let c = self.write_batches
            + self.read_batches
            + 2 * crate::unit::PHASE_PIPELINE_CYCLES * self.sessions;
        if c == 0 {
            0.0
        } else {
            2.0 * self.entries as f64 / (b as f64 * c as f64)
        }
    }
}

/// One named phase of a kernel with its cycle count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Phase {
    /// Phase name (e.g. `"histogram"`).
    pub name: &'static str,
    /// Cycles attributable to the phase.
    pub cycles: u64,
}

/// The result of simulating one transposition.
#[derive(Debug, Clone, Default)]
pub struct TransposeReport {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Non-zero elements of the matrix.
    pub nnz: usize,
    /// Vector-engine statistics.
    pub engine: EngineStats,
    /// Scalar-core statistics (the CRS histogram phase), if any.
    pub scalar: Option<ScalarRunStats>,
    /// STM-unit statistics (HiSM kernel only).
    pub stm: Option<StmStats>,
    /// Per-phase cycle breakdown in execution order.
    pub phases: Vec<Phase>,
    /// Busy cycles per functional unit (for utilization analysis).
    pub fu_busy: FuBusy,
    /// Per-port stall-cause breakdown: each port's cycles split into
    /// busy / chain wait / port wait / STM wait / scalar wait / idle,
    /// every row summing to `cycles` (see `StallBreakdown`).
    pub stalls: StallBreakdown,
    /// Measured wall-clock nanoseconds, set only by host-native backend
    /// runs (`None` for simulated runs, whose reports stay byte-stable
    /// across machines). The `simcorr` harness correlates this against
    /// `cycles`.
    pub wall_ns: Option<u64>,
}

impl TransposeReport {
    /// The paper's efficiency metric: cycles per non-zero element
    /// (Figs. 11–13 plot exactly this for HiSM and CRS).
    pub fn cycles_per_nnz(&self) -> f64 {
        if self.nnz == 0 {
            0.0
        } else {
            self.cycles as f64 / self.nnz as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bu_formula() {
        let st = StmStats {
            sessions: 1,
            entries: 10,
            write_batches: 10,
            read_batches: 10,
        };
        // 20 / (1 * 26)
        assert!((st.buffer_utilization(1) - 20.0 / 26.0).abs() < 1e-12);
    }

    #[test]
    fn bu_zero_without_work() {
        assert_eq!(StmStats::default().buffer_utilization(4), 0.0);
    }

    #[test]
    fn cycles_per_nnz_handles_empty() {
        let r = TransposeReport {
            cycles: 100,
            nnz: 0,
            ..Default::default()
        };
        assert_eq!(r.cycles_per_nnz(), 0.0);
        let r = TransposeReport {
            cycles: 100,
            nnz: 50,
            ..Default::default()
        };
        assert_eq!(r.cycles_per_nnz(), 2.0);
    }
}
