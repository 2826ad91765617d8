//! Cycle-conservation tests for the stall-cause accounting: every
//! registry kernel's per-unit breakdown (busy + chain/port/STM/scalar
//! waits + idle) must sum exactly to the engine total, agree with the
//! coarse `FuBusy` occupancy counters, survive the recorder being turned
//! on (no observer effect, including under injected faults), and round
//! trip losslessly through the trace counters into the `stmprof`
//! profiler.

use hism_stm::hism::FaultClass;
use hism_stm::obs::profile::KernelProfile;
use hism_stm::obs::Recorder;
use hism_stm::sparse::gen;
use hism_stm::stm::kernels::registry::{self, ExecCtx};
use hism_stm::vpsim::StallBreakdown;

fn test_matrix() -> hism_stm::sparse::Coo {
    gen::random::uniform(96, 80, 700, 17)
}

fn traced_ctx() -> ExecCtx {
    let mut ctx = ExecCtx::paper();
    ctx.obs = Recorder::enabled_default();
    ctx
}

#[test]
fn every_kernel_conserves_cycles_across_all_units() {
    let coo = test_matrix();
    for &name in registry::names() {
        let report = registry::run_verified(name, &coo, &ExecCtx::paper())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let stalls = &report.report.stalls;
        stalls
            .check_conservation()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(stalls.cycles, report.report.cycles, "{name}");
        assert!(!stalls.units().is_empty(), "{name}: no units accounted");
        for (unit, c) in stalls.units() {
            assert_eq!(
                c.total(),
                report.report.cycles,
                "{name}: unit {unit} buckets do not sum to the engine total"
            );
        }
    }
}

#[test]
fn stall_occupancy_agrees_with_fu_busy() {
    // The fine-grained breakdown's occupancy (busy + chain wait) must
    // reproduce the engine's coarse per-FU busy counters exactly.
    let coo = test_matrix();
    for &name in registry::names() {
        let report = registry::run_verified(name, &coo, &ExecCtx::paper()).unwrap();
        let stalls = &report.report.stalls;
        let fu = &report.report.fu_busy;
        let mem_occ: u64 = stalls.mem.iter().map(|c| c.occupancy()).sum();
        assert_eq!(mem_occ, fu.mem, "{name}: mem occupancy != FuBusy.mem");
        assert_eq!(
            stalls.alu.occupancy(),
            fu.alu,
            "{name}: alu occupancy != FuBusy.alu"
        );
        assert_eq!(
            stalls.stm.occupancy(),
            fu.stm,
            "{name}: stm occupancy != FuBusy.stm"
        );
    }
}

#[test]
fn enabling_the_recorder_does_not_change_the_breakdown() {
    let coo = test_matrix();
    for &name in registry::names() {
        let plain = registry::run_verified(name, &coo, &ExecCtx::paper()).unwrap();
        let ctx = traced_ctx();
        let traced = registry::run_verified(name, &coo, &ctx).unwrap();
        assert_eq!(
            plain.report.cycles, traced.report.cycles,
            "{name}: cycle drift"
        );
        assert_eq!(
            plain.report.stalls, traced.report.stalls,
            "{name}: stall-breakdown drift under observation"
        );
        // The trace's stall counters are the breakdown, bucket for bucket.
        let data = ctx.obs.snapshot();
        for (unit, c) in traced.report.stalls.units() {
            for (bucket, value) in [
                ("busy", c.busy),
                ("chain_wait", c.chain_wait),
                ("port_wait", c.port_wait),
                ("stm_wait", c.stm_wait),
                ("scalar_wait", c.scalar_wait),
                ("idle", c.idle),
            ] {
                assert_eq!(
                    data.counter(&format!("stall.{unit}.{bucket}")),
                    value,
                    "{name}: counter stall.{unit}.{bucket} disagrees with the report"
                );
            }
        }
    }
}

#[test]
fn no_observer_effect_under_injected_faults() {
    let coo = test_matrix();
    for &name in registry::names() {
        for class in FaultClass::ALL {
            let outcome = |rec: Recorder| -> Option<(u64, StallBreakdown)> {
                let mut kernel = registry::create(name).unwrap();
                let mut ctx = ExecCtx::paper();
                ctx.obs = rec;
                kernel.prepare(&coo, &ctx).unwrap();
                if kernel.inject_fault(class, 7).is_err() {
                    return None; // class unsupported by this kernel
                }
                kernel
                    .run(&ctx)
                    .ok()
                    .map(|r| (r.report.cycles, r.report.stalls))
            };
            let plain = outcome(Recorder::disabled());
            let traced = outcome(Recorder::enabled_default());
            assert_eq!(plain, traced, "{name}/{class}: observer effect under fault");
            if let Some((cycles, stalls)) = plain {
                // A faulted-but-completed run still conserves cycles.
                stalls
                    .check_conservation()
                    .unwrap_or_else(|e| panic!("{name}/{class}: {e}"));
                assert_eq!(stalls.cycles, cycles, "{name}/{class}");
            }
        }
    }
}

#[test]
fn profiler_reconstructs_the_breakdown_from_the_trace() {
    let coo = test_matrix();
    for &name in registry::names() {
        let ctx = traced_ctx();
        let report = registry::run_verified(name, &coo, &ctx).unwrap();
        let data = ctx.obs.snapshot();

        let live = KernelProfile::from_trace(name, &data);
        live.check_conservation()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(live.cycles, report.report.cycles, "{name}");

        // Unit rows match the report's breakdown, in its display order.
        let expect: Vec<(String, [u64; 6])> = report
            .report
            .stalls
            .units()
            .into_iter()
            .map(|(unit, c)| {
                (
                    unit,
                    [
                        c.busy,
                        c.chain_wait,
                        c.port_wait,
                        c.stm_wait,
                        c.scalar_wait,
                        c.idle,
                    ],
                )
            })
            .collect();
        let got: Vec<(String, [u64; 6])> = live
            .units
            .iter()
            .map(|u| (u.unit.clone(), u.buckets()))
            .collect();
        assert_eq!(got, expect, "{name}: profiler units drift from report");

        // The JSONL re-parse is byte-for-byte the same profile, and the
        // folded-stack export is deterministic across repeat runs.
        let parsed = KernelProfile::from_jsonl(name, &data.to_jsonl()).unwrap();
        assert_eq!(live, parsed, "{name}: live vs re-parsed profile");
        assert_eq!(live.folded_stacks(), parsed.folded_stacks(), "{name}");

        let ctx2 = traced_ctx();
        registry::run_verified(name, &coo, &ctx2).unwrap();
        let again = KernelProfile::from_trace(name, &ctx2.obs.snapshot());
        assert_eq!(
            live.folded_stacks(),
            again.folded_stacks(),
            "{name}: folded stacks differ between identical runs"
        );
    }
}
