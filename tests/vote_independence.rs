//! The 2-of-3 vote convicts a deterministically wrong host leg and never
//! the simulator. `STM_HOST_DIVERGE=all` makes every host kernel flip the
//! sign of one output value; the variable is read once per process, so
//! this property lives in a test binary of its own and sets it before any
//! host kernel runs.

use stm_bench::resilient::{execute_slot, Decision, RetryPolicy, SlotOutcome, VerifyMode};
use stm_bench::RunConfig;
use stm_core::kernels::registry::{self, Backend, ExecCtx};
use stm_dsab::{experiment_sets, quick_catalogue, SuiteEntry};
use stm_obs::Recorder;

/// One slot of `kernel` on `entry` with the oracle off, so only the vote
/// stands between the primary and the served answer.
fn slot(
    entry: &SuiteEntry,
    kernel: &'static str,
    backend: Backend,
    mode: VerifyMode,
) -> SlotOutcome {
    let run = RunConfig {
        backend,
        verify: false,
        ..RunConfig::default()
    };
    let retry = RetryPolicy::default();
    let rec = Recorder::disabled();
    execute_slot(
        &run,
        &retry,
        entry,
        0,
        kernel,
        Decision::Run,
        None,
        mode,
        &rec,
    )
}

/// The canonical digest a slot served.
fn served(slot: &SlotOutcome) -> Option<u64> {
    slot.report
        .as_ref()
        .and_then(|r| r.output.canonical_digest())
}

#[test]
fn a_diverged_host_leg_is_convicted_and_the_simulator_never_is() {
    std::env::set_var("STM_HOST_DIVERGE", "all");
    let sets = experiment_sets(&quick_catalogue(), 6);
    let mut seen = std::collections::HashSet::new();
    for entry in sets.all().filter(|e| seen.insert(e.name.clone())) {
        for &kernel in &registry::HOST_CAPABLE {
            let sim_digest = registry::run_verified(kernel, &entry.coo, &ExecCtx::paper())
                .unwrap_or_else(|f| panic!("{}/{kernel}: {f}", entry.name))
                .output
                .canonical_digest();
            for mode in [VerifyMode::Vote, VerifyMode::Dual] {
                let case = format!("{}/{kernel} under {}", entry.name, mode.name());
                let sim = slot(entry, kernel, Backend::Sim, mode);
                assert!(!sim.corrupted, "{case}: the simulator was convicted");
                assert_eq!(sim.recovered, None, "{case}");
                assert_eq!(served(&sim), sim_digest, "{case}: sim primary served");

                let host = slot(entry, kernel, Backend::Scalar, mode);
                assert!(
                    host.corrupted,
                    "{case}: the diverged host leg was not convicted"
                );
                assert_eq!(host.recovered, Some("sim"), "{case}");
                assert_eq!(served(&host), sim_digest, "{case}: recovery served");
            }
        }
    }
}
