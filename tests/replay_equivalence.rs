//! Timing replay must be invisible: a simulated run whose loop bodies
//! replay memoized timing must agree exactly with a run that times every
//! instruction.
//!
//! The engine replays, and the scalar core memoizes its loop iterations,
//! only when no live recorder is installed, so the same run through
//! `Recorder::disabled()` (replay on) and through an enabled recorder
//! (replay off) must give the same full `TransposeReport`, the same
//! output digest, or the same typed error — across section sizes, STM
//! bandwidths, chaining, memory ports, cycle budgets and every fault
//! class the two campaign kernels and the scalar-core kernels host.

use hism_stm::dsab::quick_catalogue;
use hism_stm::obs::Recorder;
use hism_stm::sparse::Coo;
use hism_stm::stm::kernels::registry::{self, ExecCtx, KernelError};
use hism_stm::stm::StmConfig;
use hism_stm::vpsim::VpConfig;
use stm_hism::FaultClass;

/// What a run produced, rendered for comparison: the whole report and
/// the output digest, or the typed error (a deadline abort included).
fn outcome(name: &str, coo: &Coo, ctx: &ExecCtx, fault: Option<FaultClass>) -> Option<String> {
    let mut ctx = ctx.clone();
    let mut kernel = registry::create(name).unwrap();
    kernel.prepare(coo, &ctx).unwrap();
    match fault {
        Some(FaultClass::MidRunBitFlip) => ctx.vp.mid_run_flip = Some(kernel.arm_sdc(0x5eed)?),
        Some(class) => match kernel.inject_fault(class, 0x5eed) {
            Ok(_) => {}
            Err(KernelError::FaultUnsupported { .. }) => return None,
            Err(e) => panic!("{name}/{class}: {e}"),
        },
        None => {}
    }
    let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| kernel.run(&ctx)))
        .unwrap_or_else(|payload| Err(KernelError::from_panic(payload)));
    Some(match ran {
        Ok(r) => format!("ok {:#018x} {:?}", r.output_digest, r.report),
        Err(e) => format!("err {e:?}"),
    })
}

/// Runs `name` with replay on and off and asserts equal outcomes;
/// returns the outcome for callers that want to inspect it.
fn assert_replay_invisible(
    name: &str,
    label: &str,
    coo: &Coo,
    ctx: &ExecCtx,
    fault: Option<FaultClass>,
) -> Option<String> {
    let on = outcome(
        name,
        coo,
        &ExecCtx {
            obs: Recorder::disabled(),
            ..ctx.clone()
        },
        fault,
    )?;
    let off = outcome(
        name,
        coo,
        &ExecCtx {
            obs: Recorder::enabled_default(),
            ..ctx.clone()
        },
        fault,
    )?;
    assert_eq!(on, off, "{name} on {label}: replay changed the outcome");
    Some(on)
}

/// The engine aborts a run over budget by unwinding with a typed
/// payload; keep those expected aborts out of the test output.
fn quiet_deadline_panics() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info
            .payload()
            .downcast_ref::<hism_stm::vpsim::DeadlineExceeded>()
            .is_none()
        {
            default(info);
        }
    }));
}

fn catalogue() -> Vec<(String, Coo)> {
    quick_catalogue()
        .iter()
        .map(|spec| (spec.name.clone(), spec.build()))
        .collect()
}

/// One machine of the sweep.
fn machine(
    s: usize,
    b: u64,
    l: usize,
    chaining: bool,
    ports: usize,
    budget: Option<u64>,
) -> ExecCtx {
    ExecCtx {
        vp: VpConfig {
            section_size: s,
            chaining,
            mem_ports: ports,
            cycle_budget: budget,
            ..VpConfig::paper()
        },
        stm: StmConfig { s, b, l },
        ..ExecCtx::paper()
    }
}

#[test]
fn replay_is_invisible_across_the_machine_sweep() {
    quiet_deadline_panics();
    let coos = catalogue();
    let mut machines = Vec::new();
    for s in [8usize, 16, 64] {
        for chaining in [true, false] {
            for ports in [1usize, 2] {
                for budget in [None, Some(5_000)] {
                    for (b, l) in [(1u64, 1usize), (4, 4), (8, 2)] {
                        machines.push(machine(s, b, l, chaining, ports, budget));
                    }
                }
            }
        }
    }
    // Two workers over the matrices; every (matrix, machine) pair runs
    // both kernels, except that the CRS baseline never reads B and L.
    let next = std::sync::atomic::AtomicUsize::new(0);
    let (runs, deadlines) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    let (mut runs, mut deadlines) = (0usize, 0usize);
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some((name, coo)) = coos.get(i) else {
                            break (runs, deadlines);
                        };
                        for ctx in &machines {
                            let label = format!(
                                "{name} s={} B={} L={} chaining={} ports={} budget={:?}",
                                ctx.vp.section_size,
                                ctx.stm.b,
                                ctx.stm.l,
                                ctx.vp.chaining,
                                ctx.vp.mem_ports,
                                ctx.vp.cycle_budget
                            );
                            let crs_too = (ctx.stm.b, ctx.stm.l) == (4, 4);
                            for kernel in ["transpose_hism", "transpose_crs"] {
                                if kernel == "transpose_crs" && !crs_too {
                                    continue;
                                }
                                let got = assert_replay_invisible(kernel, &label, coo, ctx, None)
                                    .unwrap();
                                runs += 1;
                                deadlines += got.contains("DeadlineExceeded") as usize;
                            }
                        }
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap())
            .fold((0, 0), |(r, d), (wr, wd)| (r + wr, d + wd))
    });
    assert_eq!(runs, coos.len() * (3 * 2 * 2 * 2) * (3 + 1));
    // Not vacuous: the 5,000-cycle budget cuts some runs short.
    assert!(deadlines > 0, "no run hit the cycle budget");
}

/// Every kernel that runs on the scalar core (the CRS histogram or the
/// whole scalar transpose), besides the two campaign kernels.
const SCALAR_CORE: [&str; 4] = [
    "transpose_crs_scalar",
    "transpose_coo",
    "transpose_jd",
    "transpose_sell",
];

#[test]
fn replay_is_invisible_under_every_hosted_fault() {
    quiet_deadline_panics();
    let coos = catalogue();
    let classes = FaultClass::ALL
        .into_iter()
        .chain([FaultClass::MidRunBitFlip]);
    let mut hosted = std::collections::BTreeSet::new();
    let mut capped = 0;
    for class in classes.map(Some).chain([None]) {
        let kernels = ["transpose_hism", "transpose_crs"].into_iter();
        for kernel in kernels.chain(SCALAR_CORE) {
            for (name, coo) in &coos {
                // s = 8 gives the HiSM images several levels, so pointer
                // faults reach the recursion; s = 64 is the paper machine.
                for s in [8usize, 64] {
                    let ctx = machine(s, 4, 4, true, 1, None);
                    let label = format!("{name} s={s} fault={class:?}");
                    let Some(got) = assert_replay_invisible(kernel, &label, coo, &ctx, class)
                    else {
                        continue;
                    };
                    if let Some(class) = class {
                        hosted.insert((kernel, class.name()));
                    }
                    capped += (kernel == "transpose_crs_scalar"
                        && got.contains("instruction budget"))
                        as usize;
                }
            }
        }
    }
    // transpose_hism hosts all seven classes; COO, which has no pointer
    // or length arrays and no value fault, three; the other kernels the
    // six input classes.
    assert_eq!(hosted.len(), 7 + 6 + 6 + 3 + 6 + 6, "{hosted:?}");
    // Not vacuous: corrupt row pointers drive some scalar CRS
    // transposes into their instruction cap, which the memo must reach
    // at the same instruction.
    assert!(capped > 0, "no run hit its instruction cap");
}
