//! Zero-drift cycle gate: rebuilding the quick Fig. 11 baseline must
//! reproduce the committed `results/baseline.json` exactly. Simulated
//! cycles are deterministic, so any drift at all — however small — means
//! a change altered the modelled hardware, not just the host speed.

use hism_stm::dsab::{experiment_sets, quick_catalogue};
use stm_bench::baseline::{diff, Baseline};
use stm_bench::{run_set, RunConfig};

#[test]
fn quick_fig11_baseline_has_zero_cycle_drift() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/baseline.json");
    let text = std::fs::read_to_string(path).expect("read results/baseline.json");
    let committed = Baseline::parse(&text).expect("parse results/baseline.json");

    let cfg = RunConfig::default();
    let sets = experiment_sets(&quick_catalogue(), 6);
    let results = run_set(&cfg, &sets.by_locality);
    let rebuilt = Baseline::from_results(
        "fig11",
        "quick",
        cfg.timing.name(),
        cfg.backend.name(),
        &results,
    );

    let report = diff(&committed, &rebuilt, 0.0);
    assert_eq!(report.regressions, 0, "{}", report.lines.join("\n"));
    // The unit-busy fractions come from the stall accounting; they are
    // stored at 6 digits, so compare them at that precision.
    for (c, r) in committed.matrices.iter().zip(&rebuilt.matrices) {
        for ((name, ck), (_, rk)) in c.kernels.iter().zip(&r.kernels) {
            let fmt = |u: &[(String, f64)]| -> Vec<String> {
                u.iter().map(|(unit, f)| format!("{unit}={f:.6}")).collect()
            };
            assert_eq!(fmt(&ck.util), fmt(&rk.util), "{}/{name} util", c.name);
        }
    }
}
