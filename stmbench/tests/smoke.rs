//! Every workload at smoke size (quick catalogue, one pass, one
//! repetition, 200 requests), untraced and traced: every named metric
//! is present and finite, no operation fails, the spans file parses and
//! the decomposition pass conserves its wall time.

use std::path::PathBuf;
use stmbench::spec::{self, Workload};
use stmbench::{trace, Options, Scale};

#[test]
fn every_workload_runs_and_checks_at_smoke_size() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("stmbench-smoke");
    for w in Workload::ALL {
        for traced in [false, true] {
            let opts = Options {
                workload: w,
                seed: 7,
                seconds: 1.0,
                trace: traced,
                scale: Scale::Smoke,
                spans_dir: dir.clone(),
            };
            let out = stmbench::run(&opts);
            let label = format!("{} (traced: {traced})", w.name());
            assert!(out.correct(), "{label}: {:?}", out.errors);
            assert!(out.attempted > 0 && out.failed == 0, "{label}");
            let table = if traced {
                spec::per_layer()
            } else {
                spec::end_to_end()
            };
            assert_eq!(out.metrics.len(), table.len(), "{label}");
            for m in &table {
                let v = out.metrics.get(&m.name).copied();
                assert!(v.is_some_and(f64::is_finite), "{label}: {} = {v:?}", m.name);
            }
            if traced {
                let path = dir.join(format!("{}.spans.jsonl", w.name()));
                let spans = trace::read_jsonl(&std::fs::read_to_string(&path).unwrap()).unwrap();
                let root = spans
                    .iter()
                    .find(|s| s.name == "decompose")
                    .expect("decomposition span");
                let pct = trace::coverage_pct(&spans, root.id).unwrap();
                assert!(
                    (95.0..=100.0).contains(&pct),
                    "{label}: conservation {pct}%"
                );
                assert!(spans
                    .iter()
                    .all(|s| s.parent == 0 || spans.iter().any(|p| p.id == s.parent)));
            }
        }
    }
}
