//! Trace-validated invariant tests: every registry kernel, run under an
//! enabled recorder, must produce a structurally sound trace whose
//! numbers *agree with the report the kernel returned* — spans properly
//! nested, per-lane timestamps monotone, stage-span cycles summing to the
//! engine total, and the out-of-bounds counter matching the fault-lane
//! events under injected faults.
//!
//! The flip side is also tier-1 here: with the recorder disabled (the
//! default), kernels must record nothing and produce bit-identical
//! outputs and cycle counts — tracing is observability, not behaviour.

use hism_stm::hism::FaultClass;
use hism_stm::obs::{Category, EventKind, Lane, Recorder, TraceData};
use hism_stm::sparse::gen;
use hism_stm::stm::kernels::registry::{self, ExecCtx};

/// The matrix every kernel in the registry accepts under the paper ctx.
fn test_matrix() -> hism_stm::sparse::Coo {
    gen::random::uniform(96, 80, 700, 17)
}

/// Stage spans as `(name, begin_ts, end_ts)`, in open order.
fn stage_spans(data: &TraceData) -> Vec<(&'static str, u64, u64)> {
    let mut open: Vec<(u32, &'static str, u64)> = Vec::new();
    let mut out = Vec::new();
    for ev in &data.events {
        if ev.lane != Lane::Stage {
            continue;
        }
        match ev.kind {
            EventKind::Begin { span } => open.push((span, ev.name, ev.ts)),
            EventKind::End { span } => {
                let (s, name, begin) = open.pop().expect("end without begin");
                assert_eq!(s, span, "stage span ids must match LIFO");
                out.push((name, begin, ev.ts));
            }
            _ => {}
        }
    }
    assert!(open.is_empty(), "unclosed stage spans: {open:?}");
    out
}

fn traced_ctx() -> ExecCtx {
    let mut ctx = ExecCtx::paper();
    ctx.obs = Recorder::enabled_default();
    ctx
}

#[test]
fn every_kernel_trace_is_structurally_valid() {
    let coo = test_matrix();
    for &name in registry::names() {
        let ctx = traced_ctx();
        registry::run_verified(name, &coo, &ctx).unwrap_or_else(|e| panic!("{name}: {e}"));
        let data = ctx.obs.snapshot();
        assert!(!data.events.is_empty(), "{name}: trace is empty");
        assert_eq!(data.dropped, 0, "{name}: ring dropped events");
        hism_stm::obs::check::validate(&data)
            .unwrap_or_else(|errs| panic!("{name}: invalid trace: {errs:?}"));
        // Per-lane monotonicity is part of validate(); double-check the
        // engine-facing lanes explicitly so a validator regression can't
        // hide it.
        let mut last: std::collections::BTreeMap<u32, u64> = Default::default();
        for ev in &data.events {
            let prev = last.entry(ev.lane.tid()).or_insert(0);
            assert!(
                ev.ts >= *prev,
                "{name}: lane {} went backwards ({} -> {})",
                ev.lane.label(),
                prev,
                ev.ts
            );
            *prev = ev.ts;
        }
    }
}

#[test]
fn stage_span_cycles_sum_to_the_reported_total() {
    let coo = test_matrix();
    for &name in registry::names() {
        let ctx = traced_ctx();
        let report = registry::run_verified(name, &coo, &ctx).unwrap();
        let data = ctx.obs.snapshot();
        let spans = stage_spans(&data);
        assert_eq!(
            spans.iter().map(|(n, _, _)| *n).collect::<Vec<_>>(),
            vec!["prepare", "run", "verify"],
            "{name}"
        );
        let total: u64 = spans.iter().map(|(_, b, e)| e - b).sum();
        assert_eq!(
            total, report.report.cycles,
            "{name}: stage spans != engine total"
        );
        assert_eq!(
            data.counter("stage.run.cycles"),
            report.report.cycles,
            "{name}"
        );
        // Phase spans partition the run span exactly.
        let phase_total: u64 = data
            .events
            .iter()
            .filter(|ev| ev.lane == Lane::Phase)
            .map(|ev| match ev.kind {
                EventKind::Complete { dur, .. } => dur,
                _ => 0,
            })
            .sum();
        assert_eq!(phase_total, report.report.cycles, "{name}: phases != total");
        // Exactly one run span.
        let runs = spans.iter().filter(|(n, _, _)| *n == "run").count();
        assert_eq!(runs, 1, "{name}");
    }
}

#[test]
fn oob_counter_matches_fault_lane_events_under_injected_faults() {
    let coo = test_matrix();
    let mut any_oob = false;
    for &name in registry::names() {
        for class in FaultClass::ALL {
            let mut kernel = registry::create(name).unwrap();
            let ctx = traced_ctx();
            kernel.prepare(&coo, &ctx).unwrap();
            match kernel.inject_fault(class, 7) {
                Ok(_) => {}
                Err(_) => continue, // class unsupported by this kernel
            }
            // Run may fail (that's the point); verify is irrelevant here.
            let _ = kernel.run(&ctx);
            let data = ctx.obs.snapshot();
            let fault_events = data
                .events
                .iter()
                .filter(|ev| {
                    ev.lane == Lane::Fault
                        && ev.cat == Category::Fault
                        && matches!(ev.kind, EventKind::Instant)
                })
                .count() as u64;
            assert_eq!(
                data.counter("mem.oob_events"),
                fault_events,
                "{name}/{class}: counter disagrees with fault-lane instants"
            );
            any_oob |= fault_events > 0;
        }
    }
    assert!(
        any_oob,
        "no injected fault produced an out-of-bounds event — the fault leg is vacuous"
    );
}

#[test]
fn disabled_recorder_records_nothing_and_changes_nothing() {
    let coo = test_matrix();
    for &name in registry::names() {
        let plain = ExecCtx::paper();
        assert!(!plain.obs.is_enabled());
        let base = registry::run_verified(name, &coo, &plain).unwrap();
        let off = plain.obs.snapshot();
        assert!(off.events.is_empty(), "{name}");
        assert!(off.counters.is_empty(), "{name}");

        // Zero digest / cycle drift with tracing enabled.
        let traced = traced_ctx();
        let on = registry::run_verified(name, &coo, &traced).unwrap();
        assert_eq!(base.output_digest, on.output_digest, "{name}: digest drift");
        assert_eq!(base.report.cycles, on.report.cycles, "{name}: cycle drift");
        assert!(!traced.obs.snapshot().events.is_empty(), "{name}");
    }
}

#[test]
fn stm_kernel_traces_carry_block_sessions_and_utilization_samples() {
    // The STM-specific lanes: transpose_hism must emit at least one
    // stm.block span and one buffer-utilization sample in (0, 1].
    let ctx = traced_ctx();
    registry::run_verified("transpose_hism", &test_matrix(), &ctx).unwrap();
    let data = ctx.obs.snapshot();
    let blocks = data
        .events
        .iter()
        .filter(|ev| ev.lane == Lane::StmBlock && matches!(ev.kind, EventKind::Begin { .. }))
        .count();
    assert!(blocks > 0, "no stm.block session spans");
    let samples: Vec<f64> = data
        .events
        .iter()
        .filter_map(|ev| match ev.kind {
            EventKind::Sample { value } if ev.name == "stm.buffer_utilization" => Some(value),
            _ => None,
        })
        .collect();
    assert_eq!(samples.len(), blocks, "one BU sample per session");
    for v in samples {
        assert!(v > 0.0 && v <= 1.0, "BU sample {v} out of range");
    }
}

#[test]
fn exported_jsonl_of_every_kernel_passes_the_checker() {
    let coo = test_matrix();
    for &name in registry::names() {
        let ctx = traced_ctx();
        registry::run_verified(name, &coo, &ctx).unwrap();
        let data = ctx.obs.snapshot();
        let summary = hism_stm::obs::jsonl::validate_jsonl(&data.to_jsonl())
            .unwrap_or_else(|errs| panic!("{name}: {errs:?}"));
        assert_eq!(summary.events, data.events.len(), "{name}");
        assert_eq!(summary.run_spans, 1, "{name}");
        // The Chrome trace re-parses with the first-party JSON parser.
        let chrome = hism_stm::obs::json::Json::parse(&data.to_chrome_trace())
            .unwrap_or_else(|e| panic!("{name}: chrome trace unparsable: {e}"));
        let events = chrome
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .unwrap_or_else(|| panic!("{name}: no traceEvents"));
        assert!(events.len() >= data.events.len(), "{name}");
    }
}
