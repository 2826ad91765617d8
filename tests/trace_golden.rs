//! Golden-snapshot tests of the trace exporters: the same matrix through
//! the same kernel must serialize to byte-identical JSONL, CSV and
//! Chrome-trace output on every run — and through the batch harness the
//! exported files must not depend on the worker count. Byte determinism
//! is what makes traces diffable artifacts in CI. Golden digests pin the
//! JSONL bytes themselves, so a reordered or renamed event fails here.

use std::collections::BTreeMap;
use std::path::Path;

use hism_stm::obs::Recorder;
use hism_stm::sparse::Coo;
use hism_stm::stm::kernels::registry::{self, ExecCtx, KernelError};
use hism_stm::stm::StmConfig;
use hism_stm::vpsim::VpConfig;
use stm_bench::harness::{run_set, RunConfig};
use stm_dsab::SuiteEntry;
use stm_hism::FaultClass;
use stm_sparse::hash::fnv1a;

/// A small fixed matrix — hand-written triplets, no RNG, so the trace
/// contents are pinned by the code alone.
fn fixed_matrix() -> Coo {
    Coo::from_triplets(
        24,
        20,
        vec![
            (0, 0, 1.0),
            (0, 19, -2.5),
            (3, 7, 4.0),
            (5, 5, 0.5),
            (11, 2, -8.0),
            (17, 13, 3.25),
            (23, 0, 7.0),
            (23, 19, -1.0),
        ],
    )
    .unwrap()
}

fn traced_run(name: &str, coo: &Coo) -> hism_stm::obs::TraceData {
    let mut ctx = ExecCtx::paper();
    ctx.obs = Recorder::enabled_default();
    registry::run_verified(name, coo, &ctx).unwrap_or_else(|e| panic!("{name}: {e}"));
    ctx.obs.snapshot()
}

/// FNV-1a of the traced JSONL of every registry kernel on the fixed
/// matrix (prepare → run → verify on the paper machine), in registry
/// order.
#[rustfmt::skip]
const CLEAN_GOLDENS: [(&str, u64); 12] = [
    ("transpose_hism", 0xd46669f1fa9cf218),
    ("transpose_crs", 0x30340bc1c782e589),
    ("transpose_crs_scalar", 0xeac9e9c880dc4986),
    ("transpose_dense", 0x94407648f169a57a),
    ("spmv_hism", 0x5203b9ea6861a459),
    ("spmv_crs", 0xf17b7e4d2a7967fa),
    ("transpose_ref", 0x676982ddbd963e25),
    ("transpose_coo", 0x4fb6e05fd9a94d2d),
    ("transpose_csc", 0xfc129d237793c9de),
    ("transpose_jd", 0x9d535d844d0bb52a),
    ("transpose_sell", 0x634933898f808156),
    ("spmv_sell", 0xf0dad42bfc41301f),
];

/// One fault per kernel that hosts any: the class injected (seed
/// `0x5eed`) and the FNV-1a of the run's outcome text followed by its
/// traced JSONL. The runs use `s = 8`, so the HiSM image has two levels
/// and a retargeted pointer reaches guarded memory; every class but the
/// dense kernel's value-only flip ends in `mem.oob` instants.
#[rustfmt::skip]
const FAULTED_GOLDENS: [(&str, FaultClass, u64); 11] = [
    ("transpose_hism", FaultClass::PointerRetarget, 0x246a38b4aecfdfe0),
    ("transpose_crs", FaultClass::PosGarbage, 0x595e81f214ff9dff),
    ("transpose_crs_scalar", FaultClass::PosGarbage, 0x76e4dacf99452b17),
    ("transpose_dense", FaultClass::BitFlip, 0x886538885a0b4047),
    ("spmv_hism", FaultClass::PosGarbage, 0x931b4f0f42ed9e86),
    ("spmv_crs", FaultClass::PosGarbage, 0xcf5b5d43f2371fb6),
    ("transpose_coo", FaultClass::PosGarbage, 0xf761497044e520e5),
    ("transpose_csc", FaultClass::PosGarbage, 0xcef73579fb996ce8),
    ("transpose_jd", FaultClass::PosGarbage, 0x4f56b44787897d3a),
    ("transpose_sell", FaultClass::PosGarbage, 0xc24d74a587d57a7b),
    ("spmv_sell", FaultClass::PosGarbage, 0x677cae807d9e4b4c),
];

/// The traced JSONL and outcome of one faulted run on an `s = 8` machine.
fn faulted_run(name: &str, class: FaultClass, coo: &Coo) -> (String, hism_stm::obs::TraceData) {
    let ctx = ExecCtx {
        vp: VpConfig {
            section_size: 8,
            ..VpConfig::paper()
        },
        stm: StmConfig { s: 8, b: 4, l: 4 },
        obs: Recorder::enabled_default(),
        ..ExecCtx::paper()
    };
    let mut kernel = registry::create(name).unwrap();
    kernel.prepare(coo, &ctx).unwrap();
    kernel
        .inject_fault(class, 0x5eed)
        .unwrap_or_else(|e| panic!("{name}/{class}: {e}"));
    let outcome = match kernel.run(&ctx) {
        Ok(r) => format!("ok {:#018x}", r.output_digest),
        Err(e) => format!("err {e}"),
    };
    (outcome, ctx.obs.snapshot())
}

#[test]
fn traced_jsonl_matches_its_golden_digests() {
    let coo = fixed_matrix();
    let clean: Vec<(&str, u64)> = registry::names()
        .iter()
        .map(|&name| (name, fnv1a(traced_run(name, &coo).to_jsonl().as_bytes())))
        .collect();
    let faulted: Vec<(&str, FaultClass, u64)> = FAULTED_GOLDENS
        .iter()
        .map(|&(name, class, _)| {
            let (outcome, data) = faulted_run(name, class, &coo);
            if name != "transpose_dense" {
                assert!(data.counter("mem.oob_events") > 0, "{name}: no mem.oob");
            }
            let bytes = format!("{outcome}\n{}", data.to_jsonl());
            (name, class, fnv1a(bytes.as_bytes()))
        })
        .collect();
    let rendered: Vec<String> = clean
        .iter()
        .map(|(k, d)| format!("    (\"{k}\", {d:#018x}),"))
        .chain(
            faulted
                .iter()
                .map(|(k, c, d)| format!("    (\"{k}\", FaultClass::{c:?}, {d:#018x}),")),
        )
        .collect();
    let now = rendered.join("\n");
    assert_eq!(clean, CLEAN_GOLDENS, "trace digests moved; now:\n{now}");
    assert_eq!(faulted, FAULTED_GOLDENS, "trace digests moved; now:\n{now}");
    // Every kernel that hosts a fault has its faulted trace pinned.
    for &name in registry::names() {
        let pinned = FAULTED_GOLDENS.iter().any(|g| g.0 == name);
        let hosts = FaultClass::ALL.into_iter().any(|class| {
            let mut kernel = registry::create(name).unwrap();
            kernel.prepare(&coo, &ExecCtx::paper()).unwrap();
            !matches!(
                kernel.inject_fault(class, 0x5eed),
                Err(KernelError::FaultUnsupported { .. })
            )
        });
        assert_eq!(pinned, hosts, "{name}: faulted trace pinning");
    }
}

#[test]
fn exporters_are_byte_deterministic_across_runs() {
    let coo = fixed_matrix();
    for &name in registry::names() {
        let a = traced_run(name, &coo);
        let b = traced_run(name, &coo);
        assert_eq!(a.to_jsonl(), b.to_jsonl(), "{name}: JSONL drifted");
        assert_eq!(a.to_csv(), b.to_csv(), "{name}: CSV drifted");
        assert_eq!(
            a.to_chrome_trace(),
            b.to_chrome_trace(),
            "{name}: Chrome trace drifted"
        );
        // And not vacuously: the exports actually carry the events.
        assert!(a.to_jsonl().lines().count() > a.events.len(), "{name}");
    }
}

#[test]
fn golden_jsonl_shape_of_the_fixed_matrix() {
    // Pin the cheap structural facts of the snapshot rather than the full
    // byte blob (which would churn on any legitimate schema extension):
    // line count, header-free CSV column count, and the counter names.
    let data = traced_run("transpose_hism", &fixed_matrix());
    let jsonl = data.to_jsonl();
    // One line per event + one per counter + one per histogram + meta.
    assert_eq!(
        jsonl.lines().count() as u64,
        data.events.len() as u64 + data.counters.len() as u64 + data.histograms.len() as u64 + 1,
        "unexpected JSONL line count"
    );
    for line in jsonl.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "bad line: {line}"
        );
    }
    let csv = data.to_csv();
    let header = csv.lines().next().unwrap();
    let cols = header.split(',').count();
    for (i, line) in csv.lines().enumerate() {
        assert_eq!(line.split(',').count(), cols, "CSV row {i} ragged: {line}");
    }
    // The lifecycle counters must be present under their documented names
    // ("mem.oob_events" is rightly absent — a clean run has none).
    for key in [
        "stage.prepare.bytes",
        "stage.run.bytes",
        "stage.verify.bytes",
        "stage.run.cycles",
        "engine.instructions",
        "engine.elements",
    ] {
        assert!(
            data.counters.iter().any(|(k, _)| k == key),
            "counter {key} missing"
        );
    }
}

/// Read every regular file under `dir` into a name → bytes map.
fn dir_contents(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name().into_string().unwrap();
        out.insert(name, std::fs::read(entry.path()).unwrap());
    }
    out
}

#[test]
fn harness_trace_files_do_not_depend_on_the_worker_count() {
    let tmp = std::env::temp_dir().join(format!("stm-golden-{}", std::process::id()));
    let set: Vec<SuiteEntry> = ["gold-a", "gold-b", "gold-c"]
        .iter()
        .enumerate()
        .map(|(k, name)| {
            let mut coo = fixed_matrix();
            coo.push(k, k, 9.0 + k as f32); // make the three entries distinct
            SuiteEntry {
                name: name.to_string(),
                metrics: hism_stm::sparse::MatrixMetrics::compute(&coo),
                coo,
            }
        })
        .collect();

    let run = |jobs: usize, sub: &str| {
        let dir = tmp.join(sub);
        std::fs::create_dir_all(&dir).unwrap();
        let cfg = RunConfig {
            jobs: Some(jobs),
            trace: Some(dir.clone()),
            ..RunConfig::default()
        };
        let results = run_set(&cfg, &set);
        assert!(results.iter().all(|r| r.status.is_ok()));
        // Both kernels of every matrix exported a roll-up.
        assert!(results.iter().all(|r| r.traces.len() == 2));
        dir_contents(&dir)
    };

    let serial = run(1, "serial");
    let parallel = run(4, "parallel");
    assert_eq!(
        serial.keys().collect::<Vec<_>>(),
        parallel.keys().collect::<Vec<_>>(),
        "different file sets"
    );
    // 3 matrices x 2 kernels x 3 formats.
    assert_eq!(serial.len(), 18);
    for (name, bytes) in &serial {
        assert_eq!(
            Some(bytes),
            parallel.get(name),
            "{name}: trace bytes depend on --jobs"
        );
        assert!(!bytes.is_empty(), "{name}: empty trace file");
    }
    std::fs::remove_dir_all(&tmp).ok();
}

#[test]
fn chrome_trace_is_importable_json() {
    let data = traced_run("transpose_crs", &fixed_matrix());
    let chrome = data.to_chrome_trace();
    let json = hism_stm::obs::json::Json::parse(&chrome).expect("chrome trace must parse");
    let events = json
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    // Begin/End pairs become Chrome "B"/"E" or "X" events; counters ride
    // along as "C" events — either way every recorded event is present.
    assert!(events.len() >= data.events.len());
    // displayTimeUnit makes Perfetto show cycle counts, not wall time.
    assert!(chrome.contains("\"displayTimeUnit\""));
}
