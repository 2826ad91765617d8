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

/// Every (kernel, class) pair the registry hosts, in registry order and,
/// per kernel, in [`FaultClass::ALL`] order then the mid-run flip: the
/// class injected (seed
/// `0x5eed`) and the FNV-1a of the run's outcome text followed by its
/// traced JSONL. The runs use `s = 8`, so the HiSM image has two levels
/// and a retargeted pointer reaches guarded memory. A
/// [`FaultClass::MidRunBitFlip`] row arms the kernel's `arm_sdc` payload
/// on the engine instead of corrupting the prepared input.
#[rustfmt::skip]
const FAULTED_GOLDENS: [(&str, FaultClass, u64); 60] = [
    ("transpose_hism", FaultClass::BitFlip, 0x323ef613b853478d),
    ("transpose_hism", FaultClass::PointerRetarget, 0x246a38b4aecfdfe0),
    ("transpose_hism", FaultClass::LengthCorruption, 0x3699a6f5f27c424e),
    ("transpose_hism", FaultClass::Truncate, 0xdc6e367f00372150),
    ("transpose_hism", FaultClass::PosGarbage, 0x7fa3bf5473c0495f),
    ("transpose_hism", FaultClass::ValueCorruption, 0xa4203e8706510374),
    ("transpose_hism", FaultClass::MidRunBitFlip, 0x5b3ebcee93bfc90f),
    ("transpose_crs", FaultClass::BitFlip, 0x1ec11170fede877c),
    ("transpose_crs", FaultClass::PointerRetarget, 0x336407b16d4ef1c8),
    ("transpose_crs", FaultClass::LengthCorruption, 0x9ea078d7fe25aca2),
    ("transpose_crs", FaultClass::Truncate, 0x262984b829672f14),
    ("transpose_crs", FaultClass::PosGarbage, 0x595e81f214ff9dff),
    ("transpose_crs", FaultClass::ValueCorruption, 0x22cdff6ba841e473),
    ("transpose_crs_scalar", FaultClass::BitFlip, 0xc9ed62b066060d2a),
    ("transpose_crs_scalar", FaultClass::PointerRetarget, 0xd4af889e349e2267),
    ("transpose_crs_scalar", FaultClass::LengthCorruption, 0x2227960c3f924c05),
    ("transpose_crs_scalar", FaultClass::Truncate, 0xd4fcfd5912f65f78),
    ("transpose_crs_scalar", FaultClass::PosGarbage, 0x76e4dacf99452b17),
    ("transpose_crs_scalar", FaultClass::ValueCorruption, 0xd8b0a43409df89aa),
    ("transpose_dense", FaultClass::BitFlip, 0x886538885a0b4047),
    ("transpose_dense", FaultClass::Truncate, 0x02de652e40bbc4b7),
    ("spmv_hism", FaultClass::BitFlip, 0xea67080cf3acff0c),
    ("spmv_hism", FaultClass::PointerRetarget, 0x1eda10a63eed655c),
    ("spmv_hism", FaultClass::LengthCorruption, 0x3699a6f5f27c424e),
    ("spmv_hism", FaultClass::Truncate, 0xdc6e367f00372150),
    ("spmv_hism", FaultClass::PosGarbage, 0x931b4f0f42ed9e86),
    ("spmv_hism", FaultClass::ValueCorruption, 0xfba247c5242c55a7),
    ("spmv_crs", FaultClass::BitFlip, 0xa465184c2c0b9097),
    ("spmv_crs", FaultClass::PointerRetarget, 0x35bdfab8d2c22a13),
    ("spmv_crs", FaultClass::LengthCorruption, 0x6a3390dfd20b2af3),
    ("spmv_crs", FaultClass::Truncate, 0x6174a03b55263b8e),
    ("spmv_crs", FaultClass::PosGarbage, 0xcf5b5d43f2371fb6),
    ("spmv_crs", FaultClass::ValueCorruption, 0x6a7a4048f7568b69),
    ("transpose_coo", FaultClass::BitFlip, 0x21577efe9254225b),
    ("transpose_coo", FaultClass::Truncate, 0x2454bfbbde78a0b2),
    ("transpose_coo", FaultClass::PosGarbage, 0xf761497044e520e5),
    ("transpose_csc", FaultClass::BitFlip, 0x6fc3c6cd593a5b02),
    ("transpose_csc", FaultClass::PointerRetarget, 0xd5ee85530986ed55),
    ("transpose_csc", FaultClass::LengthCorruption, 0x52ad3d23f19f9ded),
    ("transpose_csc", FaultClass::Truncate, 0x5052bbbceabdd75c),
    ("transpose_csc", FaultClass::PosGarbage, 0xcef73579fb996ce8),
    ("transpose_csc", FaultClass::ValueCorruption, 0x5e8a323280b1f555),
    ("transpose_jd", FaultClass::BitFlip, 0x9efa41953ced3018),
    ("transpose_jd", FaultClass::PointerRetarget, 0x3e86f846e6d45903),
    ("transpose_jd", FaultClass::LengthCorruption, 0x3e86f846e6d45903),
    ("transpose_jd", FaultClass::Truncate, 0x3e86f846e6d45903),
    ("transpose_jd", FaultClass::PosGarbage, 0x4f56b44787897d3a),
    ("transpose_jd", FaultClass::ValueCorruption, 0xb2b3eaaf71b6a399),
    ("transpose_sell", FaultClass::BitFlip, 0x50b15b8bc4d94b28),
    ("transpose_sell", FaultClass::PointerRetarget, 0x8c9cc103b207d635),
    ("transpose_sell", FaultClass::LengthCorruption, 0xd69ab128d3ca7bfe),
    ("transpose_sell", FaultClass::Truncate, 0x2fe89eb03cfaa216),
    ("transpose_sell", FaultClass::PosGarbage, 0xc24d74a587d57a7b),
    ("transpose_sell", FaultClass::ValueCorruption, 0x48a088fb9293f8bd),
    ("spmv_sell", FaultClass::BitFlip, 0x07381af09652cfbd),
    ("spmv_sell", FaultClass::PointerRetarget, 0x8c9cc103b207d635),
    ("spmv_sell", FaultClass::LengthCorruption, 0xd69ab128d3ca7bfe),
    ("spmv_sell", FaultClass::Truncate, 0x2fe89eb03cfaa216),
    ("spmv_sell", FaultClass::PosGarbage, 0x677cae807d9e4b4c),
    ("spmv_sell", FaultClass::ValueCorruption, 0xaf7c7fe1a6ca7f04),
];

/// FNV-1a of the `Debug` text of every injected fault record (the
/// armed flip for [`FaultClass::MidRunBitFlip`]) of the runs above, one
/// per line in table order: pins each corruptor's draws — the entry,
/// bit and bogus value it picked — even where the run fails the same way
/// for several classes.
const FAULT_RECORDS_GOLDEN: u64 = 0x8db59785bbd96de1;

/// Every class a kernel can host: the pre-run classes, then the mid-run
/// flip.
fn all_classes() -> impl Iterator<Item = FaultClass> {
    FaultClass::ALL
        .into_iter()
        .chain([FaultClass::MidRunBitFlip])
}

/// The fault record, outcome and traced JSONL of one faulted run on an
/// `s = 8` machine, or `None` when the kernel does not host `class`.
fn faulted_run(
    name: &str,
    class: FaultClass,
    coo: &Coo,
) -> Option<(String, String, hism_stm::obs::TraceData)> {
    let mut ctx = ExecCtx {
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
    let record = if class == FaultClass::MidRunBitFlip {
        ctx.vp.mid_run_flip = Some(kernel.arm_sdc(0x5eed)?);
        format!("{:?}", ctx.vp.mid_run_flip)
    } else {
        match kernel.inject_fault(class, 0x5eed) {
            Ok(rec) => format!("{rec:?}"),
            Err(KernelError::FaultUnsupported { .. }) => return None,
            Err(e) => panic!("{name}/{class}: {e}"),
        }
    };
    let outcome = match kernel.run(&ctx) {
        Ok(r) => format!("ok {:#018x}", r.output_digest),
        Err(e) => format!("err {e}"),
    };
    Some((record, outcome, ctx.obs.snapshot()))
}

#[test]
fn traced_jsonl_matches_its_golden_digests() {
    let coo = fixed_matrix();
    let clean: Vec<(&str, u64)> = registry::names()
        .iter()
        .map(|&name| (name, fnv1a(traced_run(name, &coo).to_jsonl().as_bytes())))
        .collect();
    let mut faulted: Vec<(&str, FaultClass, u64)> = Vec::new();
    let mut records = String::new();
    for &name in registry::names() {
        for class in all_classes() {
            let Some((record, outcome, data)) = faulted_run(name, class, &coo) else {
                continue;
            };
            // A garbage column (a retargeted pointer for the HiSM
            // transpose) reaches guarded memory on every simulated kernel.
            let reaches_guard = match name {
                "transpose_hism" => class == FaultClass::PointerRetarget,
                "transpose_dense" => false,
                _ => class == FaultClass::PosGarbage,
            };
            if reaches_guard {
                assert!(
                    data.counter("mem.oob_events") > 0,
                    "{name}/{class}: no mem.oob"
                );
            }
            let bytes = format!("{outcome}\n{}", data.to_jsonl());
            faulted.push((name, class, fnv1a(bytes.as_bytes())));
            records += &format!("{record}\n");
        }
    }
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
    let got = fnv1a(records.as_bytes());
    assert_eq!(
        got, FAULT_RECORDS_GOLDEN,
        "fault records moved ({got:#018x}):\n{records}"
    );
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
