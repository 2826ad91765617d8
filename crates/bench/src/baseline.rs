//! Machine-readable performance baselines and regression diffing — the
//! logic behind `--bench-json` and the `benchdiff` bin.
//!
//! A baseline file (schema `stm-bench-baseline/v1`) records, for one
//! figure run, every matrix's per-kernel cycle count plus per-unit busy
//! utilization:
//!
//! ```json
//! {"schema":"stm-bench-baseline/v1","figure":"fig11","suite":"quick","timing":"paper","matrices":[
//! {"name":"m","nnz":123,"kernels":{"transpose_crs":{"cycles":456,"util":{"alu":0.1}}}}
//! ]}
//! ```
//!
//! The kernels are deterministic, so two runs of the same suite produce
//! byte-identical baselines; CI regenerates the file and diffs it against
//! the committed copy with [`diff`], failing on any relative cycle drift
//! beyond the tolerance (in *either* direction — an unexplained speedup
//! invalidates a baseline just like a slowdown).

use crate::harness::MatrixResult;
use stm_obs::json::Json;

/// Schema tag written to and required from every baseline file.
pub const SCHEMA: &str = "stm-bench-baseline/v1";

/// One kernel's baseline numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelBaseline {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Measured wall-clock nanoseconds — present only for host-native
    /// backend runs. Omitted from the JSON when `None`, so simulator
    /// baselines stay byte-deterministic across machines, and ignored by
    /// [`diff`] (wall-clock is machine-dependent by nature).
    pub wall_ns: Option<u64>,
    /// Per-unit busy fraction (`busy / cycles`), in display order.
    pub util: Vec<(String, f64)>,
}

/// One matrix's baseline row.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineMatrix {
    /// Matrix name from the suite.
    pub name: String,
    /// Non-zeros of the matrix.
    pub nnz: u64,
    /// Kernel name → numbers, sorted by kernel name.
    pub kernels: Vec<(String, KernelBaseline)>,
}

/// A whole baseline file.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Figure the run regenerated (e.g. `fig11`).
    pub figure: String,
    /// Suite tag (`quick` / `full`).
    pub suite: String,
    /// Timing model name (`paper` / `ideal`).
    pub timing: String,
    /// Execution backend the run used (`sim` / `scalar`; older files may
    /// name a retired host backend). Files written before the field existed parse as `sim` —
    /// every pre-backend baseline was a simulator run.
    pub backend: String,
    /// Per-matrix rows in suite order.
    pub matrices: Vec<BaselineMatrix>,
}

fn kernel_baseline(report: &stm_core::TransposeReport) -> KernelBaseline {
    let cycles = report.cycles.max(1);
    KernelBaseline {
        cycles: report.cycles,
        wall_ns: report.wall_ns,
        util: report
            .stalls
            .units()
            .into_iter()
            .map(|(unit, c)| (unit, c.busy as f64 / cycles as f64))
            .collect(),
    }
}

impl Baseline {
    /// Builds a baseline from a figure run. Failed kernels are omitted
    /// from their matrix's row (the diff will then flag the asymmetry).
    pub fn from_results(
        figure: &str,
        suite: &str,
        timing: &str,
        backend: &str,
        results: &[MatrixResult],
    ) -> Baseline {
        let matrices = results
            .iter()
            .map(|r| {
                let mut kernels = Vec::new();
                if let Some(rep) = &r.crs {
                    kernels.push(("transpose_crs".to_string(), kernel_baseline(rep)));
                }
                if let Some(rep) = &r.hism {
                    kernels.push(("transpose_hism".to_string(), kernel_baseline(rep)));
                }
                // The format leg, when the run had one. `--format csr`
                // resolves to transpose_crs, already recorded above — a
                // duplicate key would corrupt the JSON object.
                if let Some(leg) = &r.format {
                    if let Some(rep) = &leg.report {
                        if !kernels.iter().any(|(n, _)| n == leg.kernel) {
                            kernels.push((leg.kernel.to_string(), kernel_baseline(rep)));
                        }
                    }
                }
                kernels.sort_by(|a, b| a.0.cmp(&b.0));
                BaselineMatrix {
                    name: r.name.clone(),
                    nnz: r.metrics.nnz as u64,
                    kernels,
                }
            })
            .collect();
        Baseline {
            figure: figure.to_string(),
            suite: suite.to_string(),
            timing: timing.to_string(),
            backend: backend.to_string(),
            matrices,
        }
    }

    /// Serializes deterministically: fixed field order, one matrix per
    /// line, floats at fixed 6-digit precision.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"schema\":\"{SCHEMA}\",\"figure\":\"{}\",\"suite\":\"{}\",\"timing\":\"{}\",\"backend\":\"{}\",\"matrices\":[\n",
            self.figure, self.suite, self.timing, self.backend
        );
        let rows: Vec<String> = self
            .matrices
            .iter()
            .map(|m| {
                let kernels: Vec<String> = m
                    .kernels
                    .iter()
                    .map(|(name, k)| {
                        let util: Vec<String> = k
                            .util
                            .iter()
                            .map(|(u, f)| format!("\"{u}\":{f:.6}"))
                            .collect();
                        let wall = match k.wall_ns {
                            Some(ns) => format!("\"wall_ns\":{ns},"),
                            None => String::new(),
                        };
                        format!(
                            "\"{name}\":{{\"cycles\":{},{wall}\"util\":{{{}}}}}",
                            k.cycles,
                            util.join(",")
                        )
                    })
                    .collect();
                format!(
                    "{{\"name\":\"{}\",\"nnz\":{},\"kernels\":{{{}}}}}",
                    m.name,
                    m.nnz,
                    kernels.join(",")
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n]}\n");
        out
    }

    /// Parses a baseline file, rejecting unknown schemas.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let v = Json::parse(text)?;
        let schema = v.get("schema").and_then(Json::as_str).unwrap_or("");
        if schema != SCHEMA {
            return Err(format!(
                "unsupported baseline schema {schema:?} (want {SCHEMA:?})"
            ));
        }
        let field = |key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field {key:?}"))
        };
        let mut matrices = Vec::new();
        for (i, m) in v
            .get("matrices")
            .and_then(Json::as_array)
            .ok_or("missing matrices array")?
            .iter()
            .enumerate()
        {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("matrix {i}: missing name"))?
                .to_string();
            let nnz = m
                .get("nnz")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("matrix {name}: missing nnz"))?;
            let kernels_obj = match m.get("kernels") {
                Some(Json::Obj(fields)) => fields,
                _ => return Err(format!("matrix {name}: missing kernels object")),
            };
            let mut kernels = Vec::new();
            for (kname, k) in kernels_obj {
                let cycles = k
                    .get("cycles")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("matrix {name}: kernel {kname}: missing cycles"))?;
                let util = match k.get("util") {
                    Some(Json::Obj(fields)) => fields
                        .iter()
                        .filter_map(|(u, f)| f.as_f64().map(|f| (u.clone(), f)))
                        .collect(),
                    _ => Vec::new(),
                };
                let wall_ns = k.get("wall_ns").and_then(Json::as_u64);
                kernels.push((
                    kname.clone(),
                    KernelBaseline {
                        cycles,
                        wall_ns,
                        util,
                    },
                ));
            }
            kernels.sort_by(|a, b| a.0.cmp(&b.0));
            matrices.push(BaselineMatrix { name, nnz, kernels });
        }
        Ok(Baseline {
            figure: field("figure")?,
            suite: field("suite")?,
            timing: field("timing")?,
            // Absent in files written before the host backend existed:
            // those were all simulator runs.
            backend: v
                .get("backend")
                .and_then(Json::as_str)
                .unwrap_or("sim")
                .to_string(),
            matrices,
        })
    }

    /// Multiplies every cycle count by `factor` (rounding) — used by
    /// `benchdiff --write-scaled` to manufacture a deliberate regression
    /// for CI self-tests.
    pub fn scale_cycles(&mut self, factor: f64) {
        for m in &mut self.matrices {
            for (_, k) in &mut m.kernels {
                k.cycles = (k.cycles as f64 * factor).round() as u64;
            }
        }
    }
}

/// The outcome of comparing two baselines.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Human-readable per-comparison lines.
    pub lines: Vec<String>,
    /// Comparisons whose drift exceeded the tolerance (or that could not
    /// be made at all). 0 means the baselines agree.
    pub regressions: usize,
}

impl DiffReport {
    fn fail(&mut self, line: String) {
        self.regressions += 1;
        self.lines.push(line);
    }
}

/// Compares `new` against `base`: every matrix/kernel pair present in
/// either file must exist in both, and relative cycle drift beyond
/// `tolerance` (e.g. `0.02` = 2%) in either direction counts as a
/// regression.
pub fn diff(base: &Baseline, new: &Baseline, tolerance: f64) -> DiffReport {
    let mut report = DiffReport::default();
    for (field, b, n) in [
        ("figure", &base.figure, &new.figure),
        ("suite", &base.suite, &new.suite),
        ("timing", &base.timing, &new.timing),
        ("backend", &base.backend, &new.backend),
    ] {
        if b != n {
            report.fail(format!("MISMATCH {field}: base {b:?} vs new {n:?}"));
        }
    }
    for bm in &base.matrices {
        let Some(nm) = new.matrices.iter().find(|m| m.name == bm.name) else {
            report.fail(format!("MISSING matrix {} absent from new run", bm.name));
            continue;
        };
        if bm.nnz != nm.nnz {
            report.fail(format!(
                "MISMATCH {}: nnz {} vs {} — different matrix generation",
                bm.name, bm.nnz, nm.nnz
            ));
        }
        for (kname, bk) in &bm.kernels {
            let Some((_, nk)) = nm.kernels.iter().find(|(n, _)| n == kname) else {
                report.fail(format!("MISSING {}/{kname} absent from new run", bm.name));
                continue;
            };
            // A zero-cycle side has no meaningful relative drift: equal
            // zeros agree, anything else is reported as a dedicated
            // failure instead of dividing by zero into a garbage
            // percentage.
            if bk.cycles == 0 || nk.cycles == 0 {
                if bk.cycles == nk.cycles {
                    report
                        .lines
                        .push(format!("ok {}/{kname}: 0 -> 0 cycles", bm.name));
                } else {
                    report.fail(format!(
                        "ZERO-CYCLE {}/{kname}: {} -> {} cycles (relative drift undefined)",
                        bm.name, bk.cycles, nk.cycles
                    ));
                }
                continue;
            }
            let basis = bk.cycles as f64;
            let drift = (nk.cycles as f64 - bk.cycles as f64) / basis;
            if drift.abs() > tolerance {
                report.fail(format!(
                    "REGRESSION {}/{kname}: {} -> {} cycles ({:+.2}% > ±{:.2}%)",
                    bm.name,
                    bk.cycles,
                    nk.cycles,
                    100.0 * drift,
                    100.0 * tolerance
                ));
            } else {
                report.lines.push(format!(
                    "ok {}/{kname}: {} -> {} cycles ({:+.2}%)",
                    bm.name,
                    bk.cycles,
                    nk.cycles,
                    100.0 * drift
                ));
            }
        }
    }
    for nm in &new.matrices {
        let Some(bm) = base.matrices.iter().find(|m| m.name == nm.name) else {
            report.fail(format!("EXTRA matrix {} absent from baseline", nm.name));
            continue;
        };
        // Kernels present only in the new run were previously skipped
        // silently; an unexplained new row invalidates a baseline just
        // like a missing one.
        for (kname, _) in &nm.kernels {
            if !bm.kernels.iter().any(|(n, _)| n == kname) {
                report.fail(format!("ADDED {}/{kname} absent from baseline", nm.name));
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_set, RunConfig};
    use stm_sparse::{gen, MatrixMetrics};

    fn tiny_set() -> Vec<stm_dsab::SuiteEntry> {
        let coo = gen::random::uniform(64, 64, 300, 2);
        let metrics = MatrixMetrics::compute(&coo);
        vec![stm_dsab::SuiteEntry {
            name: "tiny".into(),
            coo,
            metrics,
        }]
    }

    fn tiny_baseline() -> Baseline {
        let results = run_set(
            &RunConfig {
                jobs: Some(1),
                ..RunConfig::default()
            },
            &tiny_set(),
        );
        Baseline::from_results("fig11", "quick", "paper", "sim", &results)
    }

    #[test]
    fn json_round_trips_and_is_deterministic() {
        let b = tiny_baseline();
        let text = b.to_json();
        assert_eq!(
            text,
            tiny_baseline().to_json(),
            "non-deterministic baseline"
        );
        let parsed = Baseline::parse(&text).unwrap();
        assert_eq!(parsed.figure, "fig11");
        assert_eq!(parsed.matrices.len(), 1);
        assert_eq!(
            parsed.matrices[0]
                .kernels
                .iter()
                .map(|(n, _)| n.as_str())
                .collect::<Vec<_>>(),
            vec!["transpose_crs", "transpose_hism"]
        );
        // Cycle counts survive the round trip exactly.
        for (bm, pm) in b.matrices.iter().zip(&parsed.matrices) {
            for ((_, bk), (_, pk)) in bm.kernels.iter().zip(&pm.kernels) {
                assert_eq!(bk.cycles, pk.cycles);
                assert!(!bk.util.is_empty());
            }
        }
    }

    #[test]
    fn format_legs_land_in_the_baseline_without_duplicate_keys() {
        let coo = gen::random::uniform(64, 64, 300, 2);
        let metrics = MatrixMetrics::compute(&coo);
        let set = vec![stm_dsab::SuiteEntry {
            name: "tiny".into(),
            coo,
            metrics,
        }];
        let run = |format| {
            let results = run_set(
                &RunConfig {
                    jobs: Some(1),
                    format,
                    ..RunConfig::default()
                },
                &set,
            );
            Baseline::from_results("fig11", "quick", "paper", "sim", &results)
        };
        let sell = run(stm_dsab::FormatSel::parse("sell"));
        assert_eq!(
            sell.matrices[0]
                .kernels
                .iter()
                .map(|(n, _)| n.as_str())
                .collect::<Vec<_>>(),
            vec!["transpose_crs", "transpose_hism", "transpose_sell"]
        );
        // Round trip keeps the extra kernel.
        let parsed = Baseline::parse(&sell.to_json()).unwrap();
        assert_eq!(parsed.matrices[0].kernels.len(), 3);
        // `--format csr` resolves to transpose_crs, already present: no
        // duplicate key, and the baseline matches a format-less run.
        let csr = run(stm_dsab::FormatSel::parse("csr"));
        assert_eq!(csr, run(None));
    }

    #[test]
    fn sim_baselines_carry_no_wall_clock() {
        let b = tiny_baseline();
        assert_eq!(b.backend, "sim");
        let text = b.to_json();
        assert!(
            !text.contains("wall_ns"),
            "simulator baselines must omit wall_ns: {text}"
        );
        for (_, k) in &b.matrices[0].kernels {
            assert_eq!(k.wall_ns, None);
        }
    }

    #[test]
    fn wall_clock_baselines_round_trip_byte_identically() {
        use stm_core::kernels::registry::Backend;
        let results = run_set(
            &RunConfig {
                jobs: Some(1),
                backend: Backend::Scalar,
                ..RunConfig::default()
            },
            &tiny_set(),
        );
        let b = Baseline::from_results("fig11", "quick", "paper", "scalar", &results);
        assert_eq!(b.backend, "scalar");
        let with_wall: Vec<&KernelBaseline> = b.matrices[0]
            .kernels
            .iter()
            .filter(|(n, _)| stm_core::kernels::registry::host_capable(n))
            .map(|(_, k)| k)
            .collect();
        assert!(!with_wall.is_empty());
        assert!(
            with_wall.iter().all(|k| k.wall_ns.is_some()),
            "host legs must record wall_ns"
        );
        let text = b.to_json();
        assert!(text.contains("\"backend\":\"scalar\""));
        assert!(text.contains("\"wall_ns\":"));
        let parsed = Baseline::parse(&text).unwrap();
        assert_eq!(parsed, b, "wall-clock baseline must round-trip exactly");
        assert_eq!(parsed.to_json(), text, "re-serialization must be stable");
        // Wall-clock drift between two machines is NOT a regression: two
        // baselines identical except for wall_ns diff clean.
        let mut other = b.clone();
        for (_, k) in &mut other.matrices[0].kernels {
            if let Some(ns) = k.wall_ns.as_mut() {
                *ns = ns.wrapping_mul(3) + 17;
            }
        }
        let r = diff(&b, &other, 0.02);
        assert_eq!(r.regressions, 0, "{:?}", r.lines);
    }

    #[test]
    fn pre_backend_baselines_still_load() {
        // A file written before the backend/wall_ns fields existed —
        // forward-compat must not rot.
        let old = concat!(
            "{\"schema\":\"stm-bench-baseline/v1\",\"figure\":\"fig11\",",
            "\"suite\":\"quick\",\"timing\":\"paper\",\"matrices\":[\n",
            "{\"name\":\"m\",\"nnz\":123,\"kernels\":{\"transpose_crs\":",
            "{\"cycles\":456,\"util\":{\"alu\":0.100000}}}}\n]}\n"
        );
        let parsed = Baseline::parse(old).unwrap();
        assert_eq!(parsed.backend, "sim", "missing backend defaults to sim");
        let (name, k) = &parsed.matrices[0].kernels[0];
        assert_eq!(name, "transpose_crs");
        assert_eq!(k.cycles, 456);
        assert_eq!(k.wall_ns, None);
        // And it diffs clean against a freshly-parsed copy of itself.
        let r = diff(&parsed, &Baseline::parse(old).unwrap(), 0.02);
        assert_eq!(r.regressions, 0, "{:?}", r.lines);
        // But against a host-backend run the config mismatch is flagged.
        let mut host = parsed.clone();
        host.backend = "scalar".into();
        assert!(diff(&parsed, &host, 0.02).regressions > 0);
    }

    #[test]
    fn identical_baselines_diff_clean() {
        let b = tiny_baseline();
        let r = diff(&b, &b, 0.02);
        assert_eq!(r.regressions, 0, "{:?}", r.lines);
        assert!(r.lines.iter().all(|l| l.starts_with("ok ")));
    }

    #[test]
    fn scaled_cycles_trip_the_tolerance() {
        let b = tiny_baseline();
        let mut inflated = b.clone();
        inflated.scale_cycles(1.05);
        let r = diff(&b, &inflated, 0.02);
        assert!(r.regressions > 0);
        assert!(
            r.lines.iter().any(|l| l.starts_with("REGRESSION")),
            "{:?}",
            r.lines
        );
        // 5% drift sits inside a 10% tolerance.
        assert_eq!(diff(&b, &inflated, 0.10).regressions, 0);
        // Speedups beyond tolerance fail too — stale baselines are a bug.
        let mut deflated = b.clone();
        deflated.scale_cycles(0.9);
        assert!(diff(&b, &deflated, 0.02).regressions > 0);
    }

    #[test]
    fn structural_mismatches_are_regressions() {
        let b = tiny_baseline();
        let mut renamed = b.clone();
        renamed.matrices[0].name = "other".into();
        let r = diff(&b, &renamed, 0.02);
        assert!(r.regressions >= 2, "missing + extra: {:?}", r.lines);
        let mut missing_kernel = b.clone();
        missing_kernel.matrices[0].kernels.pop();
        assert!(diff(&b, &missing_kernel, 0.02).regressions > 0);
        let mut wrong_suite = b.clone();
        wrong_suite.suite = "full".into();
        assert!(diff(&b, &wrong_suite, 0.02).regressions > 0);
    }

    #[test]
    fn zero_cycle_entries_never_divide_by_zero() {
        let b = tiny_baseline();
        // Matching zero-cycle rows agree without a drift percentage.
        let mut base_zero = b.clone();
        base_zero.matrices[0].kernels[0].1.cycles = 0;
        let r = diff(&base_zero, &base_zero, 0.02);
        assert_eq!(r.regressions, 0, "{:?}", r.lines);
        assert!(
            r.lines.iter().any(|l| l.contains("0 -> 0 cycles")),
            "{:?}",
            r.lines
        );
        // Zero on one side only is a dedicated failure, not an absurd
        // percentage (and never a division by zero / inf / NaN).
        let r = diff(&base_zero, &b, 0.02);
        assert!(r.regressions > 0);
        assert!(
            r.lines
                .iter()
                .any(|l| l.starts_with("ZERO-CYCLE") && !l.contains('%')),
            "{:?}",
            r.lines
        );
        let mut new_zero = b.clone();
        new_zero.matrices[0].kernels[1].1.cycles = 0;
        let r = diff(&b, &new_zero, 0.02);
        assert!(r.lines.iter().any(|l| l.starts_with("ZERO-CYCLE")));
        assert!(r.regressions > 0);
    }

    #[test]
    fn kernels_only_in_the_new_run_are_reported_as_added() {
        let b = tiny_baseline();
        let mut grown = b.clone();
        grown.matrices[0].kernels.push((
            "transpose_ref".to_string(),
            KernelBaseline {
                cycles: 123,
                wall_ns: None,
                util: Vec::new(),
            },
        ));
        let r = diff(&b, &grown, 0.02);
        assert_eq!(r.regressions, 1, "{:?}", r.lines);
        assert!(
            r.lines
                .iter()
                .any(|l| l.starts_with("ADDED") && l.contains("transpose_ref")),
            "{:?}",
            r.lines
        );
        // And the mirror case still reports MISSING.
        let r = diff(&grown, &b, 0.02);
        assert!(r.lines.iter().any(|l| l.starts_with("MISSING")));
    }

    #[test]
    fn parse_rejects_wrong_schema_and_garbage() {
        assert!(Baseline::parse("{}").is_err());
        assert!(Baseline::parse("not json").is_err());
        let wrong = "{\"schema\":\"stm-bench-baseline/v0\",\"matrices\":[]}";
        let err = Baseline::parse(wrong).unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }
}
