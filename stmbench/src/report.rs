//! Result output and run files: the one-line JSON result of a run, the
//! run file `stmbench run` writes (machine fingerprint, calibration and
//! every run's result), and `stmbench compare` over two run files.

use crate::spec::{self, Metric, Workload};
use crate::stats::{verdict, Summary};
use crate::Outcome;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;
use stm_obs::json::Json;

/// Run-file schema tag.
pub const SCHEMA: &str = "stmbench-runs/v1";

/// The calibration loops may differ by this share before a run file is
/// flagged `noisy`.
const NOISY: f64 = 0.10;

/// A number as JSON: every digit Rust prints, and 0 for a non-finite
/// value (which already made the run incorrect).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Quotes `s` as a JSON string.
fn quote(s: &str) -> String {
    let mut q = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => q.push_str("\\\""),
            '\\' => q.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(q, "\\u{:04x}", c as u32);
            }
            c => q.push(c),
        }
    }
    q.push('"');
    q
}

/// The `name value unit` lines of a run, in table order.
pub fn metric_lines(out: &Outcome, table: &[Metric]) -> Vec<String> {
    table
        .iter()
        .filter_map(|m| {
            out.metrics
                .get(&m.name)
                .map(|v| format!("{} {} {}", m.name, num(*v), m.unit))
        })
        .collect()
}

/// The one-line JSON result of a run: `correct`, `attempted`, `failed`
/// and every measured metric with its unit, in table order.
pub fn result_line(out: &Outcome, table: &[Metric]) -> String {
    let metrics: Vec<String> = table
        .iter()
        .filter_map(|m| {
            out.metrics.get(&m.name).map(|v| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    quote(&m.name),
                    num(*v),
                    quote(m.unit)
                )
            })
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics.join(",")
    )
}

/// The machine a run file was measured on.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// `available_parallelism`.
    pub nproc: usize,
    /// The CPU's model name.
    pub cpu: String,
    /// The SIMD tier the host kernels dispatch to.
    pub isa: String,
}

impl Fingerprint {
    /// Fingerprints the machine it runs on.
    pub fn here() -> Fingerprint {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines().find_map(|l| {
                    l.strip_prefix("model name")?
                        .split_once(':')
                        .map(|(_, v)| v.trim().to_string())
                })
            })
            .unwrap_or_else(|| std::env::consts::ARCH.to_string());
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            isa: stm_host::detect_isa().name().to_string(),
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"cpu\":{},\"isa\":{}}}",
            self.nproc,
            quote(&self.cpu),
            quote(&self.isa)
        )
    }
}

/// Times a fixed CPU-bound loop (FNV-1a over 8 MiB, best of three) in
/// ms. Run files record it at start and end; gated metrics are never
/// normalized by it.
pub fn calibrate() -> f64 {
    let buf: Vec<u8> = (0..8usize << 20).map(|i| (i * 131 % 251) as u8).collect();
    (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for &b in black_box(&buf) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            black_box(h);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// One run's entry in a run file.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// The run's seed.
    pub seed: u64,
    /// A traced run.
    pub trace: bool,
    /// The run's `correct` flag.
    pub correct: bool,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

impl RunRecord {
    /// Parses a run's one-line JSON result.
    pub fn from_result(
        workload: &str,
        seed: u64,
        trace: bool,
        line: &str,
    ) -> Result<RunRecord, String> {
        let json = Json::parse(line).map_err(|e| format!("result line: {e}"))?;
        let correct = json
            .get("correct")
            .and_then(Json::as_bool)
            .ok_or("result: no correct flag")?;
        let mut metrics = BTreeMap::new();
        if let Some(Json::Obj(fields)) = json.get("metrics") {
            for (name, m) in fields {
                let v = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("metric {name}: no value"))?;
                metrics.insert(name.clone(), v);
            }
        }
        Ok(RunRecord {
            workload: workload.to_string(),
            seed,
            trace,
            correct,
            metrics,
        })
    }
}

/// A run file: where and how a set of runs was measured, and the runs.
#[derive(Debug, Clone, PartialEq)]
pub struct RunFile {
    /// The machine.
    pub fingerprint: Fingerprint,
    /// Calibration loop before the first run, ms.
    pub calibration_start_ms: f64,
    /// Calibration loop after the last run, ms.
    pub calibration_end_ms: f64,
    /// Nominal seconds each run measured.
    pub seconds: f64,
    /// Every run, in the order it ran.
    pub runs: Vec<RunRecord>,
}

impl RunFile {
    /// The calibration loops differ by more than 10%.
    pub fn noisy(&self) -> bool {
        (self.calibration_end_ms - self.calibration_start_ms).abs() / self.calibration_start_ms
            > NOISY
    }

    /// Serializes the file, one run per line.
    pub fn to_json(&self) -> String {
        let runs: Vec<String> = self
            .runs
            .iter()
            .map(|r| {
                let metrics: Vec<String> =
                    r.metrics.iter().map(|(k, v)| format!("{}:{}", quote(k), num(*v))).collect();
                format!(
                    "    {{\"workload\":{},\"seed\":{},\"trace\":{},\"correct\":{},\"metrics\":{{{}}}}}",
                    quote(&r.workload),
                    r.seed,
                    r.trace,
                    r.correct,
                    metrics.join(",")
                )
            })
            .collect();
        format!(
            "{{\n  \"schema\":{},\n  \"fingerprint\":{},\n  \"calibration\":{{\"start_ms\":{},\"end_ms\":{},\"noisy\":{}}},\n  \"seconds\":{},\n  \"runs\":[\n{}\n  ]\n}}\n",
            quote(SCHEMA),
            self.fingerprint.json(),
            num(self.calibration_start_ms),
            num(self.calibration_end_ms),
            self.noisy(),
            num(self.seconds),
            runs.join(",\n")
        )
    }

    /// Parses [`RunFile::to_json`] output.
    pub fn parse(text: &str) -> Result<RunFile, String> {
        let json = Json::parse(text)?;
        if json.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("not a {SCHEMA} file"));
        }
        let field = |j: &Json, k: &str| j.get(k).cloned().ok_or(format!("missing field {k:?}"));
        let fp = field(&json, "fingerprint")?;
        let cal = field(&json, "calibration")?;
        let f64_of = |j: &Json, k: &str| {
            field(j, k)?
                .as_f64()
                .ok_or(format!("field {k:?} is not a number"))
        };
        let mut runs = Vec::new();
        for r in field(&json, "runs")?
            .as_array()
            .ok_or("runs is not a list")?
        {
            let mut metrics = BTreeMap::new();
            if let Some(Json::Obj(fields)) = r.get("metrics") {
                for (k, v) in fields {
                    metrics.insert(
                        k.clone(),
                        v.as_f64().ok_or(format!("metric {k} is not a number"))?,
                    );
                }
            }
            runs.push(RunRecord {
                workload: field(r, "workload")?
                    .as_str()
                    .ok_or("workload")?
                    .to_string(),
                seed: field(r, "seed")?.as_u64().ok_or("seed")?,
                trace: field(r, "trace")?.as_bool().ok_or("trace")?,
                correct: field(r, "correct")?.as_bool().ok_or("correct")?,
                metrics,
            });
        }
        Ok(RunFile {
            fingerprint: Fingerprint {
                nproc: field(&fp, "nproc")?.as_u64().ok_or("nproc")? as usize,
                cpu: field(&fp, "cpu")?.as_str().ok_or("cpu")?.to_string(),
                isa: field(&fp, "isa")?.as_str().ok_or("isa")?.to_string(),
            },
            calibration_start_ms: f64_of(&cal, "start_ms")?,
            calibration_end_ms: f64_of(&cal, "end_ms")?,
            seconds: f64_of(&json, "seconds")?,
            runs,
        })
    }

    /// The values of `metric` over this file's runs of `workload` of the
    /// given kind (traced or not).
    pub fn values(&self, workload: &str, trace: bool, metric: &str) -> Vec<f64> {
        self.runs
            .iter()
            .filter(|r| r.workload == workload && r.trace == trace)
            .filter_map(|r| r.metrics.get(metric).copied())
            .collect()
    }
}

fn describe(s: &Summary) -> String {
    format!("{:.6} [{:.6}, {:.6}]", s.median, s.q1, s.q3)
}

/// Compares new runs `b` against base runs `a`: one row per (workload,
/// metric) with both medians and quartiles, the change of the median,
/// both spreads and, for end-to-end metrics, the verdict. Returns the
/// table and whether any verdict is "worse".
pub fn compare(a: &RunFile, b: &RunFile) -> (String, bool) {
    let mut t = String::new();
    for (label, f) in [("base", a), ("new", b)] {
        let _ = writeln!(
            t,
            "{label}: {} cpus, {}, {}; calibration {:.3} -> {:.3} ms{}",
            f.fingerprint.nproc,
            f.fingerprint.cpu,
            f.fingerprint.isa,
            f.calibration_start_ms,
            f.calibration_end_ms,
            if f.noisy() { " (noisy)" } else { "" }
        );
    }
    let _ = writeln!(
        t,
        "{:<13} {:<40} {:>38} {:>38} {:>8} {:>7} {:>7} {:>6}  verdict",
        "workload",
        "metric",
        "base median [q1, q3]",
        "new median [q1, q3]",
        "change",
        "spreadA",
        "spreadB",
        "bound"
    );
    let mut worse = false;
    for w in Workload::ALL {
        for (trace, table) in [(false, spec::end_to_end()), (true, spec::per_layer())] {
            for m in table {
                let (va, vb) = (
                    a.values(w.name(), trace, &m.name),
                    b.values(w.name(), trace, &m.name),
                );
                let (Some(sa), Some(sb)) = (Summary::of(&va), Summary::of(&vb)) else {
                    continue;
                };
                let v = m.bound.map(|bound| verdict(&va, &vb, m.better, bound));
                worse |= v.is_some_and(|v| v == crate::stats::Verdict::Worse);
                let _ = writeln!(
                    t,
                    "{:<13} {:<40} {:>38} {:>38} {:>+7.2}% {:>6.2}% {:>6.2}% {:>6}  {}",
                    w.name(),
                    m.name,
                    describe(&sa),
                    describe(&sb),
                    100.0 * (sb.median - sa.median) / sa.median.abs(),
                    100.0 * sa.spread(),
                    100.0 * sb.spread(),
                    m.bound.map_or("-".into(), |b| format!("{:.0}%", 100.0 * b)),
                    v.map_or("-", |v| v.name())
                );
            }
        }
    }
    (t, worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> Outcome {
        let mut out = Outcome::default();
        out.check(true, String::new);
        out.set("setup_s", 0.8127);
        out.set("p50_us", 56.25);
        out
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let line = result_line(&outcome(), &spec::end_to_end());
        let json = Json::parse(&line).unwrap();
        let Json::Obj(fields) = &json else {
            panic!("{line}")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = json.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(0.8127));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("s"));
        let rec = RunRecord::from_result("campaign", 3, false, &line).unwrap();
        assert!(rec.correct);
        assert_eq!(rec.metrics.get("p50_us"), Some(&56.25));
    }

    #[test]
    fn run_files_round_trip_and_compare() {
        let base = RunFile {
            fingerprint: Fingerprint {
                nproc: 2,
                cpu: "Test \"CPU\"".into(),
                isa: "avx2".into(),
            },
            calibration_start_ms: 10.0,
            calibration_end_ms: 12.0,
            seconds: 10.0,
            runs: (0..5)
                .map(|i| RunRecord {
                    workload: "serve-small".into(),
                    seed: i,
                    trace: false,
                    correct: true,
                    metrics: [("p50_us".to_string(), 50.0 + i as f64 * 0.1)].into(),
                })
                .collect(),
        };
        assert!(base.noisy());
        let back = RunFile::parse(&base.to_json()).unwrap();
        assert_eq!(back, base);
        let (table, worse) = compare(&base, &back);
        assert!(!worse, "{table}");
        assert!(
            table.contains("p50_us") && table.contains("same"),
            "{table}"
        );

        let mut slow = back.clone();
        for r in &mut slow.runs {
            *r.metrics.get_mut("p50_us").unwrap() *= 1.4;
        }
        let (table, worse) = compare(&base, &slow);
        assert!(worse && table.contains("worse"), "{table}");
    }
}
