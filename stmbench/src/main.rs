//! The `stmbench` command line; see `README.md` next to `Cargo.toml`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;
use stmbench::report::{self, RunFile, RunRecord};
use stmbench::spec::{self, Workload};
use stmbench::{Options, Scale};

const USAGE: &str = "usage:
  stmbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--spans DIR]
      one run; prints `name value unit` lines, then the JSON result line
  stmbench run --workload NAME|all [--seed N] [--repeat N] [--seconds S] [--trace] --out FILE
      N runs per workload (seeds N, N+1, ...) plus, with --trace, one traced
      run, each in its own process; writes a run file
  stmbench compare BASE.json NEW.json
      per (workload, metric) medians, quartiles and verdict; exit 1 on `worse`
workloads: campaign, host-kernels, serve-small, serve-vote
defaults: --seed 1 --seconds 5 --trace 0 --repeat 5";

/// Parses `--flag value` pairs (and bare `switches`) into a map.
fn flags(
    args: &[String],
    valued: &[&str],
    switches: &[&str],
) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if switches.contains(&a.as_str()) {
            out.insert(a.clone(), String::new());
        } else if valued.contains(&a.as_str()) {
            let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
            out.insert(a.clone(), v.clone());
        } else {
            return Err(format!("unexpected argument {a:?}"));
        }
    }
    Ok(out)
}

fn parsed<T: std::str::FromStr>(
    f: &BTreeMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    f.get(key).map_or(Ok(default), |v| {
        v.parse().map_err(|_| format!("bad {key} value {v:?}"))
    })
}

fn workload(name: &str) -> Result<Workload, String> {
    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))
}

fn run_one(args: &[String]) -> Result<i32, String> {
    let f = flags(
        args,
        &["--workload", "--seed", "--seconds", "--trace", "--spans"],
        &[],
    )?;
    let opts = Options {
        workload: workload(f.get("--workload").ok_or("--workload is required")?)?,
        seed: parsed(&f, "--seed", 1)?,
        seconds: parsed(&f, "--seconds", 5.0)?,
        trace: match f.get("--trace").map_or("0", String::as_str) {
            "0" => false,
            "1" => true,
            v => return Err(format!("bad --trace value {v:?} (want 0 or 1)")),
        },
        scale: Scale::Full,
        spans_dir: f
            .get("--spans")
            .map_or_else(stmbench::default_spans_dir, PathBuf::from),
    };
    if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
        return Err(format!("--seconds {} is outside (0, 600]", opts.seconds));
    }
    let out = stmbench::run(&opts);
    let table = if opts.trace {
        spec::per_layer()
    } else {
        spec::end_to_end()
    };
    for e in &out.errors {
        eprintln!("stmbench: {}: {e}", opts.workload.name());
    }
    for line in report::metric_lines(&out, &table) {
        println!("{line}");
    }
    println!("{}", report::result_line(&out, &table));
    Ok(if out.correct() { 0 } else { 1 })
}

fn run_many(args: &[String]) -> Result<i32, String> {
    let f = flags(
        args,
        &["--workload", "--seed", "--repeat", "--seconds", "--out"],
        &["--trace"],
    )?;
    let workloads = match f.get("--workload").map(String::as_str) {
        Some("all") => Workload::ALL.to_vec(),
        Some(name) => vec![workload(name)?],
        None => return Err("--workload is required".into()),
    };
    let seed: u64 = parsed(&f, "--seed", 1)?;
    let repeat: u64 = parsed(&f, "--repeat", 5)?;
    let seconds: f64 = parsed(&f, "--seconds", 5.0)?;
    let path = PathBuf::from(f.get("--out").ok_or("--out is required")?);
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;

    let calibration_start_ms = report::calibrate();
    let mut runs = Vec::new();
    let mut all_correct = true;
    for w in workloads {
        let plan = (0..repeat)
            .map(|i| (seed + i, false))
            .chain(f.contains_key("--trace").then_some((seed, true)));
        for (s, trace) in plan {
            let t0 = Instant::now();
            // Each run gets its own process, so peak RSS and allocator
            // state never carry over from one workload to the next.
            let child = Command::new(&exe)
                .args([
                    "--workload",
                    w.name(),
                    "--seed",
                    &s.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                ])
                .args(["--trace", if trace { "1" } else { "0" }])
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("running {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&child.stdout);
            let last = stdout.lines().last().unwrap_or("");
            let rec = RunRecord::from_result(w.name(), s, trace, last)
                .map_err(|e| format!("{} seed {s}: {e} (exit {})", w.name(), child.status))?;
            all_correct &= rec.correct && child.status.success();
            eprintln!(
                "stmbench: {} seed {s}{}: {} in {:.1} s",
                w.name(),
                if trace { " traced" } else { "" },
                if rec.correct { "correct" } else { "INCORRECT" },
                t0.elapsed().as_secs_f64()
            );
            runs.push(rec);
        }
    }
    let file = RunFile {
        fingerprint: report::Fingerprint::here(),
        calibration_start_ms,
        calibration_end_ms: report::calibrate(),
        seconds,
        runs,
    };
    std::fs::write(&path, file.to_json())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!(
        "stmbench: wrote {}{}",
        path.display(),
        if file.noisy() { " (noisy)" } else { "" }
    );
    Ok(if all_correct { 0 } else { 1 })
}

fn compare(args: &[String]) -> Result<i32, String> {
    let [a, b] = args else {
        return Err("compare takes two run files".into());
    };
    let read = |p: &String| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"))?;
        RunFile::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (table, worse) = report::compare(&read(a)?, &read(b)?);
    print!("{table}");
    Ok(if worse { 1 } else { 0 })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("-h" | "--help") => {
            println!("{USAGE}");
            Ok(0)
        }
        Some("run") => run_many(&args[1..]),
        Some("compare") => compare(&args[1..]),
        _ => run_one(&args),
    };
    match result {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("stmbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    }
}
