//! Drives a binary's command line from the outside: each run spawns the
//! binary in an empty working directory under a kill deadline, so a
//! binary that ignores its flags and starts working is caught instead
//! of waited for. Shared by the `cli` tests of `stm-obs`, `stm-bench`
//! and `stm-serve`.

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How long a usage check may take before the binary is killed.
const DEADLINE: Duration = Duration::from_secs(120);

/// The environment variables of the shared run flags and the tools: a
/// run starts without them unless it sets one itself.
const VARS: [&str; 8] = [
    "STM_SUITE",
    "STM_JOBS",
    "STM_FORMAT",
    "STM_TRACE",
    "STM_BACKEND",
    "STM_STRICT",
    "STM_BENCH_JSON",
    "STM_SIMCORR_REPS",
];

/// What one run did.
pub struct Outcome {
    pub code: Option<i32>,
    pub stdout: String,
    pub stderr: String,
    /// Entries the run left in its working directory.
    pub wrote: Vec<PathBuf>,
}

/// Runs `exe args` with `env` in a fresh empty directory.
pub fn run(exe: &str, args: &[&str], env: &[(&str, &str)]) -> Outcome {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let n = RUNS.fetch_add(1, Ordering::Relaxed);
    let root = std::env::temp_dir().join(format!("stm-cli-{}-{n}", std::process::id()));
    let cwd = root.join("cwd");
    std::fs::create_dir_all(&cwd).unwrap();
    let (out, err) = (root.join("stdout"), root.join("stderr"));
    let mut cmd = Command::new(exe);
    cmd.args(args).current_dir(&cwd).stdin(Stdio::null());
    cmd.stdout(std::fs::File::create(&out).unwrap());
    cmd.stderr(std::fs::File::create(&err).unwrap());
    for var in VARS {
        cmd.env_remove(var);
    }
    cmd.envs(env.iter().copied());
    let mut child = cmd.spawn().unwrap_or_else(|e| panic!("spawn {exe}: {e}"));
    let start = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if start.elapsed() > DEADLINE {
            child.kill().ok();
            child.wait().ok();
            std::fs::remove_dir_all(&root).ok();
            panic!("{exe} {args:?} still running after {DEADLINE:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let wrote = std::fs::read_dir(&cwd)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    let outcome = Outcome {
        code: status.code(),
        stdout: std::fs::read_to_string(&out).unwrap(),
        stderr: std::fs::read_to_string(&err).unwrap(),
        wrote,
    };
    std::fs::remove_dir_all(&root).ok();
    outcome
}

/// `--help` exits 0, prints `usage:` and exactly `flags`, in order, and
/// writes nothing; an unknown flag exits 2 and names it.
pub fn check_help(exe: &str, flags: &[&str]) {
    let help = run(exe, &["--help"], &[]);
    assert_eq!(help.code, Some(0), "{exe} --help: {}", help.stderr);
    assert!(help.stdout.starts_with("usage: "), "{exe}: {}", help.stdout);
    let listed: Vec<&str> = help
        .stdout
        .lines()
        .filter_map(|l| l.strip_prefix("  ")?.split_whitespace().next())
        .collect();
    assert_eq!(listed, flags, "{exe} --help lists other flags");
    assert!(help.wrote.is_empty(), "{exe} --help wrote {:?}", help.wrote);
    check_usage_error(exe, &["--no-such-flag"], &[], "--no-such-flag");
}

/// `exe args` (with `env`) exits 2, names `named` on stderr and writes
/// nothing.
pub fn check_usage_error(exe: &str, args: &[&str], env: &[(&str, &str)], named: &str) {
    let run = run(exe, args, env);
    assert_eq!(run.code, Some(2), "{exe} {args:?}: {}", run.stderr);
    assert!(
        run.stderr.contains(named),
        "{exe} {args:?} does not name {named}: {}",
        run.stderr
    );
    assert!(run.wrote.is_empty(), "{exe} {args:?} wrote {:?}", run.wrote);
}
