//! The one command-line parser behind every binary of the workspace.
//!
//! A binary declares a [`Cli`]: its name, one line about it, the
//! operands it takes (if any) and one table of [`Flag`]s — exactly the
//! flags it reads. The table drives everything else:
//!
//! * parsing: `--flag V` or `--flag=V`, the first occurrence winning,
//!   with the flag's environment variable as the fallback;
//! * `--help` / `-h`: the usage text on stdout, exit 0;
//! * errors: an unknown flag, a missing value, an unexpected operand or
//!   a value that does not parse exits 2 and names the flag or the
//!   environment variable the value came from.
//!
//! The binary hands in its own `argv` ([`Cli::parse`]); nothing here
//! reads `std::env::args()`.
//!
//! ```
//! use stm_obs::cli::{Cli, Flag};
//!
//! const CLI: Cli = Cli {
//!     bin: "demo",
//!     about: "A demo binary.",
//!     operands: "",
//!     flags: &[
//!         Flag::value("--jobs", "N", "worker-pool size").env("DEMO_JOBS"),
//!         Flag::switch("--quick", "reduced suite").env("DEMO_SUITE=quick"),
//!     ],
//! };
//! let argv = ["--jobs=4", "--quick"].map(String::from);
//! let args = CLI.try_parse(argv, |_| None).unwrap();
//! assert_eq!(args.value::<usize>("--jobs"), Some(4));
//! assert!(args.on("--quick"));
//! ```

use std::path::{Path, PathBuf};

/// One row of a binary's flag table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flag {
    /// The flag with its dashes, e.g. `--jobs`.
    pub name: &'static str,
    /// The value placeholder shown in the help (`N`, `FILE`); `None`
    /// makes the flag a switch.
    pub value: Option<&'static str>,
    /// The environment fallback: the variable's name for a valued flag,
    /// `VAR=VALUE` for a switch (on when `VAR` holds exactly `VALUE`).
    pub env: Option<&'static str>,
    /// One line of help.
    pub help: &'static str,
}

impl Flag {
    /// A switch: present or absent, never given a value.
    pub const fn switch(name: &'static str, help: &'static str) -> Flag {
        Flag {
            name,
            value: None,
            env: None,
            help,
        }
    }

    /// A flag taking one value, shown as `placeholder` in the help.
    pub const fn value(name: &'static str, placeholder: &'static str, help: &'static str) -> Flag {
        Flag {
            name,
            value: Some(placeholder),
            env: None,
            help,
        }
    }

    /// The same flag with an environment fallback, written as the
    /// `env` field describes.
    pub const fn env(self, env: &'static str) -> Flag {
        Flag {
            env: Some(env),
            ..self
        }
    }

    /// The flag as the help shows it: `--jobs N`.
    fn form(&self) -> String {
        match self.value {
            Some(v) => format!("{} {v}", self.name),
            None => self.name.to_string(),
        }
    }
}

/// A binary's command line: who it is and the one table of flags it
/// reads.
#[derive(Debug, Clone, Copy)]
pub struct Cli<'a> {
    /// The binary's name, as the usage line and every error show it.
    pub bin: &'a str,
    /// One line about the binary.
    pub about: &'a str,
    /// The operand syntax after the flags (`<file | dir> ...`); empty
    /// for a binary that takes no operands, where any is an error.
    pub operands: &'a str,
    /// Every flag the binary reads.
    pub flags: &'a [Flag],
}

/// Why [`Cli::try_parse`] returned no [`Args`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stop {
    /// `--help` or `-h` was given.
    Help,
    /// A usage error, naming the flag, variable or operand at fault.
    Error(String),
}

/// A resolved value and where it came from: the flag or the variable.
#[derive(Debug, Clone)]
struct Given {
    raw: String,
    from: &'static str,
}

/// A parsed command line: one slot per row of the table, plus operands.
#[derive(Debug, Clone)]
pub struct Args<'a> {
    cli: Cli<'a>,
    given: Vec<Option<Given>>,
    operands: Vec<String>,
}

impl<'a> Cli<'a> {
    /// Parses `argv` (without the program name) against the table, with
    /// the process environment as the fallback. `--help` prints the
    /// usage text and exits 0; a usage error exits 2.
    pub fn parse(&self, argv: impl IntoIterator<Item = String>) -> Args<'a> {
        match self.try_parse(argv, |var| std::env::var(var).ok()) {
            Ok(args) => args,
            Err(Stop::Help) => {
                print!("{}", self.usage());
                std::process::exit(0)
            }
            Err(Stop::Error(e)) => self.fail(&e),
        }
    }

    /// [`Cli::parse`] without exiting, the environment read through
    /// `env`.
    pub fn try_parse(
        &self,
        argv: impl IntoIterator<Item = String>,
        env: impl Fn(&str) -> Option<String>,
    ) -> Result<Args<'a>, Stop> {
        let argv: Vec<String> = argv.into_iter().collect();
        if argv.iter().any(|a| a == "--help" || a == "-h") {
            return Err(Stop::Help);
        }
        let mut given: Vec<Option<Given>> = vec![None; self.flags.len()];
        let mut operands = Vec::new();
        let mut it = argv.into_iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with('-') || arg == "-" {
                if self.operands.is_empty() {
                    return Err(Stop::Error(format!("unexpected argument {arg:?}")));
                }
                operands.push(arg);
                continue;
            }
            let (name, inline) = match arg.split_once('=') {
                Some((n, v)) => (n, Some(v.to_string())),
                None => (arg.as_str(), None),
            };
            let Some(i) = self.flags.iter().position(|f| f.name == name) else {
                return Err(Stop::Error(format!("unknown flag {name}")));
            };
            let flag = &self.flags[i];
            let raw = match (flag.value, inline) {
                (None, Some(_)) => {
                    return Err(Stop::Error(format!("{name} takes no value")));
                }
                (None, None) => String::new(),
                (Some(_), Some(v)) => v,
                (Some(placeholder), None) => it
                    .next()
                    .ok_or_else(|| Stop::Error(format!("{name} needs a value {placeholder}")))?,
            };
            given[i].get_or_insert(Given {
                raw,
                from: flag.name,
            });
        }
        for (flag, slot) in self.flags.iter().zip(&mut given) {
            let Some(spec) = flag.env.filter(|_| slot.is_none()) else {
                continue;
            };
            *slot = match (flag.value, spec.split_once('=')) {
                (None, Some((var, on))) => (env(var).as_deref() == Some(on)).then(|| Given {
                    raw: String::new(),
                    from: var,
                }),
                _ => env(spec).map(|raw| Given { raw, from: spec }),
            };
        }
        Ok(Args {
            cli: *self,
            given,
            operands,
        })
    }

    /// The usage line: `usage: bin [flags] operands`.
    pub fn usage_line(&self) -> String {
        let mut line = format!("usage: {} [flags]", self.bin);
        if !self.operands.is_empty() {
            line.push(' ');
            line.push_str(self.operands);
        }
        line
    }

    /// The `--help` text: the usage line, the about line and the table,
    /// one aligned row per flag with its environment fallback.
    pub fn usage(&self) -> String {
        let mut out = format!("{}\n{}\n", self.usage_line(), self.about);
        if self.flags.is_empty() {
            return out;
        }
        out.push_str("\nflags:\n");
        let width = self.flags.iter().map(|f| f.form().len()).max().unwrap_or(0);
        for f in self.flags {
            out.push_str(&format!("  {:width$}  {}", f.form(), f.help));
            match (f.env, f.value) {
                (Some(var), Some(v)) => out.push_str(&format!(" (or {var}={v})")),
                (Some(on), None) => out.push_str(&format!(" (or {on})")),
                (None, _) => {}
            }
            out.push('\n');
        }
        out
    }

    /// Reports a usage error — `bin: msg` and the usage line on stderr —
    /// and exits 2.
    pub fn fail(&self, msg: &str) -> ! {
        eprintln!("{}: {msg}\n{}", self.bin, self.usage_line());
        std::process::exit(2)
    }
}

impl<'a> Args<'a> {
    /// The slot of `name`. A name outside the table is a bug in the
    /// binary, not a usage error.
    fn given(&self, name: &str) -> Option<&Given> {
        let i = self.cli.flags.iter().position(|f| f.name == name);
        let i = i.unwrap_or_else(|| panic!("{name} is not in {}'s flag table", self.cli.bin));
        self.given[i].as_ref()
    }

    /// `true` when the switch `name` was given or its variable is on.
    pub fn on(&self, name: &str) -> bool {
        self.given(name).is_some()
    }

    /// The raw value of `name`, from the command line or its variable.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.given(name).map(|g| g.raw.as_str())
    }

    /// The value of `name` parsed by `parse`; an error names the flag or
    /// variable the value came from.
    fn try_value_with<T>(
        &self,
        name: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        let Some(g) = self.given(name) else {
            return Ok(None);
        };
        match parse(&g.raw) {
            Some(v) => Ok(Some(v)),
            None => Err(format!("bad value {:?} for {}", g.raw, g.from)),
        }
    }

    /// The value of `name` parsed by `parse` (`None` when absent),
    /// exiting 2 on a bad value, naming the flag or variable it came from.
    pub fn value_with<T>(&self, name: &str, parse: impl FnOnce(&str) -> Option<T>) -> Option<T> {
        self.try_value_with(name, parse)
            .unwrap_or_else(|e| self.fail(&e))
    }

    /// The value of `name` parsed as `T` (`None` when absent), exiting 2
    /// on a value that does not parse.
    pub fn value<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.value_with(name, |raw| raw.parse().ok())
    }

    /// The operands, in order.
    pub fn operands(&self) -> &[String] {
        &self.operands
    }

    /// The operands as files: a directory expands (non-recursively, in
    /// name order) to its files whose extension is one of `extensions`;
    /// any other operand is taken as a file. An unreadable directory is
    /// an error naming it.
    pub fn operand_files(&self, extensions: &[&str]) -> Result<Vec<PathBuf>, String> {
        let mut files = Vec::new();
        for operand in &self.operands {
            let path = Path::new(operand);
            if !path.is_dir() {
                files.push(path.to_path_buf());
                continue;
            }
            let dir = std::fs::read_dir(path).map_err(|e| format!("{operand}: {e}"))?;
            let mut found: Vec<PathBuf> = dir
                .filter_map(|e| Some(e.ok()?.path()))
                .filter(|p| {
                    let ext = p.extension().and_then(|x| x.to_str());
                    ext.is_some_and(|x| extensions.contains(&x))
                })
                .collect();
            found.sort();
            files.extend(found);
        }
        Ok(files)
    }

    /// [`Cli::fail`] for this command line.
    pub fn fail(&self, msg: &str) -> ! {
        self.cli.fail(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLI: Cli = Cli {
        bin: "t",
        about: "A test table.",
        operands: "<file> ...",
        flags: &[
            Flag::value("--jobs", "N", "pool size").env("T_JOBS"),
            Flag::switch("--quick", "small suite").env("T_SUITE=quick"),
            Flag::switch("--join", "join trees"),
            Flag::value("--csv", "FILE", "write a CSV"),
        ],
    };

    fn parse(argv: &[&str], env: &[(&str, &str)]) -> Result<Args<'static>, Stop> {
        let env: Vec<(String, String)> = env
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        CLI.try_parse(argv.iter().map(|a| a.to_string()), move |var| {
            env.iter().find(|(k, _)| k == var).map(|(_, v)| v.clone())
        })
    }

    fn error(argv: &[&str]) -> String {
        match parse(argv, &[]) {
            Err(Stop::Error(e)) => e,
            other => panic!("{argv:?} parsed: {other:?}"),
        }
    }

    #[test]
    fn a_value_is_taken_separate_or_after_an_equals_sign() {
        for argv in [&["--jobs", "3"][..], &["--jobs=3"]] {
            let args = parse(argv, &[]).unwrap();
            assert_eq!(args.value::<usize>("--jobs"), Some(3), "{argv:?}");
        }
        let args = parse(&["--csv=a=b.csv"], &[]).unwrap();
        assert_eq!(args.get("--csv"), Some("a=b.csv"));
    }

    #[test]
    fn the_first_occurrence_wins() {
        let args = parse(&["--jobs", "1", "--jobs=2", "--jobs", "3"], &[]).unwrap();
        assert_eq!(args.get("--jobs"), Some("1"));
    }

    #[test]
    fn the_environment_is_the_fallback() {
        let args = parse(&[], &[("T_JOBS", "5"), ("T_SUITE", "quick")]).unwrap();
        assert_eq!(args.value::<usize>("--jobs"), Some(5));
        assert!(args.on("--quick"));
        let args = parse(&["--jobs", "2"], &[("T_JOBS", "5")]).unwrap();
        assert_eq!(args.value::<usize>("--jobs"), Some(2), "the flag wins");
        let args = parse(&[], &[("T_SUITE", "full")]).unwrap();
        assert!(
            !args.on("--quick"),
            "a switch's variable must hold its value"
        );
        assert!(!args.on("--join") && args.get("--csv").is_none());
    }

    #[test]
    fn a_bad_value_names_the_flag_or_the_variable() {
        let args = parse(&["--jobs", "two"], &[]).unwrap();
        let e = args.try_value_with("--jobs", |r| r.parse::<usize>().ok());
        assert_eq!(e, Err("bad value \"two\" for --jobs".to_string()));
        let args = parse(&[], &[("T_JOBS", "two")]).unwrap();
        let e = args.try_value_with("--jobs", |r| r.parse::<usize>().ok());
        assert_eq!(e, Err("bad value \"two\" for T_JOBS".to_string()));
    }

    #[test]
    fn a_switch_followed_by_an_operand_takes_no_value() {
        let args = parse(&["--join", "trace.jsonl", "--quick", "dir"], &[]).unwrap();
        assert!(args.on("--join") && args.on("--quick"));
        assert_eq!(args.operands(), ["trace.jsonl", "dir"]);
    }

    #[test]
    fn usage_errors_name_what_is_wrong() {
        assert_eq!(error(&["--jbos", "2"]), "unknown flag --jbos");
        assert_eq!(error(&["--jobs"]), "--jobs needs a value N");
        assert_eq!(error(&["--quick=yes"]), "--quick takes no value");
        let no_operands = Cli {
            operands: "",
            ..CLI
        };
        let e = no_operands.try_parse(["stray".to_string()], |_| None);
        assert_eq!(
            e.unwrap_err(),
            Stop::Error("unexpected argument \"stray\"".into())
        );
    }

    #[test]
    fn help_wins_anywhere_and_lists_exactly_the_table() {
        for argv in [
            &["--help"][..],
            &["-h"],
            &["--jbos", "--help"],
            &["x", "-h"],
        ] {
            assert_eq!(parse(argv, &[]).unwrap_err(), Stop::Help, "{argv:?}");
        }
        let usage = CLI.usage();
        assert!(usage.starts_with("usage: t [flags] <file> ...\nA test table.\n"));
        let listed: Vec<&str> = usage
            .lines()
            .filter_map(|l| l.strip_prefix("  ")?.split_whitespace().next())
            .collect();
        assert_eq!(listed, ["--jobs", "--quick", "--join", "--csv"]);
        assert!(usage.contains("  --jobs N    pool size (or T_JOBS=N)\n"));
        assert!(usage.contains("small suite (or T_SUITE=quick)\n"));
    }

    #[test]
    #[should_panic(expected = "--verfy is not in t's flag table")]
    fn reading_a_flag_outside_the_table_is_a_bug() {
        parse(&[], &[]).unwrap().get("--verfy");
    }
}
