//! # mpps-bench — the harness that regenerates every table and figure
//!
//! [`experiments`] defines one function per artifact of the paper's §5
//! evaluation; the `repro` binary prints them and the criterion benches in
//! `benches/` time them (plus the design-choice ablations called out in
//! DESIGN.md); [`sections`] holds the match-kernel bench sections.
//! [`manifest`] is the one writer and checker of every BENCH manifest and
//! telemetry directory the binaries write.

pub mod experiments;
pub mod manifest;
pub mod sections;

/// The command line of a bench binary: a missing or malformed flag value
/// is a usage error (exit 2), never a panic.
pub struct Argv {
    usage: String,
    args: std::iter::Skip<std::env::Args>,
}

impl Argv {
    /// This process's arguments; `usage` is printed with every error.
    pub fn new(usage: impl Into<String>) -> Self {
        Argv {
            usage: usage.into(),
            args: std::env::args().skip(1),
        }
    }

    /// The next argument, if any.
    pub fn next_arg(&mut self) -> Option<String> {
        self.args.next()
    }

    /// Print `msg` and the usage text, and exit 2.
    pub fn fail(&self, msg: impl std::fmt::Display) -> ! {
        eprintln!("{msg}\n{}", self.usage);
        std::process::exit(2)
    }

    /// Print the usage text and exit 0.
    pub fn help(&self) -> ! {
        eprintln!("{}", self.usage);
        std::process::exit(0)
    }

    /// The value following `flag`.
    pub fn value(&mut self, flag: &str) -> String {
        self.parse(flag, |_: &String| true)
    }

    /// The value following `flag`, parsed as a `T` that `ok` accepts.
    pub fn parse<T: std::str::FromStr>(&mut self, flag: &str, ok: impl Fn(&T) -> bool) -> T {
        let v = (self.args.next()).unwrap_or_else(|| self.fail(format!("{flag} needs a value")));
        match v.parse() {
            Ok(x) if ok(&x) => x,
            _ => self.fail(format!("{flag}: bad value {v:?}")),
        }
    }

    /// The count following `flag`, at least 1.
    pub fn count(&mut self, flag: &str) -> usize {
        self.parse(flag, |&n| n > 0)
    }

    /// The comma-separated counts following `flag`, each at least 1.
    pub fn counts(&mut self, flag: &str) -> Vec<usize> {
        let v = self.value(flag);
        let count = |s: &str| s.trim().parse().ok().filter(|&n| n > 0);
        let counts = v.split(',').map(count).collect::<Option<_>>();
        counts.unwrap_or_else(|| self.fail(format!("{flag}: {v:?} is not counts of at least 1")))
    }
}
