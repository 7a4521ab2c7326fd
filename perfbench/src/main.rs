//! `mpps-perfbench` — the end-to-end benchmark of `mpps run` and
//! `mpps serve`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tourney|rubik|rubik-threaded|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root: it reads `BENCHMARK.json` there and
//! writes traces and spill files under `.perfbench-out/`. The last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; the end-to-end metrics with `--trace 0`, the
//! per-layer ones with `--trace 1`. See `perfbench/README.md`.

mod affinity;
mod calib;
mod cycle;
mod report;
mod serve;
mod stats;
mod timed;

use report::{Catalogue, Report};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const MANIFEST: &str = "BENCHMARK.json";
const OUT_DIR: &str = ".perfbench-out";
const USAGE: &str = "usage: mpps-perfbench --workload NAME --seed N --seconds S --trace 0|1";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |what: &str| format!("missing {what}");
    let seconds = seconds.ok_or_else(|| missing("--seconds"))?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds,
        trace: trace.ok_or_else(|| missing("--trace"))?,
    })
}

/// Read the metric catalogue from `BENCHMARK.json` and check that it
/// names `workload`.
fn load_catalogue(workload: &str) -> Result<Catalogue, String> {
    let text = std::fs::read_to_string(MANIFEST).map_err(|e| format!("{MANIFEST}: {e}"))?;
    let catalogue = Catalogue::parse(&text).map_err(|e| format!("{MANIFEST}: {e}"))?;
    if !catalogue.workloads.iter().any(|w| w == workload) {
        return Err(format!("{MANIFEST} has no workload {workload}"));
    }
    Ok(catalogue)
}

/// Write a traced run's spans as Chrome trace JSON under `out_dir`.
pub fn write_trace(
    out_dir: &Path,
    workload: &str,
    seed: u64,
    rec: &mpps_telemetry::TraceRecorder,
    report: &mut Report,
) {
    let path = out_dir.join(format!("trace-{workload}-seed{seed}.json"));
    match std::fs::write(&path, mpps_telemetry::chrome::chrome_trace(rec)) {
        Ok(()) => {
            report.op(true, String::new);
            eprintln!("perfbench: trace written to {}", path.display());
        }
        Err(e) => report.op(false, || format!("writing {}: {e}", path.display())),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mpps-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let catalogue = match load_catalogue(&args.workload) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("mpps-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("mpps-perfbench: {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let mut report = Report::new(&catalogue);
    match args.workload.as_str() {
        "serve" => serve::run(args.seed, args.seconds, args.trace, &out_dir, &mut report),
        w => cycle::run(
            w,
            args.seed,
            args.seconds,
            args.trace,
            &out_dir,
            &mut report,
        ),
    }
    let catalogue = if args.trace {
        report.set(
            "error_rate",
            report.failed as f64 / report.attempted.max(1) as f64,
        );
        &catalogue.per_layer
    } else {
        report.set("peak_rss_mb", stats::peak_rss_mb().unwrap_or(0.0));
        report.set(
            "success_rate",
            1.0 - report.failed as f64 / report.attempted.max(1) as f64,
        );
        &catalogue.end_to_end
    };
    match report.render(catalogue, args.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("mpps-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
