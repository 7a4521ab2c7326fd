//! `matchkernel` — match-kernel benchmark baselines and regression gate.
//!
//! ```text
//! matchkernel                      # measure, print table
//! matchkernel --out BENCH_matchkernel.json   # measure + write manifest
//! matchkernel --check [--max-regress 0.10]   # measure, compare against
//!                                            # the committed manifest
//! matchkernel --profile DIR        # replay each section once under the
//!                                  # profiled kernel, write
//!                                  # DIR/match_profile.json
//! matchkernel --check-profile FILE # validate a match_profile.json
//!                                  # against the v1 schema
//! ```
//!
//! Measures the three characteristic sections of the `match_executors`
//! criterion group (Rubik: modify-heavy; Tourney: cross-product; Weaver:
//! in between) end to end — network compile + full replay of the
//! captured change batches — exactly as the criterion group does, plus a
//! compile-only lane so compile and match cost can be tracked apart.
//!
//! The manifest (`BENCH_matchkernel.json`, same style as
//! `BENCH_repro.json`) records the median of `--samples` runs together
//! with the commit hash, machine info, and the frozen **pre-rework
//! baselines** measured before the arena/id-keyed-hash kernel landed.
//! `--check` re-measures and fails (exit 1) if any section regressed
//! more than `--max-regress` (default 10%) against the committed
//! medians — the CI gate for the match-kernel speed work.
//!
//! `--out` additionally runs the closed-skew-loop scenario
//! ([`mpps_bench::adapt`]: Tourney cross-product, 8 workers, suggested
//! copy-and-constraint + online migration vs static greedy) and records
//! its before/after skew factors in the manifest's `"adapt"` block.

use mpps_bench::sections::sections;
use mpps_ops::Matcher;
use mpps_rete::{EngineConfig, ReteMatcher, ReteNetwork};
use mpps_telemetry::MetricsRegistry;
use std::hint::black_box;
use std::time::Instant;

/// Pre-rework sequential medians (µs), measured on the CI container at
/// the commit immediately before the match-kernel rework. The rework's
/// acceptance bar is ≥2× against these.
const PRE_REWORK_BASELINE_US: &[(&str, f64)] =
    &[("rubik", 738.10), ("tourney", 855.71), ("weaver", 217.96)];

/// Median of `samples` timed runs of `f`, in µs.
fn median_us(samples: usize, mut f: impl FnMut()) -> f64 {
    // One warmup run to populate the symbol interner and allocator.
    f();
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

struct SectionResult {
    name: &'static str,
    compile_us: f64,
    total_us: f64,
    baseline_us: f64,
}

fn measure(samples: usize) -> Vec<SectionResult> {
    sections()
        .into_iter()
        .map(|(name, program, batches)| {
            let compile_us = median_us(samples, || {
                black_box(ReteNetwork::compile(black_box(&program)).unwrap());
            });
            let total_us = median_us(samples, || {
                let mut m = ReteMatcher::from_program(&program).unwrap();
                for batch in &batches {
                    m.process(black_box(batch));
                }
                black_box(m.conflict_set().len());
            });
            let baseline_us = PRE_REWORK_BASELINE_US
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, us)| *us)
                .unwrap();
            SectionResult {
                name,
                compile_us,
                total_us,
                baseline_us,
            }
        })
        .collect()
}

/// The current git commit hash. `"unknown"` outside a work tree.
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Replay every section once under the profiled sequential kernel and
/// write the merged `match_profile.json` into `dir`. Profiling is kept
/// out of the timed `measure` loop on purpose: the baselines stay
/// unprofiled, so `--check` gates the zero-cost-when-disabled claim.
fn write_profile(dir: &str) {
    let mut merged = MetricsRegistry::new();
    for (name, program, batches) in sections() {
        let network = ReteNetwork::compile(&program).unwrap();
        let mut m =
            ReteMatcher::with_metrics(network, EngineConfig::default(), MetricsRegistry::new());
        for batch in &batches {
            m.process(batch);
        }
        black_box(m.conflict_set().len());
        let reg = m.profile();
        eprintln!(
            "matchkernel --profile: {name}: {} series",
            reg.counters().len() + reg.gauges().len() + reg.histograms().len()
        );
        merged.merge(&reg);
    }
    let json = mpps_core::render_match_profile("rete", 1, &merged);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("matchkernel --profile: cannot create {dir}: {e}");
        std::process::exit(1);
    }
    let path = format!("{dir}/match_profile.json");
    match std::fs::write(&path, &json) {
        Ok(()) => eprintln!("matchkernel --profile: wrote {path}"),
        Err(e) => {
            eprintln!("matchkernel --profile: cannot write {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// The manifest's `"adapt"` block: the closed skew loop's before/after
/// numbers (see [`mpps_bench::adapt`]).
fn adapt_json(report: &mpps_bench::adapt::AdaptReport) -> String {
    let opt = |v: Option<f64>| match v {
        Some(v) => format!("{v:.3}"),
        None => "null".to_owned(),
    };
    format!(
        "{{\"workload\": \"tourney-cross\", \"workers\": {}, \
         \"probe_skew_static\": {:.3}, \"probe_skew_adaptive\": {:.3}, \
         \"skew_reduction\": {:.2}, \"bucket_skew_static\": {}, \
         \"bucket_skew_adaptive\": {}, \"rebalances\": {}, \
         \"plan\": \"{}\", \"equivalent\": {}}}",
        report.workers,
        report.static_skew(),
        report.adaptive_skew(),
        report.reduction(),
        opt(report.static_bucket_skew),
        opt(report.adaptive_bucket_skew),
        report.rebalances,
        report.plan_summary,
        report.equivalent
    )
}

fn manifest(results: &[SectionResult], adapt: &mpps_bench::adapt::AdaptReport) -> String {
    let cpus = mpps_telemetry::available_cpus();
    let sections = results
        .iter()
        .map(|r| {
            format!(
                "    {{\"name\": \"{}\", \"compile_us\": {:.2}, \"total_us\": {:.2}, \"pre_rework_us\": {:.2}, \"speedup\": {:.2}}}",
                r.name,
                r.compile_us,
                r.total_us,
                r.baseline_us,
                r.baseline_us / r.total_us
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"bench\": \"matchkernel\",\n  \"commit\": \"{}\",\n  \"machine\": {{\"os\": \"{}\", \"arch\": \"{}\", \"cpus\": {}}},\n  \"sections\": [\n{}\n  ],\n  \"adapt\": {}\n}}\n",
        git_commit(),
        std::env::consts::OS,
        std::env::consts::ARCH,
        cpus,
        sections,
        adapt_json(adapt)
    )
}

/// Pull `"total_us"` for `name` out of a committed manifest. The manifest
/// is machine-written by this binary, so a line-oriented scan suffices
/// (no JSON dependency in the sealed build environment).
fn committed_total_us(manifest: &str, name: &str) -> Option<f64> {
    let tag = format!("\"name\": \"{name}\"");
    manifest
        .lines()
        .find(|l| l.contains(&tag))?
        .split("\"total_us\": ")
        .nth(1)?
        .split(&[',', '}'][..])
        .next()?
        .trim()
        .parse()
        .ok()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out: Option<String> = None;
    let mut check = false;
    let mut max_regress = 0.10f64;
    let mut samples = 21usize;
    let mut profile: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out = Some(args.get(i).expect("--out needs a path").clone());
            }
            "--check" => check = true,
            "--profile" => {
                i += 1;
                profile = Some(args.get(i).expect("--profile needs a directory").clone());
            }
            "--check-profile" => {
                i += 1;
                let path = args.get(i).expect("--check-profile needs a file").clone();
                match mpps_bench::telemetry::check_profile(std::path::Path::new(&path)) {
                    Ok(report) => {
                        println!("matchkernel --check-profile: {report}");
                        std::process::exit(0);
                    }
                    Err(e) => {
                        eprintln!("matchkernel --check-profile: {path}: {e}");
                        std::process::exit(1);
                    }
                }
            }
            "--max-regress" => {
                i += 1;
                max_regress = args
                    .get(i)
                    .expect("--max-regress needs a fraction")
                    .parse()
                    .expect("--max-regress: not a number");
            }
            "--samples" => {
                i += 1;
                samples = args
                    .get(i)
                    .expect("--samples needs a count")
                    .parse()
                    .expect("--samples: not a number");
            }
            other => {
                eprintln!("matchkernel: unknown argument {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    if let Some(dir) = profile {
        write_profile(&dir);
    }

    let results = measure(samples);
    println!("section    compile      total     pre-rework   speedup");
    for r in &results {
        println!(
            "{:<10} {:>8.2}µs {:>9.2}µs {:>10.2}µs {:>8.2}x",
            r.name,
            r.compile_us,
            r.total_us,
            r.baseline_us,
            r.baseline_us / r.total_us
        );
    }

    if let Some(path) = out {
        let adapt = mpps_bench::adapt::measure(&mpps_bench::adapt::AdaptScenario::default());
        eprintln!(
            "matchkernel: adapt skew {:.3} -> {:.3} ({:.2}x, {} rebalances)",
            adapt.static_skew(),
            adapt.adaptive_skew(),
            adapt.reduction(),
            adapt.rebalances
        );
        let json = manifest(&results, &adapt);
        match std::fs::write(&path, &json) {
            Ok(()) => eprintln!("matchkernel: wrote {path}"),
            Err(e) => {
                eprintln!("matchkernel: cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    if check {
        let committed = match std::fs::read_to_string("BENCH_matchkernel.json") {
            Ok(s) => s,
            Err(e) => {
                eprintln!("matchkernel --check: cannot read BENCH_matchkernel.json: {e}");
                std::process::exit(1);
            }
        };
        let mut failed = false;
        for r in &results {
            let Some(recorded) = committed_total_us(&committed, r.name) else {
                eprintln!("matchkernel --check: {} missing from manifest", r.name);
                failed = true;
                continue;
            };
            let limit = recorded * (1.0 + max_regress);
            if r.total_us > limit {
                eprintln!(
                    "matchkernel --check: {} regressed: {:.2}µs > {:.2}µs (recorded {:.2}µs + {:.0}%)",
                    r.name,
                    r.total_us,
                    limit,
                    recorded,
                    max_regress * 100.0
                );
                failed = true;
            } else {
                eprintln!(
                    "matchkernel --check: {} ok ({:.2}µs vs recorded {:.2}µs)",
                    r.name, r.total_us, recorded
                );
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}
