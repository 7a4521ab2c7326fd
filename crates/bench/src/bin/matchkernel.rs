//! `matchkernel` — match-kernel benchmark baselines and regression gate.
//!
//! ```text
//! matchkernel                      # measure, print table
//! matchkernel --out BENCH_matchkernel.json   # measure + write manifest
//! matchkernel --check [--max-regress 0.10]   # measure, compare against
//!                                            # the committed manifest
//! matchkernel --samples N          # timed runs per median (default 21)
//! ```
//!
//! Measures the three characteristic sections of the `match_executors`
//! criterion group (Rubik: modify-heavy; Tourney: cross-product; Weaver:
//! in between) end to end — network compile + full replay of the
//! captured change batches — exactly as the criterion group does, plus a
//! compile-only lane so compile and match cost can be tracked apart.
//!
//! The manifest (`BENCH_matchkernel.json`, a [`mpps_bench::manifest`]
//! document) records the median of `--samples` runs together with the
//! commit hash, machine info, and the frozen **pre-rework baselines**
//! measured before the arena/id-keyed-hash kernel landed. `--check`
//! re-measures and fails (exit 1) if any section regressed more than
//! `--max-regress` (default 10%) against the committed medians — absolute
//! µs recorded on another host, so the gate measures host noise as much
//! as the kernel (see ROADMAP).

use mpps_bench::manifest::{self, KernelSection, Matchkernel};
use mpps_bench::sections::sections;
use mpps_bench::Argv;
use mpps_ops::Matcher;
use mpps_rete::{ReteMatcher, ReteNetwork};
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

fn measure(samples: usize) -> Vec<KernelSection> {
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
            let pre_rework_us = PRE_REWORK_BASELINE_US
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, us)| *us)
                .unwrap();
            KernelSection {
                name: name.to_owned(),
                compile_us,
                total_us,
                pre_rework_us,
                speedup: pre_rework_us / total_us,
            }
        })
        .collect()
}

const USAGE: &str =
    "usage: matchkernel [--out PATH] [--check] [--max-regress FRACTION] [--samples N]";

fn main() {
    let mut argv = Argv::new(USAGE);
    let mut out: Option<String> = None;
    let mut check = false;
    let mut max_regress = 0.10f64;
    let mut samples = 21usize;
    while let Some(arg) = argv.next_arg() {
        match arg.as_str() {
            "--out" => out = Some(argv.value("--out")),
            "--check" => check = true,
            "--max-regress" => {
                max_regress = argv.parse("--max-regress", |f| (0.0..f64::INFINITY).contains(f))
            }
            "--samples" => samples = argv.count("--samples"),
            other => argv.fail(format!("matchkernel: unknown argument {other}")),
        }
    }

    let results = measure(samples);
    println!("section    compile      total     pre-rework   speedup");
    for r in &results {
        println!(
            "{:<10} {:>8.2}µs {:>9.2}µs {:>10.2}µs {:>8.2}x",
            r.name, r.compile_us, r.total_us, r.pre_rework_us, r.speedup
        );
    }

    if let Some(path) = out {
        let sections = results.clone();
        manifest::write_or_exit("matchkernel", &path, Matchkernel { sections });
    }

    if check {
        let text = std::fs::read_to_string("BENCH_matchkernel.json").map_err(|e| e.to_string());
        let committed = text
            .and_then(|t| manifest::parse::<Matchkernel>(&t))
            .unwrap_or_else(|e| {
                eprintln!("matchkernel --check: BENCH_matchkernel.json: {e}");
                std::process::exit(1);
            });
        let mut failed = false;
        for r in &results {
            let sections = &committed.0.body.sections;
            let Some(recorded) = sections
                .iter()
                .find(|s| s.name == r.name)
                .map(|s| s.total_us)
            else {
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
