//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [FIGURE] [--figures a,b,c] [--jobs N] [--bench-out PATH]
//!       [--telemetry-out DIR] [--check PATH]
//!
//! repro all            # everything below, in paper order (the default)
//! repro fig5-1         # speedups, zero overhead
//! repro table5-1       # overhead settings
//! repro fig5-2         # speedups under each overhead row (+ loss summary)
//! repro table5-2       # activation mixes
//! repro fig5-3         # the unsharing transform, illustrated on a network
//! repro fig5-4         # Weaver with/without unsharing
//! repro fig5-5         # per-processor left-token counts, two Rubik cycles
//! repro fig5-6         # Tourney with/without copy-and-constraint
//! repro network-idle   # §5.1 interconnect idle fractions
//! repro greedy         # §5.2.2 offline-greedy improvement
//! repro probmodel      # §5.2.2 probabilistic model conclusions
//! repro continuum      # §6 mapping continuum endpoints
//! repro shared-bus     # §5.2 comparison vs the shared-bus mapping
//! repro termination-cost # pricing ring-token termination detection
//! repro era            # §1 motivation: first- vs new-generation MPCs
//! ```
//!
//! All selected figures contribute their simulation points to **one**
//! [`SweepPlan`]; shared points (same trace, mapping, and partition) are
//! simulated once, and the plan executes on `--jobs` worker threads
//! (default: available parallelism). Results are keyed by point id, so
//! stdout is byte-identical for every `--jobs` value. A run manifest —
//! git commit, machine, jobs, seed, sweep configuration, dedup hits, and
//! per-figure wall-clock histograms — is written to `BENCH_repro.json`
//! (stderr notes the path); pass `--bench-out ''` to skip the file.
//!
//! `--telemetry-out DIR` runs the sweep with wall-time telemetry and
//! writes `trace.json` (Chrome `trace_event`, one lane per worker —
//! open at <https://ui.perfetto.dev>), `events.jsonl`, and
//! `summary.json` into DIR. `--check PATH` validates a BENCH manifest,
//! a `match_profile.json`, or a telemetry directory
//! ([`mpps_bench::manifest::check`]) and exits; it is CI's schema check.

use std::time::Instant;

use mpps_analysis::{render_series, render_table};
use mpps_bench::experiments as exp;
use mpps_bench::manifest::{self, Repro, ReproFigure};
use mpps_bench::Argv;
use mpps_core::sweep::{SpeedupPoint, SweepPlan, SweepResults};
use mpps_telemetry::{Histogram, HistogramSummary, TraceRecorder};

/// Canonical figure order (paper order) — also the output order.
const FIGURES: &[&str] = &[
    "fig5-1",
    "table5-1",
    "fig5-2",
    "table5-2",
    "fig5-3",
    "fig5-4",
    "fig5-5",
    "fig5-6",
    "network-idle",
    "greedy",
    "probmodel",
    "continuum",
    "shared-bus",
    "termination-cost",
    "era",
];

fn curve_points(curve: &[SpeedupPoint]) -> Vec<(f64, f64)> {
    curve
        .iter()
        .map(|p| (p.processors as f64, p.speedup))
        .collect()
}

/// Planned ids for one figure (the figures that simulate nothing at plan
/// time hold `None`).
enum FigPlan {
    None,
    F51(exp::Fig51Plan),
    F52(exp::Fig52Plan, exp::LossesPlan),
    F54(exp::Fig54Plan),
    F55(exp::Fig55Plan),
    F56(exp::Fig56Plan),
    Idle(exp::NetworkIdlePlan),
    Greedy(exp::GreedyPlan, exp::RandomPlan),
    Continuum(exp::ContinuumPlan),
    SharedBus(exp::SharedBusPlan),
    Termination(exp::TerminationPlan),
    Era(exp::EraPlan),
}

fn plan_figure<'t>(name: &str, s: &'t exp::Sections, plan: &mut SweepPlan<'t>) -> FigPlan {
    match name {
        "fig5-1" => FigPlan::F51(exp::plan_fig5_1(s, plan)),
        "fig5-2" => FigPlan::F52(exp::plan_fig5_2(s, plan), exp::plan_fig5_2_losses(s, plan)),
        "fig5-4" => FigPlan::F54(exp::plan_fig5_4(s, plan)),
        "fig5-5" => FigPlan::F55(exp::plan_fig5_5(s, plan)),
        "fig5-6" => FigPlan::F56(exp::plan_fig5_6(s, plan)),
        "network-idle" => FigPlan::Idle(exp::plan_network_idle(s, plan)),
        "greedy" => FigPlan::Greedy(
            exp::plan_greedy_gains(s, plan),
            exp::plan_random_vs_round_robin(s, plan),
        ),
        "continuum" => FigPlan::Continuum(exp::plan_continuum(s, plan)),
        "shared-bus" => FigPlan::SharedBus(exp::plan_shared_bus(s, plan)),
        "termination-cost" => FigPlan::Termination(exp::plan_termination_cost(s, plan)),
        "era" => FigPlan::Era(exp::plan_era_comparison(s, plan)),
        _ => FigPlan::None,
    }
}

fn render_figure(name: &str, ids: &FigPlan, s: &exp::Sections, r: &SweepResults) {
    match (name, ids) {
        ("fig5-1", FigPlan::F51(p)) => fig5_1(&exp::render_fig5_1(p, r)),
        ("table5-1", _) => table5_1(),
        ("fig5-2", FigPlan::F52(p, losses)) => fig5_2(
            &exp::render_fig5_2(p, r),
            &exp::render_fig5_2_losses(losses, s, r),
        ),
        ("table5-2", _) => table5_2(s),
        ("fig5-3", _) => fig5_3(),
        ("fig5-4", FigPlan::F54(p)) => {
            let (shared, unshared) = exp::render_fig5_4(p, r);
            fig5_4(&shared, &unshared);
        }
        ("fig5-5", FigPlan::F55(p)) => fig5_5(&exp::render_fig5_5(p, r)),
        ("fig5-6", FigPlan::F56(p)) => {
            let (plain, cc) = exp::render_fig5_6(p, r);
            fig5_6(&plain, &cc);
        }
        ("network-idle", FigPlan::Idle(p)) => network_idle(&exp::render_network_idle(p, r)),
        ("greedy", FigPlan::Greedy(g, rnd)) => greedy(
            &exp::render_greedy_gains(g, s, r),
            &exp::render_random_vs_round_robin(rnd, r),
        ),
        ("probmodel", _) => probmodel(),
        ("continuum", FigPlan::Continuum(p)) => continuum(&exp::render_continuum(p, s, r)),
        ("shared-bus", FigPlan::SharedBus(p)) => shared_bus(&exp::render_shared_bus(p, s, r)),
        ("termination-cost", FigPlan::Termination(p)) => {
            termination_cost(&exp::render_termination_cost(p, r))
        }
        ("era", FigPlan::Era(p)) => era(&exp::render_era_comparison(p, r)),
        _ => unreachable!("figure {name} planned inconsistently"),
    }
}

fn fig5_1(curves: &[(&'static str, Vec<SpeedupPoint>)]) {
    let series: Vec<(&str, Vec<(f64, f64)>)> = curves
        .iter()
        .map(|(name, c)| (*name, curve_points(c)))
        .collect();
    println!(
        "{}",
        render_series(
            "Figure 5-1: speedups with zero message-passing overheads",
            "P",
            &series,
            40,
        )
    );
    // The paper's "interesting dips": report any decrease with more
    // processors.
    for (name, curve) in curves {
        let pts: Vec<(usize, f64)> = curve.iter().map(|p| (p.processors, p.speedup)).collect();
        for d in mpps_analysis::find_dips(&pts, 0.01) {
            println!(
                "dip ({name}): {} -> {} processors, speedup {:.2} -> {:.2}                  (uneven active-bucket distribution)",
                d.from_procs, d.to_procs, d.before, d.after
            );
        }
    }
    println!();
}

fn table5_1() {
    println!(
        "{}",
        render_table(
            "Table 5-1: message-processing overhead settings",
            &["Run", "Send", "Receive", "Total"],
            &exp::table5_1(),
        )
    );
}

fn fig5_2(curves: &[(&'static str, exp::OverheadCurves)], losses: &[(&'static str, f64, f64)]) {
    for (name, sweeps) in curves {
        let series: Vec<(String, Vec<(f64, f64)>)> = sweeps
            .iter()
            .map(|(o, c)| (format!("{}:{}", name, o.name), curve_points(c)))
            .collect();
        let series_ref: Vec<(&str, Vec<(f64, f64)>)> = series
            .iter()
            .map(|(n, pts)| (n.as_str(), pts.clone()))
            .collect();
        println!(
            "{}",
            render_series(
                &format!("Figure 5-2 ({name}): speedups under varying overheads"),
                "P",
                &series_ref,
                40,
            )
        );
    }
    let rows: Vec<Vec<String>> = losses
        .iter()
        .map(|&(name, loss, left_frac)| {
            vec![
                name.to_owned(),
                format!("{:.0}%", loss * 100.0),
                format!("{:.0}%", left_frac * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Peak-speedup loss at 32us overhead (paper: Rubik 30%, Tourney 45%, Weaver 50%)",
            &["Section", "Speedup loss", "Left-activation share"],
            &rows,
        )
    );
}

fn table5_2(s: &exp::Sections) {
    println!(
        "{}",
        render_table(
            "Table 5-2: tokens in the sections of the three programs",
            &["Program", "Left activations", "Right activations", "Total"],
            &exp::table5_2_for(s),
        )
    );
}

fn fig5_3() {
    use mpps_ops::parse_program;
    use mpps_rete::{transform::unshare, ReteNetwork};
    let src = r#"
        (p o1 (i1 ^k <k>) (i2 ^k <k> ^tag a) --> (remove 1))
        (p o2 (i1 ^k <k>) (i2 ^k <k> ^tag b) --> (remove 1))
    "#;
    let program = parse_program(src).unwrap();
    let shared = ReteNetwork::compile(&program).unwrap();
    let unshared = unshare(&program).unwrap();
    println!("Figure 5-3: unsharing the Rete network (illustrative)\n");
    println!("productions O1, O2 share the join of conditions I1 and I2\n");
    let s = shared.stats();
    let u = unshared.stats();
    println!(
        "  shared   network: {} two-input nodes ({} with multiple outputs)",
        s.two_input, s.shared_two_input
    );
    println!(
        "  unshared network: {} two-input nodes ({} with multiple outputs)",
        u.two_input, u.shared_two_input
    );
    println!("\nafter unsharing, O1 and O2 generate their outputs independently\n");
}

fn fig5_4(shared: &[SpeedupPoint], unshared: &[SpeedupPoint]) {
    println!(
        "{}",
        render_series(
            "Figure 5-4: Weaver speedups with unsharing (zero overheads)",
            "P",
            &[
                ("shared", curve_points(shared)),
                ("unshared", curve_points(unshared)),
            ],
            40,
        )
    );
}

fn fig5_5(cycles: &[Vec<u64>]) {
    for (c, loads) in cycles.iter().enumerate() {
        let series: Vec<(f64, f64)> = loads
            .iter()
            .enumerate()
            .map(|(p, &l)| (p as f64, l as f64))
            .collect();
        println!(
            "{}",
            render_series(
                &format!("Figure 5-5 (cycle {c}): left tokens per processor, Rubik, 16 procs"),
                "proc",
                &[("tokens", series)],
                40,
            )
        );
    }
}

fn fig5_6(plain: &[SpeedupPoint], cc: &[SpeedupPoint]) {
    println!(
        "{}",
        render_series(
            "Figure 5-6: Tourney speedups with copy-and-constraint (zero overheads)",
            "P",
            &[
                ("original", curve_points(plain)),
                ("copy+constrain", curve_points(cc)),
            ],
            40,
        )
    );
}

fn network_idle(fractions: &[(&'static str, f64)]) {
    let rows: Vec<Vec<String>> = fractions
        .iter()
        .map(|&(name, idle)| vec![name.to_owned(), format!("{:.1}%", idle * 100.0)])
        .collect();
    println!(
        "{}",
        render_table(
            "Interconnect idle time at 16 processors, 8us overheads (paper: 97-98%)",
            &["Section", "Network idle"],
            &rows,
        )
    );
}

fn greedy(gains: &[(&'static str, f64, f64)], random: &[(&'static str, f64)]) {
    let rows: Vec<Vec<String>> = gains
        .iter()
        .map(|&(name, simulated, bound)| {
            vec![
                name.to_owned(),
                format!("x{simulated:.2}"),
                format!("x{bound:.2}"),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Offline greedy bucket distribution vs round-robin, 16 procs (paper: x1.4)",
            &["Section", "Simulated speedup gain", "Load-balance bound"],
            &rows,
        )
    );
    let rows: Vec<Vec<String>> = random
        .iter()
        .map(|&(name, gain)| vec![name.to_owned(), format!("x{gain:.2}")])
        .collect();
    println!(
        "{}",
        render_table(
            "Random placement vs round-robin (paper: no significant improvement)",
            &["Section", "Gain from random placement"],
            &rows,
        )
    );
}

fn probmodel() {
    use mpps_analysis::{estimate_max_load, prob_perfectly_even, prob_totally_uneven};
    println!("Probabilistic model of active-bucket distribution (section 5.2.2)\n");
    let (a, p) = (128u64, 16u64);
    println!(
        "  {a} active buckets on {p} processors: P(perfectly even) = {:.2e}, \
         P(totally uneven) = {:.2e}  (both < 1%)",
        prob_perfectly_even(a, p),
        prob_totally_uneven(a, p)
    );
    println!("\n  relative imbalance E[max]/ideal at 8 processors:");
    for active in [16u64, 64, 256, 1024] {
        let est = estimate_max_load(active, 8, 0, 2000, 7);
        println!(
            "    {active:>5} active buckets: {:.2}",
            est.mean_max_load / est.ideal as f64
        );
    }
    println!("\n  P(near-linear speedup) with 64 active buckets (slack 1):");
    for procs in [2usize, 4, 8, 16, 32] {
        let est = estimate_max_load(64, procs, 1, 2000, 11);
        println!("    {procs:>3} processors: {:.2}", est.prob_near_linear);
    }
    println!();
}

fn continuum(points: &[(String, f64)]) {
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|(label, speedup)| vec![label.clone(), format!("{speedup:.2}x")])
        .collect();
    println!(
        "{}",
        render_table(
            "Section 6 continuum (Rubik, 16 procs, 8us overheads): match speedup vs serial",
            &["Mapping", "Speedup"],
            &rows,
        )
    );
}

fn shared_bus(sections: &exp::ComparisonRows) {
    for (name, rows) in sections {
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|&(p, mpc, bus)| vec![format!("{p}"), format!("{mpc:.2}"), format!("{bus:.2}")])
            .collect();
        println!(
            "{}",
            render_table(
                &format!("Section 5.2 comparison ({name}): distributed MPC vs shared-bus mapping"),
                &["P", "MPC speedup", "Shared-bus speedup"],
                &table,
            )
        );
    }
}

fn termination_cost(sections: &exp::ComparisonRows) {
    for (name, rows) in sections {
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|&(p, omniscient, ring)| {
                vec![
                    format!("{p}"),
                    format!("{omniscient:.2}"),
                    format!("{ring:.2}"),
                    format!("{:.0}%", (1.0 - ring / omniscient) * 100.0),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &format!(
                    "Termination detection cost ({name}): omniscient vs ring-token, 8us overheads"
                ),
                &["P", "Omniscient", "Ring token", "Loss"],
                &table,
            )
        );
    }
}

fn era(rows_in: &[(&'static str, f64, f64)]) {
    let rows: Vec<Vec<String>> = rows_in
        .iter()
        .map(|&(name, new_gen, old)| {
            vec![
                name.to_owned(),
                format!("{new_gen:.2}x"),
                format!("{old:.2}x"),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Section 1 motivation: new-generation vs first-generation MPC, 16 procs",
            &[
                "Section",
                "Nectar-era (8us, 0.5us)",
                "Cosmic-Cube-era (300us, 500us/hop)"
            ],
            &rows,
        )
    );
}

struct Args {
    figures: Vec<&'static str>,
    jobs: usize,
    bench_out: Option<String>,
    telemetry_out: Option<String>,
    check: Option<String>,
}

fn parse_args() -> Args {
    let mut argv = Argv::new(format!(
        "usage: repro [FIGURE|all] [--figures a,b,c] [--jobs N] [--bench-out PATH]\n\
         \x20            [--telemetry-out DIR] [--check PATH]\n\
         figures: {}",
        FIGURES.join(", ")
    ));
    let mut figures: Vec<&'static str> = Vec::new();
    let mut jobs: Option<usize> = None;
    let mut bench_out: Option<String> = Some("BENCH_repro.json".to_owned());
    let mut telemetry_out: Option<String> = None;
    let mut check: Option<String> = None;
    let mut canonical = |argv: &Argv, name: &str| match FIGURES.iter().find(|f| **f == name) {
        Some(f) => figures.push(f),
        None if name == "all" => figures.extend(FIGURES),
        None => argv.fail(format!("unknown experiment {name:?}")),
    };
    while let Some(arg) = argv.next_arg() {
        match arg.as_str() {
            "--jobs" | "-j" => jobs = Some(argv.count("--jobs")),
            "--figures" => {
                for name in argv.value("--figures").split(',').filter(|s| !s.is_empty()) {
                    canonical(&argv, name);
                }
            }
            "--bench-out" => {
                let v = argv.value("--bench-out");
                bench_out = if v.is_empty() { None } else { Some(v) };
            }
            "--telemetry-out" => telemetry_out = Some(argv.value("--telemetry-out")),
            "--check" => check = Some(argv.value("--check")),
            "--help" | "-h" => argv.help(),
            name if !name.starts_with('-') => canonical(&argv, name),
            _ => argv.fail(format!("unknown flag {arg:?}")),
        }
    }
    if figures.is_empty() {
        figures.extend(FIGURES);
    }
    // Canonical order, once each — output must not depend on request order.
    let mut ordered: Vec<&'static str> = FIGURES
        .iter()
        .copied()
        .filter(|f| figures.contains(f))
        .collect();
    ordered.dedup();
    let jobs = jobs.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    });
    Args {
        figures: ordered,
        jobs,
        bench_out,
        telemetry_out,
        check,
    }
}

/// Nearest-rank summary of a slice of wall-clock samples.
fn wall_ns(samples: &[u64]) -> HistogramSummary {
    let mut hist = Histogram::new();
    for &ns in samples {
        hist.record(ns);
    }
    hist.summary()
}

fn main() {
    let args = parse_args();
    if let Some(path) = &args.check {
        let report = manifest::check(path.as_ref());
        let report = report.unwrap_or_else(|e| {
            eprintln!("repro: {e}");
            std::process::exit(1)
        });
        println!("{path}: {report}");
        return;
    }
    let wall = Instant::now();

    // Phase 1: one shared plan across every selected figure. Identical
    // points registered by different figures are simulated once.
    let sections = exp::Sections::generate();
    let mut plan = SweepPlan::new();
    let mut planned: Vec<(&'static str, FigPlan, std::ops::Range<usize>)> = Vec::new();
    for name in &args.figures {
        let before = plan.point_count();
        let ids = plan_figure(name, &sections, &mut plan);
        planned.push((name, ids, before..plan.point_count()));
    }

    // Phase 2: execute every point (plus one baseline per trace) on the
    // worker pool — with wall-time telemetry when requested.
    let mut recorder = args.telemetry_out.as_ref().map(|_| TraceRecorder::new());
    let run_start = Instant::now();
    let results = match recorder.as_mut() {
        Some(rec) => plan.run_traced(args.jobs, rec),
        None => plan.run(args.jobs),
    };
    let run_ms = run_start.elapsed().as_secs_f64() * 1e3;
    if let (Some(dir), Some(rec)) = (&args.telemetry_out, &recorder) {
        match manifest::write_dir(dir.as_ref(), rec) {
            Ok(report) => eprintln!("repro: {report}, written to {dir}"),
            Err(e) => {
                eprintln!("repro: cannot write telemetry to {dir}: {e}");
                std::process::exit(1);
            }
        }
    }

    // Phase 3: render in canonical order — byte-identical for any --jobs.
    let separators = args.figures.len() > 1;
    let mut figures = Vec::new();
    for (name, ids, points) in &planned {
        if separators {
            println!("==================================================================");
        }
        let render_start = Instant::now();
        render_figure(name, ids, &sections, &results);
        figures.push(ReproFigure {
            name: (*name).to_owned(),
            points_added: points.len() as u64,
            render_ms: render_start.elapsed().as_secs_f64() * 1e3,
            sim_wall_ns: wall_ns(&results.point_wall_ns_all()[points.clone()]),
        });
    }

    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    if let Some(path) = &args.bench_out {
        let body = Repro {
            jobs: args.jobs as u64,
            seed: exp::SEED,
            procs: exp::PROCS.iter().map(|&p| p as u64).collect(),
            default_partition: "round-robin".to_owned(),
            traces: plan.trace_count() as u64,
            points: plan.point_count() as u64,
            baselines: plan.trace_count() as u64,
            dedup_hits: plan.dedup_hits(),
            plan_run_ms: run_ms,
            wall_ms,
            point_wall_ns: wall_ns(results.point_wall_ns_all()),
            figures,
        };
        eprintln!("repro: plan ran in {run_ms:.1} ms on {} jobs", args.jobs);
        manifest::write_or_exit("repro", path, body);
    }
}
