//! The central correctness property of the workspace: every matcher
//! configuration computes the conflict set the brute-force reference
//! computes, cycle for cycle.
//!
//! Each configuration is a lane of the difftest oracle
//! ([`mpps::difftest::run_case`]): one interpreter per lane runs in lockstep
//! with the naive matcher, and the conflict set, the fired instantiation,
//! working memory and the halt flag must agree after every cycle. Cases are
//! generated programs with random WM-change schedules, or the paper's
//! three workloads (Rubik, Tourney, Weaver) through
//! [`FuzzCase::workload`]. Adding a matcher means adding a lane.

use mpps::core::{bucket_activity, Partition, ThreadedMatcher};
use mpps::difftest::{generate_case, replay_one, run_case, FuzzCase, GenConfig, Lane, MatcherKind};
use mpps::ops::{Matcher, OpsError, Program, Strategy, WmeId};
use mpps::rete::{
    kernel, CompileOptions, EngineConfig, ReteMatcher, ReteNetwork, SplitSpec, TransformPlan,
};
use mpps::telemetry::MetricsRegistry;
use mpps::workloads::{capture_trace, rubik, tourney, weaver, CapturedRun};
use proptest::prelude::*;

fn assert_agree(case: &FuzzCase, lanes: &[Lane]) {
    if let Some(d) = run_case(case, lanes) {
        panic!("{d}");
    }
}

fn rete_with(table_size: u64) -> Lane {
    Lane::new(format!("rete-table-{table_size}"), move |p| {
        let config = EngineConfig {
            table_size,
            record_trace: false,
        };
        Ok(Box::new(ReteMatcher::new(ReteNetwork::compile(p)?, config)))
    })
}

/// A random [`TransformPlan`] for `program`, consuming `decisions` as a
/// replayable coin stream: each production is independently unshared,
/// split (on a randomly chosen CE/attribute candidate with random
/// boundaries), both, or left alone.
fn random_plan(program: &Program, decisions: &[u8]) -> TransformPlan {
    const BOUNDARY_MENU: &[&[i64]] = &[&[1], &[2], &[0], &[1, 2], &[0, 1, 2, 3]];
    let mut stream = decisions.iter().copied().cycle();
    let mut next = move || stream.next().expect("decision stream is non-empty");
    let mut plan = TransformPlan::new();
    for (pid, prod) in program.iter() {
        if next() & 1 == 1 {
            plan = plan.with_unshare(pid);
        }
        if next() & 1 == 0 {
            continue;
        }
        let boundaries = BOUNDARY_MENU[next() as usize % BOUNDARY_MENU.len()];
        let mut candidates = Vec::new();
        for (ci, ce) in prod.lhs.iter().enumerate() {
            for test in &ce.tests {
                let spec = SplitSpec::new(ci, test.attr.as_str(), boundaries.to_vec());
                if spec.validate(prod).is_ok() {
                    candidates.push(spec);
                }
            }
        }
        if !candidates.is_empty() {
            let pick = next() as usize % candidates.len();
            plan = plan.with_split(pid, candidates.swap_remove(pick));
        }
    }
    plan
}

fn planned(program: &Program, plan: &TransformPlan) -> Result<ReteMatcher, OpsError> {
    let network = ReteNetwork::compile_planned(program, CompileOptions::default(), plan)?;
    Ok(ReteMatcher::new(network, EngineConfig::default()))
}

/// Sequential Rete over the network `random_plan(program, decisions)`
/// rewrites.
fn random_plan_lane(decisions: Vec<u8>) -> Lane {
    Lane::new("rete-random-plan", move |p| {
        Ok(Box::new(planned(p, &random_plan(p, &decisions))?))
    })
}

/// Arena-token invariant: after `case`, retracting every remaining WME
/// drains the token arena down to the dummy tokens seeded at compile time
/// (leading-negated-CE chains), which live as long as the network —
/// copies and unshared chains hold more tokens while live, never after.
fn drains_after_retraction(case: &FuzzCase, plan: &TransformPlan) {
    let floor = planned(&case.program().unwrap(), plan)
        .expect("plan was validated")
        .arena_live();
    let mut interp = replay_one(case, |p| planned(p, plan)).expect("plan was validated");
    // Fired productions may `make` fresh WMEs, so drain in bounded rounds.
    for _ in 0..16 {
        let live: Vec<WmeId> = interp.working_memory().iter().map(|(id, _)| id).collect();
        for id in live {
            interp.remove_wme(id).expect("id drawn from live WM");
        }
        if interp.step().is_err() {
            return;
        }
        if interp.working_memory().is_empty() {
            assert_eq!(interp.matcher().arena_live(), floor, "arena leaked tokens");
            assert!(interp.matcher().conflict_set().is_empty());
            return;
        }
    }
    // A make-looping program kept WM occupied; the invariant does not apply.
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn rete_equals_naive(seed in any::<u64>()) {
        let case = generate_case(seed, &GenConfig::default());
        assert_agree(&case, &MatcherKind::lanes(&[MatcherKind::Rete]));
    }

    /// A tiny hash table (maximal bucket collisions) changes nothing.
    #[test]
    fn rete_correct_under_heavy_bucket_collisions(seed in any::<u64>()) {
        assert_agree(&generate_case(seed, &GenConfig::default()), &[rete_with(2)]);
    }

    /// TREAT (alpha memories only, no beta state) and Rete agree with the
    /// reference, and so with each other, after every cycle.
    #[test]
    fn treat_equals_rete(seed in any::<u64>()) {
        let case = generate_case(seed, &GenConfig::default());
        assert_agree(&case, &MatcherKind::lanes(&[MatcherKind::Rete, MatcherKind::Treat]));
    }

    /// The threaded executor agrees with the sequential engine at any
    /// worker count.
    #[test]
    fn threaded_equals_sequential(seed in any::<u64>(), workers in 1usize..5) {
        let case = generate_case(seed, &GenConfig::default());
        assert_agree(&case, &[MatcherKind::Rete.into(), Lane::threaded(workers)]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random plan × generated program × 3 schedules: any combination of
    /// per-production unsharing and copy-and-constraint splits preserves
    /// the conflict sets and working memory. The two extra schedules come
    /// from other generated cases; the generator draws from one shared
    /// vocabulary, so foreign schedules still reach this program's alpha
    /// network.
    #[test]
    fn transforms_preserve_conflict_sets_and_wm(
        seed in 0u64..4096,
        wseed in 0u64..4096,
        decisions in prop::collection::vec(any::<u8>(), 1..32),
    ) {
        let cfg = GenConfig::default();
        let case = generate_case(seed, &cfg);
        let lanes = [MatcherKind::Rete.into(), random_plan_lane(decisions)];
        assert_agree(&case, &lanes);
        for extra in [wseed, wseed.wrapping_add(7919)] {
            let borrowed = FuzzCase {
                schedule: generate_case(extra, &cfg).schedule,
                ..case.clone()
            };
            assert_agree(&borrowed, &lanes);
        }
    }

    /// Transformed and plain networks both drain their token arenas once
    /// every WME is retracted.
    #[test]
    fn transformed_networks_drain_their_arenas(
        seed in 0u64..4096,
        decisions in prop::collection::vec(any::<u8>(), 1..32),
    ) {
        let case = generate_case(seed, &GenConfig::default());
        let program = case.program().expect("generated programs validate");
        let plan = random_plan(&program, &decisions);
        plan.validate(&program).expect("random plan must be valid by construction");
        drains_after_retraction(&case, &TransformPlan::new());
        drains_after_retraction(&case, &plan);
    }
}

const TABLE_SIZE: u64 = 256;

/// A built-in workload as an oracle case, plus its traced sequential
/// capture (bucket activity for the greedy partition, as in §5.2.2).
fn workload(name: &str) -> (FuzzCase, CapturedRun) {
    let (program, initial, cycles) = match name {
        "rubik" => (
            rubik::program(),
            rubik::initial(&rubik::alternating_moves(2)),
            10,
        ),
        "tourney" => (tourney::program(), tourney::initial(8, 8), 4),
        "weaver" => (weaver::program(), weaver::initial(4, 4), 12),
        other => unreachable!("no workload {other}"),
    };
    let case = FuzzCase::workload(&program, initial.clone(), Strategy::Lex, cycles);
    let run = capture_trace(program, initial, Strategy::Lex, cycles, TABLE_SIZE)
        .expect("sequential run succeeds");
    assert!(
        run.batches.iter().flatten().next().is_some() && !run.result.fired.is_empty(),
        "{name}: section produced no WM activity"
    );
    (case, run)
}

/// Workers {1, 2, 4, 8} × round-robin / random / greedy bucket ownership.
fn partition_lanes(run: &CapturedRun) -> Vec<Lane> {
    let activity = bucket_activity(&run.trace);
    let mut lanes = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let partitions = [
            ("round-robin", Partition::round_robin(TABLE_SIZE, workers)),
            ("random", Partition::random(TABLE_SIZE, workers, 1989)),
            ("greedy", Partition::greedy(&activity, workers)),
        ];
        for (strategy, partition) in partitions {
            lanes.push(Lane::new(
                format!("threaded-{workers}-{strategy}"),
                move |p| {
                    let network = ReteNetwork::compile(p)?;
                    Ok(Box::new(ThreadedMatcher::with_partition(
                        network,
                        partition.clone(),
                    )))
                },
            ));
        }
    }
    lanes
}

fn agrees_across_workers_and_partitions(name: &str) {
    let (case, run) = workload(name);
    let lanes = partition_lanes(&run);
    assert_eq!(lanes.len(), 12);
    assert_agree(&case, &lanes);
}

#[test]
fn rubik_agrees_across_workers_and_partitions() {
    agrees_across_workers_and_partitions("rubik");
}

#[test]
fn tourney_agrees_across_workers_and_partitions() {
    agrees_across_workers_and_partitions("tourney");
}

#[test]
fn weaver_agrees_across_workers_and_partitions() {
    agrees_across_workers_and_partitions("weaver");
}

fn rete_profiled(p: &Program) -> Result<ReteMatcher<MetricsRegistry>, OpsError> {
    let network = ReteNetwork::compile(p)?;
    let registry = MetricsRegistry::new();
    Ok(ReteMatcher::with_metrics(
        network,
        EngineConfig::default(),
        registry,
    ))
}

fn rete_profiled_lane() -> Lane {
    Lane::new("rete-profiled", |p| Ok(Box::new(rete_profiled(p)?)))
}

fn threaded_profiled(workers: usize) -> Lane {
    Lane::new(format!("threaded-{workers}-profiled"), move |p| {
        Ok(Box::new(ThreadedMatcher::from_program_profiled(
            p, workers,
        )?))
    })
}

fn activations(reg: MetricsRegistry) -> u64 {
    reg.counter_total(kernel::metric::NODE_ACTIVATIONS)
}

/// Profiling must be invisible to match semantics: the profiled sequential
/// engine (kernel hooks recording into a registry) and its unprofiled twin
/// (`NullMetrics`, every hook compiled away) agree with the reference on
/// every workload. Replayed on its own, the profiled matcher records
/// activity and the unprofiled one nothing.
#[test]
fn profiled_sequential_matches_unprofiled_on_every_workload() {
    for name in ["rubik", "tourney", "weaver"] {
        let (case, _) = workload(name);
        assert_agree(&case, &[MatcherKind::Rete.into(), rete_profiled_lane()]);

        let mut plain = replay_one(&case, ReteMatcher::from_program).unwrap();
        let leaked = plain.matcher_mut().profile();
        assert!(leaked.is_empty(), "{name}: unprofiled rete leaked metrics");
        let mut profiled = replay_one(&case, rete_profiled).unwrap();
        let reg = profiled.matcher_mut().profile();
        assert!(
            activations(reg) > 0,
            "{name}: profiled rete recorded nothing"
        );
    }
}

/// The same for the threaded executor, with one and three workers.
#[test]
fn profiled_threaded_matches_unprofiled_on_every_workload() {
    for name in ["rubik", "tourney", "weaver"] {
        let (case, _) = workload(name);
        let mut lanes = Vec::new();
        for workers in [1usize, 3] {
            lanes.push(Lane::threaded(workers));
            lanes.push(threaded_profiled(workers));
        }
        assert_agree(&case, &lanes);

        for workers in [1usize, 3] {
            let mut plain =
                replay_one(&case, |p| ThreadedMatcher::from_program(p, workers)).unwrap();
            let leaked = plain.matcher_mut().profile_snapshot().unwrap();
            assert!(
                leaked.is_empty(),
                "{name}: threaded-{workers} leaked metrics"
            );
            let mut profiled = replay_one(&case, |p| {
                ThreadedMatcher::from_program_profiled(p, workers)
            })
            .unwrap();
            let reg = profiled.matcher_mut().profile_snapshot().unwrap();
            assert!(
                activations(reg) > 0,
                "{name}: threaded-{workers}-profiled recorded nothing"
            );
        }
    }
}

/// The profiled threaded executor agrees with the profiled sequential
/// engine: both lanes match the reference every cycle of one lockstep run,
/// hence each other. The two profiled code paths share nothing but the
/// kernel, so this catches instrumentation that perturbs one executor's
/// scheduling.
#[test]
fn profiled_threaded_matches_profiled_sequential() {
    for name in ["rubik", "tourney", "weaver"] {
        let (case, _) = workload(name);
        assert_agree(&case, &[rete_profiled_lane(), threaded_profiled(2)]);
    }
}
