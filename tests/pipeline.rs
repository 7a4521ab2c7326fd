//! End-to-end pipeline tests across crates: interpreter × matchers on the
//! runnable workloads, trace round-trips, and trace-driven simulation of
//! organically captured traces.

use mpps::core::sweep::{baseline, speedup_curve, PartitionStrategy};
use mpps::core::{simulate, MappingConfig, OverheadSetting, Partition};
use mpps::difftest::{run_case, FuzzCase, Lane, MatcherKind};
use mpps::ops::{Interpreter, Program, Strategy, Wme};
use mpps::rete::{ReteMatcher, Trace};
use mpps::workloads::{rubik, tourney, weaver};

/// Run a workload through the difftest oracle: every lane must match the
/// naive reference — firing, conflict set and working memory — cycle for
/// cycle.
fn assert_lanes_agree(program: Program, initial: Vec<Wme>, cycles: usize, lanes: Vec<Lane>) {
    let case = FuzzCase::workload(&program, initial, Strategy::Lex, cycles);
    if let Some(d) = run_case(&case, &lanes) {
        panic!("{d}");
    }
}

#[test]
fn rubik_runs_identically_on_all_matchers() {
    // Small move count: the naive matcher is exponential in CE count, so
    // use the observer-free program.
    let program = rubik::program_with_observers(0);
    let initial = rubik::initial(&rubik::alternating_moves(2));
    let mut lanes = MatcherKind::lanes(&[MatcherKind::Rete, MatcherKind::Treat]);
    lanes.push(Lane::threaded(3));
    assert_lanes_agree(program, initial, 20, lanes);
}

#[test]
fn tourney_runs_identically_on_naive_and_rete() {
    let lanes = MatcherKind::lanes(&[MatcherKind::Rete]);
    assert_lanes_agree(tourney::program(), tourney::initial(4, 4), 40, lanes);
}

#[test]
fn tourney_runs_identically_on_rete_and_threaded() {
    let lanes = vec![MatcherKind::Rete.into(), Lane::threaded(4)];
    assert_lanes_agree(tourney::program(), tourney::initial(5, 5), 60, lanes);
}

#[test]
fn weaver_runs_identically_on_naive_and_rete() {
    let lanes = MatcherKind::lanes(&[MatcherKind::Rete]);
    assert_lanes_agree(weaver::program(), weaver::initial(4, 2), 40, lanes);
}

#[test]
fn captured_traces_roundtrip_through_text() {
    for trace in [
        rubik::section(3, 256).trace,
        tourney::section(4, 4, 3, 256).trace,
        weaver::section(4, 2, 15, 256).trace,
    ] {
        let text = trace.to_text();
        let back = Trace::from_text(&text).unwrap();
        assert_eq!(back.table_size, trace.table_size);
        assert_eq!(back.cycles.len(), trace.cycles.len());
        for (a, b) in trace.cycles.iter().zip(back.cycles.iter()) {
            assert_eq!(a.activations, b.activations);
        }
    }
}

#[test]
fn captured_rubik_trace_matches_paper_mix() {
    // The organically captured cube trace lands close to Table 5-2's
    // Rubik row (28% left / 72% right) — evidence the runnable ruleset
    // has the right character, not just the calibrated generator.
    let run = rubik::section(6, 512);
    let f = run.trace.stats().left_fraction();
    assert!(
        (0.18..=0.42).contains(&f),
        "left fraction {f} out of the Rubik-like band"
    );
}

#[test]
fn simulating_a_captured_trace_gives_speedup() {
    let trace = rubik::section(6, 512).trace;
    let curve = speedup_curve(
        &trace,
        &[1, 4, 16],
        OverheadSetting::ZERO,
        PartitionStrategy::RoundRobin,
    );
    assert!((curve[0].speedup - 1.0).abs() < 0.05);
    assert!(curve[1].speedup > 1.8, "4 procs: {}", curve[1].speedup);
    assert!(
        curve[2].speedup > curve[1].speedup,
        "16 procs beats 4 procs"
    );
}

#[test]
fn simulation_processes_every_activation_regardless_of_partition() {
    let trace = tourney::section(6, 6, 3, 256).trace;
    let expected = trace.stats();
    for p in [1usize, 3, 8] {
        let config = MappingConfig::standard(p, OverheadSetting::table_5_1()[1]);
        let partition = Partition::round_robin(trace.table_size, p);
        let report = simulate(&trace, &config, &partition);
        let left: u64 = report
            .cycles
            .iter()
            .map(|c| c.left_acts.iter().sum::<u64>())
            .sum();
        let right: u64 = report
            .cycles
            .iter()
            .map(|c| c.right_acts.iter().sum::<u64>())
            .sum();
        let insts: u64 = report.cycles.iter().map(|c| c.instantiations).sum();
        assert_eq!(left as usize, expected.left, "left conservation at P={p}");
        assert_eq!(
            right as usize, expected.right,
            "right conservation at P={p}"
        );
        assert_eq!(
            insts as usize, expected.instantiations,
            "instantiation conservation at P={p}"
        );
    }
}

#[test]
fn baseline_equals_single_processor_zero_overhead_run() {
    let trace = weaver::section(4, 2, 12, 256).trace;
    let base = baseline(&trace);
    let explicit = simulate(
        &trace,
        &MappingConfig::baseline(),
        &Partition::single(trace.table_size),
    );
    assert_eq!(base.total, explicit.total);
}

#[test]
fn unshared_network_reduces_sharing_but_preserves_firings() {
    let program = tourney::program();
    let shared = mpps::rete::ReteNetwork::compile(&program).unwrap();
    let unshared = mpps::rete::transform::unshare(&program).unwrap();
    assert!(unshared.stats().shared_two_input <= shared.stats().shared_two_input);
    // Semantics preserved end to end.
    let unshared = Lane::new("rete-unshared", |p| {
        let network = mpps::rete::transform::unshare(p)?;
        let config = mpps::rete::EngineConfig::default();
        Ok(Box::new(ReteMatcher::new(network, config)))
    });
    let lanes = vec![MatcherKind::Rete.into(), unshared];
    assert_lanes_agree(program, tourney::initial(3, 3), 40, lanes);
}
#[test]
fn parallel_firing_on_independent_workloads() {
    // Ten independent grid cells to consume: run_parallel retires them in
    // one act phase where serial needs ten.
    use mpps::ops::parse_program;
    let prog =
        parse_program("(p take (cell ^state free ^x <x> ^y <y>) --> (modify 1 ^state used))")
            .unwrap();
    let mut interp = Interpreter::with_matcher(
        prog.clone(),
        Strategy::Lex,
        ReteMatcher::from_program(&prog).unwrap(),
    );
    for i in 0..10 {
        interp.add_wme(mpps::ops::Wme::new(
            "cell",
            &[("state", "free".into()), ("x", i.into()), ("y", 0.into())],
        ));
    }
    let r = interp.run_parallel(50).unwrap();
    assert_eq!(r.fired.len(), 10);
    assert!(r.fired.iter().all(|f| f.cycle == 1), "all fire in cycle 1");
}

#[test]
fn parallel_firing_negation_interference_is_documented_behaviour() {
    // pair-teams only makes WMEs, so the compatible-set criterion admits
    // every pairing at once even though each firing's `busy` WMEs would
    // have blocked later ones serially. This is the known caveat of
    // compatible-set parallel firing (make + negation interference); the
    // test pins the documented behaviour.
    let program = tourney::program();
    let matcher = ReteMatcher::from_program(&program).unwrap();
    let mut interp = Interpreter::with_matcher(program, Strategy::Lex, matcher);
    for w in tourney::initial(3, 3) {
        interp.add_wme(w);
    }
    let fired = interp.step_parallel().unwrap();
    assert_eq!(
        fired.len(),
        9,
        "all 9 pairings admitted in one parallel cycle"
    );
}

#[test]
fn mea_strategy_runs_workloads_to_the_same_outcome() {
    // LEX and MEA may fire in different orders but the cube permutations
    // commute per move plan, so the final cube state agrees.
    let program = rubik::program_with_observers(0);
    let initial = rubik::initial(&rubik::alternating_moves(3));
    let state = |strategy: Strategy| {
        let m = ReteMatcher::from_program(&program).unwrap();
        let mut interp = Interpreter::with_matcher(program.clone(), strategy, m);
        for w in initial.clone() {
            interp.add_wme(w);
        }
        interp.run(30).unwrap();
        let mut stickers: Vec<String> = interp
            .working_memory()
            .iter()
            .filter(|(_, w)| w.class().as_str() == "sticker")
            .map(|(_, w)| w.to_string())
            .collect();
        stickers.sort();
        stickers
    };
    assert_eq!(state(Strategy::Lex), state(Strategy::Mea));
}
