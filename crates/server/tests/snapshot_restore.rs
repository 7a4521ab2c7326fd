//! Snapshot → restore → continue must equal an uninterrupted run.
//!
//! The oracle runs a session straight through; the subject runs to a
//! property-chosen cut point, round-trips through the versioned snapshot
//! codec onto a **fresh** matcher (as a restore onto a new server would),
//! and continues. After every subsequent MRA cycle the two must agree on
//! everything the difftest oracle compares (the step outcome, the conflict
//! set, working memory, the halt flag) and on `(write …)` output — across
//! all builtin workloads and across fuzzer-generated programs with
//! adversarial add/remove schedules.

use mpps_difftest::{
    compare_cycle, generate_case, replay, replay_one, Flow, FuzzCase, GenConfig, Replay, ScheduleOp,
};
use mpps_ops::{Interpreter, Program, Strategy, Wme};
use mpps_rete::{EngineConfig, ReteMatcher, ReteNetwork};
use mpps_server::snapshot::{decode, encode};
use mpps_server::{
    program_fingerprint, Reply, Server, ServerConfig, ServerError, Session, SnapshotError,
};
use mpps_workloads::{rubik, serve, tourney, weaver};
use proptest::prelude::*;
use std::sync::Arc;

const ENGINE: EngineConfig = EngineConfig {
    table_size: 32,
    record_trace: false,
};

fn fresh(
    program: &Arc<Program>,
    network: &Arc<ReteNetwork>,
    strategy: Strategy,
) -> Interpreter<ReteMatcher> {
    Interpreter::with_shared_program(
        Arc::clone(program),
        strategy,
        ReteMatcher::new_shared(Arc::clone(network), ENGINE),
    )
}

/// Snapshot `subject` to bytes and rebuild it on a brand-new matcher.
fn roundtrip(
    subject: &Interpreter<ReteMatcher>,
    program: &Arc<Program>,
    network: &Arc<ReteNetwork>,
) -> Interpreter<ReteMatcher> {
    let fp = program_fingerprint(program);
    let bytes = encode(&subject.export_state(), fp).expect("snapshot encodes");
    let state = decode(&bytes, fp).expect("snapshot decodes");
    Interpreter::with_shared_state(
        Arc::clone(program),
        ReteMatcher::new_shared(Arc::clone(network), ENGINE),
        state,
    )
    .expect("restore replays cleanly")
}

/// Replay `case`, round-tripping the subject through a snapshot before
/// cycle `cut`; if the run ends first, the final state is round-tripped
/// and both sides run one more cycle in lockstep.
fn check_case(case: &FuzzCase, cut: usize, label: &str) {
    let program = Arc::new(case.program().expect("valid program"));
    let network = Arc::new(ReteNetwork::compile(&program).expect("compiles"));
    let mut pair = CutPair {
        oracle: fresh(&program, &network, case.strategy),
        subject: fresh(&program, &network, case.strategy),
        program,
        network,
        cut: Some(cut),
        label: label.to_owned(),
    };
    let Ok(()) = replay(&case.schedule, &mut pair);
    if pair.cut.is_some() {
        let cycle = pair.subject.cycles();
        pair.cut = Some(cycle);
        let Ok(_) = pair.fire(case.schedule.rounds.len(), cycle + 1);
    }
}

fn builtin(which: usize) -> (Program, Vec<Wme>) {
    match which {
        0 => (
            rubik::program(),
            rubik::initial(&rubik::alternating_moves(2)),
        ),
        1 => (tourney::program(), tourney::initial(5, 5)),
        2 => (weaver::program(), weaver::initial(3, 3)),
        _ => {
            let mut initial = serve::initial();
            initial.extend(serve::round(9, 0, 3));
            (serve::program(), initial)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn builtin_workloads_survive_snapshot(which in 0usize..4, cut in 0usize..32) {
        let (program, initial) = builtin(which);
        let case = FuzzCase::workload(&program, initial, Strategy::Lex, 48);
        check_case(&case, cut, &format!("workload {which} cut {cut}"));
    }

    /// Fuzzer-generated programs (negations, removals, both strategies)
    /// with external add/remove schedules.
    #[test]
    fn fuzzer_programs_survive_snapshot(seed in 0u64..400, cut in 0usize..24) {
        let case = generate_case(seed, &GenConfig::default());
        check_case(&case, cut, &format!("seed {seed} cut {cut}"));
    }
}

/// An oracle and a subject replaying one schedule in lockstep; the
/// subject is round-tripped through a snapshot once, before cycle `cut`.
struct CutPair {
    oracle: Interpreter<ReteMatcher>,
    subject: Interpreter<ReteMatcher>,
    program: Arc<Program>,
    network: Arc<ReteNetwork>,
    cut: Option<usize>,
    label: String,
}

impl Replay for CutPair {
    type Stop = std::convert::Infallible;

    fn apply(&mut self, op: &ScheduleOp, round: usize, cycle: usize) -> Result<(), Self::Stop> {
        // Both sides resolve `RemoveNth` against their own WM, which
        // `lockstep` holds equal after every cycle.
        self.oracle.apply(op, round, cycle)?;
        self.subject.apply(op, round, cycle)
    }

    fn fire(&mut self, round: usize, cycle: usize) -> Result<Flow, Self::Stop> {
        if self.cut == Some(cycle - 1) {
            self.subject = roundtrip(&self.subject, &self.program, &self.network);
            self.cut = None;
        }
        let (a, b) = (self.oracle.step(), self.subject.step());
        let at = format!("{} round {round} cycle {cycle}", self.label);
        if let Some(detail) = compare_cycle(&self.oracle, &a, &self.subject, &b) {
            panic!("{at}: {detail}");
        }
        let outputs = (self.oracle.output(), self.subject.output());
        assert_eq!(outputs.0, outputs.1, "{at}: outputs diverged");
        Ok(Flow::of(&a, self.oracle.is_halted()))
    }
}

/// Halt behavior survives restore: a session snapshotted *after* a halt
/// stays halted and refuses to fire again.
#[test]
fn halted_sessions_stay_halted() {
    let program = mpps_ops::parse_program("(p once (go) --> (halt))").unwrap();
    let program = Arc::new(program);
    let network = Arc::new(ReteNetwork::compile(&program).unwrap());
    let mut interp = fresh(&program, &network, Strategy::Lex);
    interp.wm_make("go", &[]);
    let result = interp.run(10).unwrap();
    assert_eq!(result.outcome, mpps_ops::RunOutcome::Halted);
    let restored = roundtrip(&interp, &program, &network);
    assert!(restored.is_halted());
    let mut restored = restored;
    let again = restored.run(10).unwrap();
    assert_eq!(again.outcome, mpps_ops::RunOutcome::Halted);
    assert_eq!(again.cycles, 0);
}

/// Agreement over a long horizon: Rubik turns the cube once per cycle
/// for 60 moves, and the subject is cut early, midway and late.
#[test]
fn rubik_survives_snapshot_over_sixty_cycles() {
    let program = rubik::program();
    let initial = rubik::initial(&rubik::alternating_moves(60));
    let case = FuzzCase::workload(&program, initial, Strategy::Lex, 64);
    let run = replay_one(&case, ReteMatcher::from_program).unwrap();
    assert!(
        run.cycles() >= 60,
        "rubik stopped after {} cycles",
        run.cycles()
    );
    for cut in [2, 30, 58] {
        check_case(&case, cut, &format!("rubik cut {cut}"));
    }
}

/// A snapshot whose next time tag does not exceed a live one is corrupt
/// input: restoring it yields a typed error, and the worker that read it
/// keeps serving.
#[test]
fn snapshot_with_stale_next_time_tag_is_a_typed_error() {
    let program = serve::program();
    let fp = program_fingerprint(&program);
    let mut interp = Interpreter::with_matcher(
        program.clone(),
        Strategy::Lex,
        ReteMatcher::from_program(&program).unwrap(),
    );
    for wme in serve::initial() {
        interp.add_wme(wme);
    }
    interp.run(8).unwrap();
    let mut state = interp.export_state();
    state.next_id = state.wm.last().expect("live WM").0 .0;
    let bytes = encode(&state, fp).expect("encodes");
    let network = Arc::new(ReteNetwork::compile(&program).unwrap());
    let restored = Session::restore(Arc::new(program.clone()), network, ENGINE, fp, &bytes);
    assert!(matches!(
        restored,
        Err(ServerError::Snapshot(SnapshotError::Corrupt(_)))
    ));

    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let mut server = Server::new(program, config).unwrap();
    let (_, request) = server.restore(bytes).unwrap();
    let timeout = std::time::Duration::from_secs(30);
    match server.wait_for(request, timeout).unwrap() {
        Reply::Failed { error, .. } => assert!(error.contains("corrupt"), "{error}"),
        other => panic!("expected Failed, got {other:?}"),
    }
    let (_, request) = server.create_session(serve::initial()).unwrap();
    assert!(matches!(
        server.wait_for(request, timeout).unwrap(),
        Reply::Ready { .. }
    ));
}

/// A snapshot is untrusted input. Flipping any single bit of a serve
/// session's snapshot — at quiescence, with a round pending (queued, not
/// yet matched), or mid-round — must restore to a typed error or to a
/// session that keeps serving, never to a state whose next request
/// panics the match kernel.
#[test]
fn bit_flipped_serve_snapshots_never_panic() {
    let program = Arc::new(serve::program());
    let network = Arc::new(ReteNetwork::compile(&program).unwrap());
    let fp = program_fingerprint(&program);
    let mut session = Session::new(
        Arc::clone(&program),
        Arc::clone(&network),
        Strategy::Lex,
        ENGINE,
        fp,
    );
    session.ingest(serve::initial());
    session.ingest(serve::round(7, 0, 3));
    session.run(serve::cycle_budget(3)).unwrap();
    let quiescent = session.snapshot().unwrap();
    session.ingest(serve::round(7, 1, 3));
    assert!(session.pending_len() > 0, "the round must still be pending");
    let pending = session.snapshot().unwrap();
    session.run(2).unwrap();
    let mid_round = session.snapshot().unwrap();

    for (label, bytes) in [
        ("quiescent", quiescent),
        ("pending round", pending),
        ("mid-round", mid_round),
    ] {
        let mut panicked = Vec::new();
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let restored = Session::restore(
                    Arc::clone(&program),
                    Arc::clone(&network),
                    ENGINE,
                    fp,
                    &flipped,
                );
                if let Ok(mut session) = restored {
                    session.ingest(serve::round(7, 2, 3));
                    let _ = session.run(serve::cycle_budget(6));
                }
            }));
            if outcome.is_err() {
                panicked.push(bit);
            }
        }
        assert!(
            panicked.is_empty(),
            "{label}: {} of {} single-bit flips panicked, first at bits {:?}",
            panicked.len(),
            bytes.len() * 8,
            &panicked[..panicked.len().min(8)]
        );
    }
}
