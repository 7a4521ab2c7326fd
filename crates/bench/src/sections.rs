//! The match-kernel bench sections, shared by the `matchkernel` binary
//! and the criterion `match_executors` group: per-cycle WM change batches
//! of the three characteristic workloads.

use mpps_ops::{Program, Strategy, Wme, WmeChange, WmeId};
use mpps_workloads::{capture_trace, rubik, tourney, weaver};

/// WM changes that trigger a sizable cross-product match (the Tourney
/// pathology): `n` east and `n` west teams plus the round marker.
pub fn cross_changes(n: usize) -> Vec<WmeChange> {
    let mut changes = Vec::new();
    for i in 0..n {
        changes.push(WmeChange::add(
            WmeId(1 + i as u64),
            Wme::new("team", &[("div", "east".into()), ("id", (i as i64).into())]),
        ));
        changes.push(WmeChange::add(
            WmeId(1000 + i as u64),
            Wme::new(
                "team",
                &[("div", "west".into()), ("id", (100 + i as i64).into())],
            ),
        ));
    }
    changes.push(WmeChange::add(
        WmeId(5000),
        Wme::new("round", &[("n", 1.into())]),
    ));
    changes
}

/// The per-cycle batches of a sequential LEX run (see
/// [`mpps_workloads::capture_trace`]).
fn batches(program: Program, initial: Vec<Wme>, cycles: usize) -> Vec<Vec<WmeChange>> {
    capture_trace(program, initial, Strategy::Lex, cycles, 64)
        .expect("bench section runs")
        .batches
}

/// Rubik (modify-heavy, wide fan-out), Tourney (one cross-product batch)
/// and Weaver (in between): name, program, change batches.
pub fn sections() -> Vec<(&'static str, Program, Vec<Vec<WmeChange>>)> {
    let moves = rubik::alternating_moves(2);
    vec![
        (
            "rubik",
            rubik::program(),
            batches(rubik::program(), rubik::initial(&moves), 10),
        ),
        ("tourney", tourney::program(), vec![cross_changes(20)]),
        (
            "weaver",
            weaver::program(),
            batches(weaver::program(), weaver::initial(4, 4), 12),
        ),
    ]
}
