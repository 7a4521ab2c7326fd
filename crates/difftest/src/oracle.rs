//! The differential oracle: run every lane through the same interpreter
//! cycles in lockstep and compare observable state after each cycle.
//!
//! The naive matcher is always the ground truth — it is driven even when
//! the caller's lane list omits it. After every cycle the oracle
//! compares, per lane:
//!
//! * the **conflict set** (sorted canonically),
//! * the **step outcome** (which instantiation fired, or quiescence),
//! * the full **working memory** contents, and
//! * the halt flag.
//!
//! The first mismatch wins; the report names the diverging lane, the
//! schedule round and interpreter cycle, and carries a human-readable
//! expected/actual diff for the CLI to print.
//!
//! [`replay`] is the schedule cadence every driver in the workspace
//! shares: the lockstep oracle here, single-matcher replays
//! ([`replay_one`], used for profiling and corpus checks), and any other
//! [`Replay`] target a test defines.

use crate::gen::{FuzzCase, Schedule, ScheduleOp};
use crate::{Lane, MatcherKind};
use mpps_core::ThreadedMatcher;
use mpps_ops::interpreter::StepOutcome;
use mpps_ops::{
    sort_conflict_set, Instantiation, Interpreter, Matcher, OpsError, Program, TreatMatcher, Wme,
    WmeId,
};
use mpps_rete::{EngineConfig, ReteMatcher, ReteNetwork};
use mpps_telemetry::MetricsRegistry;
use std::convert::Infallible;
use std::fmt;

/// Fire at most this many cycles after each schedule round (generated
/// programs can loop; the bound keeps every replay total).
pub(crate) const MAX_STEPS_PER_ROUND: usize = 8;
/// Hard cap on cycles across the whole case.
pub(crate) const MAX_TOTAL_CYCLES: usize = 64;

/// What a [`Replay`] target reports after one cycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Flow {
    /// A production fired; keep firing this round.
    Fired,
    /// Nothing left to fire; go on to the next round.
    Quiescent,
    /// Halted, or a cycle failed; the case ends here.
    End,
}

impl Flow {
    /// How a replay goes on after `step`: a firing continues the round
    /// unless it halted, quiescence ends the round, an error ends the case.
    pub fn of(step: &Result<StepOutcome, OpsError>, halted: bool) -> Flow {
        match step {
            Ok(StepOutcome::Fired(_)) if !halted => Flow::Fired,
            Ok(StepOutcome::Quiescent) => Flow::Quiescent,
            _ => Flow::End,
        }
    }
}

/// Something the schedule cadence can drive: one interpreter, or several
/// in lockstep.
pub trait Replay {
    /// Why a replay stopped early (a divergence, a failed check, …).
    type Stop;
    /// Apply one external WM change of `round`; `cycle` cycles have run.
    fn apply(&mut self, op: &ScheduleOp, round: usize, cycle: usize) -> Result<(), Self::Stop>;
    /// Run recognize–act cycle number `cycle` (1-based, across the case).
    fn fire(&mut self, round: usize, cycle: usize) -> Result<Flow, Self::Stop>;
}

/// The schedule cadence: apply each round's ops, then fire at most
/// [`MAX_STEPS_PER_ROUND`] cycles, moving on at quiescence. The case ends
/// after [`MAX_TOTAL_CYCLES`] cycles, on halt or on a failed cycle.
pub fn replay<R: Replay>(schedule: &Schedule, target: &mut R) -> Result<(), R::Stop> {
    let mut cycle = 0usize;
    for (round, ops) in schedule.rounds.iter().enumerate() {
        for op in ops {
            target.apply(op, round, cycle)?;
        }
        for _ in 0..MAX_STEPS_PER_ROUND {
            if cycle >= MAX_TOTAL_CYCLES {
                return Ok(());
            }
            cycle += 1;
            match target.fire(round, cycle)? {
                Flow::Fired => {}
                Flow::Quiescent => break,
                Flow::End => return Ok(()),
            }
        }
    }
    Ok(())
}

/// A single interpreter replays a schedule on its own, resolving
/// `RemoveNth` against its own working memory.
impl<M: Matcher> Replay for Interpreter<M> {
    type Stop = Infallible;

    fn apply(&mut self, op: &ScheduleOp, _round: usize, _cycle: usize) -> Result<(), Infallible> {
        match op {
            ScheduleOp::Make(wme) => {
                self.add_wme(wme.clone());
            }
            // The `n % live`-th live WME, ascending time-tag order.
            ScheduleOp::RemoveNth(n) => {
                let wm = self.working_memory();
                let nth = wm.iter().nth(n % wm.len().max(1)).map(|(id, _)| id);
                if let Some(id) = nth {
                    self.remove_wme(id).expect("id drawn from live WM");
                }
            }
        }
        Ok(())
    }

    fn fire(&mut self, _round: usize, _cycle: usize) -> Result<Flow, Infallible> {
        let step = self.step();
        Ok(Flow::of(&step, self.is_halted()))
    }
}

/// Replay `case`'s schedule through one matcher that `build` makes for
/// the case's program, with nothing compared; returns the interpreter for
/// inspection (profiles, firings, arena occupancy).
pub fn replay_one<M: Matcher>(
    case: &FuzzCase,
    build: impl FnOnce(&Program) -> Result<M, OpsError>,
) -> Result<Interpreter<M>, OpsError> {
    let program = case.program()?;
    let matcher = build(&program)?;
    let mut interp = Interpreter::with_matcher(program, case.strategy, matcher);
    let Ok(()) = replay(&case.schedule, &mut interp);
    Ok(interp)
}

/// Replay `case` under profiled Rete, TREAT and 2-worker Threaded
/// matchers (nothing compared) and merge their metrics into `merged`.
pub fn profile_case(case: &FuzzCase, merged: &mut MetricsRegistry) -> Result<(), OpsError> {
    let mut rete = replay_one(case, |p| {
        let network = ReteNetwork::compile(p)?;
        Ok(ReteMatcher::with_metrics(
            network,
            EngineConfig::default(),
            MetricsRegistry::new(),
        ))
    })?;
    merged.merge(&rete.matcher_mut().profile());
    let treat = replay_one(case, |p| {
        Ok(TreatMatcher::with_metrics(p, MetricsRegistry::new()))
    })?;
    merged.merge(&treat.matcher().profile());
    let mut threaded = replay_one(case, |p| ThreadedMatcher::from_program_profiled(p, 2))?;
    merged.merge(&threaded.matcher_mut().profile_snapshot()?);
    Ok(())
}

/// A detected disagreement between a lane and the naive reference.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// The name of the lane that disagreed with the reference.
    pub matcher: String,
    /// 0-based schedule round in which the mismatch surfaced.
    pub round: usize,
    /// Interpreter cycle count at the mismatch.
    pub cycle: usize,
    /// What differed (conflict set, firing, WM, …), expected vs actual.
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} diverged from naive at round {}, cycle {}: {}",
            self.matcher, self.round, self.cycle, self.detail
        )
    }
}

fn clip(s: String) -> String {
    const MAX: usize = 600;
    if s.len() <= MAX {
        s
    } else {
        let mut end = MAX;
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}…", &s[..end])
    }
}

fn show_insts(set: &[Instantiation]) -> String {
    let items: Vec<String> = set.iter().map(|i| i.to_string()).collect();
    format!("[{}]", items.join(" "))
}

fn show_wm(wm: &[(WmeId, Wme)]) -> String {
    let items: Vec<String> = wm.iter().map(|(id, w)| format!("{id}:{w}")).collect();
    format!("{{{}}}", items.join(" "))
}

fn sorted_conflict_set<M: Matcher + ?Sized>(m: &M) -> Vec<Instantiation> {
    let mut cs = m.conflict_set();
    sort_conflict_set(&mut cs);
    cs
}

type Driven = Interpreter<Box<dyn Matcher>>;

fn wm_snapshot<M: Matcher>(interp: &Interpreter<M>) -> Vec<(WmeId, Wme)> {
    interp
        .working_memory()
        .iter()
        .map(|(id, w)| (id, w.clone()))
        .collect()
}

/// The naive reference plus one interpreter per lane, stepped together.
struct Lockstep {
    reference: Driven,
    lanes: Vec<(String, Driven)>,
}

impl Replay for Lockstep {
    type Stop = Divergence;

    /// External changes go to the reference and to every lane; each
    /// resolves `RemoveNth` against its own WM, which [`compare_cycle`]
    /// holds equal to the reference's after every cycle.
    fn apply(&mut self, op: &ScheduleOp, round: usize, cycle: usize) -> Result<(), Divergence> {
        let Ok(()) = self.reference.apply(op, round, cycle);
        for (_, interp) in &mut self.lanes {
            let Ok(()) = interp.apply(op, round, cycle);
        }
        Ok(())
    }

    fn fire(&mut self, round: usize, cycle: usize) -> Result<Flow, Divergence> {
        let ref_step = self.reference.step();
        for (name, interp) in &mut self.lanes {
            let lane_step = interp.step();
            if let Some(detail) = compare_cycle(&self.reference, &ref_step, interp, &lane_step) {
                return Err(Divergence {
                    matcher: name.clone(),
                    round,
                    cycle,
                    detail,
                });
            }
        }
        // A runtime RHS error in the reference (every lane hit the same
        // one — checked above) ends the case, as a halt does.
        Ok(Flow::of(&ref_step, self.reference.is_halted()))
    }
}

/// Drive `case` through the naive reference plus every lane. Returns the
/// first divergence, or `None` when they all agree to the end of the
/// schedule (or the cycle cap).
pub fn run_case(case: &FuzzCase, lanes: &[Lane]) -> Option<Divergence> {
    let program = match case.program() {
        Ok(p) => p,
        // An invalid program is a generator bug, not a matcher divergence.
        Err(_) => return None,
    };
    let driven = |m: Box<dyn Matcher>| Interpreter::with_matcher(program.clone(), case.strategy, m);
    let naive = MatcherKind::Naive
        .build(&program)
        .expect("naive matcher always builds");
    let mut lockstep = Lockstep {
        reference: driven(naive),
        lanes: Vec::new(),
    };
    for lane in lanes {
        if lane.name() == MatcherKind::Naive.name() {
            continue;
        }
        match lane.build(&program) {
            Ok(m) => lockstep.lanes.push((lane.name().to_owned(), driven(m))),
            Err(e) => {
                return Some(Divergence {
                    matcher: lane.name().to_owned(),
                    round: 0,
                    cycle: 0,
                    detail: clip(format!("failed to build for a valid program: {e}")),
                })
            }
        }
    }
    replay(&case.schedule, &mut lockstep).err()
}

/// Compare one lane against the reference after a cycle: the step outcome,
/// the sorted conflict set, working memory and the halt flag. `Some(detail)`
/// on the first mismatch.
pub fn compare_cycle<R: Matcher, L: Matcher>(
    reference: &Interpreter<R>,
    ref_step: &Result<StepOutcome, OpsError>,
    lane: &Interpreter<L>,
    lane_step: &Result<StepOutcome, OpsError>,
) -> Option<String> {
    match (ref_step, lane_step) {
        (Ok(a), Ok(b)) => {
            let same = match (a, b) {
                (StepOutcome::Fired(x), StepOutcome::Fired(y)) => x == y,
                (StepOutcome::Quiescent, StepOutcome::Quiescent) => true,
                _ => false,
            };
            if !same {
                return Some(clip(format!("step produced {b:?}, naive produced {a:?}")));
            }
        }
        // Both failed the same cycle (e.g. modify of a stale WME); treat
        // as agreement — the interpreter surfaces the error to its caller
        // identically.
        (Err(_), Err(_)) => {}
        (Ok(a), Err(b)) => {
            return Some(clip(format!("step error {b}, naive stepped {a:?}")));
        }
        (Err(a), Ok(b)) => {
            return Some(clip(format!("stepped {b:?}, naive errored {a}")));
        }
    }

    let ref_cs = sorted_conflict_set(reference.matcher());
    let lane_cs = sorted_conflict_set(lane.matcher());
    if ref_cs != lane_cs {
        return Some(clip(format!(
            "conflict set {} but naive has {}",
            show_insts(&lane_cs),
            show_insts(&ref_cs)
        )));
    }

    let ref_wm = wm_snapshot(reference);
    let lane_wm = wm_snapshot(lane);
    if ref_wm != lane_wm {
        return Some(clip(format!(
            "WM {} but naive has {}",
            show_wm(&lane_wm),
            show_wm(&ref_wm)
        )));
    }

    if reference.is_halted() != lane.is_halted() {
        return Some("halt flag differs from naive".to_string());
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Schedule;
    use mpps_ops::{parse_program, parse_wme, Strategy};

    fn case_from(src: &str, strategy: Strategy, rounds: Vec<Vec<ScheduleOp>>) -> FuzzCase {
        let program = parse_program(src).unwrap();
        FuzzCase {
            productions: program.iter().map(|(_, p)| p.clone()).collect(),
            strategy,
            schedule: Schedule { rounds },
        }
    }

    fn mk(s: &str) -> ScheduleOp {
        ScheduleOp::Make(parse_wme(s).unwrap())
    }

    #[test]
    fn agreeing_case_reports_none() {
        let case = case_from(
            "(p t (a ^p <v>) (b ^q <v>) --> (remove 1))",
            Strategy::Lex,
            vec![
                vec![mk("(a ^p 1)"), mk("(b ^q 1)")],
                vec![mk("(a ^p 2)")],
                vec![ScheduleOp::RemoveNth(0)],
            ],
        );
        assert!(run_case(&case, &MatcherKind::lanes(&MatcherKind::ALL)).is_none());
    }

    #[test]
    fn treat_negation_visibility_case_agrees_after_fix() {
        // The exact shape the fuzzer minimized the historical TREAT
        // positional-negation bug to; pinned here and in tests/corpus/.
        let case = case_from(
            "(p diverge (a) -(b ^q <v>) (c ^r <v>) --> (remove 1))",
            Strategy::Lex,
            vec![vec![mk("(c ^r 1)"), mk("(a)"), mk("(b ^q 2)")]],
        );
        assert!(run_case(&case, &MatcherKind::lanes(&MatcherKind::ALL)).is_none());
    }

    #[test]
    fn leading_negation_case_agrees_across_all_matchers() {
        let case = case_from(
            "(p guard -(inhibit ^on <w>) (job ^id <w>) --> (remove 1))",
            Strategy::Mea,
            vec![
                vec![mk("(job ^id 1)")],
                vec![mk("(inhibit ^on 2)")],
                vec![ScheduleOp::RemoveNth(1)],
            ],
        );
        assert!(run_case(&case, &MatcherKind::lanes(&MatcherKind::ALL)).is_none());
    }

    #[test]
    fn oracle_bounds_runaway_programs() {
        // Fires forever (make with no removal); the oracle must terminate.
        // 20 rounds of 8 steps would be 160 cycles; the case stops at 64.
        let src = "(p loop (a) --> (make a))";
        let case = case_from(src, Strategy::Lex, vec![vec![mk("(a)")]; 20]);
        assert!(run_case(&case, &MatcherKind::lanes(&MatcherKind::ALL)).is_none());
        let naive = |p: &Program| Ok(mpps_ops::NaiveMatcher::new(p.clone()));
        assert_eq!(replay_one(&case, naive).unwrap().cycles(), MAX_TOTAL_CYCLES);
        let one_round = case_from(src, Strategy::Lex, vec![vec![mk("(a)")]]);
        let interp = replay_one(&one_round, naive).unwrap();
        assert_eq!(interp.cycles(), MAX_STEPS_PER_ROUND);
    }

    #[test]
    fn broken_matcher_is_caught() {
        // A matcher that silently drops every instantiation must be flagged
        // on the very first cycle with WMEs present.
        struct Mute;
        impl Matcher for Mute {
            fn process(&mut self, _changes: &[mpps_ops::WmeChange]) {}
            fn conflict_set(&self) -> Vec<Instantiation> {
                Vec::new()
            }
        }
        let case = case_from(
            "(p t (a) --> (remove 1))",
            Strategy::Lex,
            vec![vec![mk("(a)")]],
        );
        let mute = Lane::new("mute", |_| Ok(Box::new(Mute)));
        let d = run_case(&case, &[mute]).expect("must diverge");
        assert_eq!((d.matcher.as_str(), d.round, d.cycle), ("mute", 0, 1));
        assert!(d.detail.contains("naive"), "{d}");
    }

    #[test]
    fn workload_case_puts_initial_wm_in_round_zero() {
        let program = parse_program("(p t (a) --> (remove 1))").unwrap();
        let initial = vec![parse_wme("(a)").unwrap(), parse_wme("(a)").unwrap()];
        let case = FuzzCase::workload(&program, initial, Strategy::Lex, 17);
        assert_eq!(case.schedule.rounds.len(), 3);
        assert_eq!(case.schedule.rounds[0].len(), 2);
        assert!(case.schedule.rounds[1..].iter().all(Vec::is_empty));
        let naive = |p: &Program| Ok(mpps_ops::NaiveMatcher::new(p.clone()));
        let interp = replay_one(&case, naive).unwrap();
        assert_eq!(interp.fired().len(), 2);
        assert!(interp.working_memory().is_empty());
    }
}
