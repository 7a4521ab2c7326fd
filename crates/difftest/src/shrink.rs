//! Delta-debugging minimizer for diverging fuzz cases.
//!
//! Greedy fixpoint: repeatedly try structural reductions — drop a
//! production, a schedule round, a single op, a condition element, an RHS
//! action, or an attribute test; shrink integer literals toward zero — and
//! keep any candidate that (a) still validates as a program and (b) still
//! diverges under the oracle. Each accepted reduction restarts the pass;
//! the loop ends at a fixpoint or when the oracle-run budget is spent.
//!
//! The shrinker does not try to preserve *which* matcher diverges or the
//! exact mismatch kind — any surviving divergence keeps the candidate.
//! That is the standard delta-debug trade-off: occasionally the minimum is
//! for a different symptom, but it is always a real, smaller disagreement.

use crate::gen::{FuzzCase, ScheduleOp};
use crate::oracle::run_case;
use crate::Lane;
use mpps_ops::{Action, RhsValue, TestKind, Value};

/// Budgeted oracle runner: counts invocations so shrinking can't run away.
struct Budget<'a> {
    lanes: &'a [Lane],
    remaining: usize,
}

impl Budget<'_> {
    /// True when `candidate` is a valid program that still diverges.
    fn still_fails(&mut self, candidate: &FuzzCase) -> bool {
        if self.remaining == 0 || candidate.program().is_err() {
            return false;
        }
        self.remaining -= 1;
        run_case(candidate, self.lanes).is_some()
    }

    fn exhausted(&self) -> bool {
        self.remaining == 0
    }
}

/// Every single-step reduction of `case`, most aggressive first.
fn reductions(case: &FuzzCase) -> Vec<FuzzCase> {
    let mut out = Vec::new();

    // Drop a whole production.
    if case.productions.len() > 1 {
        for i in 0..case.productions.len() {
            let mut c = case.clone();
            c.productions.remove(i);
            out.push(c);
        }
    }

    // Drop a whole schedule round.
    if case.schedule.rounds.len() > 1 {
        for r in 0..case.schedule.rounds.len() {
            let mut c = case.clone();
            c.schedule.rounds.remove(r);
            out.push(c);
        }
    }

    // Drop a single schedule op.
    for r in 0..case.schedule.rounds.len() {
        for o in 0..case.schedule.rounds[r].len() {
            let mut c = case.clone();
            c.schedule.rounds[r].remove(o);
            out.push(c);
        }
    }

    for p in 0..case.productions.len() {
        let prod = &case.productions[p];

        // Drop a condition element. Removing a positive CE shifts the
        // 1-based `remove`/`modify` indices, so candidates whose RHS goes
        // out of range are rejected by validation inside `still_fails`.
        if prod.lhs.len() > 1 {
            for ce in 0..prod.lhs.len() {
                let mut c = case.clone();
                c.productions[p].lhs.remove(ce);
                out.push(c);
            }
        }

        // Drop an RHS action (a production with an empty RHS is legal: it
        // fires and does nothing, which still exercises the match).
        if prod.rhs.len() > 1 {
            for a in 0..prod.rhs.len() {
                let mut c = case.clone();
                c.productions[p].rhs.remove(a);
                out.push(c);
            }
        }

        // Drop one attribute test from a CE.
        for ce in 0..prod.lhs.len() {
            for t in 0..prod.lhs[ce].tests.len() {
                let mut c = case.clone();
                c.productions[p].lhs[ce].tests.remove(t);
                out.push(c);
            }
        }
    }

    // Shrink integer literals toward zero, one site at a time.
    for c in shrink_ints(case) {
        out.push(c);
    }

    out
}

fn shrink_int_value(v: &mut Value) -> bool {
    if let Value::Int(i) = v {
        if *i != 0 {
            *v = Value::Int(0);
            return true;
        }
    }
    false
}

/// One candidate per nonzero integer literal (LHS tests, RHS constants,
/// schedule WME attributes), each with that single literal zeroed.
fn shrink_ints(case: &FuzzCase) -> Vec<FuzzCase> {
    let mut out = Vec::new();

    for p in 0..case.productions.len() {
        for ce in 0..case.productions[p].lhs.len() {
            for t in 0..case.productions[p].lhs[ce].tests.len() {
                let mut c = case.clone();
                let kind = &mut c.productions[p].lhs[ce].tests[t].kind;
                let changed = match kind {
                    TestKind::Constant(_, v) => shrink_int_value(v),
                    _ => false,
                };
                if changed {
                    out.push(c);
                }
            }
        }
        for a in 0..case.productions[p].rhs.len() {
            let mut c = case.clone();
            let changed = match &mut c.productions[p].rhs[a] {
                Action::Make { attrs, .. } | Action::Modify { attrs, .. } => {
                    attrs.iter_mut().any(|(_, v)| match v {
                        RhsValue::Const(cv) => shrink_int_value(cv),
                        _ => false,
                    })
                }
                _ => false,
            };
            if changed {
                out.push(c);
            }
        }
    }

    for r in 0..case.schedule.rounds.len() {
        for o in 0..case.schedule.rounds[r].len() {
            let mut c = case.clone();
            if let ScheduleOp::Make(wme) = &mut c.schedule.rounds[r][o] {
                let attrs: Vec<_> = wme.attrs().collect();
                let mut changed = false;
                for (attr, val) in attrs {
                    let mut v = val;
                    if shrink_int_value(&mut v) {
                        wme.set(attr, v);
                        changed = true;
                        break;
                    }
                }
                if changed {
                    out.push(c);
                }
            }
        }
    }

    out
}

/// Minimize a diverging `case`. `budget` bounds the number of oracle runs
/// (each candidate costs one). If `case` does not actually diverge it is
/// returned unchanged.
pub fn shrink_case(case: &FuzzCase, lanes: &[Lane], budget: usize) -> FuzzCase {
    let mut budget = Budget {
        lanes,
        remaining: budget,
    };
    if !budget.still_fails(case) {
        return case.clone();
    }
    let mut current = case.clone();
    'outer: loop {
        for candidate in reductions(&current) {
            if budget.still_fails(&candidate) {
                current = candidate;
                continue 'outer;
            }
            if budget.exhausted() {
                break 'outer;
            }
        }
        break; // fixpoint: no reduction kept the divergence
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Schedule;
    use crate::MatcherKind;
    use mpps_ops::{parse_program, parse_wme, Strategy};

    /// A synthetic "divergence": shrinking against a single matcher list we
    /// can't easily break is hard to arrange, so instead we exercise the
    /// reduction enumerator and the budget/fixpoint plumbing directly.
    fn sample_case() -> FuzzCase {
        let program = parse_program(
            r#"
            (p one (a ^p 1) (b ^q <v>) --> (remove 1) (make c ^r 2))
            (p two (d ^p 2) --> (remove 1))
            "#,
        )
        .unwrap();
        FuzzCase {
            productions: program.iter().map(|(_, p)| p.clone()).collect(),
            strategy: Strategy::Lex,
            schedule: Schedule {
                rounds: vec![
                    vec![
                        ScheduleOp::Make(parse_wme("(a ^p 1)").unwrap()),
                        ScheduleOp::Make(parse_wme("(b ^q 3)").unwrap()),
                    ],
                    vec![ScheduleOp::RemoveNth(2)],
                ],
            },
        }
    }

    #[test]
    fn reductions_enumerate_every_axis() {
        let case = sample_case();
        let red = reductions(&case);
        // 2 productions + 2 rounds + 3 ops + CE drops (2) + RHS drops (2)
        // + test drops + int shrinks — at minimum, well over a dozen.
        assert!(red.len() > 10, "only {} reductions", red.len());
        // Every reduction is strictly structurally smaller or int-shrunk,
        // and none is identical to the original.
        for r in &red {
            assert!(
                r.productions != case.productions || r.schedule != case.schedule,
                "reduction equals original"
            );
        }
    }

    #[test]
    fn shrink_returns_original_for_agreeing_case() {
        let case = sample_case();
        let out = shrink_case(&case, &MatcherKind::lanes(&MatcherKind::ALL), 50);
        assert_eq!(out.productions, case.productions);
        assert_eq!(out.schedule, case.schedule);
    }

    #[test]
    fn int_shrink_zeroes_one_literal_at_a_time() {
        let case = sample_case();
        let shrunk = shrink_ints(&case);
        // Literals 1, 2 (LHS), 2 (RHS make), 1, 3 (schedule WMEs) are all
        // nonzero, so each yields one candidate.
        assert!(shrunk.len() >= 4, "got {}", shrunk.len());
        for s in &shrunk {
            assert!(
                s.productions != case.productions || s.schedule != case.schedule,
                "shrink_ints produced an identical case"
            );
        }
    }
}
