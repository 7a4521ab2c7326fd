//! Reproducer files: a diverging case serialized as a runnable pair —
//! `<name>.ops` (the program, standard OPS5 syntax) and `<name>.sched` (the
//! external WM-change schedule).
//!
//! Schedule grammar (line-oriented, `#` comments):
//!
//! ```text
//! strategy lex|mea
//! make (class ^attr val …)    ; add this WME
//! remove N                    ; remove the (N mod live)-th WME of the
//!                             ; reference WM, ascending time-tag order
//! cycle                       ; end of round: fire until quiescence
//! ```
//!
//! A trailing partial round (lines after the last `cycle`) is a round of
//! its own. The pair round-trips: [`write_repro`] → [`load_repro`] yields a
//! case the oracle replays identically, which is what the corpus replay
//! test in `tests/` does for every checked-in reproducer.

use crate::gen::{FuzzCase, Schedule, ScheduleOp};
use mpps_ops::{parse_program, parse_wme, Strategy};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Render the program half of a reproducer.
pub fn render_ops(case: &FuzzCase) -> String {
    let mut out = String::new();
    for p in &case.productions {
        out.push_str(&p.to_string());
        out.push('\n');
    }
    out
}

/// Render the schedule half of a reproducer.
pub fn render_sched(case: &FuzzCase) -> String {
    let mut out = String::new();
    out.push_str(match case.strategy {
        Strategy::Lex => "strategy lex\n",
        Strategy::Mea => "strategy mea\n",
    });
    for round in &case.schedule.rounds {
        for op in round {
            match op {
                ScheduleOp::Make(wme) => out.push_str(&format!("make {wme}\n")),
                ScheduleOp::RemoveNth(n) => out.push_str(&format!("remove {n}\n")),
            }
        }
        out.push_str("cycle\n");
    }
    out
}

/// Write `<dir>/<name>.ops` + `<dir>/<name>.sched`, creating `dir` as
/// needed. Returns the two paths.
pub fn write_repro(dir: &Path, name: &str, case: &FuzzCase) -> io::Result<(PathBuf, PathBuf)> {
    fs::create_dir_all(dir)?;
    let ops_path = dir.join(format!("{name}.ops"));
    let sched_path = dir.join(format!("{name}.sched"));
    fs::write(&ops_path, render_ops(case))?;
    fs::write(&sched_path, render_sched(case))?;
    Ok((ops_path, sched_path))
}

/// Parse a schedule file body.
pub fn parse_sched(text: &str) -> Result<(Strategy, Schedule), String> {
    let mut strategy = Strategy::Lex;
    let mut rounds: Vec<Vec<ScheduleOp>> = Vec::new();
    let mut current: Vec<ScheduleOp> = Vec::new();
    let mut saw_strategy = false;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let err = |msg: String| Err(format!("line {}: {msg}", lineno + 1));
        if let Some(rest) = line.strip_prefix("strategy") {
            strategy = match rest.trim() {
                "lex" => Strategy::Lex,
                "mea" => Strategy::Mea,
                other => return err(format!("unknown strategy {other:?}")),
            };
            saw_strategy = true;
        } else if let Some(rest) = line.strip_prefix("make") {
            let wme = parse_wme(rest.trim()).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            current.push(ScheduleOp::Make(wme));
        } else if let Some(rest) = line.strip_prefix("remove") {
            let n: usize = rest
                .trim()
                .parse()
                .map_err(|e| format!("line {}: bad remove index: {e}", lineno + 1))?;
            current.push(ScheduleOp::RemoveNth(n));
        } else if line == "cycle" {
            rounds.push(std::mem::take(&mut current));
        } else {
            return err(format!("unrecognized directive {line:?}"));
        }
    }
    if !current.is_empty() {
        rounds.push(current);
    }
    if !saw_strategy {
        return Err("schedule is missing a `strategy lex|mea` line".into());
    }
    if rounds.is_empty() {
        return Err("schedule has no rounds".into());
    }
    Ok((strategy, Schedule { rounds }))
}

/// Load a reproducer pair back into a runnable [`FuzzCase`].
pub fn load_repro(ops_path: &Path, sched_path: &Path) -> Result<FuzzCase, String> {
    let ops_text =
        fs::read_to_string(ops_path).map_err(|e| format!("{}: {e}", ops_path.display()))?;
    let sched_text =
        fs::read_to_string(sched_path).map_err(|e| format!("{}: {e}", sched_path.display()))?;
    let program = parse_program(&ops_text).map_err(|e| format!("{}: {e}", ops_path.display()))?;
    let (strategy, schedule) =
        parse_sched(&sched_text).map_err(|e| format!("{}: {e}", sched_path.display()))?;
    Ok(FuzzCase {
        productions: program.iter().map(|(_, p)| p.clone()).collect(),
        strategy,
        schedule,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate_case, GenConfig};
    use crate::MatcherKind;

    #[test]
    fn sched_text_roundtrips() {
        let text = "strategy mea\nmake (a ^p 1)\nremove 3\ncycle\nmake (b)\ncycle\n";
        let (strategy, sched) = parse_sched(text).unwrap();
        assert_eq!(strategy, Strategy::Mea);
        assert_eq!(sched.rounds.len(), 2);
        assert_eq!(sched.rounds[0].len(), 2);
        assert!(matches!(sched.rounds[0][1], ScheduleOp::RemoveNth(3)));
    }

    #[test]
    fn sched_rejects_garbage() {
        assert!(parse_sched("strategy lex\nfrobnicate\ncycle\n").is_err());
        assert!(
            parse_sched("make (a)\ncycle\n").is_err(),
            "missing strategy"
        );
        assert!(parse_sched("strategy dunno\ncycle\n").is_err());
    }

    #[test]
    fn trailing_partial_round_is_kept() {
        let (_, sched) = parse_sched("strategy lex\ncycle\nmake (a)\n").unwrap();
        assert_eq!(sched.rounds.len(), 2);
        assert_eq!(sched.rounds[1].len(), 1);
    }

    #[test]
    fn generated_cases_roundtrip_through_files() {
        let dir = std::env::temp_dir().join("mpps-difftest-repro-roundtrip");
        let cfg = GenConfig::default();
        for seed in 0..20 {
            let case = generate_case(seed, &cfg);
            let (ops, sched) =
                write_repro(&dir, &format!("case-{seed}"), &case).expect("write repro");
            let loaded = load_repro(&ops, &sched).expect("load repro");
            assert_eq!(loaded.strategy, case.strategy);
            assert_eq!(loaded.schedule, case.schedule);
            assert_eq!(loaded.productions.len(), case.productions.len());
            // Semantics preserved, not just shape: the oracle sees the same
            // agreement on the loaded copy.
            assert!(crate::run_case(&loaded, &MatcherKind::lanes(&MatcherKind::ALL)).is_none());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
