//! Capturing activation traces from real production-system runs.
//!
//! The paper fed its simulator "a detailed trace of the activity of the
//! hash-table … corresponding to the actual production system runs", then
//! cut out *characteristic sections* (a few consecutive cycles). This
//! module does the same for the runnable rulesets in this crate: execute a
//! program under the MRA interpreter with a tracing Rete matcher, and
//! return the recorded trace alongside the run outcome and the per-cycle
//! change batches — the one replay-capture helper in the workspace.

use mpps_ops::{Interpreter, OpsError, Program, RunResult, Strategy, Wme, WmeChange};
use mpps_rete::{EngineConfig, ReteMatcher, ReteNetwork, Trace};

/// A completed run with its activation trace.
pub struct CapturedRun {
    /// Per-cycle hash-table activity (the simulator input).
    pub trace: Trace,
    /// Interpreter outcome (cycles, firings, halt reason).
    pub result: RunResult,
    /// Final working-memory size.
    pub wm_len: usize,
    /// The WM change batch the interpreter handed the matcher each cycle,
    /// for replaying the run into other matchers.
    pub batches: Vec<Vec<WmeChange>>,
}

/// Run `program` from `initial` working memory for up to `max_cycles`
/// cycles, recording the Rete activation trace over `table_size` hash
/// buckets.
pub fn capture_trace(
    program: Program,
    initial: Vec<Wme>,
    strategy: Strategy,
    max_cycles: usize,
    table_size: u64,
) -> Result<CapturedRun, OpsError> {
    let network = ReteNetwork::compile(&program)?;
    capture_trace_on(network, program, initial, strategy, max_cycles, table_size)
}

/// Like [`capture_trace`] but over a caller-compiled network (e.g. one
/// compiled with sharing disabled, for the unsharing experiment).
pub fn capture_trace_on(
    network: ReteNetwork,
    program: Program,
    initial: Vec<Wme>,
    strategy: Strategy,
    max_cycles: usize,
    table_size: u64,
) -> Result<CapturedRun, OpsError> {
    let matcher = ReteMatcher::new(
        network,
        EngineConfig {
            table_size,
            record_trace: true,
        },
    );
    let mut interp = Interpreter::with_matcher(program, strategy, matcher);
    for wme in initial {
        interp.add_wme(wme);
    }
    let result = interp.run(max_cycles)?;
    let wm_len = interp.working_memory().len();
    let batches = interp.drain_change_log();
    let trace = interp
        .matcher_mut()
        .take_trace()
        .expect("tracing was enabled");
    Ok(CapturedRun {
        trace,
        result,
        wm_len,
        batches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpps_ops::parse_program;

    #[test]
    fn capture_produces_one_trace_cycle_per_match() {
        let program = parse_program(
            r#"
            (p step (counter ^v <v>) -(counter ^v 0)
               --> (modify 1 ^v (- <v> 1)))
            "#,
        )
        .unwrap();
        let run = capture_trace(
            program,
            vec![Wme::new("counter", &[("v", 2.into())])],
            Strategy::Lex,
            50,
            64,
        )
        .unwrap();
        assert_eq!(run.trace.cycles.len(), run.result.cycles);
        assert_eq!(run.batches.len(), run.result.cycles);
        assert_eq!(run.result.fired.len(), 2);
        assert!(run.trace.stats().total() > 0);
        assert_eq!(run.wm_len, 1);
    }

    #[test]
    fn unshared_network_capture_works() {
        let src = r#"
            (p a (g ^id <g>) (t ^g <g> ^k 1) --> (remove 2))
            (p b (g ^id <g>) (t ^g <g> ^k 2) --> (remove 2))
        "#;
        let program = parse_program(src).unwrap();
        let unshared = mpps_rete::transform::unshare(&program).unwrap();
        let run = capture_trace_on(
            unshared,
            program,
            vec![
                Wme::new("g", &[("id", 1.into())]),
                Wme::new("t", &[("g", 1.into()), ("k", 1.into())]),
                Wme::new("t", &[("g", 1.into()), ("k", 2.into())]),
            ],
            Strategy::Lex,
            10,
            64,
        )
        .unwrap();
        assert_eq!(run.result.fired.len(), 2);
    }
}
