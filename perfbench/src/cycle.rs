//! The cycle workloads: each repetition is one `mpps run`-style
//! recognize–act run — set up a matcher over the program, queue the
//! initial working memory, run to halt, quiescence or the cycle limit.

use crate::affinity;
use crate::calib::{Yardstick, ONE_THREAD, TWO_THREADS};
use crate::report::Report;
use crate::stats::{median, quantile, Fnv};
use crate::timed::{Timed, BENCH_PID, CYCLE_TRACK};
use mpps_core::{name_threaded_tracks, ThreadedMatcher};
use mpps_ops::interpreter::StepOutcome;
use mpps_ops::{Interpreter, Matcher, OpsError, Program, RunOutcome, Strategy, Wme};
use mpps_rete::kernel::metric;
use mpps_rete::{EngineConfig, ReteMatcher, ReteNetwork};
use mpps_telemetry::{MetricsRegistry, Recorder, TraceRecorder};
use mpps_workloads::rubik::{self, Face};
use mpps_workloads::tourney;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::time::{Duration, Instant};

/// Hash buckets per global table, for both engines (the CLI default).
const TABLE_SIZE: u64 = 2048;
/// Tourney: teams per division, and the cycle limit of one run.
const TOURNEY_TEAMS: usize = 150;
const TOURNEY_CYCLES: usize = 101;
/// Rubik: face turns per run.
const RUBIK_MOVES: usize = 5000;
/// Worker threads of the threaded executor.
const THREADED_WORKERS: usize = 2;
/// Sizes of the reduced runs compared against `NaiveMatcher`.
const REDUCED_TEAMS: usize = 12;
const REDUCED_MOVES: usize = 200;

/// Which engine a cycle workload runs on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Engine {
    Rete,
    Threaded,
}

/// One run's inputs and the invariants its result must meet.
struct Inputs {
    program: Program,
    initial: Vec<Wme>,
    max_cycles: usize,
    expect: Option<Expect>,
    /// The yardstick for this workload's engine (see `calib.rs`).
    yardstick: Yardstick,
}

impl Inputs {
    fn on(self, engine: Engine) -> Self {
        let yardstick = match engine {
            Engine::Rete => ONE_THREAD,
            Engine::Threaded => TWO_THREADS,
        };
        Inputs { yardstick, ..self }
    }
}

/// Exact invariants of a full-size run.
struct Expect {
    cycles: usize,
    fired: usize,
    end: RunOutcome,
    wm_len: usize,
}

/// Tourney `teams`×`teams`: the teams are queued in an order drawn from
/// the seed (which changes time tags, hence which pairs LEX picks), the
/// round last.
fn tourney_inputs(seed: u64, teams: usize, max_cycles: usize) -> Inputs {
    let mut initial = tourney::initial(teams, teams);
    let round = initial.pop().expect("tourney::initial ends with the round");
    initial.shuffle(&mut StdRng::seed_from_u64(seed));
    initial.push(round);
    Inputs {
        program: tourney::program(),
        initial,
        max_cycles,
        // Every cycle fires one pairing (`teams` > cycles), which makes a
        // game and two busy marks.
        expect: (max_cycles < teams).then(|| Expect {
            cycles: max_cycles,
            fired: max_cycles,
            end: RunOutcome::CycleLimit,
            wm_len: 2 * teams + 1 + 3 * max_cycles,
        }),
        yardstick: ONE_THREAD,
    }
}

/// Rubik with `moves` turns drawn from the seed over {U, R}.
fn rubik_inputs(seed: u64, moves: usize) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let plan: Vec<Face> = (0..moves)
        .map(|_| if rng.gen_bool(0.5) { Face::U } else { Face::R })
        .collect();
    Inputs {
        program: rubik::program(),
        initial: rubik::initial(&plan),
        // One cycle per move plus the halt, with slack.
        max_cycles: moves + 8,
        // One firing per move, then `rubik-done` halts. Plans stay in WM.
        expect: Some(Expect {
            cycles: moves + 1,
            fired: moves + 1,
            end: RunOutcome::Halted,
            wm_len: 24 + moves + 1,
        }),
        yardstick: ONE_THREAD,
    }
}

fn rete(program: &Program) -> ReteMatcher {
    ReteMatcher::new(compile(program), engine_config())
}

fn threaded(program: &Program) -> ThreadedMatcher {
    ThreadedMatcher::new(compile(program), THREADED_WORKERS, TABLE_SIZE)
}

fn compile(program: &Program) -> ReteNetwork {
    ReteNetwork::compile(program).expect("workload programs compile")
}

fn engine_config() -> EngineConfig {
    EngineConfig {
        table_size: TABLE_SIZE,
        record_trace: false,
    }
}

/// What the checks compare between two runs of the same inputs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Outcome {
    cycles: usize,
    fired: usize,
    end: RunOutcome,
    wm_len: usize,
    /// Digest of the fired sequence (cycle, production, time tags).
    fired_digest: u64,
    /// Digest of the final working memory (time tags and contents).
    wm_digest: u64,
}

fn outcome_of<M: Matcher>(interp: &Interpreter<M>, end: RunOutcome) -> Outcome {
    let mut fired = Fnv::default();
    for f in interp.fired() {
        fired.u64(f.cycle as u64).u64(u64::from(f.production.0));
        for id in &f.wme_ids {
            fired.u64(id.0);
        }
    }
    let mut wm = Fnv::default();
    for (id, wme) in interp.working_memory().iter() {
        wm.u64(id.0).bytes(wme.to_string().as_bytes());
    }
    Outcome {
        cycles: interp.cycles(),
        fired: interp.fired().len(),
        end,
        wm_len: interp.working_memory().len(),
        fired_digest: fired.finish(),
        wm_digest: wm.finish(),
    }
}

/// Build an interpreter over `make`'s matcher with the initial working
/// memory queued; returns it with the set-up wall time.
fn set_up<M: Matcher>(
    inputs: &Inputs,
    make: &impl Fn(&Program) -> M,
) -> (Interpreter<M>, Duration) {
    let program = inputs.program.clone();
    let initial = inputs.initial.clone();
    let start = Instant::now();
    let matcher = make(&program);
    let mut interp = Interpreter::with_matcher(program, Strategy::Lex, matcher);
    for wme in initial {
        interp.add_wme(wme);
    }
    (interp, start.elapsed())
}

/// The loop `Interpreter::run` performs, driven one public `step` at a
/// time so each cycle's wall time is seen; `on_step` gets its bounds.
fn run_loop<M: Matcher>(
    interp: &mut Interpreter<M>,
    max_cycles: usize,
    mut on_step: impl FnMut(&Interpreter<M>, Instant, Instant),
) -> Result<RunOutcome, OpsError> {
    if interp.is_halted() {
        return Ok(RunOutcome::Halted);
    }
    let first = interp.cycles();
    while interp.cycles() - first < max_cycles {
        let start = Instant::now();
        let step = interp.step()?;
        on_step(interp, start, Instant::now());
        match step {
            StepOutcome::Quiescent => return Ok(RunOutcome::Quiescent),
            StepOutcome::Fired(_) if interp.is_halted() => return Ok(RunOutcome::Halted),
            StepOutcome::Fired(_) => {}
        }
    }
    Ok(RunOutcome::CycleLimit)
}

/// Run `inputs` to the end on a fresh interpreter and summarise it.
fn run_once<M: Matcher>(
    inputs: &Inputs,
    make: &impl Fn(&Program) -> M,
) -> Result<Outcome, OpsError> {
    let (mut interp, _) = set_up(inputs, make);
    let end = run_loop(&mut interp, inputs.max_cycles, |_, _, _| {})?;
    Ok(outcome_of(&interp, end))
}

/// Wall times of one repetition, in seconds.
struct Rep {
    /// The calibration kernel, timed right before the set-up.
    cal: f64,
    setup: f64,
    run: f64,
    /// The p50 and p99 of the run's cycles.
    step_p50: f64,
    step_p99: f64,
}

/// The median over `reps` of `f`.
fn med(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    let mut v: Vec<f64> = reps.iter().map(f).collect();
    median(&mut v)
}

/// Repeat calibration + set-up + run until `until` (at least once),
/// checking every run against `reference` (the first run's outcome when
/// unset) and the inputs' exact invariants. `after` sees each finished
/// interpreter.
fn measure<M: Matcher>(
    inputs: &Inputs,
    until: Instant,
    make: impl Fn(&Program) -> M,
    reference: &mut Option<Outcome>,
    report: &mut Report,
    mut on_step: impl FnMut(&Interpreter<M>, Instant, Instant),
    mut after: impl FnMut(&mut Interpreter<M>, f64),
) -> Vec<Rep> {
    let mut reps = Vec::new();
    loop {
        let cal = (inputs.yardstick.measure)();
        let (mut interp, setup) = set_up(inputs, &make);
        let mut first: Option<Instant> = None;
        let mut last = Instant::now();
        let mut steps = Vec::with_capacity(inputs.max_cycles);
        let end = run_loop(&mut interp, inputs.max_cycles, |i, s, e| {
            first.get_or_insert(s);
            last = e;
            steps.push(e.duration_since(s).as_secs_f64());
            on_step(i, s, e);
        });
        let run_s = first.map_or(0.0, |f| last.duration_since(f).as_secs_f64());
        match end {
            Err(e) => report.op(false, || format!("run failed: {e}")),
            Ok(end) => {
                let got = outcome_of(&interp, end);
                check(&got, inputs.expect.as_ref(), reference, report);
                reps.push(Rep {
                    cal,
                    setup: setup.as_secs_f64(),
                    run: run_s,
                    step_p50: quantile(&mut steps, 0.50),
                    step_p99: quantile(&mut steps, 0.99),
                });
                after(&mut interp, run_s);
            }
        }
        drop(interp);
        if Instant::now() >= until {
            return reps;
        }
    }
}

/// Untraced repetitions on `engine` until `until`.
fn measure_plain(
    engine: Engine,
    inputs: &Inputs,
    until: Instant,
    reference: &mut Option<Outcome>,
    report: &mut Report,
) -> Vec<Rep> {
    fn go<M: Matcher>(
        inputs: &Inputs,
        until: Instant,
        make: impl Fn(&Program) -> M,
        reference: &mut Option<Outcome>,
        report: &mut Report,
    ) -> Vec<Rep> {
        measure(
            inputs,
            until,
            make,
            reference,
            report,
            |_, _, _| {},
            |_, _| {},
        )
    }
    match engine {
        Engine::Rete => go(inputs, until, rete, reference, report),
        Engine::Threaded => go(inputs, until, threaded, reference, report),
    }
}

/// One untimed, checked run over `make`'s matcher; `then` reads the
/// finished interpreter's layer counters.
fn profiled_run<M: Matcher>(
    inputs: &Inputs,
    make: impl Fn(&Program) -> M,
    reference: &mut Option<Outcome>,
    report: &mut Report,
    then: impl FnOnce(&mut Interpreter<M>),
) {
    let (mut interp, _) = set_up(inputs, &make);
    match run_loop(&mut interp, inputs.max_cycles, |_, _, _| {}) {
        Ok(end) => {
            check(
                &outcome_of(&interp, end),
                inputs.expect.as_ref(),
                reference,
                report,
            );
            then(&mut interp);
        }
        Err(e) => report.op(false, || format!("profiled run failed: {e}")),
    }
}

fn check(
    got: &Outcome,
    expect: Option<&Expect>,
    reference: &mut Option<Outcome>,
    report: &mut Report,
) {
    if let Some(x) = expect {
        report.op(
            got.cycles == x.cycles
                && got.fired == x.fired
                && got.end == x.end
                && got.wm_len == x.wm_len,
            || {
                format!(
                    "invariants: got {} cycles, {} fired, {:?}, WM {}; expected {}, {}, {:?}, {}",
                    got.cycles, got.fired, got.end, got.wm_len, x.cycles, x.fired, x.end, x.wm_len
                )
            },
        );
    }
    let want = *reference.get_or_insert(*got);
    report.op(*got == want, || {
        format!("run differs from the reference: {got:?} vs {want:?}")
    });
}

/// Compare `make`'s engine with `NaiveMatcher` on the reduced inputs:
/// fired sequence and final working memory must be identical.
fn naive_check<M: Matcher>(reduced: &Inputs, make: impl Fn(&Program) -> M, report: &mut Report) {
    let naive = run_once(reduced, &|p: &Program| {
        mpps_ops::NaiveMatcher::new(p.clone())
    });
    let engine = run_once(reduced, &make);
    match (naive, engine) {
        (Ok(n), Ok(e)) => report.op(n == e, || {
            format!("reduced run differs from NaiveMatcher: {e:?} vs {n:?}")
        }),
        (n, e) => report.op(false, || {
            format!(
                "reduced run failed: naive {:?}, engine {:?}",
                n.err(),
                e.err()
            )
        }),
    }
}

/// Run one cycle workload for `seconds` and fill `report`.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    out_dir: &std::path::Path,
    report: &mut Report,
) {
    let (inputs, reduced, engine) = match workload {
        "tourney" => (
            tourney_inputs(seed, TOURNEY_TEAMS, TOURNEY_CYCLES),
            tourney_inputs(seed, REDUCED_TEAMS, 4 * REDUCED_TEAMS),
            Engine::Rete,
        ),
        "rubik" => (
            rubik_inputs(seed, RUBIK_MOVES),
            rubik_inputs(seed, REDUCED_MOVES),
            Engine::Rete,
        ),
        "rubik-threaded" => (
            rubik_inputs(seed, RUBIK_MOVES).on(Engine::Threaded),
            rubik_inputs(seed, REDUCED_MOVES),
            Engine::Threaded,
        ),
        other => unreachable!("not a cycle workload: {other}"),
    };
    // A sequential run and its calibration share one CPU, so the scheduler
    // cannot time them on different ones.
    if engine == Engine::Rete {
        if let Some(&cpu) = affinity::allowed().last() {
            affinity::pin(cpu);
        }
    }
    // Output checks that need no timing, made before anything is timed.
    let mut reference = None;
    match engine {
        Engine::Rete => naive_check(&reduced, rete, report),
        Engine::Threaded => {
            naive_check(&reduced, threaded, report);
            // The threaded run must equal the sequential Rete run.
            match run_once(&inputs, &rete) {
                Ok(o) => reference = Some(o),
                Err(e) => report.op(false, || format!("sequential reference run failed: {e}")),
            }
        }
    }
    let budget = Duration::from_secs(seconds);
    if !trace {
        let until = Instant::now() + budget;
        let reps = measure_plain(engine, &inputs, until, &mut reference, report);
        let reference_s = inputs.yardstick.reference_s;
        report.set("setup_s", med(&reps, |r| r.setup / r.cal) * reference_s);
        report.set("run_cal", med(&reps, |r| r.run / r.cal));
        report.set("request_p50_cal", med(&reps, |r| r.step_p50 / r.cal));
        return;
    }
    // Traced: half the budget untraced (the overhead baseline), half
    // through the timing wrapper; then one run with the library's own
    // profiling sinks on, for the layer counters (its overhead would
    // distort the timings, so it is not timed).
    let until = Instant::now() + budget / 2;
    let plain = measure_plain(engine, &inputs, until, &mut reference, report);
    let until = Instant::now() + budget / 2;
    let layers = RefCell::new(Layers::default());
    let epoch = Instant::now();
    let rec = || layers.borrow_mut().take_recorder();
    let traced = match engine {
        Engine::Rete => measure(
            &inputs,
            until,
            |p| Timed::new(rete(p), epoch, rec()),
            &mut reference,
            report,
            record_step,
            |interp, run_s| layers.borrow_mut().absorb(interp, run_s),
        ),
        Engine::Threaded => measure(
            &inputs,
            until,
            |p| Timed::new(threaded(p), epoch, rec()),
            &mut reference,
            report,
            record_step,
            |interp, run_s| layers.borrow_mut().absorb(interp, run_s),
        ),
    };
    let mut layers = layers.into_inner();
    match engine {
        Engine::Rete => {
            let profiled = |p: &Program| {
                ReteMatcher::with_metrics(compile(p), engine_config(), MetricsRegistry::new())
            };
            profiled_run(&inputs, profiled, &mut reference, report, |interp| {
                layers.rete(&interp.matcher_mut().profile())
            });
        }
        Engine::Threaded => {
            let profiled = |p: &Program| {
                let m = ThreadedMatcher::new_profiled(compile(p), THREADED_WORKERS, TABLE_SIZE);
                Timed::new(m, Instant::now(), None)
            };
            profiled_run(&inputs, profiled, &mut reference, report, |interp| {
                let process_s = interp.matcher().ledger().process_ns as f64 * 1e-9;
                layers.threaded(&interp.matcher().inner, process_s);
            });
        }
    }
    let cycles = cycles_of(&reference);
    report.set("run_s", med(&plain, |r| r.run));
    report.set("request_p50_us", med(&plain, |r| r.step_p50 * 1e6));
    report.set("request_p99_us", med(&plain, |r| r.step_p99 * 1e6));
    report.set("serve_rps", med(&plain, |r| cycles / r.run));
    let overhead = med(&traced, |r| r.run / r.cal) / med(&plain, |r| r.run / r.cal) - 1.0;
    layers.report(report);
    report.set("trace.run_s", med(&traced, |r| r.run));
    report.set("trace.overhead_pct", overhead * 100.0);
    if let Some(rec) = layers.rec.take() {
        crate::write_trace(out_dir, workload, seed, &rec, report);
    }
}

/// Cycles of the reference run: the unit `serve_rps` counts on cycle
/// workloads.
fn cycles_of(reference: &Option<Outcome>) -> f64 {
    reference.map_or(0.0, |o| o.cycles as f64)
}

fn record_step<M: Matcher>(interp: &Interpreter<Timed<M>>, start: Instant, end: Instant) {
    let timed = interp.matcher();
    let (s, e) = (timed.ns(start), timed.ns(end));
    if let Some(rec) = timed.ledger().rec.as_mut() {
        rec.span(CYCLE_TRACK, "interpreter.step", s, e);
    }
}

/// Per-layer figures of the traced repetitions.
#[derive(Default)]
struct Layers {
    process_s: Vec<f64>,
    conflict_set_s: Vec<f64>,
    self_s: Vec<f64>,
    conflict_set_len: u64,
    conflict_set_calls: u64,
    wme_changes: u64,
    cycles: u64,
    fired: u64,
    /// Layer counters of the profiled run, by metric name.
    counters: Vec<(&'static str, f64)>,
    /// The spans of the first traced repetition, once it finished.
    rec: Option<TraceRecorder>,
    /// Whether the first repetition has been given its recorder.
    handed_out: bool,
}

impl Layers {
    fn take_recorder(&mut self) -> Option<TraceRecorder> {
        if std::mem::replace(&mut self.handed_out, true) {
            return None;
        }
        let mut rec = TraceRecorder::new();
        rec.name_process(BENCH_PID, "perfbench");
        rec.name_track(CYCLE_TRACK, "recognize-act cycles");
        Some(rec)
    }

    /// Fold in one traced repetition.
    fn absorb<M: Matcher>(&mut self, interp: &Interpreter<Timed<M>>, run_s: f64) {
        let mut l = interp.matcher().ledger();
        let process_s = l.process_ns as f64 * 1e-9;
        let conflict_set_s = l.conflict_set_ns as f64 * 1e-9;
        self.process_s.push(process_s);
        self.conflict_set_s.push(conflict_set_s);
        self.self_s.push(run_s - process_s - conflict_set_s);
        self.conflict_set_len = l.conflict_set_len;
        self.conflict_set_calls = l.conflict_set_calls;
        self.wme_changes = l.wme_changes;
        self.cycles = interp.cycles() as u64;
        self.fired = interp.fired().len() as u64;
        if let Some(rec) = l.rec.take() {
            self.rec = Some(rec);
        }
    }

    fn rete(&mut self, profile: &MetricsRegistry) {
        let probes = profile.counter_total(metric::NODE_LEFT_PROBES)
            + profile.counter_total(metric::NODE_RIGHT_PROBES);
        let hits = profile.counter_total(metric::NODE_PREFILTER_HITS);
        let high_water = profile
            .gauge(metric::ARENA_HIGH_WATER)
            .and_then(|g| g.values().max().copied())
            .unwrap_or(0);
        self.counters = vec![
            (
                "rete.activations",
                profile.counter_total(metric::NODE_ACTIVATIONS) as f64,
            ),
            ("rete.probes", probes as f64),
            (
                "rete.prefilter_hit_ratio",
                ratio(hits as f64, probes as f64),
            ),
            ("rete.arena_high_water", high_water as f64),
        ];
    }

    /// Executor figures of a profiled run whose `process` calls took
    /// `process_s`; its worker lanes join the exported trace.
    fn threaded(&mut self, m: &ThreadedMatcher, process_s: f64) {
        let stats = m.stats();
        let workers = &stats.per_worker;
        let work_s = workers.iter().map(|w| w.work_ns).sum::<u64>() as f64 * 1e-9;
        let processed: u64 = workers.iter().map(|w| w.tokens_processed).sum();
        let forwarded: u64 = workers.iter().map(|w| w.tokens_forwarded).sum();
        let probes: Vec<f64> = workers
            .iter()
            .map(|w| (w.left_probes + w.right_probes) as f64)
            .collect();
        let mean = probes.iter().sum::<f64>() / probes.len() as f64;
        let max = probes.iter().copied().fold(0.0, f64::max);
        self.counters = vec![
            ("threaded.work_s", work_s),
            (
                "threaded.idle_share",
                1.0 - ratio(work_s, workers.len() as f64 * process_s),
            ),
            (
                "threaded.messages",
                workers.iter().map(|w| w.messages_sent).sum::<u64>() as f64,
            ),
            (
                "threaded.forward_ratio",
                ratio(forwarded as f64, processed as f64),
            ),
            ("threaded.probe_skew", ratio(max, mean)),
        ];
        if let Some(rec) = self.rec.as_mut() {
            name_threaded_tracks(rec, workers.len());
            m.record_cycles_into(rec);
            m.record_into(rec);
        }
    }

    fn report(&mut self, report: &mut Report) {
        report.set("matcher.process_s", median(&mut self.process_s));
        report.set("matcher.conflict_set_s", median(&mut self.conflict_set_s));
        report.set("interpreter.self_s", median(&mut self.self_s));
        report.set(
            "matcher.conflict_set_len_mean",
            self.conflict_set_len as f64 / self.conflict_set_calls.max(1) as f64,
        );
        report.set("matcher.wme_changes", self.wme_changes as f64);
        report.set("interpreter.cycles", self.cycles as f64);
        report.set("interpreter.fired", self.fired as f64);
        for &(name, value) in &self.counters {
            report.set(name, value);
        }
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
