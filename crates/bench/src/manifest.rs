//! Every document the bench binaries write, with one writer and one
//! checker each.
//!
//! A BENCH manifest is a typed [`Manifest`]: a [`Header`] (commit and
//! machine) and a [`Bench`] body side by side under the body's `"bench"`
//! tag. [`render`] writes it with the workspace's one JSON writer;
//! [`parse`] reads it back into the same type, checking every invariant,
//! and [`write`] runs that check before the file exists. [`check`], behind
//! `repro --check PATH`, also takes a `match_profile.json`
//! ([`mpps_core::check_profile`]) or a telemetry directory ([`write_dir`]).

use std::path::Path;

use mpps_telemetry::json::{self, ensure, within, Field, Value};
use mpps_telemetry::{chrome::chrome_trace, jsonl, record, HistogramSummary, TraceRecorder};

record! {
    /// The commit the numbers were measured at (`"unknown"` outside a work
    /// tree) and the host.
    pub struct Header {
        pub commit: String,
        pub machine: Machine,
    }
    check(h) {
        ensure(!h.commit.is_empty(), || "empty commit".into())?;
        ensure(h.machine.cpus > 0, || "machine.cpus must be at least 1".into())
    }
}

record! {
    /// `std::env::consts::{OS, ARCH}` and the available CPUs.
    pub struct Machine {
        pub os: String,
        pub arch: String,
        pub cpus: u64,
    }
}

/// The current git commit hash; `"unknown"` outside a work tree.
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

impl Header {
    /// This process's header: [`git_commit`] and this machine.
    pub fn current() -> Self {
        let machine = Machine {
            os: std::env::consts::OS.to_owned(),
            arch: std::env::consts::ARCH.to_owned(),
            cpus: mpps_telemetry::available_cpus() as u64,
        };
        Header {
            commit: git_commit(),
            machine,
        }
    }
}

/// The body of a manifest: what one bench binary measured.
pub trait Bench: Field {
    /// The document's `"bench"` tag.
    const TAG: &'static str;
    /// Check the invariants across records; describe the body if they hold.
    fn check(&self) -> Result<String, String>;
}

record! {
    /// `BENCH_repro.json`: one `repro` run's sweep configuration, its
    /// plan (traces, distinct points, one memoized baseline per trace,
    /// dedup hits), and its wall-clock (ms; per point in ns).
    pub struct Repro {
        pub jobs: u64,
        pub seed: u64,
        pub procs: Vec<u64>,
        pub default_partition: String,
        pub traces: u64,
        pub points: u64,
        pub baselines: u64,
        pub dedup_hits: u64,
        pub plan_run_ms: f64,
        pub wall_ms: f64,
        pub point_wall_ns: HistogramSummary,
        pub figures: Vec<ReproFigure>,
    }
}

record! {
    /// One figure: the points it added to the shared plan, its render
    /// time, and its points' wall-clock.
    pub struct ReproFigure {
        pub name: String,
        pub points_added: u64,
        pub render_ms: f64,
        pub sim_wall_ns: HistogramSummary,
    }
    check(f) {
        let (name, counted) = (&f.name, f.sim_wall_ns.count);
        ensure(counted == f.points_added, || {
            format!("{name:?}: sim_wall_ns counts {counted} points, not points_added")
        })
    }
}

impl Bench for Repro {
    const TAG: &'static str = "repro";

    fn check(&self) -> Result<String, String> {
        let (points, traces, jobs) = (self.points, self.traces, self.jobs);
        ensure(jobs > 0, || "jobs must be at least 1".into())?;
        ensure(self.baselines == traces, || {
            format!("{} baselines for {traces} traces", self.baselines)
        })?;
        let counted = self.point_wall_ns.count;
        ensure(counted == points, || {
            format!("point_wall_ns counts {counted} points, not {points}")
        })?;
        let added: u64 = self.figures.iter().map(|f| f.points_added).sum();
        ensure(added == points, || {
            format!("figure points_added sum to {added}, not points {points}")
        })?;
        let figures = self.figures.len();
        Ok(format!(
            "repro manifest ok: {figures} figures, {points} points on {jobs} jobs"
        ))
    }
}

record! {
    /// `BENCH_matchkernel.json`: per-section kernel medians.
    pub struct Matchkernel {
        pub sections: Vec<KernelSection>,
    }
}

/// `a` equals `b` up to the two-decimal rounding older manifests used.
fn near(a: f64, b: f64) -> bool {
    (a - b).abs() <= 0.01
}

record! {
    /// One section: median compile and compile + replay times and the
    /// frozen pre-rework median (µs), and `pre_rework_us / total_us`.
    pub struct KernelSection {
        pub name: String,
        pub compile_us: f64,
        pub total_us: f64,
        pub pre_rework_us: f64,
        pub speedup: f64,
    }
    check(s) {
        ensure(s.total_us > 0.0 && near(s.speedup, s.pre_rework_us / s.total_us), || {
            format!("{:?}: speedup {} is not pre_rework_us / total_us", s.name, s.speedup)
        })
    }
}

impl Bench for Matchkernel {
    const TAG: &'static str = "matchkernel";

    fn check(&self) -> Result<String, String> {
        ensure(!self.sections.is_empty(), || "no sections measured".into())?;
        let sections = self.sections.len();
        Ok(format!("matchkernel manifest ok: {sections} sections"))
    }
}

record! {
    /// `BENCH_server.json`: the load shape and the tiers, in growing
    /// session count.
    pub struct Server {
        pub config: ServerConfig,
        pub tiers: Vec<ServerTier>,
    }
}

record! {
    /// Worker threads, per-worker queue capacity, ingestion rounds per
    /// session, and request WMEs per round.
    pub struct ServerConfig {
        pub workers: u64,
        pub queue_capacity: u64,
        pub rounds: u64,
        pub wmes_per_round: u64,
    }
    check(c) {
        ensure(c.workers > 0, || "workers must be at least 1".into())
    }
}

record! {
    /// One tier: requests answered, failed and retried after `Overloaded`;
    /// sustained rates; wall-clock (s); worker cycle and batch latency
    /// (ns); the per-worker resident budget (`None`: all resident); and
    /// evictions, fault-ins and live migrations.
    pub struct ServerTier {
        pub sessions: u64,
        pub replies: u64,
        pub failures: u64,
        pub overloads: u64,
        pub wme_changes: u64,
        pub changes_per_sec: f64,
        pub cycles_per_sec: f64,
        pub elapsed_s: f64,
        pub p50_cycle_ns: u64,
        pub p95_cycle_ns: u64,
        pub p95_batch_ns: u64,
        pub resident_budget: Option<u64>,
        pub evictions: u64,
        pub faultins: u64,
        pub migrations: u64,
    }
    check(t) {
        let (p50, p95, faultins) = (t.p50_cycle_ns, t.p95_cycle_ns, t.faultins);
        ensure(t.resident_budget != Some(0), || "resident_budget must be at least 1".into())?;
        ensure(faultins == 0 || t.evictions > 0, || {
            format!("{faultins} fault-ins but no evictions — nothing was on disk")
        })?;
        ensure(t.failures == 0, || "run had failures".into())?;
        ensure(t.changes_per_sec > 0.0, || "no sustained throughput".into())?;
        ensure(p95 >= p50, || format!("p95 {p95} below p50 {p50}"))
    }
}

impl Bench for Server {
    const TAG: &'static str = "server";

    fn check(&self) -> Result<String, String> {
        ensure(!self.tiers.is_empty(), || "no tiers measured".into())?;
        let mut prev = 0;
        for t in &self.tiers {
            ensure(t.sessions > prev, || {
                format!("tiers must grow (sessions {})", t.sessions)
            })?;
            prev = t.sessions;
        }
        let peak = self
            .tiers
            .iter()
            .map(|t| t.changes_per_sec)
            .fold(0.0, f64::max);
        let tiers = self.tiers.len();
        Ok(format!(
            "server manifest ok: {tiers} tiers up to {prev} sessions, peak {peak:.0} WME changes/s"
        ))
    }
}

/// One BENCH manifest.
#[derive(Clone, Debug, PartialEq)]
pub struct Manifest<B> {
    pub header: Header,
    pub body: B,
}

/// Render a manifest as JSON text.
pub fn render<B: Bench>(m: &Manifest<B>) -> String {
    let (Value::Object(mut doc), Value::Object(header)) = (m.body.value(), m.header.value()) else {
        unreachable!("records render as objects")
    };
    doc.extend(header);
    doc.insert("bench".to_owned(), B::TAG.to_owned().value());
    json::write(&Value::Object(doc))
}

/// Read a `B` manifest back, checking the header and every invariant of
/// the body, and return it with a one-line description.
pub fn parse<B: Bench>(text: &str) -> Result<(Manifest<B>, String), String> {
    let doc = json::parse(text)?;
    let tag: String = doc.field("bench")?;
    ensure(tag == B::TAG, || {
        format!("a {tag:?} manifest, not {:?}", B::TAG)
    })?;
    let header = Header::read(&doc)?;
    let body = B::read(&doc)?;
    let report = body.check()?;
    Ok((Manifest { header, body }, report))
}

/// Render `m`, check the text, and only then write it to `path`: a
/// manifest that breaks an invariant is never written.
pub fn write<B: Bench>(path: &Path, m: &Manifest<B>) -> Result<String, String> {
    let name = path.display();
    let text = render(m);
    let (_, report) = parse::<B>(&text).map_err(|e| format!("{name}: refusing to write: {e}"))?;
    std::fs::write(path, text).map_err(|e| format!("{name}: cannot write: {e}"))?;
    Ok(report)
}

/// [`write`] `body`, measured by this process ([`Header::current`]), for
/// the binary `bin`: report on stderr, and exit 1 when it fails.
pub fn write_or_exit<B: Bench>(bin: &str, path: &str, body: B) {
    match write(
        path.as_ref(),
        &Manifest {
            header: Header::current(),
            body,
        },
    ) {
        Ok(report) => eprintln!("{bin}: wrote {path}: {report}"),
        Err(e) => {
            eprintln!("{bin}: {e}");
            std::process::exit(1);
        }
    }
}

/// Validate any JSON artifact the workspace writes — a BENCH manifest, a
/// `match_profile.json`, or a telemetry directory — and return a
/// one-line description of what was validated.
pub fn check(path: &Path) -> Result<String, String> {
    within(path.display(), || {
        let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("cannot read: {e}"));
        if !path.is_dir() {
            return check_text(&read(path)?);
        }
        let read = |name| within(name, || read(&path.join(name)));
        check_telemetry(&[read(FILES[0])?, read(FILES[1])?, read(FILES[2])?])
    })
}

/// [`check`] for the text of one document, dispatched on its tag.
pub fn check_text(text: &str) -> Result<String, String> {
    let doc = json::parse(text)?;
    match doc.get("bench").and_then(Value::as_str) {
        Some(Repro::TAG) => parse::<Repro>(text).map(|(_, report)| report),
        Some(Matchkernel::TAG) => parse::<Matchkernel>(text).map(|(_, report)| report),
        Some(Server::TAG) => parse::<Server>(text).map(|(_, report)| report),
        Some(other) => Err(format!("unknown bench {other:?}")),
        None if doc.get("schema").is_some() => mpps_core::check_profile(&doc),
        None => Err("neither a \"bench\" nor a \"schema\" document".into()),
    }
}

/// File names written into a telemetry directory.
pub const FILES: [&str; 3] = ["trace.json", "events.jsonl", "summary.json"];

/// Render the three telemetry files for `rec`, check them, and write them
/// into `dir` (created if missing). Returns the check's description.
pub fn write_dir(dir: &Path, rec: &TraceRecorder) -> Result<String, String> {
    let texts = [
        chrome_trace(rec),
        jsonl::events_jsonl(rec),
        jsonl::summary_json(rec),
    ];
    let report = check_telemetry(&texts)?;
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    for (name, text) in FILES.iter().zip(texts) {
        std::fs::write(dir.join(name), text).map_err(|e| format!("{name}: cannot write: {e}"))?;
    }
    Ok(report)
}

/// Check the texts of [`FILES`]: each file's structure, and that the two
/// event files agree on the span count.
fn check_telemetry([trace, events, summary]: &[String; 3]) -> Result<String, String> {
    let trace_spans = within("trace.json", || check_trace(trace))?;
    let event_spans = check_events(events)?;
    within("summary.json", || {
        let doc = json::parse(summary)?;
        let metrics = doc.get("metrics").and_then(Value::as_object);
        for (name, stats) in metrics.ok_or("missing \"metrics\" object")? {
            within(format_args!("metric {name:?}"), || {
                HistogramSummary::read(stats)
            })?;
        }
        Ok(())
    })?;
    if trace_spans != event_spans {
        return Err(format!(
            "span count mismatch: trace.json has {trace_spans}, events.jsonl has {event_spans}"
        ));
    }
    Ok(format!(
        "telemetry ok: {} files, {trace_spans} spans",
        FILES.len()
    ))
}

/// Require each of `keys` in `v` to read as a `T`.
fn require<T: Field>(v: &Value, keys: &[&str]) -> Result<(), String> {
    keys.iter().try_for_each(|k| v.field::<T>(k).map(drop))
}

/// `trace.json`: a Chrome `trace_event` document whose events all carry
/// a phase and pid, with well-formed metadata, complete-span and counter
/// records. Returns the number of `"X"` spans.
fn check_trace(text: &str) -> Result<u64, String> {
    let doc = json::parse(text)?;
    let events = doc.get("traceEvents").and_then(Value::as_array);
    let events = events.ok_or("missing \"traceEvents\" array")?;
    let mut spans = 0u64;
    for (i, ev) in events.iter().enumerate() {
        within(format_args!("event {i}"), || {
            require::<u64>(ev, &["pid"])?;
            match ev.field::<String>("ph")?.as_str() {
                "M" => {
                    let args: Value = ev.field("args")?;
                    match ev.field::<String>("name")?.as_str() {
                        "process_name" | "thread_name" => require::<String>(&args, &["name"]),
                        "thread_sort_index" => require::<f64>(&args, &["sort_index"]),
                        other => Err(format!("unknown metadata {other:?}")),
                    }
                }
                "X" => {
                    spans += 1;
                    require::<String>(ev, &["name"])?;
                    require::<u64>(ev, &["tid"])?;
                    require::<f64>(ev, &["ts", "dur"])
                }
                "C" => {
                    require::<String>(ev, &["name"])?;
                    require::<f64>(ev, &["ts"])?;
                    match ev.get("args").and_then(Value::as_object) {
                        Some(args) if args.values().all(|v| v.as_f64().is_some()) => Ok(()),
                        _ => Err("counter args must be numeric".into()),
                    }
                }
                other => Err(format!("unknown phase {other:?}")),
            }
        })?;
    }
    Ok(spans)
}

/// `events.jsonl`: one object per line, each a span or counter with the
/// full field set. Returns the number of span lines.
fn check_events(text: &str) -> Result<u64, String> {
    let mut spans = 0u64;
    for (lineno, line) in text.lines().enumerate() {
        within(format_args!("events.jsonl: line {}", lineno + 1), || {
            let ev = json::parse(line)?;
            require::<u64>(&ev, &["pid", "tid"])?;
            require::<String>(&ev, &["name"])?;
            match ev.field::<String>("type")?.as_str() {
                "span" if ev.field::<u64>("start_ns")? > ev.field("end_ns")? => {
                    Err("span ends before it starts".into())
                }
                "span" => {
                    spans += 1;
                    Ok(())
                }
                "counter" => require::<u64>(&ev, &["t_ns", "value"]),
                other => Err(format!("unknown event type {other:?}")),
            }
        })?;
    }
    Ok(spans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpps_telemetry::{Recorder, Track};

    const REPRO: &str = r#"{"bench": "repro", "commit": "deadbeef",
        "machine": {"os": "linux", "arch": "x86_64", "cpus": 2}, "jobs": 4, "seed": 1989, "procs": [1, 2, 4],
        "default_partition": "round-robin", "traces": 3, "points": 30, "baselines": 3,
        "dedup_hits": 7, "plan_run_ms": 12.5, "wall_ms": 20.25,
        "point_wall_ns": {"count": 30, "min": 10, "max": 90, "mean": 41.5, "p50": 40, "p95": 88},
        "figures": [
          {"name": "fig5-1", "points_added": 24, "render_ms": 0.125,
           "sim_wall_ns": {"count": 24, "min": 10, "max": 90, "mean": 41.5, "p50": 40, "p95": 88}},
          {"name": "table5-1", "points_added": 0, "render_ms": 0.5,
           "sim_wall_ns": {"count": 0, "min": 0, "max": 0, "mean": 0, "p50": 0, "p95": 0}},
          {"name": "era", "points_added": 6, "render_ms": 0.25,
           "sim_wall_ns": {"count": 6, "min": 12, "max": 20, "mean": 15, "p50": 14, "p95": 20}}]}"#;

    const MATCHKERNEL: &str = r#"{"bench": "matchkernel", "commit": "deadbeef",
        "machine": {"os": "linux", "arch": "x86_64", "cpus": 2}, "sections": [
        {"name": "rubik", "compile_us": 148.92, "total_us": 315.82, "pre_rework_us": 738.10, "speedup": 2.34},
        {"name": "weaver", "compile_us": 2.92, "total_us": 48.65, "pre_rework_us": 217.96, "speedup": 4.48}]}"#;

    const SERVER: &str = r#"{"bench": "server", "commit": "deadbeef",
        "machine": {"os": "linux", "arch": "x86_64", "cpus": 2},
        "config": {"workers": 4, "queue_capacity": 64, "rounds": 2, "wmes_per_round": 2},
        "tiers": [
          {"sessions": 1000, "replies": 3000, "failures": 0, "overloads": 12, "wme_changes": 50000,
           "changes_per_sec": 1500000.0, "cycles_per_sec": 400000.0, "elapsed_s": 0.033,
           "p50_cycle_ns": 900, "p95_cycle_ns": 2100, "p95_batch_ns": 14000,
           "resident_budget": null, "evictions": 0, "faultins": 0, "migrations": 0},
          {"sessions": 10000, "replies": 30000, "failures": 0, "overloads": 310, "wme_changes": 500000,
           "changes_per_sec": 1400000.0, "cycles_per_sec": 380000.0, "elapsed_s": 0.36,
           "p50_cycle_ns": 950, "p95_cycle_ns": 2500, "p95_batch_ns": 16000,
           "resident_budget": 2048, "evictions": 7936, "faultins": 5120, "migrations": 64}]}"#;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mpps-manifest-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A sample passes the check, and the writer renders it back to a
    /// document that passes and reads back as the same value.
    fn round_trip<B: Bench + PartialEq + std::fmt::Debug>(text: &str, expect: &str) {
        let (m, report) = parse::<B>(text).unwrap();
        assert!(report.contains(expect), "{report}");
        assert_eq!(parse::<B>(&render(&m)).unwrap().0, m);
        let dir = tmp_dir(B::TAG);
        let path = dir.join("BENCH.json");
        assert!(write(&path, &m).unwrap().contains(expect));
        assert!(check(&path).unwrap().contains(expect));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn written_manifests_pass_the_check_and_parse_back_unchanged() {
        round_trip::<Repro>(REPRO, "repro manifest ok: 3 figures, 30 points on 4 jobs");
        round_trip::<Matchkernel>(MATCHKERNEL, "matchkernel manifest ok: 2 sections");
        round_trip::<Server>(SERVER, "server manifest ok: 2 tiers up to 10000 sessions");
    }

    /// One mangle per line: `SAMPLE | EDIT ; EDIT | EXPECTED ERROR`, each
    /// edit `FROM => TO` replacing the first occurrence of FROM. Together
    /// they break every check: the header, field types, and each body's
    /// cross-field sums, ratios and orderings.
    const MANGLES: &str = r#"
        server | "server" => "nonesuch" | unknown bench "nonesuch"
        server | "deadbeef" => "" | empty commit
        server | "cpus": 2 => "cpus": 0 | machine.cpus must be at least 1
        server | "arch" => "ark" | machine: arch: missing
        server | "failures": 0 => "failures": -1 | tiers: [0]: failures: not a non-negative
        repro | "jobs": 4 => "jobs": 0 | jobs must be at least 1
        repro | "baselines": 3 => "baselines": 4 | 4 baselines for 3 traces
        repro | "points": 30 => "points": 31 | point_wall_ns counts 30 points, not 31
        repro | "p95": 88 => "p95": 5 | point_wall_ns: percentiles out of order
        repro | "count": 6 => "count": 7 | figures: [2]: "era": sim_wall_ns counts 7 points
        repro | "count": 6 => "count": 7 ; "points_added": 6 => "points_added": 7 | sum to 31, not points 30
        matchkernel | "speedup": 2.34 => "speedup": 3 | sections: [0]: "rubik": speedup 3 is not
        server | "failures": 0 => "failures": 7 | tiers: [0]: run had failures
        server | "p95_cycle_ns": 2100 => "p95_cycle_ns": 10 | tiers: [0]: p95 10 below p50 900
        server | "sessions": 10000 => "sessions": 1000 | tiers must grow (sessions 1000)
        server | "resident_budget": 2048 => "resident_budget": 0 | resident_budget must be at least 1
        server | "evictions": 7936 => "evictions": 0 | 5120 fault-ins but no evictions
        server | "changes_per_sec": 1500000.0 => "changes_per_sec": 0 | no sustained throughput
        server | "workers": 4 => "workers": 0 | config: workers must be at least 1
        server | "tiers": [ => "tiers": [], "ignored": [ | no tiers measured
        matchkernel | "sections": [ => "sections": [], "ignored": [ | no sections measured
    "#;

    #[test]
    fn mangled_manifests_fail_the_check() {
        for line in MANGLES.lines().map(str::trim).filter(|l| !l.is_empty()) {
            let [name, edits, expect] = line.split(" | ").collect::<Vec<_>>()[..] else {
                panic!("bad mangle {line:?}")
            };
            let samples = [
                ("repro", REPRO),
                ("matchkernel", MATCHKERNEL),
                ("server", SERVER),
            ];
            let mut text = samples
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap()
                .1
                .to_owned();
            for (from, to) in edits.split(" ; ").filter_map(|e| e.split_once(" => ")) {
                assert!(text.contains(from), "{line}");
                text = text.replacen(from, to, 1);
            }
            let err = check_text(&text).unwrap_err();
            assert!(err.contains(expect), "{line}: {err}");
        }
        assert!(parse::<Server>(REPRO)
            .unwrap_err()
            .contains("a \"repro\" manifest"));
    }

    /// `write` checks what it rendered: a manifest its checker rejects is
    /// refused and no file appears.
    #[test]
    fn write_refuses_a_manifest_its_checker_rejects() {
        let dir = tmp_dir("refuse");
        let path = dir.join("BENCH_server.json");
        let (mut m, _) = parse::<Server>(SERVER).unwrap();
        m.body.tiers[0].sessions = 0;
        let err = write(&path, &m).unwrap_err();
        assert!(err.contains("refusing to write"), "{err}");
        assert!(err.contains("tiers must grow (sessions 0)"), "{err}");
        assert!(!path.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    fn sample_recorder() -> TraceRecorder {
        let mut rec = TraceRecorder::new();
        rec.name_process(2, "sweep workers");
        rec.name_track(Track::worker(0), "worker 0");
        rec.span(Track::worker(0), "point", 100, 250);
        rec.counter(Track::worker(0), "queue-depth", 150, 3);
        rec.sample("task-wall-ns", 150);
        rec
    }

    /// `check` takes a written telemetry directory, and reads a
    /// `"schema"` document as a match profile.
    #[test]
    fn check_reads_telemetry_dirs_and_profiles() {
        for (tag, rec, spans) in [
            ("ok", sample_recorder(), "1 spans"),
            ("empty", TraceRecorder::new(), "0 spans"),
        ] {
            let dir = tmp_dir(tag);
            write_dir(&dir, &rec).unwrap();
            let report = check(&dir).unwrap();
            assert!(report.contains(spans), "{report}");
            let path = dir.join("match_profile.json");
            let registry = mpps_telemetry::MetricsRegistry::new();
            std::fs::write(&path, mpps_core::render_match_profile("rete", 1, &registry)).unwrap();
            assert!(check(&path).unwrap().starts_with("profile ok"));
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// Each line: a file of a written directory, its new content (`-`:
    /// deleted), and the expected error.
    const BROKEN_DIRS: &str = r#"
        summary.json | - | summary.json: cannot read
        trace.json | {"traceEvents": [{"ph": "X"}]} | event 0: pid: missing
        events.jsonl |  | span count mismatch
        summary.json | {"metrics": {"m": {}}} | metric "m": count: missing
    "#;

    #[test]
    fn broken_dirs_fail_the_check() {
        for line in BROKEN_DIRS.lines().map(str::trim).filter(|l| !l.is_empty()) {
            let [file, text, expect] = line.split(" | ").collect::<Vec<_>>()[..] else {
                panic!("bad line {line:?}")
            };
            let dir = tmp_dir("broken");
            write_dir(&dir, &sample_recorder()).unwrap();
            match text.trim() {
                "-" => std::fs::remove_file(dir.join(file)).unwrap(),
                text => std::fs::write(dir.join(file), text).unwrap(),
            }
            let err = check(&dir).unwrap_err();
            assert!(err.contains(expect), "{line}: {err}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
