//! The serve workload: one `mpps serve` worker holding 20k ticket-triage
//! sessions, driven by one client thread.
//!
//! A run sets the server up `SETUPS` times (start it, admit every
//! session) and measures on the last one after a warm-up (one request per
//! hot session). Untraced, it runs `ROUNDS_PER_SECOND` closed-loop rounds
//! (fixed request count, fixed window) per second of `--seconds`, then the
//! output checks.
//! The gated timings are in units of the calibration kernel timed on the
//! worker's CPU before each set-up and round: the round's wall time as the
//! client sees it (queue, worker, reply delivery) and the median request's
//! service time (`Reply::Cycles::nanos`). The client and the worker are
//! pinned to two distinct CPUs (see `affinity`): left to the scheduler,
//! whether they shared a CPU flipped between runs and moved closed-loop
//! throughput by 1.7× (two modes over six runs of one build).
//!
//! The traced run measures the client's view: an open loop at a fixed
//! rate (a quarter of `--seconds` untraced, a quarter traced), closed-loop
//! rounds, and an eviction probe.
//!
//! All of it keeps every session resident, except the probe. The store's
//! eviction and fault-in path writes and deletes one spill file per
//! session move; on a shared virtual disk that made every serve figure
//! follow the filesystem's state (set-up times from 0.4 to 4.2 s between
//! runs), so it is measured only in the probe: the same mix against a
//! server with a resident budget, which gives the `server.*` and
//! `snapshot.*` per-layer metrics.

use crate::affinity;
use crate::calib::ONE_THREAD;
use crate::report::Report;
use crate::stats::{median, quantile};
use crate::timed::BENCH_PID;
use mpps_ops::{intern, RunOutcome, Value};
use mpps_rete::ReteNetwork;
use mpps_server::{Reply, RequestId, Server, ServerConfig, ServerError, Session, SessionId};
use mpps_telemetry::{Recorder, TraceRecorder, Track};
use mpps_workloads::serve as workload;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SESSIONS: usize = 20_000;
const HOT_SESSIONS: usize = 2_500;
/// Share of requests drawn from the hot set; the rest are uniform over
/// every session.
const HOT_PERCENT: u64 = 80;
/// Sessions the eviction probe's worker keeps in memory; the rest live
/// in spill files.
const RESIDENT_BUDGET: usize = 5_000;
/// Open-loop arrival rate: fixed, never derived from a measurement.
const OPEN_RATE_PER_S: u64 = 10_000;
/// Requests per closed-loop round.
const CLOSED_REQUESTS: usize = 5_000;
/// Closed-loop rounds per second of `--seconds` in an untraced run: a
/// fixed count, not a deadline, because sessions grow with every request
/// (their refraction memory is never pruned), so peak RSS follows the
/// number of requests sent.
const ROUNDS_PER_SECOND: usize = 4;
/// Closed-loop rounds in a traced run.
const CLOSED_ROUNDS: usize = 20;
/// Open-loop latency percentiles are taken per window of this many
/// arrivals (ten beyond the p99), then the median over windows.
const OPEN_WINDOW: usize = 1_000;
const CLOSED_WINDOW: usize = 64;
/// Server set-ups per untraced run (the set-up time is their median).
const SETUPS: usize = 21;
/// Large enough that the open loop at this rate is never refused on a
/// healthy server; a refusal is still counted as a failure.
const QUEUE_CAPACITY: usize = 1024;
/// Admissions kept in flight while setting up.
const ADMIT_WINDOW: usize = 512;
/// A reply later than this is a failure (and its latency this value).
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);
/// Sessions snapshotted at the end of a repetition for the checks.
const SAMPLED_SESSIONS: usize = 32;
/// WME changes one request WME causes: the request itself, `route`'s
/// task, `finish` (remove request, modify task) and `retire` (remove
/// task, modify stats) — 1 + 1 + 3 + 3.
const CHANGES_PER_WME: u64 = 8;
/// Timed encode/decode repetitions per sampled snapshot.
const SNAPSHOT_REPEATS: u32 = 50;

/// The lane of the worker's service spans (client-side request spans go
/// to lanes 1.., one per request in flight).
const SERVICE_TRACK: Track = Track {
    pid: BENCH_PID,
    tid: 0,
};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Hot,
    Cold,
}

/// One request the generator has sent and not yet seen answered.
struct Pending {
    seq: u64,
    due: Instant,
    class: Class,
    /// Trace lane while traced.
    lane: usize,
}

/// One open-loop request's outcome.
struct Sample {
    /// Position in the arrival schedule.
    seq: u64,
    /// Due time to reply, µs; a refused, failed or unanswered request
    /// counts at the reply timeout, so it misses any latency limit.
    latency_us: f64,
    /// The worker's time on it (`Reply::Cycles::nanos`), µs.
    service_us: f64,
    class: Class,
    ok: bool,
}

impl Sample {
    fn failed(seq: u64, class: Class) -> Self {
        Sample {
            seq,
            latency_us: REPLY_TIMEOUT.as_secs_f64() * 1e6,
            service_us: 0.0,
            class,
            ok: false,
        }
    }
}

/// What the open loop measured.
#[derive(Default)]
struct OpenLoop {
    samples: Vec<Sample>,
    /// How late the generator sent each request, µs.
    late_us: Vec<f64>,
}

impl OpenLoop {
    /// The median over windows of `OPEN_WINDOW` consecutive arrivals of
    /// each window's `q` quantile of latency: a stall inflates the
    /// windows it hits, not the whole run.
    fn windowed(&mut self, q: f64) -> f64 {
        self.samples.sort_by_key(|s| s.seq);
        let mut latency: Vec<f64> = self.samples.iter().map(|s| s.latency_us).collect();
        let mut per_window: Vec<f64> = latency
            .chunks_mut(OPEN_WINDOW)
            .map(|w| quantile(w, q))
            .collect();
        median(&mut per_window)
    }

    /// Quantile `q` of `f` over the answered requests `keep` selects.
    fn answered(&self, q: f64, keep: impl Fn(&Sample) -> bool, f: impl Fn(&Sample) -> f64) -> f64 {
        let mut v: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.ok && keep(s))
            .map(f)
            .collect();
        quantile(&mut v, q)
    }
}

/// One closed-loop round, in seconds.
struct Round {
    /// The calibration kernel, timed on the worker's CPU right before the
    /// round.
    cal: f64,
    /// First send to last reply, as the client sees it.
    wall: f64,
    /// The median request's service time.
    service_p50: f64,
}

/// Client-side state: the server and what was sent to each session.
struct Client<'a> {
    server: Server,
    sessions: Vec<SessionId>,
    hot: Vec<usize>,
    /// Request WMEs sent per session (the `stats ^done` each must reach).
    sent: Vec<u64>,
    pending: HashMap<RequestId, Pending>,
    report: &'a mut Report,
    rec: Option<TraceRecorder>,
    epoch: Instant,
    lanes: Vec<bool>,
    placement: Option<Placement>,
}

impl<'a> Client<'a> {
    fn new(
        (server, sessions): (Server, Vec<SessionId>),
        placement: Option<Placement>,
        rng: &mut StdRng,
        report: &'a mut Report,
    ) -> Self {
        let mut indices: Vec<usize> = (0..SESSIONS).collect();
        indices.shuffle(rng);
        Client {
            server,
            sessions,
            hot: indices[..HOT_SESSIONS].to_vec(),
            sent: vec![0; SESSIONS],
            pending: HashMap::new(),
            report,
            rec: None,
            epoch: Instant::now(),
            lanes: Vec::new(),
            placement,
        }
    }

    /// One request per hot session, so the hot set is resident.
    fn warm_up(&mut self) {
        let warm: Vec<(usize, Class)> = self.hot.iter().map(|&i| (i, Class::Hot)).collect();
        self.closed_loop(&warm);
    }

    /// An open loop of `secs` seconds of arrivals.
    fn open_for(&mut self, rng: &mut StdRng, secs: f64) -> OpenLoop {
        let mut open = OpenLoop::default();
        let plan = draw(rng, &self.hot, (OPEN_RATE_PER_S as f64 * secs) as usize);
        self.open_loop(&plan, &mut open);
        open
    }

    /// `n` closed-loop rounds, each after a calibration.
    fn closed_rounds(&mut self, rng: &mut StdRng, n: usize) -> Vec<Round> {
        let mut rounds = Vec::with_capacity(n);
        while rounds.len() < n {
            let plan = draw(rng, &self.hot, CLOSED_REQUESTS);
            let cal = calibrate(self.placement);
            let (wall, mut service) = self.closed_loop(&plan);
            rounds.push(Round {
                cal,
                wall,
                service_p50: quantile(&mut service, 0.50),
            });
        }
        rounds
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn span(&mut self, track: Track, name: &'static str, start: Instant, end: Instant) {
        let (s, e) = (self.ns(start), self.ns(end));
        if let Some(rec) = self.rec.as_mut() {
            rec.span(track, name, s, e.max(s));
        }
    }

    fn take_lane(&mut self) -> usize {
        if self.rec.is_none() {
            return 0;
        }
        match self.lanes.iter().position(|busy| !busy) {
            Some(i) => {
                self.lanes[i] = true;
                i
            }
            None => {
                self.lanes.push(true);
                self.lanes.len() - 1
            }
        }
    }

    /// Send one request WME to session `index`.
    fn submit(
        &mut self,
        seq: u64,
        index: usize,
        due: Instant,
        class: Class,
    ) -> Result<(), ServerError> {
        let session = self.sessions[index];
        let wmes = workload::round(session.0, self.sent[index], 1);
        let request = self.server.submit(session, wmes)?;
        self.sent[index] += 1;
        let lane = self.take_lane();
        self.pending.insert(
            request,
            Pending {
                seq,
                due,
                class,
                lane,
            },
        );
        Ok(())
    }

    /// Check one reply to an ingestion request.
    fn answer(&mut self, reply: Reply, at: Instant) -> Option<Sample> {
        let Some(p) = self.pending.remove(&reply.request()) else {
            self.report
                .op(false, || format!("reply to an unknown request: {reply:?}"));
            return None;
        };
        if self.rec.is_some() {
            self.lanes[p.lane] = false;
        }
        let Reply::Cycles {
            fired,
            outcome,
            nanos,
            ..
        } = reply
        else {
            self.report
                .op(false, || format!("request failed: {reply:?}"));
            return Some(Sample::failed(p.seq, p.class));
        };
        let ok = fired == workload::CYCLES_PER_REQUEST && outcome == RunOutcome::Quiescent;
        self.report.op(ok, || {
            format!("request fired {fired} ({outcome:?}), expected 3 and quiescence")
        });
        if !ok {
            return Some(Sample::failed(p.seq, p.class));
        }
        let lane = Track {
            pid: BENCH_PID,
            tid: 1 + p.lane as u32,
        };
        self.span(lane, "request", p.due, at);
        let service = Duration::from_nanos(nanos).min(at - self.epoch);
        self.span(SERVICE_TRACK, "service", at - service, at);
        Some(Sample {
            seq: p.seq,
            latency_us: at.duration_since(p.due).as_secs_f64() * 1e6,
            service_us: nanos as f64 / 1e3,
            class: p.class,
            ok,
        })
    }

    /// Wait for one reply; on a timeout or a dead server every pending
    /// request fails, and they are returned.
    fn recv(&mut self) -> Result<(Reply, Instant), Vec<Sample>> {
        match self.server.recv_timeout(REPLY_TIMEOUT) {
            Ok(reply) => Ok((reply, Instant::now())),
            Err(e) => {
                let lost = self.pending.len();
                self.report
                    .op(false, || format!("{lost} requests unanswered: {e}"));
                let lost = self
                    .pending
                    .drain()
                    .map(|(_, p)| Sample::failed(p.seq, p.class));
                Err(lost.collect())
            }
        }
    }

    /// Closed loop: keep `CLOSED_WINDOW` requests in flight over `plan`.
    /// Returns the wall time and the worker's service time of each
    /// answered request, in seconds.
    fn closed_loop(&mut self, plan: &[(usize, Class)]) -> (f64, Vec<f64>) {
        let start = Instant::now();
        let mut service = Vec::with_capacity(plan.len());
        let mut next = plan.iter().enumerate();
        loop {
            while self.pending.len() < CLOSED_WINDOW {
                let Some((seq, &(index, class))) = next.next() else {
                    break;
                };
                let now = Instant::now();
                if let Err(e) = self.submit(seq as u64, index, now, class) {
                    self.report
                        .op(false, || format!("closed-loop submit refused: {e}"));
                }
            }
            if self.pending.is_empty() {
                break;
            }
            let Ok((reply, at)) = self.recv() else {
                break;
            };
            if let Some(sample) = self.answer(reply, at).filter(|s| s.ok) {
                service.push(sample.service_us * 1e-6);
            }
        }
        (start.elapsed().as_secs_f64(), service)
    }

    /// Open loop: request `i` of `plan` is due `i / OPEN_RATE_PER_S`
    /// seconds after the start. Between sends the thread blocks on the
    /// reply channel until the next due time.
    fn open_loop(&mut self, plan: &[(usize, Class)], rep: &mut OpenLoop) {
        let period = Duration::from_nanos(1_000_000_000 / OPEN_RATE_PER_S);
        let start = Instant::now() + Duration::from_millis(1);
        for (i, &(index, class)) in plan.iter().enumerate() {
            let due = start + period * i as u32;
            loop {
                let now = Instant::now();
                if now >= due {
                    break;
                }
                match self.server.recv_timeout(due - now) {
                    Ok(reply) => {
                        let at = Instant::now();
                        rep.samples.extend(self.answer(reply, at));
                    }
                    Err(ServerError::Timeout) => break,
                    Err(e) => {
                        self.report.op(false, || format!("server gone: {e}"));
                        let lost = self
                            .pending
                            .drain()
                            .map(|(_, p)| Sample::failed(p.seq, p.class));
                        rep.samples.extend(lost);
                        return;
                    }
                }
            }
            let sent = Instant::now();
            rep.late_us
                .push(sent.duration_since(due).as_secs_f64() * 1e6);
            if let Err(e) = self.submit(i as u64, index, due, class) {
                self.report
                    .op(false, || format!("open-loop request refused: {e}"));
                rep.samples.push(Sample::failed(i as u64, class));
            }
        }
        while !self.pending.is_empty() {
            match self.recv() {
                Ok((reply, at)) => rep.samples.extend(self.answer(reply, at)),
                Err(lost) => rep.samples.extend(lost),
            }
        }
    }
}

/// Draw `n` (session index, class) pairs: `HOT_PERCENT` from the hot
/// set, the rest uniform over every session.
fn draw(rng: &mut StdRng, hot: &[usize], n: usize) -> Vec<(usize, Class)> {
    (0..n)
        .map(|_| {
            if rng.gen_range(0..100) < HOT_PERCENT {
                (hot[rng.gen_range(0..hot.len())], Class::Hot)
            } else {
                (rng.gen_range(0..SESSIONS), Class::Cold)
            }
        })
        .collect()
}

/// The CPUs the client and the server's worker are pinned to (see
/// `affinity`).
#[derive(Clone, Copy)]
struct Placement {
    client: usize,
    worker: usize,
}

impl Placement {
    /// Two distinct CPUs when the process may use two; `None` leaves the
    /// placement to the scheduler.
    fn choose() -> Option<Self> {
        match affinity::allowed()[..] {
            [client, worker, ..] => Some(Placement { client, worker }),
            _ => None,
        }
    }
}

/// Time the calibration kernel on the worker's CPU, which the serve path
/// is bound by, and return to the client's.
fn calibrate(placement: Option<Placement>) -> f64 {
    if let Some(p) = placement {
        affinity::pin(p.worker);
    }
    let cal = (ONE_THREAD.measure)();
    if let Some(p) = placement {
        affinity::pin(p.client);
    }
    cal
}

/// Start a server and admit every session; `None` if that failed.
/// `budget` caps resident sessions, spilling the rest under `spill`. The
/// worker is spawned on the placement's worker CPU.
fn set_up(
    budget: Option<usize>,
    spill: &Path,
    placement: Option<Placement>,
    report: &mut Report,
) -> Option<(Server, Vec<SessionId>)> {
    let config = ServerConfig {
        workers: 1,
        queue_capacity: QUEUE_CAPACITY,
        resident_budget: budget,
        evict_dir: Some(spill.to_path_buf()),
        ..ServerConfig::default()
    };
    if let Some(p) = placement {
        affinity::pin(p.worker);
    }
    let server = Server::new(workload::program(), config);
    if let Some(p) = placement {
        affinity::pin(p.client);
    }
    let mut server = match server {
        Ok(s) => s,
        Err(e) => {
            report.op(false, || format!("Server::new: {e}"));
            return None;
        }
    };
    let mut sessions = Vec::with_capacity(SESSIONS);
    // The window is below the queue capacity, so admission is never refused.
    while sessions.len() < SESSIONS || server.in_flight() > 0 {
        if sessions.len() == SESSIONS || server.in_flight() >= ADMIT_WINDOW {
            match server.recv_timeout(REPLY_TIMEOUT) {
                Ok(reply) => report.op(matches!(reply, Reply::Ready { .. }), || {
                    format!("admission failed: {reply:?}")
                }),
                Err(e) => {
                    report.op(false, || format!("admission stalled: {e}"));
                    return None;
                }
            }
            continue;
        }
        match server.create_session(workload::initial()) {
            Ok((id, _)) => sessions.push(id),
            Err(e) => {
                report.op(false, || format!("create_session: {e}"));
                return None;
            }
        }
    }
    Some((server, sessions))
}

/// The session each check snapshots: half hot, half uniform.
fn check_sessions(client: &mut Client, rng: &mut StdRng) -> Vec<Vec<u8>> {
    let sample: Vec<usize> = client.hot[..SAMPLED_SESSIONS / 2]
        .iter()
        .copied()
        .chain((0..SAMPLED_SESSIONS / 2).map(|_| rng.gen_range(0..SESSIONS)))
        .collect();
    let fingerprint = client.server.fingerprint();
    let (done, stats) = (intern("done"), intern("stats"));
    let mut snapshots = Vec::new();
    for index in sample {
        let session = client.sessions[index];
        let reply = client
            .server
            .snapshot(session)
            .and_then(|r| client.server.wait_for(r, REPLY_TIMEOUT));
        let want = Value::Int(client.sent[index] as i64);
        let got = match reply {
            Ok(Reply::SnapshotBytes { bytes, .. }) => {
                let wm = Session::decode_state(&bytes, fingerprint);
                snapshots.push(bytes);
                wm.ok()
                    .and_then(|wm| wm.into_iter().find(|(_, w)| w.class() == stats))
                    .and_then(|(_, w)| w.get(done))
            }
            _ => None,
        };
        client.report.op(got == Some(want), || {
            format!("{session}: stats ^done {got:?}, client sent {want:?}")
        });
    }
    snapshots
}

/// Time `Session::restore` (decode + replay) and `Session::snapshot`
/// (encode) on the sampled snapshots: per-call µs.
fn snapshot_codec(snapshots: &[Vec<u8>], report: &mut Report) -> (f64, f64, f64) {
    let program = Arc::new(workload::program());
    let network = Arc::new(ReteNetwork::compile(&program).expect("serve program compiles"));
    let engine = ServerConfig::default().engine;
    let fingerprint = mpps_server::program_fingerprint(&program);
    let (mut decode, mut encode) = (Vec::new(), Vec::new());
    for bytes in snapshots {
        let restore =
            || Session::restore(program.clone(), network.clone(), engine, fingerprint, bytes);
        let t = Instant::now();
        for _ in 0..SNAPSHOT_REPEATS {
            std::hint::black_box(restore().ok());
        }
        decode.push(t.elapsed().as_secs_f64() * 1e6 / f64::from(SNAPSHOT_REPEATS));
        let session = match restore() {
            Ok(s) => s,
            Err(e) => {
                report.op(false, || format!("restoring a sampled snapshot: {e}"));
                continue;
            }
        };
        let t = Instant::now();
        for _ in 0..SNAPSHOT_REPEATS {
            std::hint::black_box(session.snapshot().ok());
        }
        encode.push(t.elapsed().as_secs_f64() * 1e6 / f64::from(SNAPSHOT_REPEATS));
        let again = session.snapshot();
        report.op(again.as_ref().ok() == Some(bytes), || {
            "snapshot does not re-encode byte-identically".into()
        });
    }
    let bytes =
        snapshots.iter().map(Vec::len).sum::<usize>() as f64 / snapshots.len().max(1) as f64;
    (median(&mut encode), median(&mut decode), bytes)
}

/// Run the serve workload and fill `report`. Untraced: closed-loop rounds.
/// Traced: an open loop for a quarter of `seconds` untraced and a quarter
/// traced, closed-loop rounds, then the eviction probe for a quarter.
pub fn run(seed: u64, seconds: u64, trace: bool, out_dir: &Path, report: &mut Report) {
    let mut rng = StdRng::seed_from_u64(seed);
    let spill = out_dir.join(format!("spill-{}", std::process::id()));
    let placement = Placement::choose();
    if let Some(p) = placement {
        affinity::pin(p.client);
    }
    // Set-up time in units of the calibration timed right before it.
    let mut setup_cal = Vec::new();
    let mut kept = None;
    for _ in 0..if trace { 1 } else { SETUPS } {
        drop(kept.take());
        let cal = calibrate(placement);
        let start = Instant::now();
        let Some(up) = set_up(None, &spill, placement, report) else {
            return;
        };
        setup_cal.push(start.elapsed().as_secs_f64() / cal);
        kept = Some(up);
    }
    let up = kept.expect("at least one set-up");
    let mut client = Client::new(up, placement, &mut rng, report);
    client.warm_up();
    if !trace {
        let rounds = client.closed_rounds(&mut rng, ROUNDS_PER_SECOND * seconds as usize);
        check_sessions(&mut client, &mut rng);
        drop(client);
        // Gated timings are in units of the calibration next to them
        // (see the module docs).
        let per_round = |f: &dyn Fn(&Round) -> f64| {
            let mut v: Vec<f64> = rounds.iter().map(f).collect();
            median(&mut v)
        };
        report.set("setup_s", median(&mut setup_cal) * ONE_THREAD.reference_s);
        report.set("run_cal", per_round(&|r| r.wall / r.cal));
        report.set("request_p50_cal", per_round(&|r| r.service_p50 / r.cal));
        return;
    }
    let quarter = seconds as f64 / 4.0;
    let mut plain = client.open_for(&mut rng, quarter);
    let mut rec = TraceRecorder::new();
    rec.name_process(BENCH_PID, "perfbench serve client");
    rec.name_track(SERVICE_TRACK, "worker service (from replies)");
    client.rec = Some(rec);
    client.epoch = Instant::now();
    let mut traced = client.open_for(&mut rng, quarter);
    let rounds = client.closed_rounds(&mut rng, CLOSED_ROUNDS);
    let mut closed_s: Vec<f64> = rounds.iter().map(|r| r.wall).collect();
    check_sessions(&mut client, &mut rng);
    let rec = client.rec.take();
    let epoch = client.epoch;
    drop(client);
    let round_s = median(&mut closed_s);
    report.set("run_s", round_s);
    report.set("serve_rps", CLOSED_REQUESTS as f64 / round_s);
    report.set("request_p50_us", plain.windowed(0.50));
    report.set("request_p99_us", plain.windowed(0.99));
    let mut late = plain.late_us.clone();
    report.set("gen.late_us.p99", quantile(&mut late, 0.99));
    report.set("gen.late_us.max", quantile(&mut late, 1.0));
    report.set("trace.run_s", round_s);
    let overhead = traced.windowed(0.50) / plain.windowed(0.50) - 1.0;
    report.set("trace.overhead_pct", overhead * 100.0);
    if let Some(rec) = eviction_probe(&mut rng, quarter, &spill, placement, rec, epoch, report) {
        crate::write_trace(out_dir, "serve", seed, &rec, report);
    }
    let _ = std::fs::remove_dir_all(&spill);
}

/// The store layer: the same mix against a server whose worker keeps
/// `RESIDENT_BUDGET` sessions resident, traced, for `secs` of open loop.
fn eviction_probe(
    rng: &mut StdRng,
    secs: f64,
    spill: &Path,
    placement: Option<Placement>,
    rec: Option<TraceRecorder>,
    epoch: Instant,
    report: &mut Report,
) -> Option<TraceRecorder> {
    let up = set_up(Some(RESIDENT_BUDGET), spill, placement, report)?;
    let mut client = Client::new(up, placement, rng, report);
    client.rec = rec;
    client.epoch = epoch;
    client.warm_up();
    let before = client.server.metrics(REPLY_TIMEOUT);
    let sent_before: u64 = client.sent.iter().sum();
    let refused_before = client.server.overload_rejections();
    let open = client.open_for(rng, secs);
    let refused = client.server.overload_rejections() - refused_before;
    // Server counters over the open loop, against the client's truth.
    match (before, client.server.metrics(REPLY_TIMEOUT)) {
        (Ok(before), Ok(after)) => {
            let delta = |name: &str| after.counter_total(name) - before.counter_total(name);
            let faultins = delta("serve.faultins");
            let wmes = client.sent.iter().sum::<u64>() - sent_before;
            let overcount = delta("serve.wme_changes") as f64 - (CHANGES_PER_WME * wmes) as f64;
            let report = &mut *client.report;
            report.set("server.faultins", faultins as f64);
            report.set("server.evictions", delta("serve.evictions") as f64);
            report.set(
                "server.hit_ratio",
                1.0 - faultins as f64 / delta("serve.requests").max(1) as f64,
            );
            report.set("server.wme_changes_overcount", overcount);
        }
        (b, a) => client.report.op(false, || {
            format!("metrics flush failed: {:?} {:?}", b.err(), a.err())
        }),
    }
    let snapshots = check_sessions(&mut client, rng);
    let rec = client.rec.take();
    drop(client);

    report.set("server.refused", refused as f64);
    let service = |s: &Sample| s.service_us;
    report.set(
        "server.service_us.p50",
        open.answered(0.50, |_| true, service),
    );
    report.set(
        "server.service_us.p99",
        open.answered(0.99, |_| true, service),
    );
    for (class, p50, p99) in [
        (
            Class::Hot,
            "server.wait_us.hot.p50",
            "server.wait_us.hot.p99",
        ),
        (
            Class::Cold,
            "server.wait_us.cold.p50",
            "server.wait_us.cold.p99",
        ),
    ] {
        let wait = |s: &Sample| s.latency_us - s.service_us;
        report.set(p50, open.answered(0.50, |s| s.class == class, wait));
        report.set(p99, open.answered(0.99, |s| s.class == class, wait));
    }
    let (encode, decode, bytes) = snapshot_codec(&snapshots, report);
    report.set("snapshot.encode_us", encode);
    report.set("snapshot.decode_us", decode);
    report.set("snapshot.bytes", bytes);
    rec
}
