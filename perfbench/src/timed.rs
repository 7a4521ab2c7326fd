//! A timing [`Matcher`] wrapper: the benchmark's span source for the
//! match layer. It sits between the interpreter and the real matcher and
//! records, from outside the library, how long `process` and
//! `conflict_set` take and how large the conflict set is.

use mpps_ops::{Instantiation, MatchError, Matcher, WmeChange};
use mpps_telemetry::{Recorder, TraceRecorder, Track};
use std::cell::RefCell;
use std::time::Instant;

/// The benchmark's own lane group in exported traces (the library's
/// groups are 1–4).
pub const BENCH_PID: u32 = 16;

/// The lane cycle and matcher spans go to.
pub const CYCLE_TRACK: Track = Track {
    pid: BENCH_PID,
    tid: 0,
};

/// What the wrapper measured.
#[derive(Default)]
pub struct Ledger {
    pub process_ns: u64,
    pub conflict_set_ns: u64,
    pub conflict_set_calls: u64,
    pub conflict_set_len: u64,
    pub wme_changes: u64,
    /// Spans go here when present (one repetition per run is kept).
    pub rec: Option<TraceRecorder>,
}

/// `inner` with every match-layer call timed into a [`Ledger`].
pub struct Timed<M> {
    pub inner: M,
    epoch: Instant,
    // `Matcher::conflict_set` takes `&self`.
    ledger: RefCell<Ledger>,
}

impl<M: Matcher> Timed<M> {
    pub fn new(inner: M, epoch: Instant, rec: Option<TraceRecorder>) -> Self {
        Timed {
            inner,
            epoch,
            ledger: RefCell::new(Ledger {
                rec,
                ..Ledger::default()
            }),
        }
    }

    pub fn ledger(&self) -> std::cell::RefMut<'_, Ledger> {
        self.ledger.borrow_mut()
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    fn note_process(&self, start: Instant, changes: usize) {
        let end = Instant::now();
        let (s, e) = (self.ns(start), self.ns(end));
        let mut l = self.ledger.borrow_mut();
        l.process_ns += e - s;
        l.wme_changes += changes as u64;
        if let Some(rec) = l.rec.as_mut() {
            rec.span(CYCLE_TRACK, "matcher.process", s, e);
        }
    }
}

impl<M: Matcher> Matcher for Timed<M> {
    fn process(&mut self, changes: &[WmeChange]) {
        let start = Instant::now();
        self.inner.process(changes);
        self.note_process(start, changes.len());
    }

    fn try_process(&mut self, changes: &[WmeChange]) -> Result<(), MatchError> {
        let start = Instant::now();
        let result = self.inner.try_process(changes);
        self.note_process(start, changes.len());
        result
    }

    fn conflict_set(&self) -> Vec<Instantiation> {
        let start = Instant::now();
        let set = self.inner.conflict_set();
        let end = Instant::now();
        let (s, e) = (self.ns(start), self.ns(end));
        let mut l = self.ledger.borrow_mut();
        l.conflict_set_ns += e - s;
        l.conflict_set_calls += 1;
        l.conflict_set_len += set.len() as u64;
        if let Some(rec) = l.rec.as_mut() {
            rec.span(CYCLE_TRACK, "matcher.conflict_set", s, e);
        }
        set
    }
}
