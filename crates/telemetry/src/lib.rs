#![warn(missing_docs)]

//! # mpps-telemetry — simulation telemetry primitives
//!
//! A first-class observability layer for the workspace's simulators and
//! sweep engines, built around one rule: **telemetry must cost nothing
//! when it is off**. Instrumented code is generic over a [`Recorder`];
//! the default [`NullRecorder`] has an `ENABLED = false` associated
//! constant and empty inline methods, so every recording site
//! monomorphizes away and the disabled build is instruction-identical to
//! an uninstrumented one.
//!
//! Three primitives cover the workspace's needs:
//!
//! * **spans** — an interval of activity on a [`Track`] (one track per
//!   simulated processor in *simulated* time; one track per sweep worker
//!   in *wall* time);
//! * **counters** — a value sampled at a point in time on a track
//!   (message-queue depth);
//! * **histogram samples** — order-free scalar observations aggregated
//!   into exact [`Histogram`]s (activations per bucket, queue depths,
//!   per-point wall-clock) and summarized as p50/p95/max.
//!
//! The in-memory [`TraceRecorder`] collects everything and exports as
//!
//! * a Chrome `trace_event` JSON file ([`chrome::chrome_trace`]) that
//!   loads directly in [Perfetto](https://ui.perfetto.dev) or
//!   `chrome://tracing`, and
//! * a JSONL event stream plus a JSON summary of histogram percentiles
//!   ([`jsonl`]).
//!
//! [`json`] is the dependency-free JSON parser and writer behind every
//! exported document: [`record!`] types render through one writer and are
//! read back, type-checked, by the same declaration.
//!
//! [`metrics`] extends the same discipline down into the match kernel:
//! instrumented match code is generic over a [`MetricSink`]
//! ([`NullMetrics`] when profiling is off, [`MetricsRegistry`] when
//! on), collecting id-keyed counters, high-water gauges, and exact
//! histograms that merge commutatively across workers.

pub mod chrome;
pub mod hist;
pub mod json;
pub mod jsonl;
pub mod metrics;
pub mod recorder;

pub use hist::{Histogram, HistogramSummary};
pub use metrics::{available_cpus, MetricSink, MetricsRegistry, NullMetrics};
pub use recorder::{NullRecorder, OffsetRecorder, Recorder, TraceRecorder, Track, SERVE_PID};
