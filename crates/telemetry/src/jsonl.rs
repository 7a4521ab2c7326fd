//! JSONL event stream and histogram-summary export.
//!
//! [`events_jsonl`] writes one JSON object per line — every span and
//! counter verbatim, in recording order — for ad-hoc analysis with
//! line-oriented tools. [`summary_json`] writes a single JSON object
//! mapping each sampled metric to its [`HistogramSummary`]
//! (p50/p95/max and friends).
//!
//! [`HistogramSummary`]: crate::hist::HistogramSummary

use crate::json::{self, escape, Field};
use crate::recorder::TraceRecorder;

/// Render every span and counter as one JSON object per line.
pub fn events_jsonl(rec: &TraceRecorder) -> String {
    let mut out = String::new();
    for s in rec.spans() {
        out.push_str(&format!(
            "{{\"type\": \"span\", \"pid\": {}, \"tid\": {}, \"name\": \"{}\", \
             \"start_ns\": {}, \"end_ns\": {}}}\n",
            s.track.pid,
            s.track.tid,
            escape(s.name),
            s.start_ns,
            s.end_ns
        ));
    }
    for c in rec.counters() {
        out.push_str(&format!(
            "{{\"type\": \"counter\", \"pid\": {}, \"tid\": {}, \"name\": \"{}\", \
             \"t_ns\": {}, \"value\": {}}}\n",
            c.track.pid,
            c.track.tid,
            escape(c.name),
            c.t_ns,
            c.value
        ));
    }
    out
}

/// Render the recorder's histograms as one JSON object:
/// `{"metrics": {"<name>": {count, min, max, mean, p50, p95}, ...}}`.
pub fn summary_json(rec: &TraceRecorder) -> String {
    let metrics = rec
        .histograms()
        .iter()
        .map(|(metric, hist)| (*metric, hist.summary().value()));
    json::write(&json::object([("metrics", json::object(metrics))]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::recorder::Recorder;

    #[test]
    fn summary_reports_percentiles() {
        let mut rec = TraceRecorder::new();
        for v in [1, 2, 3, 4, 100] {
            rec.sample("acts-per-bucket", v);
        }
        let doc = json::parse(&summary_json(&rec)).unwrap();
        let metrics: json::Value = doc.field("metrics").unwrap();
        let m: crate::HistogramSummary = metrics.field("acts-per-bucket").unwrap();
        assert_eq!((m.count, m.p50, m.p95), (5, 3, 100));
    }
}
