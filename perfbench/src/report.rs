//! The metric catalogue, read from `BENCHMARK.json`, and the one-line
//! JSON result.

use mpps_telemetry::json;
use std::collections::BTreeMap;

/// Metric names and units, in the order `BENCHMARK.json` lists them.
pub type Metrics = Vec<(String, String)>;

/// What `BENCHMARK.json` declares: the workloads and both metric lists.
pub struct Catalogue {
    pub workloads: Vec<String>,
    /// Printed by every untraced run (`--trace 0`). `*_cal` timings are
    /// in units of the calibration kernel's wall time measured next to
    /// them (see `calib.rs`); their wall-clock forms are per-layer metrics.
    pub end_to_end: Metrics,
    /// Printed by every traced run (`--trace 1`). A layer that a workload
    /// does not run reports 0.
    pub per_layer: Metrics,
}

impl Catalogue {
    /// Parse the manifest text.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = json::parse(text)?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(|v| v.as_array())
                .ok_or_else(|| format!("no {key} list"))
        };
        let field = |entry: &json::Value, key: &str| {
            entry
                .get(key)
                .and_then(|v| v.as_str())
                .map(String::from)
                .ok_or_else(|| format!("an entry without a {key}"))
        };
        let metrics = |key: &str| -> Result<Metrics, String> {
            list(key)?
                .iter()
                .map(|m| Ok((field(m, "name")?, field(m, "unit")?)))
                .collect()
        };
        Ok(Catalogue {
            workloads: list("workloads")?
                .iter()
                .map(|w| field(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

/// What one run measured and how its output checks went.
pub struct Report {
    /// Operations attempted: timed runs or requests, plus output checks.
    pub attempted: u64,
    /// Operations that failed, including every failed output check.
    pub failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    /// Every metric name the catalogue declares.
    known: Vec<String>,
}

impl Report {
    pub fn new(catalogue: &Catalogue) -> Self {
        let known = catalogue.end_to_end.iter().chain(&catalogue.per_layer);
        Report {
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            known: known.map(|(name, _)| name.clone()).collect(),
        }
    }

    /// Record one operation's outcome; a failure is also logged to stderr.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED: {}", what());
        }
    }

    /// Set a metric; the name must be in one of the catalogues.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.known.iter().any(|n| n == name),
            "metric {name} is not in the catalogue"
        );
        self.metrics.insert(name, value);
    }

    /// Render the result line for `catalogue`. Every metric of the
    /// catalogue must have been set (per-layer ones default to 0) and be
    /// finite; a violation is an error, never a silently missing metric.
    pub fn render(&self, catalogue: &Metrics, defaults_to_zero: bool) -> Result<String, String> {
        let mut fields = Vec::new();
        for (name, unit) in catalogue {
            let value = match self.metrics.get(name.as_str()) {
                Some(&v) => v,
                None if defaults_to_zero => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        let attempted = self.attempted.max(1);
        let correct = self.failed == 0 && self.attempted > 0;
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed,
            fields.join(", ")
        ))
    }
}
