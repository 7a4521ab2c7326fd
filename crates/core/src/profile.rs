//! `match_profile.json`: render a merged [`MetricsRegistry`] as the
//! profile document, and [`check_profile`] it.
//!
//! The profile is the human- and CI-facing summary of one profiled match
//! run (`mpps run --profile OUT`): the top-K hot nodes by activation
//! count, the per-bucket skew factor (max/mean activations across the
//! buckets that saw any work), arena occupancy, and — for the threaded
//! executor — the per-cycle barrier-wait vs match-work phase split plus
//! per-worker lanes. The writer and the checker live here together so the
//! schema cannot drift; `repro --check FILE` runs the checker in CI.
//!
//! Everything is derived from metric series by name (see
//! [`mpps_rete::kernel::metric`], [`crate::threaded::metric`], and the
//! TREAT `rule.*` series), so the renderer works for any matcher: series
//! a matcher never recorded simply render as `null` or empty lists.

use mpps_telemetry::json::{self, ensure, Field, Value};
use mpps_telemetry::{available_cpus, record, Histogram, HistogramSummary, MetricsRegistry};
use std::collections::{BTreeMap, BTreeSet};

use mpps_ops::treat::metric as rmetric;
use mpps_rete::kernel::metric as kmetric;

use crate::threaded::metric as tmetric;

/// Schema identifier written into every profile, checked by CI.
pub const PROFILE_SCHEMA: &str = "mpps.match_profile.v1";

/// How many hot nodes / rules the profile lists.
pub const TOP_K: usize = 10;

record! {
    /// The `match_profile.json` document.
    struct Profile {
        schema: String,
        matcher: String,
        machine: Machine,
        totals: Totals,
        hot_nodes: Vec<HotNode>,
        hot_rules: Vec<HotRule>,
        bucket_skew: Option<BucketSkew>,
        arena: Arena,
        phases: Phases,
        workers: Vec<WorkerLane>,
    }
    check(p) {
        ensure(p.schema == PROFILE_SCHEMA, || format!("unknown schema {:?}", p.schema))?;
        ensure(!p.matcher.is_empty(), || "empty matcher name".into())?;
        let mut prev = p.totals.activations;
        for (i, node) in p.hot_nodes.iter().enumerate() {
            ensure(node.activations <= prev, || {
                format!("hot_nodes[{i}]: not sorted by activations, or above the total")
            })?;
            prev = node.activations;
        }
        Ok(())
    }
}

record! {
    struct Machine {
        cpus: u64,
        workers: u64,
    }
    check(m) {
        ensure(m.cpus > 0 && m.workers > 0, || "cpus and workers must be at least 1".into())
    }
}

record! {
    struct Totals {
        activations: u64,
        left_probes: u64,
        right_probes: u64,
        prefilter_hits: u64,
        match_ns: u64,
    }
}

record! {
    struct HotNode {
        node: u64,
        activations: u64,
        left_probes: u64,
        right_probes: u64,
        prefilter_hits: u64,
        match_ns: u64,
    }
}

record! {
    struct HotRule {
        rule: u64,
        activations: u64,
        retractions: u64,
        alpha_inserts: u64,
        seed_joins: u64,
        match_ns: u64,
    }
}

record! {
    /// Present only when some bucket was hit; `skew_factor` is max/mean.
    struct BucketSkew {
        buckets_hit: u64,
        max_activations: u64,
        mean_activations: f64,
        skew_factor: f64,
    }
    check(s) {
        let (max, mean, factor) = (s.max_activations as f64, s.mean_activations, s.skew_factor);
        ensure(s.buckets_hit > 0, || "present but no buckets hit".into())?;
        ensure(max >= mean, || format!("max {max} below mean {mean}"))?;
        ensure(mean == 0.0 || (factor - max / mean).abs() <= 0.01, || {
            format!("skew_factor {factor} is not max/mean ({max}/{mean})")
        })
    }
}

record! {
    struct Arena {
        allocs: u64,
        frees: u64,
        live: u64,
        high_water: u64,
        free_high_water: u64,
    }
}

record! {
    /// Per-cycle phase histograms; `None` for a series never recorded.
    struct Phases {
        cycles: u64,
        wall_ns: Option<HistogramSummary>,
        work_ns: Option<HistogramSummary>,
        wait_ns: Option<HistogramSummary>,
        drain_activations: Option<HistogramSummary>,
    }
}

record! {
    struct WorkerLane {
        worker: u64,
        work_ns: u64,
        wait_ns: u64,
        forwarded_in: u64,
    }
}

/// Sum of one keyed series' values (0 when absent).
fn keyed_sum(keys: Option<&BTreeMap<u64, u64>>) -> u64 {
    keys.map(|m| m.values().sum()).unwrap_or(0)
}

/// Max of one keyed series' values (0 when absent).
fn keyed_max(keys: Option<&BTreeMap<u64, u64>>) -> u64 {
    keys.and_then(|m| m.values().copied().max()).unwrap_or(0)
}

/// The per-bucket activation skew factor: max/mean activation counts over
/// every bucket that saw at least one activation. A factor of 1.0 is a
/// perfectly even spread; the paper's §5.2 load-distribution analysis is
/// all about how far real workloads sit above that. `None` when the run
/// recorded no bucket activity (unprofiled matcher, or no match work).
pub fn bucket_skew_factor(reg: &MetricsRegistry) -> Option<f64> {
    bucket_skew(reg).map(|s| s.skew_factor)
}

fn bucket_skew(reg: &MetricsRegistry) -> Option<BucketSkew> {
    let buckets = reg
        .counter(kmetric::BUCKET_ACTIVATIONS)
        .filter(|b| !b.is_empty())?;
    let buckets_hit = buckets.len() as u64;
    let max_activations = keyed_max(Some(buckets));
    let mean_activations = keyed_sum(Some(buckets)) as f64 / buckets_hit as f64;
    Some(BucketSkew {
        buckets_hit,
        max_activations,
        mean_activations,
        skew_factor: if mean_activations > 0.0 {
            max_activations as f64 / mean_activations
        } else {
            0.0
        },
    })
}

/// One row per top-[`TOP_K`] key of a keyed counter series, largest value
/// first (ties broken by key for determinism).
fn top_k<T>(keys: Option<&BTreeMap<u64, u64>>, row: impl FnMut(u64) -> T) -> Vec<T> {
    let mut entries: Vec<(u64, u64)> = keys
        .into_iter()
        .flatten()
        .map(|(&id, &n)| (id, n))
        .collect();
    entries.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    entries
        .into_iter()
        .take(TOP_K)
        .map(|(id, _)| id)
        .map(row)
        .collect()
}

fn at(keys: Option<&BTreeMap<u64, u64>>, id: u64) -> u64 {
    keys.and_then(|m| m.get(&id)).copied().unwrap_or(0)
}

fn worker_lanes(reg: &MetricsRegistry) -> Vec<WorkerLane> {
    let work = reg.counter(tmetric::WORKER_WORK_NS);
    let wait = reg.counter(tmetric::WORKER_WAIT_NS);
    let forwarded_in = reg.counter(tmetric::PEER_FORWARDED);
    let lanes: BTreeSet<u64> = [work, wait]
        .into_iter()
        .flatten()
        .flat_map(|keys| keys.keys().copied())
        .collect();
    let lane = |worker| WorkerLane {
        worker,
        work_ns: at(work, worker),
        wait_ns: at(wait, worker),
        forwarded_in: at(forwarded_in, worker),
    };
    lanes.into_iter().map(lane).collect()
}

/// Render one merged registry as the `match_profile.json` document.
///
/// `matcher` names the engine that produced the registry (`"rete"`,
/// `"treat"`, `"threaded"`, …); `workers` is the executor's thread count
/// (1 for the sequential matchers). Series the matcher never recorded
/// render as `null` (skew, phase histograms) or `[]` (hot lists,
/// workers), so the document shape is identical across matchers.
pub fn render_match_profile(matcher: &str, workers: usize, reg: &MetricsRegistry) -> String {
    let total = |series: &[&str]| series.iter().map(|s| reg.counter_total(s)).sum();
    let at = |series, id| at(reg.counter(series), id);
    let hist = |series| reg.histogram(series).map(Histogram::summary);
    let hot_node = |node| HotNode {
        node,
        activations: at(kmetric::NODE_ACTIVATIONS, node),
        left_probes: at(kmetric::NODE_LEFT_PROBES, node),
        right_probes: at(kmetric::NODE_RIGHT_PROBES, node),
        prefilter_hits: at(kmetric::NODE_PREFILTER_HITS, node),
        match_ns: at(kmetric::NODE_MATCH_NS, node),
    };
    let hot_rule = |rule| HotRule {
        rule,
        activations: at(rmetric::RULE_ACTIVATIONS, rule),
        retractions: at(rmetric::RULE_RETRACTIONS, rule),
        alpha_inserts: at(rmetric::RULE_ALPHA_INSERTS, rule),
        seed_joins: at(rmetric::RULE_SEED_JOINS, rule),
        match_ns: at(rmetric::RULE_MATCH_NS, rule),
    };
    let profile = Profile {
        schema: PROFILE_SCHEMA.to_owned(),
        matcher: matcher.to_owned(),
        machine: Machine {
            cpus: available_cpus() as u64,
            workers: workers as u64,
        },
        totals: Totals {
            activations: total(&[kmetric::NODE_ACTIVATIONS, rmetric::RULE_ACTIVATIONS]),
            left_probes: total(&[kmetric::NODE_LEFT_PROBES]),
            right_probes: total(&[kmetric::NODE_RIGHT_PROBES]),
            prefilter_hits: total(&[kmetric::NODE_PREFILTER_HITS]),
            match_ns: total(&[kmetric::NODE_MATCH_NS, rmetric::RULE_MATCH_NS]),
        },
        hot_nodes: top_k(reg.counter(kmetric::NODE_ACTIVATIONS), hot_node),
        hot_rules: top_k(reg.counter(rmetric::RULE_ACTIVATIONS), hot_rule),
        bucket_skew: bucket_skew(reg),
        arena: Arena {
            allocs: keyed_sum(reg.gauge(kmetric::ARENA_ALLOCS)),
            frees: keyed_sum(reg.gauge(kmetric::ARENA_FREES)),
            live: keyed_sum(reg.gauge(kmetric::ARENA_LIVE)),
            high_water: keyed_max(reg.gauge(kmetric::ARENA_HIGH_WATER)),
            free_high_water: keyed_max(reg.gauge(kmetric::ARENA_FREE_HIGH_WATER)),
        },
        phases: Phases {
            cycles: hist(kmetric::CYCLE_WALL_NS).map_or(0, |h| h.count),
            wall_ns: hist(kmetric::CYCLE_WALL_NS),
            work_ns: hist(kmetric::CYCLE_WORK_NS),
            wait_ns: hist(kmetric::CYCLE_WAIT_NS),
            drain_activations: hist(tmetric::DRAIN_ACTIVATIONS),
        },
        workers: worker_lanes(reg),
    };
    json::write(&profile.value())
}

/// Validate a parsed `match_profile.json` document: the field set and
/// types, the schema tag, machine info, hot-node ordering, the bucket-skew
/// invariants (`max ≥ mean`, `factor = max/mean`), and percentile order
/// in the phase histograms. Returns a one-line description of what was
/// validated.
pub fn check_profile(doc: &Value) -> Result<String, String> {
    let schema: String = doc.field("schema")?;
    ensure(schema == PROFILE_SCHEMA, || {
        format!("unknown schema {schema:?}")
    })?;
    let p = Profile::read(doc)?;
    let (matcher, acts, cycles) = (&p.matcher, p.totals.activations, p.phases.cycles);
    let (nodes, lanes) = (p.hot_nodes.len(), p.workers.len());
    Ok(format!(
        "profile ok: matcher {matcher:?}, {acts} activations, {cycles} cycles, \
         {nodes} hot nodes, {lanes} worker lanes"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpps_telemetry::MetricSink;

    /// Render `reg`, check the text, and read it back typed.
    fn rendered(workers: usize, reg: &MetricsRegistry) -> Profile {
        let doc = json::parse(&render_match_profile("threaded", workers, reg)).unwrap();
        check_profile(&doc).unwrap();
        Profile::read(&doc).unwrap()
    }

    #[test]
    fn empty_registry_renders_valid_json() {
        let p = rendered(1, &MetricsRegistry::new());
        assert_eq!(p.schema, PROFILE_SCHEMA);
        assert!(p.machine.cpus >= 1);
        assert!(p.hot_nodes.is_empty() && p.bucket_skew.is_none() && p.phases.wall_ns.is_none());
    }

    /// Each invariant the checker enforces rejects a document that breaks
    /// it.
    #[test]
    fn mangled_profiles_fail_the_check() {
        let mut reg = MetricsRegistry::new();
        for node in 0..3u64 {
            reg.add(kmetric::NODE_ACTIVATIONS, node, node + 1);
        }
        reg.observe(kmetric::CYCLE_WALL_NS, 50);
        let profile = rendered(1, &reg);
        let rejects = |mangle: fn(&mut Profile), expect: &str| {
            let mut p = profile.clone();
            mangle(&mut p);
            let err = check_profile(&p.value()).unwrap_err();
            assert!(err.contains(expect), "{expect}: {err}");
        };
        rejects(|p| p.schema = "something-else".into(), "unknown schema");
        rejects(|p| p.matcher.clear(), "empty matcher name");
        rejects(
            |p| p.machine.cpus = 0,
            "machine: cpus and workers must be at least 1",
        );
        rejects(|p| p.hot_nodes.swap(0, 2), "hot_nodes[1]: not sorted");
        let wall = "phases: wall_ns: percentiles out of order";
        rejects(|p| p.phases.wall_ns.as_mut().unwrap().p95 = 0, wall);
        let skew = "bucket_skew: skew_factor 9 is not max/mean";
        rejects(
            |p| {
                p.bucket_skew = Some(BucketSkew {
                    buckets_hit: 2,
                    max_activations: 4,
                    mean_activations: 2.0,
                    skew_factor: 9.0,
                })
            },
            skew,
        );
        let bare = json::object([("schema", PROFILE_SCHEMA.to_owned().value())]);
        assert!(check_profile(&bare)
            .unwrap_err()
            .contains("matcher: missing"));
    }

    #[test]
    fn hot_nodes_are_sorted_and_truncated() {
        let mut reg = MetricsRegistry::new();
        for node in 0..20u64 {
            reg.add(kmetric::NODE_ACTIVATIONS, node, node + 1);
            reg.add(kmetric::NODE_LEFT_PROBES, node, 2 * node);
        }
        let hot = rendered(4, &reg).hot_nodes;
        assert_eq!(hot.len(), TOP_K);
        // Largest activation count (node 19, 20 activations) first.
        assert_eq!(
            (hot[0].node, hot[0].activations, hot[0].left_probes),
            (19, 20, 38)
        );
        assert!(hot.windows(2).all(|w| w[0].activations >= w[1].activations));
    }

    #[test]
    fn skew_factor_is_max_over_mean() {
        let mut reg = MetricsRegistry::new();
        for (bucket, acts) in [(0, 9), (1, 1), (2, 2)] {
            reg.add(kmetric::BUCKET_ACTIVATIONS, bucket, acts);
        }
        let skew = rendered(2, &reg).bucket_skew.unwrap();
        // mean = 4, factor = 9/4 = 2.25
        assert_eq!((skew.buckets_hit, skew.max_activations), (3, 9));
        assert_eq!((skew.mean_activations, skew.skew_factor), (4.0, 2.25));
    }

    #[test]
    fn worker_lanes_come_from_split_counters() {
        let mut reg = MetricsRegistry::new();
        reg.add(tmetric::WORKER_WORK_NS, 0, 100);
        reg.add(tmetric::WORKER_WORK_NS, 1, 50);
        reg.add(tmetric::WORKER_WAIT_NS, 0, 10);
        reg.add(tmetric::WORKER_WAIT_NS, 1, 60);
        reg.add(tmetric::PEER_FORWARDED, 1, 7);
        let lanes = rendered(2, &reg).workers;
        assert_eq!(lanes.len(), 2);
        let lane = |w: &WorkerLane| (w.worker, w.work_ns, w.wait_ns, w.forwarded_in);
        assert_eq!(
            (lane(&lanes[0]), lane(&lanes[1])),
            ((0, 100, 10, 0), (1, 50, 60, 7))
        );
    }
}
