//! Bucket-to-processor distribution strategies.
//!
//! The range of hash indices is partitioned statically among the match
//! processors (§3). The paper evaluates three assignments:
//!
//! * **round-robin** — the default used for every figure;
//! * **random** — "tried as an alternative, but failed to provide a
//!   significant improvement" (§5.2.2);
//! * **greedy offline** — an LPT (longest-processing-time-first) bin
//!   packing over the observed per-bucket activity, "one distribution per
//!   cycle"; it improved speedups by ≈1.4× and bounds what any online
//!   balancer could achieve.

use mpps_rete::trace::ActKind;
use mpps_rete::Trace;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A static assignment of every hash-bucket index to a match processor.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Partition {
    owners: Vec<u32>,
    processors: usize,
}

impl Partition {
    /// Round-robin: bucket `k` goes to processor `k mod P`.
    pub fn round_robin(table_size: u64, processors: usize) -> Self {
        assert!(processors > 0, "need at least one match processor");
        Partition {
            owners: (0..table_size)
                .map(|k| (k % processors as u64) as u32)
                .collect(),
            processors,
        }
    }

    /// Uniform random assignment via a seeded shuffle of the round-robin
    /// layout (so per-processor bucket counts stay balanced; only the
    /// *placement* is randomized, which is the variant the paper tried).
    pub fn random(table_size: u64, processors: usize, seed: u64) -> Self {
        let mut p = Self::round_robin(table_size, processors);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        p.owners.shuffle(&mut rng);
        p
    }

    /// Everything on one processor (the single-master end of the §6
    /// continuum).
    pub fn single(table_size: u64) -> Self {
        Partition {
            owners: vec![0; table_size as usize],
            processors: 1,
        }
    }

    /// Offline greedy (LPT): sort buckets by descending activity, place
    /// each on the currently least-loaded processor. Inactive buckets
    /// continue the same LPT pass, charged a unit weight each — a trace is
    /// only an activity *sample*, so a "cold" bucket still costs something
    /// when the real workload touches it. (The old round-robin tail ignored
    /// the loads accumulated so far and could re-skew a balanced placement.)
    pub fn greedy(activity: &[u64], processors: usize) -> Self {
        assert!(processors > 0, "need at least one match processor");
        let mut owners = vec![u32::MAX; activity.len()];
        let mut load = vec![0u64; processors];
        let mut order: Vec<usize> = (0..activity.len()).collect();
        order.sort_by_key(|&b| std::cmp::Reverse(activity[b]));
        for b in order {
            let weight = activity[b].max(1);
            // Ties go to the lowest-numbered processor for determinism.
            let target = (0..processors).min_by_key(|&p| (load[p], p)).unwrap();
            owners[b] = target as u32;
            load[target] += weight;
        }
        Partition { owners, processors }
    }

    /// Build from an explicit owner vector.
    pub fn from_owners(owners: Vec<u32>, processors: usize) -> Self {
        assert!(
            owners.iter().all(|&o| (o as usize) < processors),
            "owner out of range"
        );
        Partition { owners, processors }
    }

    /// The processor owning `bucket`.
    pub fn owner(&self, bucket: u64) -> usize {
        self.owners[bucket as usize] as usize
    }

    /// Number of match processors.
    pub fn processors(&self) -> usize {
        self.processors
    }

    /// Number of buckets.
    pub fn table_size(&self) -> u64 {
        self.owners.len() as u64
    }

    /// Per-processor load under the given per-bucket activity.
    pub fn loads(&self, activity: &[u64]) -> Vec<u64> {
        let mut load = vec![0u64; self.processors];
        for (b, &a) in activity.iter().enumerate() {
            load[self.owners[b] as usize] += a;
        }
        load
    }
}

/// Per-bucket two-input activation counts over a whole trace — the
/// "detailed trace of the activity in each bucket" the paper's offline
/// greedy algorithm was given.
pub fn bucket_activity(trace: &Trace) -> Vec<u64> {
    let mut act = vec![0u64; trace.table_size as usize];
    for cycle in &trace.cycles {
        for a in &cycle.activations {
            if a.kind == ActKind::TwoInput {
                act[a.bucket as usize] += 1;
            }
        }
    }
    act
}

/// Per-bucket activation counts for a single cycle (the paper's greedy
/// recomputed its distribution each cycle).
pub fn cycle_bucket_activity(trace: &Trace, cycle: usize) -> Vec<u64> {
    let mut act = vec![0u64; trace.table_size as usize];
    for a in &trace.cycles[cycle].activations {
        if a.kind == ActKind::TwoInput {
            act[a.bucket as usize] += 1;
        }
    }
    act
}

/// Per-bucket *work* (ns) for a single cycle under `cost`: each two-input
/// activation charges its token store plus `per_successor` for every child
/// it generates. Raw counts treat a 1600-successor generator the same as a
/// leaf token, so count-based LPT can stack several generators on one
/// processor; weighting by work is what the paper's "detailed trace of the
/// activity in each bucket" provides.
pub fn cycle_bucket_work(trace: &Trace, cycle: usize, cost: &crate::CostModel) -> Vec<u64> {
    let acts = &trace.cycles[cycle].activations;
    let mut fanout = vec![0u64; acts.len()];
    for a in acts {
        if let Some(p) = a.parent {
            fanout[p as usize] += 1;
        }
    }
    let mut work = vec![0u64; trace.table_size as usize];
    for (i, a) in acts.iter().enumerate() {
        if a.kind != ActKind::TwoInput {
            continue;
        }
        let store = if a.side == mpps_rete::Side::Left {
            cost.left_token
        } else {
            cost.right_token
        };
        work[a.bucket as usize] += (store + cost.per_successor * fanout[i]).as_ns();
    }
    work
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_covers_all_processors_evenly() {
        let p = Partition::round_robin(16, 4);
        let mut counts = [0; 4];
        for b in 0..16 {
            counts[p.owner(b)] += 1;
        }
        assert_eq!(counts, [4, 4, 4, 4]);
        assert_eq!(p.owner(5), 1);
    }

    #[test]
    fn random_is_balanced_and_seeded() {
        let a = Partition::random(64, 4, 42);
        let b = Partition::random(64, 4, 42);
        let c = Partition::random(64, 4, 43);
        assert_eq!(a, b, "same seed, same partition");
        assert_ne!(a, c, "different seed, different partition");
        let mut counts = [0; 4];
        for k in 0..64 {
            counts[a.owner(k)] += 1;
        }
        assert_eq!(counts, [16; 4], "shuffle preserves balance");
    }

    #[test]
    fn greedy_balances_skewed_activity() {
        // One hot bucket (100) plus ten buckets of 10 on 2 processors:
        // LPT puts the hot bucket alone-ish, spreading the rest.
        let mut activity = vec![0u64; 16];
        activity[0] = 100;
        for a in activity.iter_mut().take(11).skip(1) {
            *a = 10;
        }
        let p = Partition::greedy(&activity, 2);
        let loads = p.loads(&activity);
        assert_eq!(loads.iter().sum::<u64>(), 200);
        // LPT guarantees max load ≤ 4/3 · OPT; OPT here is 100.
        assert!(*loads.iter().max().unwrap() <= 134, "loads = {loads:?}");
    }

    #[test]
    fn greedy_beats_round_robin_on_adversarial_layout() {
        // Hot buckets all land on processor 0 under round-robin (stride 4).
        let mut activity = vec![0u64; 16];
        for b in (0..16).step_by(4) {
            activity[b] = 50;
        }
        let rr = Partition::round_robin(16, 4);
        let gr = Partition::greedy(&activity, 4);
        let rr_max = *rr.loads(&activity).iter().max().unwrap();
        let gr_max = *gr.loads(&activity).iter().max().unwrap();
        assert_eq!(rr_max, 200);
        assert_eq!(gr_max, 50);
    }

    #[test]
    fn greedy_assigns_inactive_buckets_somewhere_valid() {
        let p = Partition::greedy(&[0, 0, 5, 0], 3);
        for b in 0..4 {
            assert!(p.owner(b) < 3);
        }
    }

    #[test]
    fn greedy_leftovers_go_to_least_loaded() {
        // Active buckets LPT to loads [6] and [5,4] on 2 processors; the
        // three inactive buckets (unit weight each) must all pile onto the
        // lighter processor, ending at [9,9]. The old round-robin tail
        // produced [8,10], re-skewing a balanced placement.
        let activity = [6u64, 5, 4, 0, 0, 0];
        let p = Partition::greedy(&activity, 2);
        let unit: Vec<u64> = activity.iter().map(|&a| a.max(1)).collect();
        let loads = p.loads(&unit);
        let (max, min) = (loads.iter().max().unwrap(), loads.iter().min().unwrap());
        assert!(
            max - min <= 1,
            "unit-augmented loads must be within one bucket of each other: {loads:?}"
        );
        assert_eq!(loads, vec![9, 9]);
        // All three leftovers landed next to the lone hot bucket (load 6),
        // not with the [5,4] pair (load 9).
        let light_owner = p.owner(0);
        for b in 3..6 {
            assert_eq!(p.owner(b), light_owner);
        }
    }

    #[test]
    fn greedy_leftover_loads_within_one_bucket_of_optimal() {
        // With uniform unit weights (all-inactive trace), greedy degenerates
        // to balanced assignment: every processor gets ⌈n/p⌉ or ⌊n/p⌋.
        let p = Partition::greedy(&[0; 13], 4);
        let counts = p.loads(&[1; 13]);
        assert_eq!(counts.iter().sum::<u64>(), 13);
        let (max, min) = (counts.iter().max().unwrap(), counts.iter().min().unwrap());
        assert!(max - min <= 1, "counts = {counts:?}");
    }

    #[test]
    fn single_partition_maps_everything_to_zero() {
        let p = Partition::single(8);
        assert!((0..8).all(|b| p.owner(b) == 0));
        assert_eq!(p.processors(), 1);
    }

    #[test]
    #[should_panic(expected = "owner out of range")]
    fn from_owners_validates() {
        Partition::from_owners(vec![0, 5], 2);
    }

    #[test]
    fn bucket_activity_counts_two_input_only() {
        use mpps_ops::Sign;
        use mpps_rete::trace::{ActivationRecord, TraceCycle};
        use mpps_rete::{NodeId, Side};
        let mut t = Trace::new(4);
        t.cycles.push(TraceCycle {
            activations: vec![
                ActivationRecord {
                    node: NodeId(1),
                    side: Side::Left,
                    sign: Sign::Plus,
                    bucket: 2,
                    parent: None,
                    kind: ActKind::TwoInput,
                },
                ActivationRecord {
                    node: NodeId(9),
                    side: Side::Left,
                    sign: Sign::Plus,
                    bucket: 2,
                    parent: Some(0),
                    kind: ActKind::Production,
                },
            ],
        });
        assert_eq!(bucket_activity(&t), vec![0, 0, 1, 0]);
        assert_eq!(cycle_bucket_activity(&t, 0), vec![0, 0, 1, 0]);
    }
}
