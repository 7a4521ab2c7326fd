//! Env-gated differential fuzz smoke test.
//!
//! Runs `MPPS_FUZZ_ITERS` random cases (default 25 when unset — a quick
//! sanity sweep; CI cranks it to 500 in release mode, mirroring
//! `MPPS_STRESS_ITERS`) through the four-matcher oracle. Any divergence is
//! shrunk and written to `target/fuzz-repro/` so CI can upload it as an
//! artifact, then reported as a failure with the reproducer paths.
//!
//! `MPPS_FUZZ_SEED` shifts the seed range for soak runs.

use mpps_difftest::{fuzz_one, write_repro, GenConfig, MatcherKind};
use std::path::Path;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[test]
fn differential_fuzz_smoke() {
    let iters = env_u64("MPPS_FUZZ_ITERS", 25);
    let base_seed = env_u64("MPPS_FUZZ_SEED", 0);
    let cfg = GenConfig::default();
    let lanes = MatcherKind::lanes(&MatcherKind::EXTENDED);
    for i in 0..iters {
        let seed = base_seed + i;
        let (case, divergence) = fuzz_one(seed, &cfg, &lanes, true);
        if let Some(d) = divergence {
            let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/fuzz-repro");
            let (ops, sched) =
                write_repro(&dir, &format!("smoke-{seed}"), &case).expect("write reproducer");
            panic!(
                "seed {seed} diverged after shrinking: {d}\nreproducer: {} + {}",
                ops.display(),
                sched.display()
            );
        }
    }
}
