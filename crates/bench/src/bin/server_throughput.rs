//! `server_throughput` — serving-layer throughput tiers and manifest.
//!
//! ```text
//! server_throughput                          # measure tiers, print table
//! server_throughput --out BENCH_server.json  # measure + write manifest
//! server_throughput --tiers 1000,10000       # override the session tiers
//! server_throughput --rounds 2 --wmes 2      # ingestion rounds, WMEs per round
//! server_throughput --workers 4              # worker threads
//! server_throughput --resident-budget 65536  # cap resident sessions/worker
//! server_throughput --evict-dir DIR          # where evicted snapshots spill
//! server_throughput --migrate                # greedy rebalance+migrate per round
//! ```
//!
//! Each tier admits N concurrent sessions of the synthetic ticket-triage
//! workload into one `mpps_server::Server`, ingests `--rounds` WME
//! batches of `--wmes` requests into every session (retrying through the
//! bounded-queue backpressure, so the `Overloaded` path is exercised
//! under real load), drains to completion, and records sustained
//! WME-changes/sec plus per-cycle latency percentiles from the merged
//! worker metrics.
//!
//! The manifest (`BENCH_server.json`, a [`mpps_bench::manifest`]
//! document) records every tier together with the commit hash and machine
//! info; it is checked before it is written. CI runs a 1k-session tier,
//! writes the manifest, and checks it again with `repro --check`.

use mpps_bench::manifest::{self, ServerTier};
use mpps_bench::Argv;
use mpps_server::{run_synthetic, ServerConfig, SyntheticSpec};

fn measure(config: ServerConfig, spec: &SyntheticSpec) -> ServerTier {
    let report = run_synthetic(config, spec).unwrap_or_else(|e| {
        eprintln!("server_throughput: tier {} failed: {e}", spec.sessions);
        std::process::exit(1);
    });
    ServerTier {
        sessions: report.sessions as u64,
        replies: report.replies,
        failures: report.failures,
        overloads: report.overloads,
        wme_changes: report.wme_changes,
        changes_per_sec: report.changes_per_sec,
        cycles_per_sec: report.cycles_per_sec,
        elapsed_s: report.elapsed.as_secs_f64(),
        p50_cycle_ns: report.p50_cycle_ns,
        p95_cycle_ns: report.p95_cycle_ns,
        p95_batch_ns: report.p95_batch_ns,
        resident_budget: report.resident_budget.map(|b| b as u64),
        evictions: report.evictions,
        faultins: report.faultins,
        migrations: report.migrations,
    }
}

const USAGE: &str = "usage: server_throughput [--out PATH] [--tiers N,N,...] [--rounds N] \
                     [--wmes N] [--workers N] [--resident-budget N] [--evict-dir DIR] [--migrate]";

fn main() {
    let mut argv = Argv::new(USAGE);
    let mut out: Option<String> = None;
    let mut tiers: Vec<usize> = vec![1_000, 10_000, 100_000];
    let mut rounds = 2u64;
    let mut wmes = 2usize;
    let mut workers = ServerConfig::default().workers;
    let mut resident_budget: Option<usize> = None;
    let mut evict_dir: Option<std::path::PathBuf> = None;
    let mut migrate = false;
    while let Some(arg) = argv.next_arg() {
        match arg.as_str() {
            "--out" => out = Some(argv.value("--out")),
            "--tiers" => tiers = argv.counts("--tiers"),
            "--rounds" => rounds = argv.parse("--rounds", |_| true),
            "--wmes" => wmes = argv.parse("--wmes", |_| true),
            "--workers" => workers = argv.count("--workers"),
            "--resident-budget" => resident_budget = Some(argv.count("--resident-budget")),
            "--evict-dir" => evict_dir = Some(argv.value("--evict-dir").into()),
            "--migrate" => migrate = true,
            other => argv.fail(format!("server_throughput: unknown argument {other}")),
        }
    }
    if tiers.windows(2).any(|w| w[0] >= w[1]) {
        argv.fail("--tiers must grow");
    }

    let config = ServerConfig {
        workers,
        resident_budget,
        evict_dir,
        ..ServerConfig::default()
    };
    let mut records = Vec::with_capacity(tiers.len());
    println!("sessions    changes/s     cycles/s   p50 cycle   p95 cycle   overloads     wall");
    for &sessions in &tiers {
        let spec = SyntheticSpec {
            sessions,
            rounds,
            wmes_per_round: wmes,
            migrate,
        };
        let r = measure(config.clone(), &spec);
        println!(
            "{:>8} {:>12.0} {:>12.0} {:>9}ns {:>9}ns {:>11} {:>7.2}s",
            r.sessions,
            r.changes_per_sec,
            r.cycles_per_sec,
            r.p50_cycle_ns,
            r.p95_cycle_ns,
            r.overloads,
            r.elapsed_s
        );
        if r.evictions > 0 || r.migrations > 0 {
            eprintln!(
                "  tier {}: {} evictions, {} fault-ins, {} migrations (budget {:?})",
                r.sessions, r.evictions, r.faultins, r.migrations, r.resident_budget
            );
        }
        if r.failures > 0 {
            eprintln!(
                "server_throughput: tier {} had {} failed requests",
                r.sessions, r.failures
            );
            std::process::exit(1);
        }
        records.push(r);
    }

    if let Some(path) = out {
        let config = manifest::ServerConfig {
            workers: workers as u64,
            queue_capacity: config.queue_capacity as u64,
            rounds,
            wmes_per_round: wmes as u64,
        };
        let tiers = records;
        let body = manifest::Server { config, tiers };
        manifest::write_or_exit("server_throughput", &path, body);
    }
}
