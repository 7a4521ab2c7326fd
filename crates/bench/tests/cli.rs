//! The bench binaries' command lines: bad flag values are usage errors,
//! and `repro --check` accepts every committed manifest.

use std::process::Command;

/// Each line: the exit status, then a binary and its arguments. Each bad
/// value or removed flag exits 2 with the usage text before measuring
/// anything; `repro --check` passes every committed manifest and fails
/// on a file that is not one.
const RUNS: &str = "
    2 matchkernel --samples 0
    2 matchkernel --samples x
    2 matchkernel --samples
    2 matchkernel --max-regress -1
    2 matchkernel --profile /tmp/x
    2 matchkernel --check-profile x.json
    2 server_throughput --tiers abc
    2 server_throughput --tiers 0
    2 server_throughput --tiers 1000,0
    2 server_throughput --tiers 1000,1000
    2 server_throughput --workers 0
    2 server_throughput --rounds x
    2 server_throughput --resident-budget 0
    2 server_throughput --check BENCH_server.json
    2 repro --jobs 0
    2 repro --check-telemetry x
    2 repro nonesuch
    0 repro --check BENCH_repro.json
    0 repro --check BENCH_matchkernel.json
    0 repro --check BENCH_server.json
    1 repro --check Cargo.toml
";

#[test]
fn bad_flags_are_usage_errors_and_committed_manifests_check() {
    for line in RUNS.lines().map(str::trim).filter(|l| !l.is_empty()) {
        let mut words = line.split(' ');
        let status: i32 = words.next().unwrap().parse().unwrap();
        let bin = match words.next().unwrap() {
            "matchkernel" => env!("CARGO_BIN_EXE_matchkernel"),
            "server_throughput" => env!("CARGO_BIN_EXE_server_throughput"),
            _ => env!("CARGO_BIN_EXE_repro"),
        };
        let out = Command::new(bin)
            .args(words)
            .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(status), "{line}: {out:?}");
        let (stdout, stderr) = (
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
        match status {
            0 => assert!(stdout.contains("manifest ok"), "{line}: {stdout}"),
            2 => assert!(stderr.contains("usage:"), "{line}: {stderr}"),
            _ => {}
        }
    }
}
