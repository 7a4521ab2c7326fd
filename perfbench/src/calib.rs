//! Host-speed yardsticks.
//!
//! On a shared virtual machine the same binary's wall times drift by
//! ±30% over tens of seconds as neighbours come and go, and two-thread
//! work can halve in speed while one thread keeps its pace. Wall time
//! alone therefore cannot gate a change. The benchmark times a fixed
//! kernel right before each measured repetition and reports the gated
//! timings as multiples of it. The kernels use no code of this
//! repository, so no change to the library moves them; each exercises
//! what its workloads spend their time on, so it slows down with them.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::mpsc;
use std::time::Instant;

/// A yardstick and its wall time on the reference host (the 2-vCPU
/// machine the benchmark was sized on). `setup_s` is reported in
/// reference seconds: set-up wall time ÷ the yardstick's × `reference_s`.
#[derive(Clone, Copy)]
pub struct Yardstick {
    pub measure: fn() -> f64,
    pub reference_s: f64,
}

/// [`calibrate`] with its reference wall time.
pub const ONE_THREAD: Yardstick = Yardstick {
    measure: calibrate,
    reference_s: 0.05,
};

/// [`calibrate_pair`] with its reference wall time.
pub const TWO_THREADS: Yardstick = Yardstick {
    measure: calibrate_pair,
    reference_s: 0.02,
};

/// Elements the one-thread kernel builds, sorts and folds per pass.
const ELEMENTS: u64 = 50_000;
const PASSES: u32 = 4;
/// Round trips of the two-thread kernel.
const ROUND_TRIPS: u32 = 1_000;

/// One thread allocating, sorting and walking small heap objects, like
/// the sequential matchers and the interpreter (~50 ms on one core of
/// the 2-vCPU host the benchmark was sized on; the working set is a few
/// MB, so it does not raise the workloads' peak RSS). Seconds.
fn calibrate() -> f64 {
    let start = Instant::now();
    let mut x = 0x1234_5678_u64;
    for _ in 0..PASSES {
        let mut items: Vec<(u64, Vec<u64>)> = (0..ELEMENTS)
            .map(|i| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(i | 1);
                (x >> 20, vec![x, x >> 7, x >> 13])
            })
            .collect();
        items.sort_unstable();
        let mut folded = BTreeMap::new();
        for (key, value) in black_box(&items) {
            folded.insert(key % 20_000, value.len());
        }
        black_box(folded.len());
    }
    start.elapsed().as_secs_f64()
}

/// Two threads passing a token back and forth over a channel with a
/// little work on each side, like the threaded executor's coordinator
/// and workers or a serve client and its worker: it follows the cost of
/// cross-thread wake-ups as well as of compute (~20 ms). Seconds.
fn calibrate_pair() -> f64 {
    let start = Instant::now();
    let (to_peer, peer_inbox) = mpsc::channel::<u64>();
    let (to_main, main_inbox) = mpsc::channel::<u64>();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for token in peer_inbox {
                if to_main.send(spin(token)).is_err() {
                    return;
                }
            }
        });
        let mut token = 1;
        for _ in 0..ROUND_TRIPS {
            to_peer.send(token).expect("peer thread is alive");
            token = spin(main_inbox.recv().expect("peer thread answers"));
        }
        black_box(token);
        drop(to_peer);
    });
    start.elapsed().as_secs_f64()
}

/// A few microseconds of arithmetic.
fn spin(mut x: u64) -> u64 {
    for _ in 0..2_000 {
        x = x.rotate_left(5) ^ x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    black_box(x)
}
