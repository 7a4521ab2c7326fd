//! Thread placement.
//!
//! A serve request crosses from the client thread to the server's worker
//! and back. On a 2-vCPU guest the cost of those wake-ups depends on
//! whether the scheduler puts the two threads on one CPU or on two, and
//! that choice flips between runs. The serve workload therefore pins the
//! worker to one CPU and the client to another, so every run measures
//! the same placement. The pin is inherited: the server's worker thread
//! takes the mask of the thread that spawned it. The sequential cycle
//! workloads pin their one thread, so a run and the calibration timed
//! before it share a CPU.

/// Words of a `cpu_set_t` (1024 CPUs).
const SET_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on, in ascending order; empty if
/// the kernel does not say.
pub fn allowed() -> Vec<usize> {
    let mut mask = [0u64; SET_WORDS];
    // SAFETY: `mask` is a writable buffer of the size passed; pid 0 is the
    // calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..SET_WORDS * 64)
        .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Restrict the calling thread, and the threads it spawns from now on,
/// to `cpu`. Returns whether the kernel accepted it.
pub fn pin(cpu: usize) -> bool {
    let mut mask = [0u64; SET_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of the size passed; pid 0 is the
    // calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}
