//! Host probes recorded beside each run's metrics. They are not gated and
//! nothing is normalised by them: they let a reader tell a slower host
//! from a slower program.

use std::hint::black_box;
use std::time::Instant;

/// Milliseconds for a fixed dependent chain of integer and float ops.
pub fn alu_ms() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut y = 1.0f64;
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        y = y.mul_add(1.000_000_1, (x & 0xff) as f64 * 1e-12);
    }
    black_box((x, y));
    start.elapsed().as_secs_f64() * 1e3
}

/// Entries of the memory probe's chase buffer (64 MiB of `u64`).
const CHASE_ENTRIES: usize = 8 << 20;
/// Dependent loads the memory probe times.
const CHASE_HOPS: usize = 2_000_000;

/// Milliseconds for a fixed number of dependent loads chasing a random
/// single-cycle permutation through a 64 MiB buffer.
pub fn memory_ms() -> f64 {
    // Sattolo's shuffle yields one cycle through every entry; untimed.
    let mut next: Vec<u64> = (0..CHASE_ENTRIES as u64).collect();
    let mut state: u64 = 0x2545_f491_4f6c_dd1d;
    for i in (1..CHASE_ENTRIES).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let j = (state % i as u64) as usize;
        next.swap(i, j);
    }
    let start = Instant::now();
    let mut at = 0usize;
    for _ in 0..CHASE_HOPS {
        at = next[at] as usize;
    }
    black_box(at);
    start.elapsed().as_secs_f64() * 1e3
}

/// `std::thread::available_parallelism`, or 0 when unknown.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(0, usize::from)
}
