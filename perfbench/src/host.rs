//! The host's speed, measured with a fixed reference kernel.
//!
//! The benchmark runs on shared virtual machines whose CPUs slow down and
//! recover, on their own and together, over seconds and minutes; at their
//! slowest they take 1.7 times as long for the same work. A timing of the program alone measures that as much as the
//! program. The reference kernel does a fixed amount of the same kind of
//! work (hashing, allocation, pointer chasing, sorting), so its wall time
//! slows with the host and never with the program; timings divided by it
//! and multiplied by [`REF_KERNEL_MS`] are the program's on a host of the
//! reference speed.

use crate::common::affinity;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Wall milliseconds of one kernel run on the reference host (2-vCPU
/// Intel Xeon virtual machine, at its fastest).
pub const REF_KERNEL_MS: f64 = 2.5;

/// Kernel runs per CPU in one measurement.
const RUNS: usize = 8;

/// Wall milliseconds of one run of the reference kernel.
pub fn kernel_ms() -> f64 {
    let t = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map: HashMap<u64, Vec<u64>> = HashMap::new();
    for _ in 0..20_000 {
        let k = next() % 8_192;
        map.entry(k).or_default().push(k);
    }
    let mut hits = 0u64;
    for _ in 0..40_000 {
        hits += map.get(&(next() % 16_384)).map_or(0, |v| v.len() as u64);
    }
    let mut names: Vec<String> = (0..4_000)
        .map(|_| format!("t{}", next() % 100_000))
        .collect();
    names.sort();
    black_box((hits, names));
    t.elapsed().as_secs_f64() * 1e3
}

/// The kernel's fastest wall milliseconds over [`RUNS`] runs on each of
/// `cpus` in turn: the host's best speed at this moment, as the fastest
/// step over the repetitions is the program's best. The calling thread's
/// CPU set is `allowed` again afterwards.
pub fn kernel_ms_now(cpus: &[usize], allowed: Option<&affinity::Mask>) -> f64 {
    let fastest = || (0..RUNS).map(|_| kernel_ms()).fold(f64::INFINITY, f64::min);
    let mut ms = cpus
        .iter()
        .filter(|&&cpu| affinity::set(&affinity::only(cpu)))
        .map(|_| fastest())
        .fold(f64::INFINITY, f64::min);
    if let Some(m) = allowed {
        affinity::set(m);
    }
    if !ms.is_finite() {
        ms = fastest();
    }
    ms
}
