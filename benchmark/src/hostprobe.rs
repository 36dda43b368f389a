//! A speed probe for a host whose speed is not its own.
//!
//! On the reference host (a 2-vCPU microVM) other tenants share the
//! physical cores. For tens of seconds at a time they slow the simulator by
//! up to half, and in between the slowdown flickers on and off several
//! times a second; nothing ever speeds it up. Timings taken there measure
//! the neighbours as much as the program, and no statistic over a 15 s run
//! removes a 30 s plateau.
//!
//! So every pass is timed against this probe: a fixed, self-contained
//! kernel with the simulator's instruction mix (a binary heap, a hash map,
//! `log10`/`exp`, scattered loads) that calls nothing in the repo. Bursts
//! of it run between the jobs of a pass, and the pass's wall is divided by
//! `1 + k * (probe's mean slowdown against NOMINAL_S - 1)`, where `k` is
//! the workload's measured sensitivity (`catalogue::Workload`). A change to
//! the repo cannot speed the probe up, so it cannot hide in the
//! correction; a slow neighbour slows both, and mostly cancels. Measured on
//! the reference host: on a plateau the probe slows by 46 %, the 8x8 full
//! stack by 50–53 %, the cache-missing 100k-node ParMesh by about 30 %.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;

/// One probe on the reference host with no neighbour active, seconds. It
/// only fixes the scale: on this host class a corrected second is a quiet
/// second; elsewhere it is the same constant for parent and change.
pub const NOMINAL_S: f64 = 0.0082;

const STEPS: u32 = 100_000;

fn kernel() -> u64 {
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::with_capacity(513);
    for id in 0..512u32 {
        heap.push(Reverse((next() % 100_000, id)));
    }
    let mut table: HashMap<u32, f64> = HashMap::with_capacity(4096);
    let mut cells = vec![0.0f64; 4096];
    let mut wraps = 0u64;
    for _ in 0..STEPS {
        let Reverse((t, id)) = heap.pop().expect("the heap keeps its 512 entries");
        let r = next();
        let x = (r >> 11) as f64 / (1u64 << 53) as f64;
        let loss = 20.0 * (10.0 + 500.0 * x).log10() + (-3.0 * x).exp();
        let slot = (r % 4096) as usize;
        cells[slot] += loss;
        let e = table.entry((r % 2048) as u32).or_insert(0.0);
        *e += cells[(slot * 31) % 4096];
        if *e > 1e6 {
            *e = 0.0;
            wraps += 1;
        }
        heap.push(Reverse((t + 1 + r % 10_000, id)));
    }
    wraps + heap.len() as u64
}

/// Time one probe, seconds.
pub fn sample() -> f64 {
    let t = Instant::now();
    std::hint::black_box(kernel());
    t.elapsed().as_secs_f64()
}

/// Mean slowdown of `samples` against the quiet reference host (1.0 = as
/// fast as it; 1.46 = the neighbours' plateau).
pub fn slowdown(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "a pass without a probe");
    samples.iter().sum::<f64>() / samples.len() as f64 / NOMINAL_S
}

/// The factor by which a workload of the given sensitivity ran slower
/// than on a quiet host while the probe showed `slowdown`.
pub fn factor(slowdown: f64, sensitivity: f64) -> f64 {
    1.0 + sensitivity * (slowdown - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_a_fixed_amount_of_work() {
        assert_eq!(kernel(), kernel());
        assert!(sample() > 0.0);
    }

    #[test]
    fn slowdown_is_the_mean_over_nominal() {
        assert!((slowdown(&[NOMINAL_S, 2.0 * NOMINAL_S]) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn factor_scales_the_excess_only() {
        assert_eq!(factor(1.0, 0.6), 1.0);
        assert!((factor(1.5, 0.6) - 1.3).abs() < 1e-12);
        assert!((factor(1.5, 1.2) - 1.6).abs() < 1e-12);
    }
}
