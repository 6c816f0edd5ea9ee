//! Host-speed calibration. The shared host runs the same code up to
//! 40 % slower in some periods than in others, and a slower period slows
//! every round of a run alike. A fixed compute kernel that lives in this
//! crate, and so does not change when `raidsim` does, is timed next to
//! every round, on as many threads as the workload runs; dividing a
//! round's time by the kernel's slowdown against its time on the
//! reference host ([`nominal_s`]) gives the time the round would have
//! taken at the reference speed.

use std::hint::black_box;
use std::time::Instant;

/// Steps of one calibration pass on each thread.
const STEPS: u32 = 32_768;

/// Wall seconds of one pass on `threads` threads on the reference host
/// (shared 2-vCPU Xeon, median over a typical hour). Only the scale of
/// the reported values depends on it.
pub fn nominal_s(threads: usize) -> f64 {
    if threads <= 1 {
        1.15e-3
    } else {
        1.40e-3
    }
}

/// One thread's share of a pass: [`STEPS`] xorshift64* words, each
/// turned into a Weibull-shaped variate by inversion, the arithmetic a
/// simulated draw does.
fn steps(seed: u64) -> f64 {
    let mut x = seed | 1;
    let mut acc = 0.0;
    for _ in 0..STEPS {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        let w = x.wrapping_mul(0x2545_f491_4f6c_dd1d);
        let u = ((w >> 11) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64);
        acc += 461_386.0 * ((-u.ln()).ln() / 1.12).exp();
    }
    acc
}

/// Wall seconds of one pass on `threads` threads at once: the speed the
/// host gives a workload with that many threads right now.
pub fn pass(threads: usize) -> f64 {
    let t0 = Instant::now();
    if threads <= 1 {
        black_box(steps(black_box(0x9e37_79b9)));
    } else {
        std::thread::scope(|s| {
            for t in 0..threads as u64 {
                s.spawn(move || black_box(steps(black_box(0x9e37_79b9 + t))));
            }
        });
    }
    t0.elapsed().as_secs_f64()
}

/// The host's slowdown against the reference speed, from the time of a
/// pass on `threads` threads.
pub fn slowdown(pass_s: f64, threads: usize) -> f64 {
    pass_s / nominal_s(threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_is_positive_and_finite() {
        for threads in [1, 2] {
            let s = pass(threads);
            assert!(s.is_finite() && s > 0.0);
        }
    }

    #[test]
    fn slowdown_is_relative_to_nominal() {
        for threads in [1, 2] {
            assert_eq!(slowdown(nominal_s(threads), threads), 1.0);
            assert_eq!(slowdown(2.0 * nominal_s(threads), threads), 2.0);
        }
    }
}
