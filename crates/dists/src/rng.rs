//! Deterministic RNG stream utilities.
//!
//! The sequential Monte Carlo model runs tens of thousands of independent
//! system histories, often across threads. Reproducibility requires that
//! each history gets its own RNG stream derived deterministically from a
//! master seed — never a shared stream whose consumption order depends on
//! scheduling.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// The RNG used throughout the simulation ([`StdRng`], currently
/// xoshiro256++ — fast, high-quality, and deterministic per seed).
pub type SimRng = StdRng;

/// Derives a child seed from a master seed and a stream index using the
/// SplitMix64 finalizer — a bijective avalanche mix, so distinct
/// `(seed, index)` pairs never collide on the same child seed for a
/// fixed `seed`.
///
/// # Example
///
/// ```
/// use raidsim_dists::rng::{child_seed, stream};
/// use rand::Rng;
///
/// let a = child_seed(42, 0);
/// let b = child_seed(42, 1);
/// assert_ne!(a, b);
/// // Streams for the same pair are identical and independent of the
/// // order in which other streams are consumed.
/// assert_eq!(stream(42, 7).next_u64(), stream(42, 7).next_u64());
/// ```
pub fn child_seed(master: u64, index: u64) -> u64 {
    let mut z = master.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Creates the RNG for stream `index` of master seed `master`.
pub fn stream(master: u64, index: u64) -> SimRng {
    SimRng::seed_from_u64(child_seed(master, index))
}

/// Fills `out` with uniform variates on `[0, 1)`, consuming exactly one
/// RNG word per element in stream order.
///
/// Element `i` is bit-identical to the `i`-th scalar uniform the
/// sampling kernels would have drawn from the same RNG state (the
/// 53-bit `next_u64` conversion), so block-filling a buffer and then
/// transforming it densely leaves both the RNG stream position and the
/// produced floats unchanged relative to the one-at-a-time path. This
/// is the foundation of the block-draw bit-identity contract (DESIGN.md
/// §18).
pub fn fill_uniforms<R: rand::Rng + ?Sized>(rng: &mut R, out: &mut [f64]) {
    for u in out.iter_mut() {
        *u = crate::rng_f64(rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn child_seeds_are_distinct_for_distinct_indices() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(child_seed(123, i)), "collision at index {i}");
        }
    }

    #[test]
    fn child_seeds_differ_across_masters() {
        assert_ne!(child_seed(1, 0), child_seed(2, 0));
    }

    #[test]
    fn streams_are_reproducible() {
        let mut a = stream(99, 5);
        let mut b = stream(99, 5);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn streams_with_different_indices_diverge_immediately() {
        let mut a = stream(99, 5);
        let mut b = stream(99, 6);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn fill_uniforms_matches_scalar_draws_word_for_word() {
        let mut block = stream(4, 2);
        let mut scalar = stream(4, 2);
        let mut buf = [0.0f64; 64];
        fill_uniforms(&mut block, &mut buf);
        for (i, &u) in buf.iter().enumerate() {
            assert_eq!(
                u.to_bits(),
                crate::rng_f64(&mut scalar).to_bits(),
                "element {i} diverged from the scalar conversion"
            );
        }
        // Both streams must sit at the same position afterwards.
        assert_eq!(block.next_u64(), scalar.next_u64());
    }

    #[test]
    fn adjacent_indices_have_uncorrelated_low_bits() {
        // Crude avalanche check: popcount of XOR of adjacent child seeds
        // should hover around 32.
        let mut total = 0u32;
        let n = 1000u64;
        for i in 0..n {
            total += (child_seed(7, i) ^ child_seed(7, i + 1)).count_ones();
        }
        let avg = total as f64 / n as f64;
        assert!((avg - 32.0).abs() < 2.0, "avg popcount = {avg}");
    }
}
