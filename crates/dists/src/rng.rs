//! Deterministic RNG stream utilities.
//!
//! The sequential Monte Carlo model runs tens of thousands of independent
//! system histories, often across threads. Reproducibility requires that
//! each history gets its own RNG stream derived deterministically from a
//! master seed — never a shared stream whose consumption order depends on
//! scheduling.
//!
//! The sampling kernels read a stream through a [`WordSource`]: the
//! stream itself, or a [`Lookahead`] that reads it a block at a time.

use crate::weibull::exp1_from_grid;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
/// 53-bit `next_u64` conversion).
pub fn fill_uniforms<R: Rng + ?Sized>(rng: &mut R, out: &mut [f64]) {
    for u in out.iter_mut() {
        *u = crate::rng_f64(rng);
    }
}

/// Where the sampling kernels take their RNG words from.
///
/// A draw reads the next word either raw (through [`Rng`], for the
/// warped tilt/forced variates, lognormal quantiles and mixture
/// selectors) or as the `Exp(1)` image `E = −ln(1 − u)` of its grid
/// uniform (every Weibull and exponential grid draw). Both read the
/// same next word of one stream, strictly in order, so every
/// implementation yields the same draws from the same stream.
///
/// Implemented by [`SimRng`] itself, which converts on demand, and by
/// [`Lookahead`], which converts a block of words at a time.
pub trait WordSource: Rng {
    /// `−ln(1 − u)` of the next word's grid uniform `u`, consuming that
    /// word.
    #[inline]
    fn next_exp1(&mut self) -> f64 {
        exp1_from_grid(crate::rng_f64(self))
    }
}

impl WordSource for SimRng {}

/// Words a [`Lookahead`] reads from its stream per refill.
pub const LOOKAHEAD_WORDS: usize = 8;

/// A fixed-size read-ahead buffer over one group's stream.
///
/// Each refill reads the next [`LOOKAHEAD_WORDS`] words and computes
/// their `Exp(1)` images in one dense loop, off the dependency chain of
/// the draws that consume them. Words are then served strictly in
/// stream order, each either raw or as its precomputed `E`, with the
/// same arithmetic [`SimRng`]'s [`WordSource::next_exp1`] uses, so
/// every draw is bit-identical to drawing straight from the stream.
///
/// The price is read-ahead: a refill may read up to
/// `LOOKAHEAD_WORDS − 1` words past the last one a draw consumes, so
/// the underlying stream ends up further along than a direct reader
/// would leave it. Callers use one fresh stream per group and discard
/// it afterwards; [`Lookahead::words_filled`] and
/// [`Lookahead::words_used`] measure the waste. The buffers are inline
/// arrays, so a lookahead never allocates.
#[derive(Debug)]
pub struct Lookahead<'a> {
    rng: &'a mut SimRng,
    words: [u64; LOOKAHEAD_WORDS],
    exp1: [f64; LOOKAHEAD_WORDS],
    /// Index of the next unserved word; `LOOKAHEAD_WORDS` when empty.
    next: usize,
    refills: u64,
}

impl<'a> Lookahead<'a> {
    /// An empty lookahead over `rng`; the first draw fills it.
    pub fn new(rng: &'a mut SimRng) -> Self {
        Lookahead {
            rng,
            words: [0; LOOKAHEAD_WORDS],
            exp1: [0.0; LOOKAHEAD_WORDS],
            next: LOOKAHEAD_WORDS,
            refills: 0,
        }
    }

    /// Words read from the stream so far.
    pub fn words_filled(&self) -> u64 {
        self.refills * LOOKAHEAD_WORDS as u64
    }

    /// Words served to draws so far.
    pub fn words_used(&self) -> u64 {
        self.words_filled() - (LOOKAHEAD_WORDS - self.next) as u64
    }

    #[inline(never)]
    fn refill(&mut self) {
        for w in &mut self.words {
            *w = self.rng.next_u64();
        }
        for (e, &w) in self.exp1.iter_mut().zip(&self.words) {
            *e = exp1_from_grid(crate::grid_uniform(w));
        }
        self.refills += 1;
    }

    /// Index of the next word to serve, refilling when empty.
    #[inline]
    fn take(&mut self) -> usize {
        let i = if self.next < LOOKAHEAD_WORDS {
            self.next
        } else {
            self.refill();
            0
        };
        self.next = i + 1;
        i
    }
}

impl Rng for Lookahead<'_> {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let i = self.take();
        self.words[i]
    }
}

impl WordSource for Lookahead<'_> {
    #[inline]
    fn next_exp1(&mut self) -> f64 {
        let i = self.take();
        self.exp1[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn lookahead_serves_the_stream_in_order_and_counts_its_read_ahead() {
        let mut direct = stream(4, 3);
        let mut rng = stream(4, 3);
        let mut la = Lookahead::new(&mut rng);
        assert_eq!((la.words_filled(), la.words_used()), (0, 0));
        for i in 0..3 * LOOKAHEAD_WORDS + 5 {
            if i % 3 == 0 {
                assert_eq!(la.next_exp1().to_bits(), direct.next_exp1().to_bits());
            } else {
                assert_eq!(la.next_u64(), direct.next_u64());
            }
        }
        assert_eq!(la.words_used(), 3 * LOOKAHEAD_WORDS as u64 + 5);
        assert_eq!(la.words_filled(), 4 * LOOKAHEAD_WORDS as u64);
        // The underlying stream sits at the end of the last refill.
        for _ in 5..LOOKAHEAD_WORDS {
            direct.next_u64();
        }
        assert_eq!(rng.next_u64(), direct.next_u64());
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
