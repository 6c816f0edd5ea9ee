//! Bit-equality property tests between [`SampleKernel`] and the `dyn`
//! sampling path.
//!
//! The monomorphic kernels exist purely as a performance optimisation; the
//! contract (documented on `LifeDistribution::lower_kernel`) is that every
//! lowered kernel reproduces the `dyn` path **bit for bit** — same draws
//! from the same RNG stream, same IEEE-754 result for both unconditional
//! and conditional sampling. These tests drive every variant (including the
//! `Boxed` fallback and nested composites) over random parameters and
//! random 64-bit seeds, asserting `to_bits` equality on paired streams.

use proptest::prelude::*;
use raidsim_dists::{
    CompetingRisks, Degenerate, Exponential, LifeDistribution, Lognormal, Mixture, SampleKernel,
    Weibull3,
};
use rand::SeedableRng;
use std::sync::Arc;

/// Paired-stream check: the kernel and the dyn object each consume an
/// identical, independently-seeded RNG; every sample must match to the bit
/// and both streams must stay in lockstep (same number of draws).
fn assert_bit_identical(dist: &Arc<dyn LifeDistribution>, seed: u64, fracs: &[f64]) {
    // Condition at quantile-derived ages so `cdf(t0) + u * sf(t0)` stays
    // strictly below 1 (the trait default asserts on p == 1.0, which raw
    // tail ages can hit through rounding — on the dyn path and kernel
    // path alike).
    let t0s: Vec<f64> = fracs.iter().map(|&f| dist.quantile(f)).collect();
    let kernel = SampleKernel::lower(dist);
    let mut rng_dyn = rand::rngs::StdRng::seed_from_u64(seed);
    let mut rng_ker = rand::rngs::StdRng::seed_from_u64(seed);
    for i in 0..64 {
        let a = dist.sample(&mut rng_dyn);
        let b = kernel.sample(&mut rng_ker);
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "sample #{i} diverged for {kernel:?}: dyn {a}, kernel {b}"
        );
    }
    for (i, &t0) in t0s.iter().enumerate() {
        let a = dist.sample_conditional(t0, &mut rng_dyn);
        let b = kernel.sample_conditional(t0, &mut rng_ker);
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "conditional sample #{i} at t0 = {t0} diverged for {kernel:?}: dyn {a}, kernel {b}"
        );
    }
    // Lockstep: interleave once more to prove neither path consumed a
    // different number of words from the underlying stream.
    use rand::Rng;
    assert_eq!(
        rng_dyn.next_u64(),
        rng_ker.next_u64(),
        "rng streams fell out of lockstep for {kernel:?}"
    );
}

/// Weibull `(γ, η, β)`: the free shape range almost never lands on a
/// specific value, so the paper's Table 2 shapes are mixed in exactly —
/// β = 1 (latent defects, the unit-shape `powf` skip), 1.12 (TTOp),
/// 2 (TTR) and 3 (TTScrub).
fn weibull_params() -> impl Strategy<Value = (f64, f64, f64)> {
    let beta = prop_oneof![
        Just(1.0f64),
        Just(1.12f64),
        Just(2.0f64),
        Just(3.0f64),
        0.3..5.0f64,
    ];
    (0.0..48.0f64, 1.0..1.0e6f64, beta)
}

fn t0s() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0..0.9f64, 8)
}

/// A distribution with no `lower_kernel` override: exercises the `Boxed`
/// fallback inside composites as well as standalone.
#[derive(Debug)]
struct Shifted(Exponential, f64);

impl LifeDistribution for Shifted {
    fn cdf(&self, t: f64) -> f64 {
        self.0.cdf(t - self.1)
    }
    fn pdf(&self, t: f64) -> f64 {
        self.0.pdf(t - self.1)
    }
    fn quantile(&self, p: f64) -> f64 {
        self.1 + self.0.quantile(p)
    }
    fn mean(&self) -> f64 {
        self.1 + self.0.mean()
    }
}

proptest! {
    #[test]
    fn weibull_kernel_is_bit_identical(
        (g, e, b) in weibull_params(),
        seed in any::<u64>(),
        t0s in t0s(),
    ) {
        let d: Arc<dyn LifeDistribution> = Arc::new(Weibull3::new(g, e, b).unwrap());
        assert_bit_identical(&d, seed, &t0s);
    }

    #[test]
    fn exponential_kernel_is_bit_identical(
        mean in 1.0..1.0e6f64,
        seed in any::<u64>(),
        t0s in t0s(),
    ) {
        let d: Arc<dyn LifeDistribution> = Arc::new(Exponential::from_mean(mean).unwrap());
        assert_bit_identical(&d, seed, &t0s);
    }

    #[test]
    fn lognormal_kernel_is_bit_identical(
        g in 0.0..48.0f64,
        mu in -2.0..12.0f64,
        sigma in 0.05..2.5f64,
        seed in any::<u64>(),
        t0s in t0s(),
    ) {
        let d: Arc<dyn LifeDistribution> = Arc::new(Lognormal::new(g, mu, sigma).unwrap());
        assert_bit_identical(&d, seed, &t0s);
    }

    #[test]
    fn degenerate_kernel_is_bit_identical(
        v in 0.0..1.0e5f64,
        seed in any::<u64>(),
        t0s in t0s(),
    ) {
        let d: Arc<dyn LifeDistribution> = Arc::new(Degenerate::new(v).unwrap());
        assert_bit_identical(&d, seed, &t0s);
    }

    #[test]
    fn mixture_kernel_is_bit_identical(
        (g1, e1, b1) in weibull_params(),
        mean in 1.0..1.0e6f64,
        w in 0.01..0.99f64,
        seed in any::<u64>(),
        t0s in t0s(),
    ) {
        let a = Arc::new(Weibull3::new(g1, e1, b1).unwrap());
        let b = Arc::new(Exponential::from_mean(mean).unwrap());
        let d: Arc<dyn LifeDistribution> =
            Arc::new(Mixture::new(vec![(w, a as _), (1.0 - w, b as _)]).unwrap());
        assert_bit_identical(&d, seed, &t0s);
    }

    #[test]
    fn competing_kernel_is_bit_identical(
        (g1, e1, b1) in weibull_params(),
        (g2, e2, b2) in weibull_params(),
        seed in any::<u64>(),
        t0s in t0s(),
    ) {
        let a = Arc::new(Weibull3::new(g1, e1, b1).unwrap());
        let b = Arc::new(Weibull3::new(g2, e2, b2).unwrap());
        let d: Arc<dyn LifeDistribution> =
            Arc::new(CompetingRisks::new(vec![a as _, b as _]).unwrap());
        assert_bit_identical(&d, seed, &t0s);
    }

    #[test]
    fn boxed_fallback_is_bit_identical(
        mean in 1.0..1.0e6f64,
        shift in 0.0..100.0f64,
        seed in any::<u64>(),
        t0s in t0s(),
    ) {
        let d: Arc<dyn LifeDistribution> =
            Arc::new(Shifted(Exponential::from_mean(mean).unwrap(), shift));
        prop_assert!(matches!(SampleKernel::lower(&d), SampleKernel::Boxed { .. }));
        assert_bit_identical(&d, seed, &t0s);
    }

    #[test]
    fn nested_composites_are_bit_identical(
        (g1, e1, b1) in weibull_params(),
        mean in 1.0..1.0e6f64,
        shift in 0.0..100.0f64,
        w in 0.01..0.99f64,
        seed in any::<u64>(),
        t0s in t0s(),
    ) {
        // Mixture of (competing risks, boxed-fallback) — exercises
        // recursive lowering plus conditional delegation to `source`.
        let wb = Arc::new(Weibull3::new(g1, e1, b1).unwrap());
        let ex = Arc::new(Exponential::from_mean(mean).unwrap());
        let comp = Arc::new(CompetingRisks::new(vec![wb as _, ex as _]).unwrap());
        let odd = Arc::new(Shifted(Exponential::from_mean(mean).unwrap(), shift));
        let d: Arc<dyn LifeDistribution> =
            Arc::new(Mixture::new(vec![(w, comp as _), (1.0 - w, odd as _)]).unwrap());
        assert_bit_identical(&d, seed, &t0s);
    }
}
