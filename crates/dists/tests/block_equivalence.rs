//! Bit-equality property tests between the block-draw kernels and the
//! scalar sampling loops they replace.
//!
//! The contract (documented on `SampleKernel` and in DESIGN.md §18) is
//! that under [`MathMode::Exact`] every `*_block` method consumes
//! exactly the same RNG words and produces bit-identical `f64`s as the
//! corresponding scalar method called once per element — for **every**
//! kernel variant, including the composite and boxed fallbacks and the
//! tilted/forced importance-sampling draws (whose accumulated
//! log-weights must also match to the bit, which pins the summation
//! order). [`MathMode::Fast`] is exercised separately with an explicit
//! tolerance: per-draw relative error below `1e-12` against the exact
//! path, with the `powf`-specializable shapes (`1/β ∈ {0.5, 2}`) and
//! the unit shape both modes share (`1/β = 1`) covered deliberately.

use proptest::prelude::*;
use raidsim_dists::kernel::{Forcing, MathMode, Tilt};
use raidsim_dists::{
    CompetingRisks, Degenerate, Exponential, LifeDistribution, Lognormal, Mixture, SampleKernel,
    Weibull3,
};
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const BLOCK: usize = 48;

/// Runs every block method against its scalar loop on paired streams,
/// asserting bit-equality of draws and log-weights plus final RNG
/// lockstep.
fn assert_block_bit_identical(dist: &Arc<dyn LifeDistribution>, seed: u64, fracs: &[f64]) {
    let kernel = SampleKernel::lower(dist);
    let t0s: Vec<f64> = fracs.iter().map(|&f| dist.quantile(f)).collect();
    let tilt = Tilt::new(0.35).unwrap();
    let forcing = Forcing::new(0.3).unwrap();
    let mut rng_scalar = rand::rngs::StdRng::seed_from_u64(seed);
    let mut rng_block = rand::rngs::StdRng::seed_from_u64(seed);
    let mut block = [0.0f64; BLOCK];
    let check = |label: &str, scalar: &[f64], block: &[f64]| {
        for (i, (a, b)) in scalar.iter().zip(block).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{label} #{i} diverged for {kernel:?}: scalar {a}, block {b}"
            );
        }
    };

    // Unconditional.
    let scalar: Vec<f64> = (0..BLOCK).map(|_| kernel.sample(&mut rng_scalar)).collect();
    kernel.sample_block(MathMode::Exact, &mut rng_block, &mut block);
    check("sample", &scalar, &block);

    // Conditional, at several survival ages.
    for &t0 in &t0s {
        let scalar: Vec<f64> = (0..BLOCK)
            .map(|_| kernel.sample_conditional(t0, &mut rng_scalar))
            .collect();
        kernel.sample_conditional_block(MathMode::Exact, t0, &mut rng_block, &mut block);
        check("sample_conditional", &scalar, &block);
    }

    // Tilted: draws and the accumulated log-weight must both match.
    let mut lw_scalar = 0.25f64;
    let mut lw_block = 0.25f64;
    let scalar: Vec<f64> = (0..BLOCK)
        .map(|_| kernel.sample_tilted(tilt, &mut lw_scalar, &mut rng_scalar))
        .collect();
    kernel.sample_tilted_block(
        MathMode::Exact,
        tilt,
        &mut lw_block,
        &mut rng_block,
        &mut block,
    );
    check("sample_tilted", &scalar, &block);
    assert_eq!(
        lw_scalar.to_bits(),
        lw_block.to_bits(),
        "tilted log-weight diverged for {kernel:?}: scalar {lw_scalar}, block {lw_block}"
    );

    // Conditional tilted.
    for &t0 in &t0s {
        let scalar: Vec<f64> = (0..BLOCK)
            .map(|_| kernel.sample_conditional_tilted(t0, tilt, &mut lw_scalar, &mut rng_scalar))
            .collect();
        kernel.sample_conditional_tilted_block(
            MathMode::Exact,
            t0,
            tilt,
            &mut lw_block,
            &mut rng_block,
            &mut block,
        );
        check("sample_conditional_tilted", &scalar, &block);
        assert_eq!(lw_scalar.to_bits(), lw_block.to_bits());
    }

    // Forced conditional, windows derived from the distribution scale.
    let window = (dist.quantile(0.6) - dist.quantile(0.2)).max(1.0);
    for &t0 in &t0s {
        let scalar: Vec<f64> = (0..BLOCK)
            .map(|_| {
                kernel.sample_conditional_forced(
                    t0,
                    window,
                    forcing,
                    &mut lw_scalar,
                    &mut rng_scalar,
                )
            })
            .collect();
        kernel.sample_conditional_forced_block(
            MathMode::Exact,
            t0,
            window,
            forcing,
            &mut lw_block,
            &mut rng_block,
            &mut block,
        );
        check("sample_conditional_forced", &scalar, &block);
        assert_eq!(lw_scalar.to_bits(), lw_block.to_bits());
    }

    // Lockstep: both streams must have consumed the same word count.
    assert_eq!(
        rng_scalar.next_u64(),
        rng_block.next_u64(),
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

fn t0_fracs() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0..0.9f64, 4)
}

/// A distribution with no `lower_kernel` override: exercises the
/// `Boxed` scalar fallback inside every block method.
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
    fn weibull_blocks_are_bit_identical(
        (g, e, b) in weibull_params(),
        seed in any::<u64>(),
        fracs in t0_fracs(),
    ) {
        let d: Arc<dyn LifeDistribution> = Arc::new(Weibull3::new(g, e, b).unwrap());
        assert_block_bit_identical(&d, seed, &fracs);
    }

    #[test]
    fn exponential_blocks_are_bit_identical(
        mean in 1.0..1.0e6f64,
        seed in any::<u64>(),
        fracs in t0_fracs(),
    ) {
        let d: Arc<dyn LifeDistribution> = Arc::new(Exponential::from_mean(mean).unwrap());
        assert_block_bit_identical(&d, seed, &fracs);
    }

    #[test]
    fn lognormal_blocks_are_bit_identical(
        g in 0.0..48.0f64,
        mu in -2.0..12.0f64,
        sigma in 0.05..2.5f64,
        seed in any::<u64>(),
        fracs in t0_fracs(),
    ) {
        let d: Arc<dyn LifeDistribution> = Arc::new(Lognormal::new(g, mu, sigma).unwrap());
        assert_block_bit_identical(&d, seed, &fracs);
    }

    #[test]
    fn degenerate_blocks_are_bit_identical(
        v in 0.0..1.0e5f64,
        seed in any::<u64>(),
    ) {
        let d: Arc<dyn LifeDistribution> = Arc::new(Degenerate::new(v).unwrap());
        // Degenerate has no interior quantiles; condition at the point
        // of support and below.
        let kernel = SampleKernel::lower(&d);
        prop_assert_eq!(kernel.words_per_sample(), Some(0));
        assert_block_bit_identical(&d, seed, &[]);
    }

    #[test]
    fn mixture_blocks_are_bit_identical(
        (g1, e1, b1) in weibull_params(),
        mean in 1.0..1.0e6f64,
        w in 0.01..0.99f64,
        seed in any::<u64>(),
        fracs in t0_fracs(),
    ) {
        let a = Arc::new(Weibull3::new(g1, e1, b1).unwrap());
        let b = Arc::new(Exponential::from_mean(mean).unwrap());
        let d: Arc<dyn LifeDistribution> =
            Arc::new(Mixture::new(vec![(w, a as _), (1.0 - w, b as _)]).unwrap());
        prop_assert_eq!(SampleKernel::lower(&d).words_per_sample(), None);
        assert_block_bit_identical(&d, seed, &fracs);
    }

    #[test]
    fn competing_blocks_are_bit_identical(
        (g1, e1, b1) in weibull_params(),
        (g2, e2, b2) in weibull_params(),
        seed in any::<u64>(),
        fracs in t0_fracs(),
    ) {
        let a = Arc::new(Weibull3::new(g1, e1, b1).unwrap());
        let b = Arc::new(Weibull3::new(g2, e2, b2).unwrap());
        let d: Arc<dyn LifeDistribution> =
            Arc::new(CompetingRisks::new(vec![a as _, b as _]).unwrap());
        assert_block_bit_identical(&d, seed, &fracs);
    }

    #[test]
    fn boxed_blocks_are_bit_identical(
        mean in 1.0..1.0e6f64,
        shift in 0.0..100.0f64,
        seed in any::<u64>(),
        fracs in t0_fracs(),
    ) {
        let d: Arc<dyn LifeDistribution> =
            Arc::new(Shifted(Exponential::from_mean(mean).unwrap(), shift));
        prop_assert!(matches!(SampleKernel::lower(&d), SampleKernel::Boxed { .. }));
        assert_block_bit_identical(&d, seed, &fracs);
    }

    /// Fast math may reorder float ops but must stay within the
    /// documented per-draw tolerance of the exact path — and must
    /// consume exactly the same RNG words.
    #[test]
    fn fast_math_blocks_stay_within_tolerance(
        // β ∈ {0.5, 2} hit the fast-only powf exponents 2 and 0.5,
        // β = 1 the unit-exponent identity shared with exact mode; the
        // free range covers the generic fallback.
        beta in prop_oneof![Just(0.5f64), Just(1.0f64), Just(2.0f64), 0.3..5.0f64],
        eta in 1.0..1.0e6f64,
        gamma in 0.0..48.0f64,
        seed in any::<u64>(),
    ) {
        let d: Arc<dyn LifeDistribution> = Arc::new(Weibull3::new(gamma, eta, beta).unwrap());
        let kernel = SampleKernel::lower(&d);
        let mut rng_exact = rand::rngs::StdRng::seed_from_u64(seed);
        let mut rng_fast = rand::rngs::StdRng::seed_from_u64(seed);
        let mut exact = [0.0f64; BLOCK];
        let mut fast = [0.0f64; BLOCK];
        kernel.sample_block(MathMode::Exact, &mut rng_exact, &mut exact);
        kernel.sample_block(MathMode::Fast, &mut rng_fast, &mut fast);
        for (i, (a, b)) in exact.iter().zip(&fast).enumerate() {
            let denom = a.abs().max(1e-300);
            let rel = (a - b).abs() / denom;
            prop_assert!(
                rel < 1e-12,
                "draw #{} rel error {} exceeds fast-math tolerance (exact {}, fast {})",
                i, rel, a, b
            );
        }
        prop_assert_eq!(rng_exact.next_u64(), rng_fast.next_u64());
    }

    /// The unit exponent is *exactly* equal under fast math: both modes
    /// take the exact arm's `powf(x, 1.0) == x` identity, so β = 1
    /// draws cannot drift between them (sqrt/square stay within the
    /// tolerance above).
    #[test]
    fn fast_math_identity_exponent_is_bit_identical(
        eta in 1.0..1.0e6f64,
        gamma in 0.0..48.0f64,
        seed in any::<u64>(),
    ) {
        // β = 1: inv_beta = 1.0; fast mode falls through to the exact
        // arm, which returns x unchanged — bit-identical.
        let d: Arc<dyn LifeDistribution> = Arc::new(Weibull3::new(gamma, eta, 1.0).unwrap());
        let kernel = SampleKernel::lower(&d);
        let mut rng_exact = rand::rngs::StdRng::seed_from_u64(seed);
        let mut rng_fast = rand::rngs::StdRng::seed_from_u64(seed);
        let mut exact = [0.0f64; BLOCK];
        let mut fast = [0.0f64; BLOCK];
        kernel.sample_block(MathMode::Exact, &mut rng_exact, &mut exact);
        kernel.sample_block(MathMode::Fast, &mut rng_fast, &mut fast);
        for (a, b) in exact.iter().zip(&fast) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
