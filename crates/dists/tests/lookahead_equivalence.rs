//! Bit-equality property tests between draws served by a
//! [`Lookahead`] and the same draws taken straight from the RNG.
//!
//! The contract (documented on `Lookahead` and in DESIGN.md §18) is
//! that a lookahead serves the words of one stream strictly in order,
//! each either raw or as its precomputed `Exp(1)` image, so any
//! sequence of draws — any kernel variant, any draw form, in any
//! interleaving — produces bit-identical values and log-weights to the
//! same sequence drawn from [`SimRng`], and leaves the two streams in
//! lockstep. The tests drive random interleavings of draw forms
//! (plain, conditional, tilted, conditional-tilted, forced) through
//! every variant: Weibull with the paper's shapes and the
//! rewrite-prone β ∈ {0.5, 1, 2} mixed in exactly, exponential,
//! lognormal, degenerate, mixture, competing risks and the boxed
//! fallback. Sequences are long enough to cross several refills.

use proptest::prelude::*;
use raidsim_dists::kernel::{Forcing, Tilt};
use raidsim_dists::rng::{stream, Lookahead, SimRng, WordSource, LOOKAHEAD_WORDS};
use raidsim_dists::{
    CompetingRisks, Degenerate, Exponential, LifeDistribution, Lognormal, Mixture, SampleKernel,
    Weibull3,
};
use rand::Rng;
use std::sync::Arc;

/// One kernel with the conditioning ages and forcing window its
/// conditional draw forms use.
struct Case {
    kernel: SampleKernel,
    ages: Vec<f64>,
    window: f64,
}

impl Case {
    /// Ages at the quantiles `fracs`, so `F(t0) + u·S(t0)` stays below 1
    /// on the trait-default conditional paths; the window spans the
    /// distribution's body.
    fn new(dist: &Arc<dyn LifeDistribution>, fracs: &[f64]) -> Self {
        Case {
            kernel: SampleKernel::lower(dist),
            ages: fracs.iter().map(|&f| dist.quantile(f)).collect(),
            window: (dist.quantile(0.6) - dist.quantile(0.2)).max(1.0),
        }
    }
}

/// One draw: `(case index, draw form, age index)`, each reduced modulo
/// what it indexes.
type Step = (usize, usize, usize);

/// Draws once from `case` in draw form `form` (plain, conditional,
/// tilted, conditional-tilted or forced).
fn draw<W: WordSource>(case: &Case, form: usize, age: usize, lw: &mut f64, rng: &mut W) -> f64 {
    let tilt = Tilt::new(0.35).unwrap();
    let forcing = Forcing::new(0.3).unwrap();
    let t0 = case
        .ages
        .get(age % case.ages.len().max(1))
        .copied()
        .unwrap_or(0.0);
    let k = &case.kernel;
    match form % 5 {
        0 => k.sample(rng),
        1 => k.sample_conditional(t0, rng),
        2 => k.sample_tilted(tilt, lw, rng),
        3 => k.sample_conditional_tilted(t0, tilt, lw, rng),
        _ => k.sample_conditional_forced(t0, case.window, forcing, lw, rng),
    }
}

/// Runs `steps` through a lookahead and straight from the RNG on the
/// same stream, asserting bit-equal draws and log-weights after every
/// step and lockstep streams at the end.
fn assert_lookahead_matches_direct(cases: &[Case], seed: u64, steps: &[Step]) {
    let mut direct: SimRng = stream(seed, 0);
    let mut rng = stream(seed, 0);
    let mut words = Lookahead::new(&mut rng);
    let (mut lw_direct, mut lw_words) = (0.25f64, 0.25f64);
    for (i, &(c, form, age)) in steps.iter().enumerate() {
        let case = &cases[c % cases.len()];
        let want = draw(case, form, age, &mut lw_direct, &mut direct);
        let got = draw(case, form, age, &mut lw_words, &mut words);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "step {i} (form {}) diverged for {:?}: lookahead {got}, direct {want}",
            form % 5,
            case.kernel
        );
        assert_eq!(
            lw_words.to_bits(),
            lw_direct.to_bits(),
            "log-weight diverged at step {i} for {:?}",
            case.kernel
        );
    }
    assert_eq!(
        words.next_u64(),
        direct.next_u64(),
        "the lookahead fell out of lockstep with the stream"
    );
}

/// Enough draws to cross several refills even when every draw takes
/// a single word.
fn steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        (0usize..64, 0usize..5, 0usize..4),
        3 * LOOKAHEAD_WORDS..8 * LOOKAHEAD_WORDS,
    )
}

/// Weibull `(γ, η, β)`: the free shape range almost never lands on a
/// specific value, so the shapes with special handling are mixed in
/// exactly — β = 1 (the unit-shape root), 1.12, 2 and 3 (the paper's
/// Table 2 shapes) and 0.5.
fn weibull_params() -> impl Strategy<Value = (f64, f64, f64)> {
    let beta = prop_oneof![
        Just(0.5f64),
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
/// `Boxed` fallback, which reads the lookahead through `&mut dyn Rng`.
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

fn one(dist: Arc<dyn LifeDistribution>, fracs: &[f64]) -> Vec<Case> {
    vec![Case::new(&dist, fracs)]
}

proptest! {
    #[test]
    fn weibull_draws_through_the_lookahead_are_bit_identical(
        (g, e, b) in weibull_params(),
        seed in any::<u64>(),
        fracs in t0_fracs(),
        steps in steps(),
    ) {
        let cases = one(Arc::new(Weibull3::new(g, e, b).unwrap()), &fracs);
        assert_lookahead_matches_direct(&cases, seed, &steps);
    }

    #[test]
    fn exponential_draws_through_the_lookahead_are_bit_identical(
        mean in 1.0..1.0e6f64,
        seed in any::<u64>(),
        fracs in t0_fracs(),
        steps in steps(),
    ) {
        let cases = one(Arc::new(Exponential::from_mean(mean).unwrap()), &fracs);
        assert_lookahead_matches_direct(&cases, seed, &steps);
    }

    #[test]
    fn lognormal_draws_through_the_lookahead_are_bit_identical(
        g in 0.0..48.0f64,
        mu in -2.0..12.0f64,
        sigma in 0.05..2.5f64,
        seed in any::<u64>(),
        fracs in t0_fracs(),
        steps in steps(),
    ) {
        let cases = one(Arc::new(Lognormal::new(g, mu, sigma).unwrap()), &fracs);
        assert_lookahead_matches_direct(&cases, seed, &steps);
    }

    #[test]
    fn degenerate_draws_through_the_lookahead_are_bit_identical(
        v in 0.0..1.0e5f64,
        seed in any::<u64>(),
        steps in steps(),
    ) {
        // No interior quantiles: condition below, at and past the point
        // of support.
        let d: Arc<dyn LifeDistribution> = Arc::new(Degenerate::new(v).unwrap());
        let cases = vec![Case {
            kernel: SampleKernel::lower(&d),
            ages: vec![0.0, 0.5 * v, v, 2.0 * v + 1.0],
            window: 1.0,
        }];
        assert_lookahead_matches_direct(&cases, seed, &steps);
    }

    #[test]
    fn mixture_draws_through_the_lookahead_are_bit_identical(
        (g1, e1, b1) in weibull_params(),
        mean in 1.0..1.0e6f64,
        w in 0.01..0.99f64,
        seed in any::<u64>(),
        fracs in t0_fracs(),
        steps in steps(),
    ) {
        let a = Arc::new(Weibull3::new(g1, e1, b1).unwrap());
        let b = Arc::new(Exponential::from_mean(mean).unwrap());
        let d: Arc<dyn LifeDistribution> =
            Arc::new(Mixture::new(vec![(w, a as _), (1.0 - w, b as _)]).unwrap());
        assert_lookahead_matches_direct(&one(d, &fracs), seed, &steps);
    }

    #[test]
    fn competing_draws_through_the_lookahead_are_bit_identical(
        (g1, e1, b1) in weibull_params(),
        (g2, e2, b2) in weibull_params(),
        seed in any::<u64>(),
        fracs in t0_fracs(),
        steps in steps(),
    ) {
        let a = Arc::new(Weibull3::new(g1, e1, b1).unwrap());
        let b = Arc::new(Weibull3::new(g2, e2, b2).unwrap());
        let d: Arc<dyn LifeDistribution> =
            Arc::new(CompetingRisks::new(vec![a as _, b as _]).unwrap());
        assert_lookahead_matches_direct(&one(d, &fracs), seed, &steps);
    }

    #[test]
    fn boxed_draws_through_the_lookahead_are_bit_identical(
        mean in 1.0..1.0e6f64,
        shift in 0.0..100.0f64,
        seed in any::<u64>(),
        fracs in t0_fracs(),
        steps in steps(),
    ) {
        let d: Arc<dyn LifeDistribution> =
            Arc::new(Shifted(Exponential::from_mean(mean).unwrap(), shift));
        prop_assert!(matches!(SampleKernel::lower(&d), SampleKernel::Boxed { .. }));
        assert_lookahead_matches_direct(&one(d, &fracs), seed, &steps);
    }

    /// Every variant in one stream: grid draws (which take a
    /// precomputed `E`), raw-word draws and word-free draws interleave
    /// at random, so each word is served in every role next to every
    /// other.
    #[test]
    fn random_interleavings_of_every_kernel_are_bit_identical(
        seed in any::<u64>(),
        fracs in t0_fracs(),
        steps in steps(),
    ) {
        let mut dists: Vec<Arc<dyn LifeDistribution>> = [0.5, 1.0, 1.12, 2.0, 3.0]
            .iter()
            .map(|&b| Arc::new(Weibull3::new(6.0, 9_000.0, b).unwrap()) as _)
            .collect();
        let wear: Arc<dyn LifeDistribution> = Arc::new(Weibull3::two_param(50_000.0, 2.2).unwrap());
        let shock: Arc<dyn LifeDistribution> = Arc::new(Exponential::from_mean(150_000.0).unwrap());
        dists.extend([
            Arc::clone(&shock),
            Arc::new(Lognormal::from_mean_cv(0.0, 35_000.0, 1.4).unwrap()) as _,
            Arc::new(Mixture::new(vec![(0.3, Arc::clone(&wear)), (0.7, Arc::clone(&shock))]).unwrap())
                as _,
            Arc::new(CompetingRisks::new(vec![wear, shock]).unwrap()) as _,
            Arc::new(Shifted(Exponential::from_mean(40.0).unwrap(), 6.0)) as _,
        ]);
        let mut cases: Vec<Case> = dists.iter().map(|d| Case::new(d, &fracs)).collect();
        let point: Arc<dyn LifeDistribution> = Arc::new(Degenerate::new(24.0).unwrap());
        cases.push(Case {
            kernel: SampleKernel::lower(&point),
            ages: vec![0.0, 12.0, 24.0, 48.0],
            window: 1.0,
        });
        assert_lookahead_matches_direct(&cases, seed, &steps);
    }
}
