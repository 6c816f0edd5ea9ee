//! Distribution conformance of every Weibull draw form against the
//! closed forms.
//!
//! The sampler inverts the cumulative hazard `H(t) = ((t − γ)/η)^β` at
//! an `Exp(1)` argument; these tests check what it produces against
//! formulas it does not use (`powf`-based `cdf`/`sf`, gamma-function
//! moments), over shapes β ∈ {0.5, 1, 1.12, 2, 3} with and without a
//! location, plus the paper's Table-2 transitions:
//!
//! * plain draws: Kolmogorov–Smirnov against `F`, and the sample mean
//!   and variance against `γ + η·Γ(1 + 1/β)` and `η²·(Γ(1 + 2/β) − Γ²(1 + 1/β))`;
//! * conditional draws at several ages `t0`: KS against
//!   `1 − S(t0 + x)/S(t0)`, including deep-tail ages where `S(t0)`
//!   rounds to 0 or underflows (there the conditional law is written
//!   through `H(t0 + x) − H(t0)`, the only representable form);
//! * tilted draws: the likelihood-ratio-reweighted mean equals the
//!   plain mean; conditional tilted draws: the reweighted mass below a
//!   point equals the conditional CDF there;
//! * forced draws: the reweighted window mass equals the conditional
//!   window probability `q`.
//!
//! **False alarms.** Every check runs at level
//! `α = FAMILY_ALPHA / MAX_CHECKS = 1e-6 / 200`, and the suite asserts
//! it makes at most `MAX_CHECKS` checks, so by Bonferroni a correct
//! sampler fails the suite with probability at most `1e-6` over the
//! choice of seed. KS checks hold that level exactly for any `n` (the
//! Dvoretzky–Kiefer–Wolfowitz inequality with Massart's constant);
//! mean, variance and reweighted checks hold it at the nominal level of
//! their normal approximation. Seeds are fixed, so a run is
//! deterministic: a failure is a sampler defect until shown otherwise.
//!
//! The last test pins the bit patterns of the first draws per shape
//! beside [`SAMPLER_VERSION`]: any change to what the sampler produces
//! must bump that version, which moves every run fingerprint.

use raidsim_dists::empirical::Ecdf;
use raidsim_dists::kernel::{Forcing, Tilt};
use raidsim_dists::rng::{stream, Lookahead, SimRng};
use raidsim_dists::special::{gamma, inv_std_normal};
use raidsim_dists::{LifeDistribution, SampleKernel, Weibull3, SAMPLER_VERSION};
use std::sync::Arc;

/// Family-wise false-alarm budget of the whole suite.
const FAMILY_ALPHA: f64 = 1e-6;

/// Upper bound on the number of checks the suite makes; the
/// per-check level is `FAMILY_ALPHA / MAX_CHECKS`.
const MAX_CHECKS: usize = 200;

/// Draws per check.
const N: usize = 20_000;

/// Counts checks against the Bonferroni budget and applies the
/// per-check thresholds.
struct Checks {
    made: usize,
}

impl Checks {
    fn new() -> Self {
        Checks { made: 0 }
    }

    fn alpha() -> f64 {
        FAMILY_ALPHA / MAX_CHECKS as f64
    }

    fn count(&mut self) {
        self.made += 1;
        assert!(
            self.made <= MAX_CHECKS,
            "more than {MAX_CHECKS} checks: raise MAX_CHECKS and restate the budget"
        );
    }

    /// One-sample KS at level α: `√n·D ≤ √(ln(2/α)/2)` (DKW–Massart).
    fn ks(&mut self, label: &str, samples: &[f64], cdf: impl Fn(f64) -> f64) {
        self.count();
        let d = Ecdf::new(samples).ks_distance(cdf);
        let crit = ((2.0 / Self::alpha()).ln() / 2.0).sqrt() / (samples.len() as f64).sqrt();
        assert!(d <= crit, "{label}: KS distance {d} exceeds {crit}");
    }

    /// Two-sided normal check at level α: `|estimate − expect| ≤ z·se`.
    fn z(&mut self, label: &str, estimate: f64, expect: f64, se: f64) {
        self.count();
        let z = inv_std_normal(1.0 - Self::alpha() / 2.0);
        let gap = (estimate - expect).abs();
        assert!(
            gap <= z * se,
            "{label}: {estimate} vs {expect} differ by {gap}, beyond {z:.2} × se {se}"
        );
    }
}

/// Mean and standard error of a sample.
fn mean_se(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
    (mean, (var / n).sqrt())
}

/// Raw moment `E[(X − γ)^k] = η^k·Γ(1 + k/β)`.
fn raw_moment(eta: f64, beta: f64, k: i32) -> f64 {
    eta.powi(k) * gamma(1.0 + f64::from(k) / beta)
}

/// The shapes of the suite with and without a location, then the
/// paper's Table-2 transitions (TTOp, TTR, TTLd, TTScrub).
fn cases() -> Vec<(String, Weibull3)> {
    let mut out = Vec::new();
    for beta in [0.5, 1.0, 1.12, 2.0, 3.0] {
        for gamma in [0.0, 6.0] {
            out.push((
                format!("W({gamma}, 100, {beta})"),
                Weibull3::new(gamma, 100.0, beta).unwrap(),
            ));
        }
    }
    for (name, g, e, b) in [
        ("TTOp", 0.0, 461_386.0, 1.12),
        ("TTR", 6.0, 12.0, 2.0),
        ("TTLd", 0.0, 1.0 / 1.08e-4, 1.0),
        ("TTScrub", 6.0, 168.0, 3.0),
    ] {
        out.push((name.to_string(), Weibull3::new(g, e, b).unwrap()));
    }
    out
}

fn draws(n: usize, mut draw: impl FnMut() -> f64) -> Vec<f64> {
    (0..n).map(|_| draw()).collect()
}

#[test]
fn weibull_draws_conform_to_their_closed_forms() {
    let mut checks = Checks::new();
    for (case, (name, d)) in cases().into_iter().enumerate() {
        let (g, eta, beta) = (d.location(), d.scale(), d.shape());
        let dyn_d: Arc<dyn LifeDistribution> = Arc::new(d);
        let k = SampleKernel::lower(&dyn_d);
        let mut rng = stream(0xC0FF, case as u64);

        // Plain draws through the kernel: law, mean and variance.
        let xs = draws(N, || k.sample(&mut rng));
        checks.ks(&format!("{name} plain"), &xs, |t| d.cdf(t));
        let (mean, _) = mean_se(&xs);
        let (m1, m2, m3, m4) = (
            raw_moment(eta, beta, 1),
            raw_moment(eta, beta, 2),
            raw_moment(eta, beta, 3),
            raw_moment(eta, beta, 4),
        );
        let var = m2 - m1 * m1;
        let mu4 = m4 - 4.0 * m3 * m1 + 6.0 * m2 * m1 * m1 - 3.0 * m1.powi(4);
        checks.z(
            &format!("{name} mean"),
            mean,
            g + m1,
            (var / N as f64).sqrt(),
        );
        let s2 = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (N as f64 - 1.0);
        checks.z(
            &format!("{name} variance"),
            s2,
            var,
            ((mu4 - var * var) / N as f64).sqrt(),
        );

        // Conditional draws through the dyn override at several ages.
        for p in [0.3, 0.9, 0.999] {
            let t0 = d.quantile(p);
            let s0 = d.sf(t0);
            let xs = draws(N, || dyn_d.sample_conditional(t0, &mut rng));
            checks.ks(&format!("{name} conditional at F = {p}"), &xs, |x| {
                1.0 - d.sf(t0 + x) / s0
            });
        }

        // Tilted draws: reweighting restores the plain mean.
        for theta in [1.3, -0.7] {
            let tilt = Tilt::new(theta).unwrap();
            let xs = draws(N, || {
                let mut lw = 0.0;
                k.sample_tilted(tilt, &mut lw, &mut rng) * lw.exp()
            });
            let (est, se) = mean_se(&xs);
            checks.z(
                &format!("{name} tilted θ = {theta} mean"),
                est,
                d.mean(),
                se,
            );
        }

        // Conditional tilted draws: the reweighted mass below the
        // conditional median is one half.
        let tilt = Tilt::new(1.3).unwrap();
        let t0 = d.quantile(0.9);
        let x_half = d.quantile(0.95) - t0;
        let xs = draws(N, || {
            let mut lw = 0.0;
            let x = k.sample_conditional_tilted(t0, tilt, &mut lw, &mut rng);
            if x < x_half {
                lw.exp()
            } else {
                0.0
            }
        });
        let (est, se) = mean_se(&xs);
        let want = 1.0 - d.sf(t0 + x_half) / d.sf(t0);
        checks.z(&format!("{name} conditional tilted mass"), est, want, se);

        // Forced draws: the reweighted window mass is the conditional
        // window probability q.
        let forcing = Forcing::new(0.3).unwrap();
        let t0 = d.quantile(0.5);
        let window = d.quantile(0.51) - t0;
        let q = (d.cdf(t0 + window) - d.cdf(t0)) / d.sf(t0);
        let xs = draws(N, || {
            let mut lw = 0.0;
            let x = k.sample_conditional_forced(t0, window, forcing, &mut lw, &mut rng);
            if x < window {
                lw.exp()
            } else {
                0.0
            }
        });
        let (est, se) = mean_se(&xs);
        checks.z(&format!("{name} forced window mass"), est, q, se);
    }

    // Deep tail, β = 1: at 4,000 h `F(t0)` rounds to 1 and at
    // 80,000 h `S(t0)` underflows, yet the residual life is exactly
    // Exp(η) by memorylessness.
    let d = Weibull3::new(0.0, 100.0, 1.0).unwrap();
    let dyn_d: Arc<dyn LifeDistribution> = Arc::new(d);
    let k = SampleKernel::lower(&dyn_d);
    let mut rng = stream(0xC0FF, 1_000);
    let exp_cdf = |x: f64| -(-x / 100.0).exp_m1();
    for t0 in [4_000.0, 80_000.0] {
        let xs = draws(N, || dyn_d.sample_conditional(t0, &mut rng));
        checks.ks(&format!("deep tail dyn at {t0}"), &xs, exp_cdf);
        let xs = draws(N, || k.sample_conditional(t0, &mut rng));
        checks.ks(&format!("deep tail kernel at {t0}"), &xs, exp_cdf);
        let tilt = Tilt::new(1.3).unwrap();
        let xs = draws(N, || {
            let mut lw = 0.0;
            k.sample_conditional_tilted(t0, tilt, &mut lw, &mut rng) * lw.exp()
        });
        let (est, se) = mean_se(&xs);
        checks.z(&format!("deep tail tilted mean at {t0}"), est, 100.0, se);
        let forcing = Forcing::new(0.3).unwrap();
        let window = 2.0;
        let xs = draws(N, || {
            let mut lw = 0.0;
            let x = k.sample_conditional_forced(t0, window, forcing, &mut lw, &mut rng);
            if x < window {
                lw.exp()
            } else {
                0.0
            }
        });
        let (est, se) = mean_se(&xs);
        checks.z(
            &format!("deep tail forced mass at {t0}"),
            est,
            exp_cdf(window),
            se,
        );
    }

    // Deep tail, β > 1: `S(t0)` underflows, so the conditional law is
    // written through the cumulative-hazard difference.
    for (beta, t0) in [(2.0, 3_000.0), (3.0, 1_000.0)] {
        let d = Weibull3::new(0.0, 100.0, beta).unwrap();
        assert_eq!(d.sf(t0), 0.0, "the age must lie past survival underflow");
        let xs = draws(N, || d.sample_conditional(t0, &mut rng));
        checks.ks(&format!("deep tail β = {beta} at {t0}"), &xs, |x| {
            -(-(d.cum_hazard(t0 + x) - d.cum_hazard(t0))).exp_m1()
        });
    }
}

/// Regression: `Weibull3::new(0.0, 100.0, 1.0)` conditioned on 4,000 h
/// used to panic (`F(t0)` rounded to 1, so the conditional uniform hit
/// `p = 1`), and at 80,000 h returned a residual of exactly 0 (`S(t0)`
/// underflowed). Every draw form now returns `100·E` for the `Exp(1)`
/// variate `E` of its (warped) uniform, to the rounding of `H(t0) + E`.
#[test]
fn deep_tail_conditional_draws_are_proper_residuals() {
    let d: Arc<dyn LifeDistribution> = Arc::new(Weibull3::new(0.0, 100.0, 1.0).unwrap());
    let k = SampleKernel::lower(&d);
    let tilt = Tilt::new(0.8).unwrap();
    let forcing = Forcing::new(0.25).unwrap();
    let close = |x: f64, e: f64| x > 0.0 && (x - 100.0 * e).abs() <= 1e-9 * (1.0 + 100.0 * e);
    for t0 in [4_000.0, 80_000.0] {
        let (mut a, mut b, mut c, mut us) =
            (stream(5, 0), stream(5, 0), stream(5, 0), stream(5, 0));
        let mut words = Lookahead::new(&mut c);
        for _ in 0..64 {
            let x = d.sample_conditional(t0, &mut a);
            assert_eq!(x.to_bits(), k.sample_conditional(t0, &mut b).to_bits());
            assert_eq!(x.to_bits(), k.sample_conditional(t0, &mut words).to_bits());
            let e = -(1.0 - uniform(&mut us)).ln();
            assert!(close(x, e), "conditional at {t0}: {x}, want {}", 100.0 * e);
        }

        let (mut a, mut us) = (stream(6, 0), stream(6, 0));
        for _ in 0..64 {
            let mut lw = 0.0;
            let x = k.sample_conditional_tilted(t0, tilt, &mut lw, &mut a);
            let (v, want_lw) = tilt.warp(uniform(&mut us));
            let e = -(-v).ln_1p();
            assert!(close(x, e), "tilted at {t0}: {x}, want {}", 100.0 * e);
            assert_eq!(lw.to_bits(), want_lw.to_bits());
        }

        // Forcing into a 1 h window: in-window draws land inside it.
        let mut a = stream(7, 0);
        let mut inside = 0;
        for _ in 0..64 {
            let mut lw = 0.0;
            let x = k.sample_conditional_forced(t0, 1.0, forcing, &mut lw, &mut a);
            assert!(x > 0.0 && x.is_finite(), "forced at {t0}: {x}");
            assert!(
                lw.is_finite() && lw != 0.0,
                "forced at {t0}: no measure change"
            );
            inside += usize::from(x < 1.0);
        }
        assert!(inside > 0, "no forced draw landed in the window at {t0}");
    }
}

/// The 53-bit uniform the samplers draw from one RNG word.
fn uniform(rng: &mut SimRng) -> f64 {
    use rand::Rng;
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The sampler version the pins below were taken under.
const PINNED_SAMPLER_VERSION: u32 = 2;

/// Bit patterns of the first 16 plain draws of `W(0, 100, β)` from
/// `stream(1, 0)`, per shape.
const PINNED_DRAWS: [(f64, [u64; 16]); 5] = [
    (
        0.5,
        [
            0x4040a92771a5d245,
            0x402b2eca98051baa,
            0x4078a8a5064e12ae,
            0x407b1b83ae346de7,
            0x403fe7c0ce2b0cfb,
            0x4019d0fb55383641,
            0x40689c8f0dbd89de,
            0x40077ba16660efee,
            0x400262e587d517a8,
            0x4045a2b0f54b4daf,
            0x405567eedde57ab6,
            0x40438aed8e4abd2f,
            0x4074d30be97be550,
            0x4077651c82e14529,
            0x402480ff0d0196b0,
            0x3ff9176cff4f64fb,
        ],
    ),
    (
        1.0,
        [
            0x404cdcc5fcd5847d,
            0x40426ee9866f9c0e,
            0x4068d42c18499d8d,
            0x406a084cc09de221,
            0x404c3e0cbfcc3176,
            0x403967a6cb2aa83f,
            0x40618a302001845b,
            0x4031220676d2e13f,
            0x402e51f9f0b0269f,
            0x405071f73e33d399,
            0x40572220279576e2,
            0x404f42578e911876,
            0x4066d11f0c2b6be6,
            0x40682f25df37a588,
            0x4040026373711ccd,
            0x40290bb3c284287d,
        ],
    ),
    (
        1.12,
        [
            0x404e9cd5942b8c0f,
            0x404483639641944f,
            0x406711933588946e,
            0x40681088951304c9,
            0x404e06593c7e3dd6,
            0x403d6c19cf94410d,
            0x4060ea24a39a028b,
            0x4034b298126ff4f2,
            0x40328e55ae008f3a,
            0x4051333223a75014,
            0x405753921bfb5020,
            0x40506fb0089f41cc,
            0x406564655ca0ab1d,
            0x4066887c285928c0,
            0x40421643473da4e3,
            0x402f4a49038aea17,
        ],
    ),
    (
        2.0,
        [
            0x4052fe8470262689,
            0x404e5be09495f55c,
            0x40619df619a2674c,
            0x406209fb70146b9c,
            0x4052ca01946c4e38,
            0x4049339e1bf7aa12,
            0x405d9d300a1e533c,
            0x4044b22a76911404,
            0x404377ce6335bd5d,
            0x405446bd6c63fe6e,
            0x40580c6d878acf6e,
            0x4053c46283242639,
            0x4060e3607e99d609,
            0x40616307d5616fde,
            0x404c4ae25f833247,
            0x4041b19e6d78b2e9,
        ],
    ),
    (
        3.0,
        [
            0x4054d0db7f763ebb,
            0x4051ed0ff060fb93,
            0x405f6d0bc933c5fc,
            0x405fecfff539b680,
            0x4054aa6c566e1dd6,
            0x404faacaf024aed2,
            0x405bfd0848565c94,
            0x404bc531a0c1a1d7,
            0x404aa920948b406e,
            0x4055be09be5052db,
            0x40585c921d3209da,
            0x40556074faaee128,
            0x405e8d989e1519d9,
            0x405f26cf809e3c0e,
            0x40511a639ed406a1,
            0x404903e5fa858335,
        ],
    ),
];

#[test]
fn first_draws_per_shape_are_pinned_to_the_sampler_version() {
    assert_eq!(
        SAMPLER_VERSION, PINNED_SAMPLER_VERSION,
        "SAMPLER_VERSION moved: re-pin the draws below under the new version"
    );
    for (beta, pinned) in PINNED_DRAWS {
        let d: Arc<dyn LifeDistribution> = Arc::new(Weibull3::new(0.0, 100.0, beta).unwrap());
        let k = SampleKernel::lower(&d);
        let mut rng = stream(1, 0);
        let got: Vec<u64> = (0..16).map(|_| k.sample(&mut rng).to_bits()).collect();
        assert_eq!(
            got, pinned,
            "sampler output changed: bump SAMPLER_VERSION (β = {beta})"
        );
    }
}
