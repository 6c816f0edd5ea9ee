//! Golden aggregate fingerprints: pins the exact bit-level output of
//! the runner for a spread of configurations covering every sampling
//! path (three-parameter Weibull, exponential, lognormal, degenerate,
//! mixture, competing risks; always-available and finite spares; both
//! engines; defect reset on and off).
//!
//! The values below were captured from the dynamic-scheduler runner
//! before the persistent worker pool and the monomorphic sampling
//! kernels landed, so any bit-level drift introduced by scheduler or
//! sampling rework fails here — not just divergence between two
//! code paths that changed together.
//!
//! Recaptured when the checkpoint format moved to version 2 (weighted
//! moments appended to `StreamStats`). The sampling path was verified
//! unchanged at the recapture: the pinned `PrecisionReport` Debug
//! string below — which depends only on the simulated moments, not
//! the codec — matched the pre-version-2 value byte for byte, and the
//! version-2 weighted fields of an unbiased run are exact integer
//! functions of the version-1 fields, so the new fingerprints pin the
//! same sampling behavior.
//!
//! The biased cases pin the importance-sampling paths (tilted,
//! conditional-tilted and forced draws, and the weighted moments) the
//! same way. They were captured before the sampling layer was rebuilt
//! on a buffered word source, so that rebuild is held bit-exact on the
//! biased paths too, not only statistically.

use raidsim_core::checkpoint::{DriverState, SimCheckpoint, FORMAT_VERSION};
use raidsim_core::config::{RaidGroupConfig, Redundancy, SparePolicy, TransitionDistributions};
use raidsim_core::engine::{BiasPolicy, TimelineEngine};
use raidsim_core::run::Simulator;
use raidsim_dists::{
    CompetingRisks, Degenerate, Exponential, LifeDistribution, Lognormal, Mixture, Weibull3,
};
use std::sync::Arc;

/// FNV-1a 64 over the checkpoint serialization of the streamed
/// aggregate — every integer moment, histogram bin, and the group
/// count, byte-exact.
fn stats_fingerprint(stats: &raidsim_core::stats::StreamStats, seed: u64, groups: u64) -> u64 {
    let ckpt = SimCheckpoint {
        format_version: FORMAT_VERSION,
        fingerprint: 0,
        driver: DriverState::fixed(groups.max(stats.groups()), 1, seed),
        stats: stats.clone(),
    };
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in &ckpt.to_bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn base() -> RaidGroupConfig {
    RaidGroupConfig::paper_base_case().unwrap()
}

fn exponential_degenerate() -> RaidGroupConfig {
    RaidGroupConfig {
        dists: TransitionDistributions {
            ttop: Arc::new(Exponential::from_mean(40_000.0).unwrap()),
            ttr: Arc::new(Degenerate::new(24.0).unwrap()),
            ttld: None,
            ttscrub: None,
        },
        ..base()
    }
}

fn lognormal_with_defects() -> RaidGroupConfig {
    RaidGroupConfig {
        drives: 6,
        redundancy: Redundancy::SingleParity,
        dists: TransitionDistributions {
            ttop: Arc::new(Lognormal::from_mean_cv(0.0, 35_000.0, 1.4).unwrap()),
            ttr: Arc::new(Weibull3::new(6.0, 12.0, 2.0).unwrap()),
            ttld: Some(Arc::new(Weibull3::two_param(9_000.0, 1.0).unwrap())),
            ttscrub: Some(Arc::new(Weibull3::new(1.0, 168.0, 3.0).unwrap())),
        },
        ..base()
    }
}

fn mixture_finite_spares() -> RaidGroupConfig {
    let infant: Arc<dyn LifeDistribution> = Arc::new(Weibull3::two_param(8_000.0, 0.8).unwrap());
    let mature: Arc<dyn LifeDistribution> = Arc::new(Exponential::from_mean(60_000.0).unwrap());
    RaidGroupConfig {
        dists: TransitionDistributions {
            ttop: Arc::new(Mixture::new(vec![(0.3, infant), (0.7, mature)]).unwrap()),
            ..base().dists
        },
        spares: SparePolicy::Finite {
            pool: 2,
            replenish_hours: 336.0,
        },
        defect_reset_on_replacement: true,
        ..base()
    }
}

fn competing_risks() -> RaidGroupConfig {
    let wear: Arc<dyn LifeDistribution> = Arc::new(Weibull3::two_param(50_000.0, 2.2).unwrap());
    let shock: Arc<dyn LifeDistribution> = Arc::new(Exponential::from_mean(150_000.0).unwrap());
    RaidGroupConfig {
        redundancy: Redundancy::DoubleParity,
        dists: TransitionDistributions {
            ttop: Arc::new(CompetingRisks::new(vec![wear, shock]).unwrap()),
            ..base().dists
        },
        ..base()
    }
}

/// `(label, config, use timeline engine, groups, seed, expected
/// fingerprint)`.
fn golden_cases() -> Vec<(&'static str, RaidGroupConfig, bool, usize, u64, u64)> {
    vec![
        ("base_des", base(), false, 300, 42, 0xd859_5659_71fb_2163),
        (
            "base_timeline",
            base(),
            true,
            300,
            42,
            0x5d91_cb40_7667_ec5b,
        ),
        (
            "exp_degenerate",
            exponential_degenerate(),
            false,
            250,
            7,
            0x1cc4_c893_bfc1_b232,
        ),
        (
            "lognormal_defects",
            lognormal_with_defects(),
            false,
            250,
            9,
            0x7ce8_f661_724b_9010,
        ),
        (
            "mixture_finite_spares",
            mixture_finite_spares(),
            false,
            250,
            11,
            0x6f05_d506_acfd_75d0,
        ),
        (
            "competing_risks_timeline",
            competing_risks(),
            true,
            200,
            13,
            0xdf65_8d7c_7871_7a4c,
        ),
    ]
}

#[test]
fn streamed_aggregates_match_pre_pool_golden_values() {
    for (label, cfg, timeline, groups, seed, expected) in golden_cases() {
        let mut sim = Simulator::new(cfg);
        if timeline {
            sim = sim.with_engine(Arc::new(TimelineEngine::new()));
        }
        for threads in [1usize, 3] {
            let stats = sim.run_streaming(groups, seed, threads);
            let got = stats_fingerprint(&stats, seed, groups as u64);
            if std::env::var("GOLDEN_CAPTURE").is_ok() {
                eprintln!("{label}: {got:#018x}");
                continue;
            }
            assert_eq!(
                got, expected,
                "{label} at {threads} thread(s): fingerprint {got:#018x}, \
                 golden {expected:#018x}"
            );
        }
    }
}

/// `(label, config, use timeline engine, bias, groups, seed, expected
/// fingerprint)`.
fn biased_golden_cases() -> Vec<(
    &'static str,
    RaidGroupConfig,
    bool,
    BiasPolicy,
    usize,
    u64,
    u64,
)> {
    let tilt = BiasPolicy::HazardTilt {
        op_theta: 1.5,
        latent_theta: 0.5,
    };
    let raid6 = RaidGroupConfig {
        redundancy: Redundancy::DoubleParity,
        ..base()
    };
    let forced = BiasPolicy::ForcedCritical {
        fraction: 0.015,
        window_hours: 250.0,
    };
    vec![
        (
            "tilt_timeline",
            base(),
            true,
            tilt,
            300,
            21,
            0x9e2b_0bd2_c2d7_32fc,
        ),
        (
            "tilt_des",
            base(),
            false,
            tilt,
            300,
            22,
            0xb07c_cfd2_6f78_6815,
        ),
        (
            "raid6_forced_des",
            raid6,
            false,
            forced,
            300,
            23,
            0x1497_2288_32d0_7a27,
        ),
    ]
}

#[test]
fn biased_aggregates_match_golden_values() {
    for (label, cfg, timeline, bias, groups, seed, expected) in biased_golden_cases() {
        let mut sim = Simulator::new(cfg).with_bias(bias);
        if timeline {
            sim = sim.with_engine(Arc::new(TimelineEngine::new()));
        }
        for threads in [1usize, 3] {
            let stats = sim.run_streaming(groups, seed, threads);
            let got = stats_fingerprint(&stats, seed, groups as u64);
            if std::env::var("GOLDEN_CAPTURE").is_ok() {
                eprintln!("{label}: {got:#018x}");
                continue;
            }
            assert_eq!(
                got, expected,
                "{label} at {threads} thread(s): fingerprint {got:#018x}, \
                 golden {expected:#018x}"
            );
        }
    }
}

#[test]
fn precision_run_matches_pre_pool_golden_values() {
    let sim = Simulator::new(base());
    let (stats, report) = sim.run_until_precision_streaming(0.2, 0.95, 50, 400, 5, 3);
    let got = stats_fingerprint(&stats, 5, 400);
    if std::env::var("GOLDEN_CAPTURE").is_ok() {
        eprintln!("precision: {got:#018x}");
        eprintln!("report: {report:?}");
        return;
    }
    assert_eq!(
        got, 0x8b3b_02de_e1f9_d3a0,
        "precision stats fingerprint {got:#018x}"
    );
    let rendered = format!("{report:?}");
    assert_eq!(
        rendered,
        "PrecisionReport { mean: 0.145, half_width: 0.03657884471752941, \
         confidence: 0.95, groups: 400, converged: false, criterion: GroupCap, \
         quarantined: 0 }",
    );
}
