//! Importance-sampling guarantees end to end: the hazard-tilted
//! estimator is unbiased (its confidence interval covers the plain
//! estimator), biased runs checkpoint and resume bit-identically at
//! any thread count, and snapshots whose groups another sampler drew
//! — version-1 files, and version-2 files from before the sampler
//! version entered the fingerprint — are refused with typed errors.

use raidsim_core::checkpoint::{CheckpointError, DriverState, SimCheckpoint, FORMAT_VERSION};
use raidsim_core::config::RaidGroupConfig;
use raidsim_core::engine::BiasPolicy;
use raidsim_core::run::{CheckpointPlan, EveryGroups, RunControl, Simulator};
use raidsim_core::store::{AttemptBudget, FsStore};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn base() -> RaidGroupConfig {
    RaidGroupConfig::paper_base_case().unwrap()
}

fn temp_ckpt(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("raidsim_rare_event_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Requests a graceful stop once `limit` batch boundaries have been
/// polled, mimicking a SIGINT landing mid-run.
struct InterruptAfter {
    polls: AtomicU64,
    limit: u64,
}

impl InterruptAfter {
    fn new(limit: u64) -> Self {
        Self {
            polls: AtomicU64::new(0),
            limit,
        }
    }
}

impl RunControl for InterruptAfter {
    fn interrupted(&self) -> bool {
        self.polls.fetch_add(1, Ordering::Relaxed) >= self.limit
    }
}

/// The unbiasedness property: across (config, seed, tilt) tuples, the
/// weighted estimator's confidence interval must cover the plain
/// estimator's, at a z wide enough (4 ≈ 99.994%) that a sound
/// implementation essentially never fails while a sign error in the
/// likelihood ratio — or a forgotten weight — fails immediately.
#[test]
fn tilted_estimator_covers_the_plain_estimator() {
    let mut short = base();
    short.mission_hours = 20_000.0;
    // Forcing targets configurations whose critical boundary is rarely
    // reached (that is what it is for): RAID 6 groups, and a
    // defect-free RAID 5 group whose boundary is "one drive down".
    // On boundary-saturated configs the forced likelihood ratios
    // compound into degenerate weights — covered in DESIGN.md §16.
    let mut raid6 = base();
    raid6.redundancy = raidsim_core::config::Redundancy::DoubleParity;
    let raid6_168h = raid6
        .clone()
        .with_scrub_policy(raidsim_hdd::scrub::ScrubPolicy::with_characteristic_hours(
            168.0,
        ))
        .unwrap();
    let mut no_latent = base();
    no_latent.dists = raidsim_core::config::TransitionDistributions::weibull_both().unwrap();
    let tilt = |op_theta, latent_theta| BiasPolicy::HazardTilt {
        op_theta,
        latent_theta,
    };
    let force = |fraction, window_hours| BiasPolicy::ForcedCritical {
        fraction,
        window_hours,
    };
    let cases: Vec<(RaidGroupConfig, u64, BiasPolicy)> = vec![
        (base(), 3, tilt(0.5, 0.0)),
        (base(), 91, tilt(1.5, 0.2)),
        (base(), 17, tilt(1.0, 0.4)),
        (base(), 5, tilt(-0.5, 0.0)),
        (short.clone(), 29, tilt(1.2, 0.3)),
        (short, 41, tilt(2.0, 0.0)),
        (raid6_168h.clone(), 57, force(0.1, 500.0)),
        (raid6_168h, 63, force(0.3, 300.0)),
        (raid6, 71, force(0.05, 1_000.0)),
        (no_latent, 83, force(0.2, 400.0)),
    ];
    const GROUPS: usize = 1_500;
    const Z: f64 = 4.0;
    for (cfg, seed, bias) in cases {
        let plain = Simulator::new(cfg.clone()).run_streaming(GROUPS, seed, 4);
        let biased = Simulator::new(cfg)
            .with_bias(bias)
            .run_streaming(GROUPS, seed, 4);
        assert!(
            biased.weight_sum() != biased.groups() as f64,
            "a biased run must record non-unit weights"
        );
        let gap = (biased.weighted_mean_ddfs() - plain.mean_ddfs()).abs();
        let slack = biased.weighted_half_width(Z) + plain.half_width(Z);
        assert!(
            gap <= slack,
            "seed {seed} bias {bias:?}: weighted mean {} vs plain mean \
             {} differ by {gap}, beyond the joint z = {Z} half-width {slack}",
            biased.weighted_mean_ddfs(),
            plain.mean_ddfs(),
        );
        // The weighted machinery is live, not degenerate: effective
        // sample size is positive and cannot exceed the raw count.
        let ess = biased.effective_sample_size();
        assert!(ess > 0.0 && ess <= GROUPS as f64);
    }
}

/// Kill-and-resume with biasing enabled: interrupting a tilted run at
/// a batch boundary and resuming — on a different thread count — must
/// reproduce the uninterrupted run's statistics and report
/// bit-identically, weighted moments included.
#[test]
fn biased_kill_and_resume_is_bit_identical() {
    let bias = BiasPolicy::HazardTilt {
        op_theta: 1.0,
        latent_theta: 0.25,
    };
    let sim = Simulator::new(base()).with_bias(bias);
    let driver = DriverState::precision(0.25, 0.95, 20, 100, 7);
    let (ref_stats, ref_report) = sim.run_until_precision_streaming(0.25, 0.95, 20, 100, 7, 3);
    assert!(ref_stats.weight_sum() != ref_stats.groups() as f64);

    for kill_batch in [0u64, 1, 3] {
        let path = temp_ckpt(&format!("biased_kill_{kill_batch}.ckpt"));
        let control = InterruptAfter::new(kill_batch);
        let mut cadence = EveryGroups(1);
        let mut store = FsStore;
        let mut backoff = AttemptBudget(1);
        let plan = CheckpointPlan {
            path: &path,
            cadence: &mut cadence,
            store: &mut store,
            backoff: &mut backoff,
            required: false,
        };
        sim.run_checkpointed(driver, 3, &(), &control, Some(plan), None)
            .unwrap();

        let ckpt = SimCheckpoint::load(&path).unwrap();
        let mut cadence = EveryGroups(1);
        let mut store = FsStore;
        let mut backoff = AttemptBudget(1);
        let plan = CheckpointPlan {
            path: &path,
            cadence: &mut cadence,
            store: &mut store,
            backoff: &mut backoff,
            required: false,
        };
        let (stats, report) = sim
            .run_checkpointed(driver, 2, &(), &(), Some(plan), Some(ckpt))
            .unwrap();
        assert_eq!(stats, ref_stats, "kill at batch {kill_batch}");
        assert_eq!(report, ref_report, "kill at batch {kill_batch}");
        std::fs::remove_file(&path).ok();
    }
}

/// FNV-1a 64, the checkpoint module's fingerprint and checksum hash.
fn fnv1a(parts: &[&[u8]]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for part in parts {
        for &b in *part {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Interrupts `sim` after its first batch and returns the snapshot it
/// left at `path`.
fn interrupted_checkpoint(sim: &Simulator, driver: DriverState, path: &PathBuf) -> SimCheckpoint {
    let control = InterruptAfter::new(1);
    let mut cadence = EveryGroups(1);
    let mut store = FsStore;
    let mut backoff = AttemptBudget(1);
    let plan = CheckpointPlan {
        path,
        cadence: &mut cadence,
        store: &mut store,
        backoff: &mut backoff,
        required: false,
    };
    sim.run_checkpointed(driver, 2, &(), &control, Some(plan), None)
        .unwrap();
    let ckpt = SimCheckpoint::load(path).unwrap();
    assert!(
        ckpt.groups_done() < driver.max_groups,
        "the interrupt must land mid-run"
    );
    ckpt
}

/// Version-1 files predate both importance weighting and the sampler
/// version, so nothing in them attests which draws produced their
/// groups: loading one is a typed version refusal, before any resume
/// logic runs.
#[test]
fn version_1_checkpoints_are_refused_as_version_mismatch() {
    let sim = Simulator::new(base());
    let driver = DriverState::fixed(90, 30, 11);
    let path = temp_ckpt("v1_refused.ckpt");
    let ckpt = interrupted_checkpoint(&sim, driver, &path);

    // Rewrite the snapshot in the version-1 layout: the five weighted
    // u128 stats fields dropped, version, length and checksum
    // re-stamped.
    let mut bytes = ckpt.to_bytes();
    let stats_start = 20 + 8 + 41 + 8; // header, fingerprint, driver, groups_done
    bytes.drain(stats_start + 104..stats_start + 184);
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    let payload_len = (bytes.len() - 28) as u64;
    bytes[12..20].copy_from_slice(&payload_len.to_le_bytes());
    let n = bytes.len();
    let sum = fnv1a(&[&bytes[..n - 8]]);
    bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();

    assert_eq!(
        SimCheckpoint::load(&path),
        Err(CheckpointError::VersionMismatch {
            found: 1,
            expected: FORMAT_VERSION
        })
    );
    std::fs::remove_file(&path).ok();
}

/// A version-2 snapshot written before the sampler version entered the
/// fingerprint parses fine, but its groups were drawn by the previous
/// sampler: resuming it would mix two samplers' draws in one estimate.
/// The resume is refused with a typed mismatch whose message names the
/// sampler version, for unbiased and biased runs alike. The `assert_ne`
/// on the recomputed pre-change fingerprint is what pins the hashing;
/// the refusal would follow from any fingerprint difference.
#[test]
fn pre_sampler_change_checkpoints_are_refused_naming_the_sampler() {
    let tilt = BiasPolicy::HazardTilt {
        op_theta: 1.0,
        latent_theta: 0.0,
    };
    for bias in [BiasPolicy::None, tilt] {
        let cfg = base();
        let sim = Simulator::new(cfg.clone()).with_bias(bias);
        let driver = DriverState::fixed(90, 30, 11);
        let path = temp_ckpt("pre_sampler_refused.ckpt");
        let mut ckpt = interrupted_checkpoint(&sim, driver, &path);

        // The fingerprint a build before sampler version 2 recorded for
        // this very run: the same hash without the sampler version.
        let old = fnv1a(&[
            &FORMAT_VERSION.to_le_bytes(),
            b"discrete-event\0",
            format!("{cfg:?}").as_bytes(),
            b"\0",
            format!("{bias:?}").as_bytes(),
        ]);
        assert_ne!(
            old,
            sim.run_fingerprint(),
            "the run fingerprint must cover the sampler version"
        );
        ckpt.fingerprint = old;
        ckpt.save(&path).unwrap();
        let stale = SimCheckpoint::load(&path).unwrap();

        match sim.run_checkpointed(driver, 2, &(), &(), None, Some(stale)) {
            Err(CheckpointError::ConfigMismatch {
                field: "config",
                reason,
            }) => assert!(reason.contains("sampler version"), "{reason}"),
            other => panic!("{bias:?}: expected a sampler refusal, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }
}
