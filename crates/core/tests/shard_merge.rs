//! Shard-scatter/merge bit-identity, and full-run equivalence of the
//! default lookahead draws against drawing straight from the RNG.
//!
//! The contracts under test (DESIGN.md §18):
//!
//! * `merge_shards` over any exact tiling of `[0, G)`, at any shard
//!   count, merged in any order, produces a checkpoint **byte-equal**
//!   to the one an unsharded run writes — per-group RNG streams are a
//!   pure function of `(seed, index)` and `StreamStats` partials are
//!   exact integers with an associative, commutative merge.
//! * The default session tuning (every draw served from a
//!   block-filled lookahead) is draw-for-draw bit-identical to drawing
//!   straight from the RNG, for both engines, with and without
//!   importance-sampling tilts and forcing.
//! * Merges refuse mismatched shards with typed errors instead of
//!   silently producing wrong statistics.

use raidsim_core::checkpoint::{
    merge_shards, CheckpointError, DriverState, SimCheckpoint, FORMAT_VERSION,
};
use raidsim_core::config::{RaidGroupConfig, Redundancy};
use raidsim_core::engine::{BiasPolicy, SessionTuning, TimelineEngine};
use raidsim_core::run::{shard_range, Simulator};
use std::sync::Arc;

fn base() -> RaidGroupConfig {
    RaidGroupConfig::paper_base_case().unwrap()
}

/// Builds the shard snapshot exactly as the CLI does: the driver's
/// `max_groups` is the shard's exclusive upper bound and the batch is
/// derived from the total group count.
fn shard_snapshot(sim: &Simulator, total: u64, index: u64, count: u64, seed: u64) -> SimCheckpoint {
    let (lo, hi) = shard_range(total, index, count);
    let (stats, quarantine) = sim.run_shard(lo, hi, seed, 1, &());
    assert!(quarantine.is_empty());
    SimCheckpoint {
        format_version: FORMAT_VERSION,
        fingerprint: sim.run_fingerprint(),
        driver: DriverState::fixed(hi, total.clamp(100, 1_000), seed),
        stats,
    }
}

/// The checkpoint an unsharded fixed run over `[0, total)` leaves
/// behind.
fn unsharded_snapshot(sim: &Simulator, total: u64, seed: u64) -> SimCheckpoint {
    let stats = sim.run_streaming(total as usize, seed, 1);
    SimCheckpoint {
        format_version: FORMAT_VERSION,
        fingerprint: sim.run_fingerprint(),
        driver: DriverState::fixed(total, total.clamp(100, 1_000), seed),
        stats,
    }
}

#[test]
fn merged_shards_are_byte_equal_to_unsharded_at_every_count() {
    for (cfg, bias) in [
        (base(), BiasPolicy::None),
        (
            RaidGroupConfig {
                redundancy: Redundancy::DoubleParity,
                ..base()
            },
            BiasPolicy::None,
        ),
        (
            base(),
            BiasPolicy::HazardTilt {
                op_theta: 0.4,
                latent_theta: 0.2,
            },
        ),
    ] {
        let sim = Simulator::new(cfg).with_bias(bias);
        for seed in [7u64, 1234] {
            let total = 173u64; // not a multiple of any shard count below
            let reference = unsharded_snapshot(&sim, total, seed).to_bytes();
            for count in [1u64, 2, 4, 5] {
                let mut shards: Vec<SimCheckpoint> = (0..count)
                    .map(|i| shard_snapshot(&sim, total, i, count, seed))
                    .collect();
                // Merge order must not matter.
                shards.reverse();
                let merged = merge_shards(shards).unwrap();
                assert_eq!(
                    merged.to_bytes(),
                    reference,
                    "merge of {count} shards diverged from the unsharded run \
                     (seed {seed})"
                );
            }
        }
    }
}

#[test]
fn zero_width_shards_merge_cleanly() {
    // More shards than groups: some slices are empty.
    let sim = Simulator::new(base());
    let total = 3u64;
    let reference = unsharded_snapshot(&sim, total, 11).to_bytes();
    let shards: Vec<SimCheckpoint> = (0..5)
        .map(|i| shard_snapshot(&sim, total, i, 5, 11))
        .collect();
    assert!(shards.iter().any(|s| s.stats.groups() == 0));
    assert_eq!(merge_shards(shards).unwrap().to_bytes(), reference);
}

#[test]
fn merge_refuses_mismatched_shards() {
    let sim = Simulator::new(base());
    let total = 60u64;
    let s0 = shard_snapshot(&sim, total, 0, 2, 7);
    let s1 = shard_snapshot(&sim, total, 1, 2, 7);

    // Empty input.
    assert!(matches!(
        merge_shards(vec![]),
        Err(CheckpointError::ConfigMismatch {
            field: "shards",
            ..
        })
    ));

    // Seed mismatch.
    let other_seed = shard_snapshot(&sim, total, 1, 2, 8);
    assert!(matches!(
        merge_shards(vec![s0.clone(), other_seed]),
        Err(CheckpointError::ConfigMismatch { field: "seed", .. })
    ));

    // Fingerprint mismatch (different configuration).
    let raid6 = Simulator::new(RaidGroupConfig {
        redundancy: Redundancy::DoubleParity,
        ..base()
    });
    let foreign = shard_snapshot(&raid6, total, 1, 2, 7);
    assert!(matches!(
        merge_shards(vec![s0.clone(), foreign]),
        Err(CheckpointError::ConfigMismatch {
            field: "fingerprint",
            ..
        })
    ));

    // Gap: [0, 30) + [45, 60).
    let quarter = shard_snapshot(&sim, total, 3, 4, 7);
    assert!(matches!(
        merge_shards(vec![s0.clone(), quarter]),
        Err(CheckpointError::ConfigMismatch { field: "range", .. })
    ));

    // Overlap: [0, 30) + [0, 15) + [30, 60).
    let overlap = shard_snapshot(&sim, total, 0, 4, 7);
    assert!(matches!(
        merge_shards(vec![s0.clone(), overlap, s1.clone()]),
        Err(CheckpointError::ConfigMismatch { field: "range", .. })
    ));

    // Precision-mode snapshots are not shards.
    let mut precision = s1.clone();
    precision.driver.precision_mode = true;
    assert!(matches!(
        merge_shards(vec![s0, precision]),
        Err(CheckpointError::ConfigMismatch { field: "mode", .. })
    ));
}

#[test]
fn default_block_tuning_is_bit_identical_to_scalar_for_both_engines() {
    let scalar = SessionTuning { block_draws: false };
    for bias in [
        BiasPolicy::None,
        BiasPolicy::HazardTilt {
            op_theta: 0.5,
            latent_theta: 0.3,
        },
    ] {
        // Discrete-event engine (default).
        let des_block = Simulator::new(base()).with_bias(bias);
        let des_scalar = Simulator::new(base()).with_bias(bias).with_tuning(scalar);
        assert_eq!(
            des_block.run_streaming(150, 42, 1),
            des_scalar.run_streaming(150, 42, 1),
            "DES block path diverged from scalar under {bias:?}"
        );

        // Pairwise-timeline engine.
        let tl_block = Simulator::new(base())
            .with_engine(Arc::new(TimelineEngine::new()))
            .with_bias(bias);
        let tl_scalar = Simulator::new(base())
            .with_engine(Arc::new(TimelineEngine::new()))
            .with_bias(bias)
            .with_tuning(scalar);
        assert_eq!(
            tl_block.run_streaming(150, 42, 1),
            tl_scalar.run_streaming(150, 42, 1),
            "timeline block path diverged from scalar under {bias:?}"
        );
    }
}

#[test]
fn block_tuning_is_scheduling_invariant() {
    // Threads exercise the pool path, which opens tuned sessions per
    // worker; results must match the serial runner bit for bit.
    let sim = Simulator::new(base());
    assert_eq!(sim.run_streaming(120, 5, 1), sim.run_streaming(120, 5, 3));
}

#[test]
fn forced_critical_bias_stays_scalar_but_completes_under_block_tuning() {
    // ForcedCritical draws are per-event and data-dependent, and take
    // their raw words from the lookahead between grid draws. The run
    // completing with the same result as direct RNG draws proves the
    // lookahead never desynchronizes the stream.
    let bias = BiasPolicy::ForcedCritical {
        fraction: 0.3,
        window_hours: 48.0,
    };
    let block = Simulator::new(base()).with_bias(bias);
    let scalar = Simulator::new(base())
        .with_bias(bias)
        .with_tuning(SessionTuning { block_draws: false });
    assert_eq!(
        block.run_streaming(100, 13, 1),
        scalar.run_streaming(100, 13, 1)
    );
}

#[test]
fn session_tuning_does_not_change_the_fingerprint() {
    let lookahead = Simulator::new(base());
    let direct = Simulator::new(base()).with_tuning(SessionTuning { block_draws: false });
    assert_eq!(lookahead.run_fingerprint(), direct.run_fingerprint());
}
