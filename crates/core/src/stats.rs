//! Bounded-memory streaming aggregation of group histories.
//!
//! The paper's headline numbers need 10,000+ Monte Carlo group
//! histories, and fleet-scale studies need millions. Retaining every
//! [`GroupHistory`] (as [`crate::run::SimulationResult`] does) costs
//! memory proportional to the fleet and forces full rescans to update
//! statistics. [`StreamStats`] is the alternative: a constant-size,
//! mergeable accumulator holding everything the analysis layer needs —
//! moments of the per-group DDF count, per-kind and per-counter totals,
//! total downtime, and a fixed-bin histogram of DDF times that drives
//! the MCF/ROCOF estimators in `raidsim-analysis`.
//!
//! # Determinism argument
//!
//! Every piece of accumulator state is an exact integer:
//!
//! * DDF counts per group are small integers, so their sum and sum of
//!   squares (`u64`/`u128`) are exact. The textbook *Welford/Chan*
//!   streaming recurrences exist to tame floating-point cancellation;
//!   with integer observations the raw moments are already exact, which
//!   is strictly stronger — mean and variance are derived on demand
//!   with a single rounding each.
//! * Event-time histogram bins and all event counters are `u64`.
//! * Downtime is quantized to fixed-point ticks of 2⁻³² hours
//!   (≈ 0.85 µs). Scaling an `f64` by a power of two is exact, so each
//!   group's tick count is a pure function of its `downtime_hours`,
//!   and the tick sum is an exact integer.
//! * The per-group importance weight `w = exp(log_weight)` (see
//!   [`GroupHistory::log_weight`]) is quantized **once per group** to
//!   2⁻³² ticks — the same trick as downtime — and every weighted
//!   moment (`Σw`, `Σw²`, `Σw·x`, `Σw·x²`, `Σ(w·x)²`) is then an exact
//!   integer sum of pure per-group functions. Unbiased groups have
//!   `log_weight == 0.0` exactly, so `w == 1.0` and the quantization
//!   is the exact tick count 2³²: the weighted estimators degrade to
//!   the plain ones bit for bit when no biasing is active.
//!
//! Integer addition is associative and commutative, so **any** order of
//! [`StreamStats::push`] and [`StreamStats::merge`] over the same set
//! of group histories yields bit-identical state. This is what frees
//! the batch runner to schedule group batches dynamically (see
//! [`crate::run`]) and merge per-worker accumulators in whatever order
//! the workers finish: the result provably cannot depend on thread
//! count or scheduling, which is what lets the test suite demand exact
//! equality between the streamed and stored paths at every thread
//! count and claim-batch size.
//!
//! `StreamStats` intentionally has no serde derives: its exact state
//! uses `u128` fields, which the vendored offline serde does not
//! support. Reports derived from it ([`crate::run::PrecisionReport`])
//! serialize as usual.

use crate::events::{DdfKind, GroupHistory};
use crate::run::SimulationResult;

/// Default number of fixed-width DDF-time histogram bins.
///
/// 960 = 2⁶·3·5 divides evenly into every window count the experiment
/// binaries use (8, 10, 12, 16, 20, 96, …), so windowed ROCOF
/// estimates can be formed from the histogram without re-binning, and
/// common horizons (e.g. the first year of a 10-year mission) land
/// exactly on bin edges.
pub const DEFAULT_DDF_BINS: usize = 960;

/// Fixed-point downtime resolution: ticks per hour (2³²).
const DOWNTIME_TICKS_PER_HOUR: f64 = 4_294_967_296.0;

/// Fixed-point importance-weight resolution: ticks per unit weight
/// (2³²). A weight of exactly 1 — every group of an unbiased run —
/// quantizes to exactly 2³² ticks.
const WEIGHT_TICKS_PER_UNIT: f64 = 4_294_967_296.0;

/// Adds with overflow detection: a weighted accumulator that wraps
/// would silently corrupt every downstream estimate, so it aborts the
/// run instead (checkpoints preserve the work up to the last batch).
#[inline]
fn checked_acc(sum: &mut u128, add: u128, what: &str) {
    *sum = match sum.checked_add(add) {
        Some(v) => v,
        None => panic!("{what} accumulator overflowed u128"),
    };
}

/// Constant-size, mergeable aggregate of simulated group histories.
///
/// # Empty-result policy
///
/// Identical to [`SimulationResult`]: totals and counters are `0` on an
/// accumulator that has seen no groups, while per-group rates
/// ([`StreamStats::mean_ddfs`], [`StreamStats::ddfs_per_thousand_groups`],
/// [`StreamStats::mean_availability`], …) are statistically undefined
/// and panic.
///
/// # Example
///
/// ```
/// use raidsim_core::config::RaidGroupConfig;
/// use raidsim_core::run::Simulator;
/// use raidsim_core::stats::StreamStats;
///
/// # fn main() -> Result<(), raidsim_core::CoreError> {
/// let sim = Simulator::new(RaidGroupConfig::paper_base_case()?);
/// // The streamed aggregate is bit-identical to one computed from the
/// // stored histories, at any thread count.
/// let streamed = sim.run_streaming(100, 7, 4);
/// let stored = StreamStats::from_result(&sim.run(100, 7));
/// assert_eq!(streamed, stored);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, PartialEq)]
pub struct StreamStats {
    mission_hours: f64,
    groups: u64,
    /// Exact Σ of per-group DDF counts.
    ddf_sum: u64,
    /// Exact Σ of squared per-group DDF counts.
    ddf_sum_sq: u128,
    kind_double_op: u64,
    kind_latent_op: u64,
    op_failures: u64,
    latent_defects: u64,
    scrubs_completed: u64,
    restores_completed: u64,
    /// Exact Σ of per-group downtime, in 2⁻³²-hour ticks.
    downtime_ticks: u128,
    /// Exact Σ of quantized group weights `W`, in 2⁻³² weight ticks
    /// (exactly `groups · 2³²` for an unbiased run).
    weight_ticks: u128,
    /// Exact Σ of squared quantized weights `W²`, in 2⁻⁶⁴ ticks.
    weight_sq_ticks: u128,
    /// Exact Σ of `W·d` (weighted DDF counts), in 2⁻³² ticks.
    wddf_ticks: u128,
    /// Exact Σ of `W·d²` (weighted squared DDF counts), in 2⁻³² ticks.
    wddf_sq_ticks: u128,
    /// Exact Σ of `(W·d)²`, in 2⁻⁶⁴ ticks — the weighted estimator's
    /// own second moment.
    wddf_prod_sq_ticks: u128,
    /// DDF counts per fixed-width time bin over `[0, mission_hours]`;
    /// bins are half-open `[k·w, (k+1)·w)` except the last, which also
    /// includes the mission endpoint.
    ddf_time_bins: Vec<u64>,
}

impl Clone for StreamStats {
    /// Cloning an accumulator copies its histogram `Vec` — cheap in
    /// isolation but a smell on the driver hot path, where state should
    /// move. The manual impl (instead of `derive`) routes every clone
    /// through [`clone_audit`] so debug builds can assert the driver
    /// loop performs none.
    fn clone(&self) -> Self {
        clone_audit::record();
        Self {
            mission_hours: self.mission_hours,
            groups: self.groups,
            ddf_sum: self.ddf_sum,
            ddf_sum_sq: self.ddf_sum_sq,
            kind_double_op: self.kind_double_op,
            kind_latent_op: self.kind_latent_op,
            op_failures: self.op_failures,
            latent_defects: self.latent_defects,
            scrubs_completed: self.scrubs_completed,
            restores_completed: self.restores_completed,
            downtime_ticks: self.downtime_ticks,
            weight_ticks: self.weight_ticks,
            weight_sq_ticks: self.weight_sq_ticks,
            wddf_ticks: self.wddf_ticks,
            wddf_sq_ticks: self.wddf_sq_ticks,
            wddf_prod_sq_ticks: self.wddf_prod_sq_ticks,
            ddf_time_bins: self.ddf_time_bins.clone(),
        }
    }
}

/// Debug-build audit trail of [`StreamStats`] clones.
///
/// The counter is thread-local: the precision driver snapshots it on
/// entry and asserts it unchanged on exit, proving report assembly and
/// checkpoint writes on the coordinator thread move moment state
/// instead of copying it. Worker threads have their own counters, so
/// legitimate clones elsewhere never trip the assertion. Compiled to
/// nothing in release builds.
pub(crate) mod clone_audit {
    #[cfg(debug_assertions)]
    thread_local! {
        static CLONES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// Number of [`super::StreamStats`] clones this thread has made.
    /// Only compiled in debug builds, where the driver assertion that
    /// reads it exists.
    #[cfg(debug_assertions)]
    pub(crate) fn count() -> u64 {
        CLONES.with(|c| c.get())
    }

    /// Records one clone.
    pub(crate) fn record() {
        #[cfg(debug_assertions)]
        CLONES.with(|c| c.set(c.get() + 1));
    }
}

/// Load-balance diagnostics from one dynamically scheduled run
/// ([`crate::run::Simulator::run_streaming_instrumented`]).
///
/// Unlike [`StreamStats`], this is **not** deterministic: which worker
/// claims which batch depends on thread timing. It answers one question
/// — how evenly did the scheduler spread the work — and feeds the
/// `cargo xtask bench` harness's scheduler-efficiency columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Groups completed by each worker, one entry per worker (a single
    /// entry when the run took the serial path).
    pub worker_groups: Vec<u64>,
    /// OS threads spawned for the run: the worker-pool size for a
    /// parallel run (the pool is spawned once and reused across every
    /// driver batch), `0` for the serial path.
    pub thread_spawns: u64,
    /// Workers that died mid-run (panicked) and whose unclaimed work
    /// was resubmitted to the survivors. Always `0` on a healthy run;
    /// a lost worker's `worker_groups` entry is `0`.
    pub workers_lost: u64,
    /// Fused-sweep runs only: cross-scenario steals — the number of
    /// (worker, scenario) pairs where a worker that had already drained
    /// an earlier scenario claimed work from a later one instead of
    /// idling at a quiesce barrier. `0` for single-scenario runs. Like
    /// `worker_groups`, timing-dependent: a diagnostic, never part of
    /// the deterministic aggregates.
    pub steals: u64,
    /// Engine work counters merged across all workers (see
    /// [`crate::engine::EngineCounters`] for field semantics and which
    /// fields are deterministic).
    pub counters: crate::engine::EngineCounters,
}

impl SchedulerStats {
    /// Total groups completed across all workers.
    pub fn total(&self) -> u64 {
        self.worker_groups.iter().sum()
    }

    /// Groups completed by the busiest worker (`0` if no workers ran).
    pub fn max_worker_groups(&self) -> u64 {
        self.worker_groups.iter().copied().max().unwrap_or(0)
    }

    /// Groups completed by the least-busy worker (`0` if no workers
    /// ran).
    pub fn min_worker_groups(&self) -> u64 {
        self.worker_groups.iter().copied().min().unwrap_or(0)
    }

    /// Load-balance ratio `min / max` in `[0, 1]`: `1.0` is a perfectly
    /// even split, values near `0` mean some worker starved.
    ///
    /// # Panics
    ///
    /// Panics if no workers ran (balance of nothing is undefined).
    pub fn balance(&self) -> f64 {
        assert!(
            !self.worker_groups.is_empty(),
            "no workers ran (load balance is undefined)"
        );
        let max = self.max_worker_groups();
        if max == 0 {
            return 1.0;
        }
        self.min_worker_groups() as f64 / max as f64
    }
}

impl StreamStats {
    /// Creates an empty accumulator for a mission of the given length,
    /// with [`DEFAULT_DDF_BINS`] histogram bins.
    ///
    /// # Panics
    ///
    /// Panics if `mission_hours` is not finite and positive.
    pub fn new(mission_hours: f64) -> Self {
        Self::with_bins(mission_hours, DEFAULT_DDF_BINS)
    }

    /// Creates an empty accumulator with a custom histogram bin count.
    ///
    /// # Panics
    ///
    /// Panics if `mission_hours` is not finite and positive or
    /// `bins == 0`.
    pub fn with_bins(mission_hours: f64, bins: usize) -> Self {
        assert!(
            mission_hours.is_finite() && mission_hours > 0.0,
            "mission length must be finite and positive"
        );
        assert!(bins > 0, "need at least one histogram bin");
        Self {
            mission_hours,
            groups: 0,
            ddf_sum: 0,
            ddf_sum_sq: 0,
            kind_double_op: 0,
            kind_latent_op: 0,
            op_failures: 0,
            latent_defects: 0,
            scrubs_completed: 0,
            restores_completed: 0,
            downtime_ticks: 0,
            weight_ticks: 0,
            weight_sq_ticks: 0,
            wddf_ticks: 0,
            wddf_sq_ticks: 0,
            wddf_prod_sq_ticks: 0,
            ddf_time_bins: vec![0; bins],
        }
    }

    /// Accumulates one stored result (the bridge between the two
    /// paths; used by the equivalence tests and for re-aggregating
    /// small runs).
    pub fn from_result(result: &SimulationResult) -> Self {
        let mut stats = Self::new(result.mission_hours);
        for h in &result.histories {
            stats.push(h);
        }
        stats
    }

    /// Folds one group history into the aggregate.
    pub fn push(&mut self, h: &GroupHistory) {
        self.groups += 1;
        let d = h.ddf_count() as u64;
        self.ddf_sum += d;
        self.ddf_sum_sq += u128::from(d) * u128::from(d);
        // Quantize the group's importance weight once (module docs);
        // every weighted sum then accumulates an exact integer, and
        // unit weights quantize to exactly 2³² ticks.
        assert!(
            h.log_weight.is_finite(),
            "group log-weight must be finite, got {}",
            h.log_weight
        );
        let w_units = h.log_weight.exp() * WEIGHT_TICKS_PER_UNIT;
        assert!(
            w_units < u64::MAX as f64,
            "group weight exp({}) overflows the 2⁻³² fixed-point range",
            h.log_weight
        );
        let w = u128::from(w_units.round() as u64);
        checked_acc(&mut self.weight_ticks, w, "weight");
        checked_acc(&mut self.weight_sq_ticks, w * w, "squared-weight");
        let wd = w * u128::from(d);
        checked_acc(&mut self.wddf_ticks, wd, "weighted-DDF");
        let wd_sq = match w.checked_mul(u128::from(d) * u128::from(d)) {
            Some(v) => v,
            None => panic!("weighted squared-DDF term overflowed u128"),
        };
        checked_acc(&mut self.wddf_sq_ticks, wd_sq, "weighted squared-DDF");
        let wd_prod_sq = match wd.checked_mul(wd) {
            Some(v) => v,
            None => panic!("squared weighted-DDF term overflowed u128"),
        };
        checked_acc(
            &mut self.wddf_prod_sq_ticks,
            wd_prod_sq,
            "squared weighted-DDF",
        );
        let bins = self.ddf_time_bins.len();
        for e in &h.ddfs {
            debug_assert!(
                e.time.is_finite() && e.time >= 0.0 && e.time <= self.mission_hours,
                "DDF time outside mission window"
            );
            match e.kind {
                DdfKind::DoubleOperational => self.kind_double_op += 1,
                DdfKind::LatentThenOperational => self.kind_latent_op += 1,
            }
            let bin = ((e.time / self.mission_hours * bins as f64) as usize).min(bins - 1);
            self.ddf_time_bins[bin] += 1;
        }
        self.op_failures += h.op_failures;
        self.latent_defects += h.latent_defects;
        self.scrubs_completed += h.scrubs_completed;
        self.restores_completed += h.restores_completed;
        debug_assert!(
            h.downtime_hours.is_finite() && h.downtime_hours >= 0.0,
            "downtime must be finite and non-negative"
        );
        self.downtime_ticks += (h.downtime_hours * DOWNTIME_TICKS_PER_HOUR).round() as u128;
    }

    /// Merges another accumulator into this one.
    ///
    /// Exact in every field, so merge order cannot affect the result
    /// (see the module-level determinism argument).
    ///
    /// # Panics
    ///
    /// Panics if mission lengths or histogram bin counts differ.
    pub fn merge(&mut self, other: StreamStats) {
        assert_eq!(
            self.mission_hours, other.mission_hours,
            "cannot merge stats with different missions"
        );
        assert_eq!(
            self.ddf_time_bins.len(),
            other.ddf_time_bins.len(),
            "cannot merge stats with different histogram resolutions"
        );
        self.groups += other.groups;
        self.ddf_sum += other.ddf_sum;
        self.ddf_sum_sq += other.ddf_sum_sq;
        self.kind_double_op += other.kind_double_op;
        self.kind_latent_op += other.kind_latent_op;
        self.op_failures += other.op_failures;
        self.latent_defects += other.latent_defects;
        self.scrubs_completed += other.scrubs_completed;
        self.restores_completed += other.restores_completed;
        self.downtime_ticks += other.downtime_ticks;
        checked_acc(&mut self.weight_ticks, other.weight_ticks, "weight");
        checked_acc(
            &mut self.weight_sq_ticks,
            other.weight_sq_ticks,
            "squared-weight",
        );
        checked_acc(&mut self.wddf_ticks, other.wddf_ticks, "weighted-DDF");
        checked_acc(
            &mut self.wddf_sq_ticks,
            other.wddf_sq_ticks,
            "weighted squared-DDF",
        );
        checked_acc(
            &mut self.wddf_prod_sq_ticks,
            other.wddf_prod_sq_ticks,
            "squared weighted-DDF",
        );
        for (mine, theirs) in self.ddf_time_bins.iter_mut().zip(&other.ddf_time_bins) {
            *mine += theirs;
        }
    }

    /// Groups aggregated so far.
    pub fn groups(&self) -> u64 {
        self.groups
    }

    /// `true` when no groups have been aggregated.
    pub fn is_empty(&self) -> bool {
        self.groups == 0
    }

    /// Mission length, hours.
    pub fn mission_hours(&self) -> f64 {
        self.mission_hours
    }

    /// Total DDFs over the full mission.
    pub fn total_ddfs(&self) -> u64 {
        self.ddf_sum
    }

    /// DDF counts by kind: `(double-operational, latent-then-operational)`.
    pub fn kind_counts(&self) -> (u64, u64) {
        (self.kind_double_op, self.kind_latent_op)
    }

    /// Total operational failures across groups.
    pub fn total_op_failures(&self) -> u64 {
        self.op_failures
    }

    /// Total latent defects created across groups.
    pub fn total_latent_defects(&self) -> u64 {
        self.latent_defects
    }

    /// Total scrub corrections across groups.
    pub fn total_scrubs_completed(&self) -> u64 {
        self.scrubs_completed
    }

    /// Total drive restorations across groups.
    pub fn total_restores_completed(&self) -> u64 {
        self.restores_completed
    }

    /// Total drive-hours spent down across all groups (quantized to
    /// 2⁻³²-hour ticks; see the module docs).
    pub fn downtime_hours(&self) -> f64 {
        self.downtime_ticks as f64 / DOWNTIME_TICKS_PER_HOUR
    }

    /// Mean DDFs per group.
    ///
    /// # Panics
    ///
    /// Panics on an empty accumulator (see the empty-result policy).
    pub fn mean_ddfs(&self) -> f64 {
        assert!(self.groups > 0, "no groups aggregated");
        self.ddf_sum as f64 / self.groups as f64
    }

    /// Unbiased sample variance of per-group DDF counts, computed from
    /// the exact integer moments: `(n·Σx² − (Σx)²) / (n·(n−1))`.
    ///
    /// The numerator is evaluated in `u128`, so — unlike the float
    /// sum-of-squares shortcut — it cannot suffer catastrophic
    /// cancellation.
    ///
    /// # Panics
    ///
    /// Panics with fewer than two groups.
    pub fn variance_ddfs(&self) -> f64 {
        assert!(self.groups >= 2, "variance needs at least two groups");
        let n = u128::from(self.groups);
        let s = u128::from(self.ddf_sum);
        // Cauchy–Schwarz guarantees n·Σx² ≥ (Σx)², so the exact path
        // cannot underflow — but `n·Σx²` itself can exceed `u128` at
        // extreme scale (order 2⁶⁴ groups with order-2³² DDF counts).
        // Fall back to floats there: the subtraction then loses at most
        // the usual ~2⁻⁵³ relative precision, negligible against
        // sampling error at such counts, instead of aborting the run.
        let num = match n.checked_mul(self.ddf_sum_sq) {
            Some(ns) => (ns - s * s) as f64,
            None => {
                self.groups as f64 * self.ddf_sum_sq as f64
                    - self.ddf_sum as f64 * self.ddf_sum as f64
            }
        };
        num.max(0.0) / (self.groups as f64 * (self.groups - 1) as f64)
    }

    /// Normal-approximation confidence half-width of the mean DDFs per
    /// group, for a two-sided z-score `z`.
    ///
    /// # Panics
    ///
    /// Panics with fewer than two groups.
    pub fn half_width(&self, z: f64) -> f64 {
        z * (self.variance_ddfs() / self.groups as f64).sqrt()
    }

    /// Total importance weight `Σw` across groups (quantized to 2⁻³²
    /// ticks; exactly `groups` for an unbiased run).
    pub fn weight_sum(&self) -> f64 {
        self.weight_ticks as f64 / WEIGHT_TICKS_PER_UNIT
    }

    /// Effective sample size `(Σw)² / Σw²` of the weighted sample, in
    /// groups. Cauchy–Schwarz bounds it by `groups`, with equality
    /// exactly when every weight is equal — in particular for unbiased
    /// runs — and it shrinks as the weights disperse.
    ///
    /// # Panics
    ///
    /// Panics on an empty accumulator.
    pub fn effective_sample_size(&self) -> f64 {
        assert!(self.groups > 0, "no groups aggregated");
        if self.weight_ticks == 0 {
            return 0.0;
        }
        // Both numerator and denominator are in 2⁻⁶⁴ tick units, so
        // the scales cancel exactly.
        let s = self.weight_ticks as f64;
        s * s / self.weight_sq_ticks as f64
    }

    /// Unnormalized importance-sampling estimate of the mean DDFs per
    /// group under the **original** measure: `Σ(wᵢ·dᵢ) / n`.
    ///
    /// Dividing by `n` (not `Σw`) keeps the estimator unbiased:
    /// `E_g[w·D] = E_f[D]` holds exactly for any tilt (DESIGN.md §16).
    /// For an unbiased run every `wᵢ` is exactly 1 and this reproduces
    /// [`StreamStats::mean_ddfs`] bit for bit (the tick scale is a
    /// power of two, so removing it commutes with `f64` rounding).
    ///
    /// # Panics
    ///
    /// Panics on an empty accumulator.
    pub fn weighted_mean_ddfs(&self) -> f64 {
        assert!(self.groups > 0, "no groups aggregated");
        (self.wddf_ticks as f64 / WEIGHT_TICKS_PER_UNIT) / self.groups as f64
    }

    /// Unnormalized importance-sampling estimate of the mean **squared**
    /// DDF count under the original measure: `Σ(wᵢ·dᵢ²) / n`
    /// (`E_g[w·D²] = E_f[D²]`). Combined with
    /// [`StreamStats::weighted_mean_ddfs`] this yields a consistent
    /// estimate of the plain-measure per-group variance even when a
    /// plain run of the same size would record no events at all.
    ///
    /// # Panics
    ///
    /// Panics on an empty accumulator.
    pub fn weighted_mean_square_ddfs(&self) -> f64 {
        assert!(self.groups > 0, "no groups aggregated");
        (self.wddf_sq_ticks as f64 / WEIGHT_TICKS_PER_UNIT) / self.groups as f64
    }

    /// Unbiased sample variance of the weighted observations
    /// `yᵢ = wᵢ·dᵢ` — the Monte-Carlo variance of the weighted
    /// estimator's own terms: `(n·Σy² − (Σy)²) / (n·(n−1))`.
    ///
    /// Same structure and overflow policy as
    /// [`StreamStats::variance_ddfs`]: exact `u128` numerator when it
    /// fits, documented float fallback otherwise.
    ///
    /// # Panics
    ///
    /// Panics with fewer than two groups.
    pub fn weighted_variance_ddfs(&self) -> f64 {
        assert!(self.groups >= 2, "variance needs at least two groups");
        let n = u128::from(self.groups);
        // Numerator in 2⁻⁶⁴ tick units; integer Cauchy–Schwarz
        // guarantees the exact path cannot underflow.
        let num = match (
            n.checked_mul(self.wddf_prod_sq_ticks),
            self.wddf_ticks.checked_mul(self.wddf_ticks),
        ) {
            (Some(nq), Some(ss)) => (nq - ss) as f64,
            _ => {
                self.groups as f64 * self.wddf_prod_sq_ticks as f64
                    - self.wddf_ticks as f64 * self.wddf_ticks as f64
            }
        };
        let ticks_sq = WEIGHT_TICKS_PER_UNIT * WEIGHT_TICKS_PER_UNIT;
        (num / ticks_sq).max(0.0) / (self.groups as f64 * (self.groups - 1) as f64)
    }

    /// Normal-approximation confidence half-width of
    /// [`StreamStats::weighted_mean_ddfs`], for a two-sided z-score
    /// `z`.
    ///
    /// # Panics
    ///
    /// Panics with fewer than two groups.
    pub fn weighted_half_width(&self, z: f64) -> f64 {
        z * (self.weighted_variance_ddfs() / self.groups as f64).sqrt()
    }

    /// DDFs per 1,000 groups over the full mission.
    ///
    /// # Panics
    ///
    /// Panics on an empty accumulator.
    pub fn ddfs_per_thousand_groups(&self) -> f64 {
        assert!(self.groups > 0, "no groups aggregated");
        1_000.0 * self.ddf_sum as f64 / self.groups as f64
    }

    /// DDFs occurring before `t` hours, from the histogram.
    ///
    /// `t` must lie on a histogram bin edge (or equal the mission
    /// length): the histogram cannot resolve sub-bin horizons, and
    /// silently flooring would misreport. Bins are half-open, so an
    /// event at exactly `t` is *not* counted — for continuously
    /// distributed event times the difference has probability zero.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not aligned with a bin edge (within 10⁻⁹ of
    /// one bin width) or is outside `[0, mission_hours]`.
    pub fn ddfs_through(&self, t: f64) -> u64 {
        assert!(
            (0.0..=self.mission_hours).contains(&t),
            "horizon {t} outside the mission window"
        );
        if t == self.mission_hours {
            return self.ddf_sum;
        }
        let bins = self.ddf_time_bins.len() as f64;
        let pos = t / self.mission_hours * bins;
        let edge = pos.round();
        // `pos` is measured in bin widths, so a fixed 1e-9 here is a
        // tolerance *relative to one bin* — it does not loosen as the
        // bin count grows the way the former `1e-9 * bins` bound did
        // (at 10⁶ bins that accepted horizons a tenth of a bin off).
        assert!(
            (pos - edge).abs() <= 1e-9,
            "horizon {t} does not align with a histogram bin edge \
             (bin width {})",
            self.bin_width()
        );
        self.ddf_time_bins[..edge as usize].iter().sum()
    }

    /// DDFs per 1,000 groups before `t` hours (same alignment rules as
    /// [`StreamStats::ddfs_through`]).
    ///
    /// # Panics
    ///
    /// Panics on an empty accumulator or a misaligned horizon.
    pub fn per_thousand_through(&self, t: f64) -> f64 {
        assert!(self.groups > 0, "no groups aggregated");
        1_000.0 * self.ddfs_through(t) as f64 / self.groups as f64
    }

    /// The DDF-time histogram: counts per fixed-width bin over
    /// `[0, mission_hours]`, pooled across all groups.
    pub fn ddf_time_histogram(&self) -> &[u64] {
        &self.ddf_time_bins
    }

    /// Width of one histogram bin, hours.
    pub fn bin_width(&self) -> f64 {
        self.mission_hours / self.ddf_time_bins.len() as f64
    }

    /// Fleet-average drive availability: up drive-hours over total
    /// drive-hours.
    ///
    /// # Panics
    ///
    /// Panics on an empty accumulator or `drives == 0`.
    pub fn mean_availability(&self, drives: usize) -> f64 {
        assert!(self.groups > 0, "no groups aggregated");
        assert!(drives > 0, "need at least one drive");
        1.0 - self.downtime_hours() / (self.groups as f64 * drives as f64 * self.mission_hours)
    }

    /// Appends the little-endian binary encoding of the accumulator to
    /// `out` (the checkpoint codec — see [`crate::checkpoint`]).
    ///
    /// The encoding is a pure function of the accumulator state:
    /// `mission_hours` as IEEE-754 bits, every integer field verbatim,
    /// and the histogram as a length-prefixed array. Because the state
    /// itself is bit-identical across thread counts and merge orders
    /// (the module-level determinism argument), so is the encoding.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.mission_hours.to_bits().to_le_bytes());
        out.extend_from_slice(&self.groups.to_le_bytes());
        out.extend_from_slice(&self.ddf_sum.to_le_bytes());
        out.extend_from_slice(&self.ddf_sum_sq.to_le_bytes());
        out.extend_from_slice(&self.kind_double_op.to_le_bytes());
        out.extend_from_slice(&self.kind_latent_op.to_le_bytes());
        out.extend_from_slice(&self.op_failures.to_le_bytes());
        out.extend_from_slice(&self.latent_defects.to_le_bytes());
        out.extend_from_slice(&self.scrubs_completed.to_le_bytes());
        out.extend_from_slice(&self.restores_completed.to_le_bytes());
        out.extend_from_slice(&self.downtime_ticks.to_le_bytes());
        out.extend_from_slice(&self.weight_ticks.to_le_bytes());
        out.extend_from_slice(&self.weight_sq_ticks.to_le_bytes());
        out.extend_from_slice(&self.wddf_ticks.to_le_bytes());
        out.extend_from_slice(&self.wddf_sq_ticks.to_le_bytes());
        out.extend_from_slice(&self.wddf_prod_sq_ticks.to_le_bytes());
        out.extend_from_slice(&(self.ddf_time_bins.len() as u64).to_le_bytes());
        for bin in &self.ddf_time_bins {
            out.extend_from_slice(&bin.to_le_bytes());
        }
    }

    /// Decodes an accumulator previously written by
    /// [`StreamStats::encode_into`], validating every structural
    /// invariant the accessors rely on — a corrupt or truncated byte
    /// stream yields an error, never a panic and never an accumulator
    /// that would later violate an internal assertion.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason when the bytes are truncated,
    /// leave trailing garbage, or describe an impossible state
    /// (non-finite mission, zero histogram bins, kind counts or
    /// histogram totals inconsistent with the DDF sum, mean square
    /// below the squared mean).
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        let mut r = Decoder { bytes, pos: 0 };
        let mission_hours = f64::from_bits(r.u64()?);
        if !mission_hours.is_finite() || mission_hours <= 0.0 {
            return Err(format!("mission length {mission_hours} is not positive"));
        }
        let groups = r.u64()?;
        let ddf_sum = r.u64()?;
        let ddf_sum_sq = r.u128()?;
        let kind_double_op = r.u64()?;
        let kind_latent_op = r.u64()?;
        let op_failures = r.u64()?;
        let latent_defects = r.u64()?;
        let scrubs_completed = r.u64()?;
        let restores_completed = r.u64()?;
        let downtime_ticks = r.u128()?;
        let weight_ticks = r.u128()?;
        let weight_sq_ticks = r.u128()?;
        let wddf_ticks = r.u128()?;
        let wddf_sq_ticks = r.u128()?;
        let wddf_prod_sq_ticks = r.u128()?;
        let bin_count = r.u64()?;
        if bin_count == 0 {
            return Err("histogram has zero bins".into());
        }
        if bin_count > (bytes.len() / 8) as u64 {
            // A plausibility bound before allocating: each bin needs 8
            // bytes that must already be present in the input.
            return Err(format!("histogram bin count {bin_count} exceeds payload"));
        }
        let mut ddf_time_bins = Vec::with_capacity(bin_count as usize);
        for _ in 0..bin_count {
            ddf_time_bins.push(r.u64()?);
        }
        if r.pos != bytes.len() {
            return Err(format!(
                "{} trailing byte(s) after statistics state",
                bytes.len() - r.pos
            ));
        }
        // Cross-field invariants: each DDF is counted once in the kind
        // totals and once in the histogram, and Cauchy–Schwarz bounds
        // the moments. `variance_ddfs` and `ddfs_through` rely on these.
        if kind_double_op.checked_add(kind_latent_op) != Some(ddf_sum) {
            return Err("kind counts do not sum to the DDF total".into());
        }
        let hist_total = ddf_time_bins
            .iter()
            .try_fold(0u64, |acc, &b| acc.checked_add(b));
        if hist_total != Some(ddf_sum) {
            return Err("histogram total does not match the DDF total".into());
        }
        if groups == 0 && ddf_sum != 0 {
            return Err("DDFs recorded without any groups".into());
        }
        if ddf_sum_sq < u128::from(ddf_sum) {
            // Σx² ≥ Σx for non-negative integer observations.
            return Err("squared-moment field is below the DDF total".into());
        }
        // The Cauchy–Schwarz checks skip (accept) when their products
        // overflow `u128` — they are plausibility screens, and the
        // accessors handle such extreme states via their float
        // fallbacks.
        if let Some(ns) = u128::from(groups).checked_mul(ddf_sum_sq) {
            if ns < u128::from(ddf_sum) * u128::from(ddf_sum) {
                return Err("moment fields violate the Cauchy-Schwarz bound".into());
            }
        }
        if weight_ticks == 0
            && (weight_sq_ticks != 0
                || wddf_ticks != 0
                || wddf_sq_ticks != 0
                || wddf_prod_sq_ticks != 0)
        {
            return Err("weighted moments recorded without any weight".into());
        }
        if groups == 0 && weight_ticks != 0 {
            return Err("weight recorded without any groups".into());
        }
        if let (Some(nq), Some(ss)) = (
            u128::from(groups).checked_mul(weight_sq_ticks),
            weight_ticks.checked_mul(weight_ticks),
        ) {
            if nq < ss {
                return Err("weight moments violate the Cauchy-Schwarz bound".into());
            }
        }
        if let (Some(nq), Some(ss)) = (
            u128::from(groups).checked_mul(wddf_prod_sq_ticks),
            wddf_ticks.checked_mul(wddf_ticks),
        ) {
            if nq < ss {
                return Err("weighted-DDF moments violate the Cauchy-Schwarz bound".into());
            }
        }
        Ok(Self {
            mission_hours,
            groups,
            ddf_sum,
            ddf_sum_sq,
            kind_double_op,
            kind_latent_op,
            op_failures,
            latent_defects,
            scrubs_completed,
            restores_completed,
            downtime_ticks,
            weight_ticks,
            weight_sq_ticks,
            wddf_ticks,
            wddf_sq_ticks,
            wddf_prod_sq_ticks,
            ddf_time_bins,
        })
    }
}

/// Bounds-checked little-endian reader shared by [`StreamStats::decode`]
/// and the checkpoint codec ([`crate::checkpoint`]).
pub(crate) struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Starts reading `bytes` from the beginning.
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Reads the next `N` bytes, or errors on truncation.
    pub(crate) fn take<const N: usize>(&mut self) -> Result<[u8; N], String> {
        match self.bytes.get(self.pos..self.pos + N) {
            Some(slice) => {
                self.pos += N;
                let mut buf = [0u8; N];
                buf.copy_from_slice(slice);
                Ok(buf)
            }
            None => Err(format!(
                "truncated at byte {} (needed {N} more)",
                self.pos.min(self.bytes.len())
            )),
        }
    }

    pub(crate) fn u8(&mut self) -> Result<u8, String> {
        self.take().map(|[b]| b)
    }

    pub(crate) fn u32(&mut self) -> Result<u32, String> {
        self.take().map(u32::from_le_bytes)
    }

    pub(crate) fn u64(&mut self) -> Result<u64, String> {
        self.take().map(u64::from_le_bytes)
    }

    pub(crate) fn u128(&mut self) -> Result<u128, String> {
        self.take().map(u128::from_le_bytes)
    }

    /// The bytes not yet consumed.
    pub(crate) fn remaining(&self) -> &'a [u8] {
        &self.bytes[self.pos..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::DdfEvent;

    fn history(ddf_times: &[f64], downtime: f64) -> GroupHistory {
        GroupHistory {
            ddfs: ddf_times
                .iter()
                .map(|&time| DdfEvent {
                    time,
                    kind: if time < 500.0 {
                        DdfKind::LatentThenOperational
                    } else {
                        DdfKind::DoubleOperational
                    },
                })
                .collect(),
            op_failures: ddf_times.len() as u64 + 1,
            latent_defects: 3,
            scrubs_completed: 2,
            restores_completed: 1,
            downtime_hours: downtime,
            log_weight: 0.0,
        }
    }

    fn weighted(ddf_times: &[f64], log_weight: f64) -> GroupHistory {
        GroupHistory {
            log_weight,
            ..history(ddf_times, 0.0)
        }
    }

    #[test]
    fn push_accumulates_all_counters() {
        let mut s = StreamStats::new(1_000.0);
        s.push(&history(&[100.0, 600.0], 4.0));
        s.push(&history(&[], 0.0));
        assert_eq!(s.groups(), 2);
        assert_eq!(s.total_ddfs(), 2);
        assert_eq!(s.kind_counts(), (1, 1));
        assert_eq!(s.total_op_failures(), 4);
        assert_eq!(s.total_latent_defects(), 6);
        assert_eq!(s.total_scrubs_completed(), 4);
        assert_eq!(s.total_restores_completed(), 2);
        assert!((s.downtime_hours() - 4.0).abs() < 1e-9);
        assert_eq!(s.ddf_time_histogram().iter().sum::<u64>(), 2);
    }

    #[test]
    fn moments_match_direct_formulas() {
        let mut s = StreamStats::new(1_000.0);
        for times in [&[100.0, 600.0][..], &[][..], &[700.0][..], &[][..]] {
            s.push(&history(times, 0.0));
        }
        // Counts 2, 0, 1, 0: mean 0.75, sample variance 0.9166….
        assert!((s.mean_ddfs() - 0.75).abs() < 1e-15);
        let direct = [2.0f64, 0.0, 1.0, 0.0]
            .iter()
            .map(|c| (c - 0.75f64).powi(2))
            .sum::<f64>()
            / 3.0;
        assert!((s.variance_ddfs() - direct).abs() < 1e-15);
        assert!((s.ddfs_per_thousand_groups() - 750.0).abs() < 1e-12);
    }

    #[test]
    fn merge_in_any_order_is_identical() {
        let histories: Vec<GroupHistory> = (0..20)
            .map(|i| history(&[i as f64 * 37.0 + 1.0], 0.25 * i as f64))
            .collect();
        let mut sequential = StreamStats::new(1_000.0);
        for h in &histories {
            sequential.push(h);
        }
        // Three chunks merged back-to-front.
        let chunk = |range: std::ops::Range<usize>| {
            let mut s = StreamStats::new(1_000.0);
            for h in &histories[range] {
                s.push(h);
            }
            s
        };
        let mut reversed = chunk(13..20);
        reversed.merge(chunk(5..13));
        reversed.merge(chunk(0..5));
        assert_eq!(sequential, reversed);
    }

    #[test]
    fn histogram_bins_and_edges() {
        let mut s = StreamStats::with_bins(1_000.0, 10);
        // One event per quarter plus one exactly at the mission end.
        s.push(&history(&[50.0, 250.0, 850.0, 1_000.0], 0.0));
        let bins = s.ddf_time_histogram();
        assert_eq!(bins[0], 1);
        assert_eq!(bins[2], 1);
        assert_eq!(bins[8], 1);
        assert_eq!(bins[9], 1); // endpoint clamps into the last bin
        assert_eq!(s.ddfs_through(100.0), 1);
        assert_eq!(s.ddfs_through(300.0), 2);
        assert_eq!(s.ddfs_through(1_000.0), 4);
        assert!((s.per_thousand_through(300.0) - 2_000.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "bin edge")]
    fn misaligned_horizon_panics() {
        let mut s = StreamStats::with_bins(1_000.0, 10);
        s.push(&history(&[], 0.0));
        s.ddfs_through(150.0);
    }

    #[test]
    #[should_panic(expected = "bin edge")]
    fn horizon_tolerance_stays_tight_at_high_bin_counts() {
        // One ten-thousandth of a bin off: the former `1e-9 * bins`
        // tolerance (1e-3 bins at this resolution) accepted this
        // silently-floored horizon; the relative bound rejects it.
        let mut s = StreamStats::with_bins(1_000.0, 1_000_000);
        s.push(&history(&[], 0.0));
        let bin = 1_000.0 / 1_000_000.0;
        s.ddfs_through(123.0 * bin + 1e-4 * bin);
    }

    #[test]
    fn exact_edges_still_align_at_high_bin_counts() {
        let mut s = StreamStats::with_bins(1_000.0, 1_000_000);
        s.push(&history(&[600.0], 0.0));
        let bin = 1_000.0 / 1_000_000.0;
        // Representable-float noise on an exact edge stays far inside
        // the 1e-9-of-a-bin tolerance.
        assert_eq!(s.ddfs_through(123.0 * bin), 0);
        assert_eq!(s.ddfs_through(700.0), 1);
    }

    #[test]
    #[should_panic(expected = "no groups aggregated")]
    fn empty_mean_panics() {
        StreamStats::new(100.0).mean_ddfs();
    }

    #[test]
    #[should_panic(expected = "no groups aggregated")]
    fn empty_per_thousand_panics() {
        StreamStats::new(100.0).ddfs_per_thousand_groups();
    }

    #[test]
    #[should_panic(expected = "at least two groups")]
    fn single_group_variance_panics() {
        let mut s = StreamStats::new(100.0);
        s.push(&GroupHistory::default());
        s.variance_ddfs();
    }

    #[test]
    #[should_panic(expected = "different missions")]
    fn merge_rejects_mismatched_missions() {
        let mut a = StreamStats::new(100.0);
        a.merge(StreamStats::new(200.0));
    }

    #[test]
    #[should_panic(expected = "different histogram resolutions")]
    fn merge_rejects_mismatched_bins() {
        let mut a = StreamStats::with_bins(100.0, 8);
        a.merge(StreamStats::with_bins(100.0, 16));
    }

    #[test]
    fn availability_matches_stored_formula() {
        let mut s = StreamStats::new(1_000.0);
        s.push(&history(&[], 40.0));
        s.push(&history(&[], 10.0));
        let expect = 1.0 - 50.0 / (2.0 * 8.0 * 1_000.0);
        assert!((s.mean_availability(8) - expect).abs() < 1e-9);
    }

    #[test]
    fn extreme_counts_fall_back_to_float_variance() {
        // Regression: `n·Σx²` here overflows u128, which the former
        // unchecked multiply turned into a debug-build panic (release:
        // silent wraparound). The fallback must return the float value
        // instead.
        let mut s = StreamStats::new(1_000.0);
        s.groups = u64::MAX;
        s.ddf_sum = u64::MAX;
        s.ddf_sum_sq = u128::MAX;
        let expect = (s.groups as f64 * s.ddf_sum_sq as f64 - s.ddf_sum as f64 * s.ddf_sum as f64)
            / (s.groups as f64 * (s.groups - 1) as f64);
        let got = s.variance_ddfs();
        assert!(got.is_finite() && got > 0.0);
        assert_eq!(got, expect);
    }

    #[test]
    fn unit_weights_degrade_weighted_estimators_exactly() {
        let mut s = StreamStats::new(1_000.0);
        for times in [&[100.0, 600.0][..], &[][..], &[700.0][..], &[][..]] {
            s.push(&history(times, 0.0));
        }
        assert_eq!(s.weight_sum(), s.groups() as f64);
        assert_eq!(s.effective_sample_size(), s.groups() as f64);
        // Bit-for-bit, not approximately: the tick scale is a power of
        // two (module docs).
        assert_eq!(s.weighted_mean_ddfs(), s.mean_ddfs());
        assert_eq!(s.weighted_variance_ddfs(), s.variance_ddfs());
        assert_eq!(s.weighted_half_width(1.96), s.half_width(1.96));
        assert_eq!(
            s.weighted_mean_square_ddfs(),
            s.ddf_sum_sq as f64 / s.groups() as f64
        );
    }

    #[test]
    fn weighted_moments_match_direct_formulas() {
        let mut s = StreamStats::new(1_000.0);
        let data: [(&[f64], f64); 4] = [
            (&[100.0, 600.0], -0.7),
            (&[], 0.4),
            (&[700.0], -1.3),
            (&[], 0.0),
        ];
        for (times, lw) in data {
            s.push(&weighted(times, lw));
        }
        let w: Vec<f64> = data.iter().map(|(_, lw)| lw.exp()).collect();
        let d: Vec<f64> = data.iter().map(|(t, _)| t.len() as f64).collect();
        let n = 4.0;
        let wsum: f64 = w.iter().sum();
        let wsq: f64 = w.iter().map(|x| x * x).sum();
        let y: Vec<f64> = w.iter().zip(&d).map(|(w, d)| w * d).collect();
        let ysum: f64 = y.iter().sum();
        let mean = ysum / n;
        let var = y.iter().map(|y| (y - mean).powi(2)).sum::<f64>() / (n - 1.0);
        // Quantization perturbs each weight by at most 2⁻³³ relative.
        assert!((s.weight_sum() - wsum).abs() < 1e-8);
        assert!((s.effective_sample_size() - wsum * wsum / wsq).abs() < 1e-8);
        assert!((s.weighted_mean_ddfs() - mean).abs() < 1e-8);
        assert!((s.weighted_variance_ddfs() - var).abs() < 1e-8);
        let msq = w.iter().zip(&d).map(|(w, d)| w * d * d).sum::<f64>() / n;
        assert!((s.weighted_mean_square_ddfs() - msq).abs() < 1e-8);
        assert!(s.effective_sample_size() <= s.groups() as f64);
    }

    #[test]
    fn weighted_merge_is_associative_and_order_independent() {
        let histories: Vec<GroupHistory> = (0..24)
            .map(|i| weighted(&[i as f64 * 37.0 + 1.0], 0.13 * i as f64 - 1.5))
            .collect();
        let mut sequential = StreamStats::new(1_000.0);
        for h in &histories {
            sequential.push(h);
        }
        let chunk = |range: std::ops::Range<usize>| {
            let mut s = StreamStats::new(1_000.0);
            for h in &histories[range] {
                s.push(h);
            }
            s
        };
        // (a ⊕ b) ⊕ c against a ⊕ (b ⊕ c), back-to-front.
        let mut left = chunk(0..8);
        left.merge(chunk(8..16));
        left.merge(chunk(16..24));
        let mut bc = chunk(8..16);
        bc.merge(chunk(16..24));
        let mut right = chunk(0..8);
        right.merge(bc);
        assert_eq!(sequential, left);
        assert_eq!(left, right);
        let mut reversed = chunk(16..24);
        reversed.merge(chunk(8..16));
        reversed.merge(chunk(0..8));
        assert_eq!(left, reversed);
    }

    #[test]
    fn weighted_codec_round_trips_bit_identically() {
        let mut s = StreamStats::with_bins(1_000.0, 16);
        for i in 0..12 {
            s.push(&weighted(&[i as f64 * 80.0 + 3.0], 0.21 * i as f64 - 1.0));
        }
        let mut bytes = Vec::new();
        s.encode_into(&mut bytes);
        let back = StreamStats::decode(&bytes).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn decode_rejects_truncation_at_every_length() {
        let mut s = StreamStats::with_bins(500.0, 4);
        s.push(&history(&[100.0], 2.0));
        let mut bytes = Vec::new();
        s.encode_into(&mut bytes);
        for len in 0..bytes.len() {
            assert!(
                StreamStats::decode(&bytes[..len]).is_err(),
                "decode accepted a {len}-byte prefix"
            );
        }
        // Trailing garbage is also rejected.
        let mut long = bytes.clone();
        long.push(0);
        assert!(StreamStats::decode(&long).is_err());
    }

    #[test]
    fn decode_rejects_inconsistent_state() {
        let mut s = StreamStats::with_bins(500.0, 4);
        s.push(&history(&[100.0, 400.0], 0.0));
        let mut bytes = Vec::new();
        s.encode_into(&mut bytes);
        // Flip a histogram bin (the last 8 bytes): total no longer
        // matches the DDF sum.
        let n = bytes.len();
        bytes[n - 8] ^= 0x01;
        assert!(StreamStats::decode(&bytes)
            .unwrap_err()
            .contains("histogram"));
    }

    #[test]
    fn downtime_quantization_is_negligible_and_exact() {
        let mut a = StreamStats::new(1_000.0);
        let mut b = StreamStats::new(1_000.0);
        let values = [0.1, 16.60000000000001, 3.3333333333, 900.0];
        for &v in &values {
            a.push(&history(&[], v));
        }
        for &v in values.iter().rev() {
            b.push(&history(&[], v));
        }
        // Exactly order-independent…
        assert_eq!(a, b);
        // …and within quantization distance of the float sum.
        let float_sum: f64 = values.iter().sum();
        assert!((a.downtime_hours() - float_sum).abs() < 1e-6);
    }
}
