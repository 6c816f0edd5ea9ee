//! The executor behind every run: epochs of segments, drained by lanes.
//!
//! # Epochs and segments
//!
//! Every unit of work a driver in [`crate::run`] dispatches is one
//! *epoch*: an ordered list of [`Segment`]s that tile one global index
//! range `[lo, hi)`. Segment `(scenario, lo, hi, stream_lo)` simulates
//! its global index `i` on RNG stream `stream_lo + (i − lo)` of the
//! scenario's seed. A single-configuration driver batch is a
//! one-segment epoch whose stream index is the absolute group index; a
//! fused sweep is one epoch with one segment per planned scenario. The
//! whole range is drained through one claim cursor, and every claimed
//! range is split at segment boundaries, so a claim (or a redone range)
//! may straddle two scenarios.
//!
//! # Lanes
//!
//! A [`Lane`] is one executor thread's simulation state: a
//! [`KernelCache`], one session per scenario (opened on the scenario's
//! first group and kept across epochs), the counters of sessions it
//! retired, progress-stride accounting, and **the** group loop,
//! [`Lane::run`] — the one place an executor calls `simulate_group`.
//! The serial runner (`threads == 1`) is a lane on the calling thread:
//! nothing is spawned and nothing is synchronized. Each pool worker is a
//! lane inside [`worker_loop`].
//!
//! # The pool
//!
//! One pool is created per run — not per epoch. Workers are spawned
//! once and epochs are dispatched to them over a condition variable:
//!
//! 1. the coordinator installs the epoch's plan (claim cursor and
//!    segments) and accumulator, publishes the job, bumps the epoch, and
//!    wakes every worker;
//! 2. workers drain the cursor into private accumulators, merge them
//!    into the epoch accumulator, and check out;
//! 3. the coordinator sleeps until the last worker has checked out.
//!
//! The checkout of the last worker is the quiesce point: every index in
//! `[lo, hi)` has completed, so the finished set is an exact prefix of
//! the group-index space at every batch boundary, which is what
//! checkpoint resume depends on (see [`crate::checkpoint`]).
//!
//! The handshake itself — every guarded decision listed above — is not
//! implemented here. It lives in [`crate::sync_model`] as pure
//! transitions on [`PoolCore`], which this module executes through the
//! [`SyncOps`] seam ([`StdSync`]: one mutex, two condvars) and which
//! the model checker executes under a virtual scheduler, exhaustively,
//! in `tests/pool_model.rs`. The split keeps exactly one copy of the
//! protocol: what is proved is what runs. This module adds only the
//! *data plane* — the epoch plan and the epoch accumulator — kept in a
//! second mutex ([`EpochData`]) that is never held while sleeping.
//! The two-lock split is safe because the data plane is only written by
//! the coordinator while no epoch is in flight (`active == 0`, before
//! publish / after quiesce) and by workers strictly before their own
//! guarded check-out, so the protocol's quiesce point orders every
//! access; the model checker verifies the ordering claims. Workers
//! merge exactly where the model merges: once per check-out attempt.
//!
//! Determinism: which lane simulates a group cannot affect its history
//! (per-group RNG streams), [`StreamStats`] partials are exact-integer
//! state that merges bit-identically in any order, and collected
//! histories are reassembled in global index order by the coordinator.
//!
//! Failure handling is *supervised* (see DESIGN.md §17):
//!
//! * In stream mode, a panic while simulating one group is caught and
//!   the group **quarantined**: its index still counts toward the
//!   completed watermark (so batch arithmetic and the prefix invariant
//!   hold) but its statistics are excluded, the session is retired
//!   (its counters folded into the lane) and reopened, and the run
//!   continues. Quarantined groups come back in [`Harvest::quarantine`]
//!   and make the run unresumable.
//! * A panic that kills a whole worker (an observer callback, session
//!   construction, a collect-mode group) trips its
//!   [`SupervisionGuard`]: the worker's *unmerged* claimed ranges —
//!   all of them, because its private accumulator dies with it — are
//!   resubmitted through [`PoolCore::mark_lost`], and survivors pick
//!   them up at their guarded check-out ([`PoolCore::check_out`]
//!   refuses to let a worker leave while the queue is non-empty), so
//!   no interleaving can quiesce the epoch with work unserved.
//!   Aggregates stay bit-identical because per-group RNG streams make
//!   redone work reproduce the dead worker's results exactly. (The
//!   shared progress counter may over-count redone groups; it feeds
//!   progress display only, never batch arithmetic.)
//! * Losing the *last* worker degenerates to the unsupervised abort:
//!   the pool latches `panicked` and the coordinator re-raises at its
//!   quiesce wait instead of deadlocking.
//!
//! Lock poisoning is deliberately ignored (`PoisonError::into_inner`)
//! because every critical section leaves the shared state consistent on
//! its own.

use crate::config::RaidGroupConfig;
use crate::engine::{BiasPolicy, Engine, EngineCounters, EngineSession, SessionTuning};
use crate::events::{GroupHistory, QuarantinedGroup};
use crate::run::{BatchCursor, Progress, StreamObserver, PROGRESS_STRIDE};
use crate::stats::{SchedulerStats, StreamStats};
use crate::sync_model::{
    effective_claim, CheckOutcome, Cv, JobSpec, PoolCore, QuiescePoll, StdSync, SyncOps, Wake,
    WorkerPoll,
};
use raidsim_dists::rng::stream;
use raidsim_dists::KernelCache;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// One configuration an executor simulates, with the master seed of its
/// per-group RNG streams.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PlannedScenario<'a> {
    /// Configuration to simulate.
    pub cfg: &'a RaidGroupConfig,
    /// Master seed; the scenario's groups draw `stream(seed, index)`.
    pub seed: u64,
}

/// A contiguous run of one scenario's groups inside an epoch: global
/// indices `[lo, hi)` simulate scenario `scenario` on RNG streams
/// `stream_lo..stream_lo + (hi − lo)` of its seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Segment {
    /// Index into the executor's scenario table.
    pub scenario: usize,
    /// First global index (inclusive).
    pub lo: u64,
    /// One past the last global index.
    pub hi: u64,
    /// Stream index of global index `lo`.
    pub stream_lo: u64,
}

impl Segment {
    /// Groups `[lo, hi)` of a single-configuration run: scenario 0,
    /// group `i` on stream `i`.
    pub(crate) fn batch(lo: u64, hi: u64) -> Self {
        Segment {
            scenario: 0,
            lo,
            hi,
            stream_lo: lo,
        }
    }
}

/// Everything an executor needs, borrowed from the driving run.
pub(crate) struct ExecCtx<'a> {
    /// Engine shared by every lane (each opens its own sessions).
    pub engine: &'a dyn Engine,
    /// Scenario table that segments index into.
    pub scenarios: &'a [PlannedScenario<'a>],
    /// Sampling-measure change every session applies (see
    /// [`BiasPolicy`]); scheduling invariance is unaffected because
    /// every session applies the same policy to the same per-group
    /// streams.
    pub bias: BiasPolicy,
    /// Tuning every session opens with; every tuning is bit-identical
    /// to every other, so scheduling invariance is preserved.
    pub tuning: SessionTuning,
    /// Lane count: `1` runs on the calling thread, more spawn a pool.
    pub threads: usize,
    /// Configured claim-batch size, clamped per epoch by
    /// [`effective_claim`].
    pub claim_batch: u64,
    /// Progress sink; called from whichever thread runs a lane.
    pub observer: &'a dyn StreamObserver,
    /// Global completed-group counter (absolute, survives across
    /// epochs; resumed runs start it at the checkpointed prefix).
    pub done: &'a AtomicU64,
    /// Target group count reported in progress callbacks.
    pub target: u64,
}

/// What one epoch produced.
#[derive(Debug, Default)]
pub(crate) struct Harvest {
    /// Stream mode: one accumulator per segment, in segment order.
    /// Empty in collect mode.
    pub stats: Vec<StreamStats>,
    /// Collect mode: every history of the epoch in global index order.
    pub histories: Vec<GroupHistory>,
    /// Stream mode: quarantined groups as `(scenario, group)`, the
    /// group's index being its stream index, sorted by both.
    pub quarantine: Vec<(usize, QuarantinedGroup)>,
}

/// Runs epochs for the drivers: a serial [`Lane`] or the worker pool.
pub(crate) trait BatchRunner {
    /// Simulates every segment of one epoch exactly once. `segments`
    /// must tile one contiguous range in index order, and epochs of one
    /// run must not overlap.
    fn run_epoch(&mut self, segments: &[Segment], collect: bool) -> Harvest;

    /// Streams groups `[lo, hi)` of a single-configuration run into a
    /// fresh aggregate, plus the groups it quarantined.
    fn stream_batch(&mut self, lo: u64, hi: u64) -> (StreamStats, Vec<QuarantinedGroup>) {
        let Harvest {
            mut stats,
            quarantine,
            ..
        } = self.run_epoch(&[Segment::batch(lo, hi)], false);
        let quarantine = quarantine.into_iter().map(|(_, group)| group).collect();
        // One segment in, one accumulator out.
        (stats.swap_remove(0), quarantine)
    }

    /// Simulates groups `[lo, hi)` of a single-configuration run and
    /// returns the histories in group-index order. A group's panic
    /// propagates: a hole in a history vector cannot be represented.
    fn collect_batch(&mut self, lo: u64, hi: u64) -> Vec<GroupHistory> {
        self.run_epoch(&[Segment::batch(lo, hi)], true).histories
    }
}

/// The global range `[lo, hi)` a segment list tiles.
fn span(segments: &[Segment]) -> (u64, u64) {
    let lo = segments.first().map_or(0, |s| s.lo);
    let hi = segments.last().map_or(lo, |s| s.hi);
    (lo, hi)
}

/// Renders a caught panic payload for a [`QuarantinedGroup`] record.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic>".to_string()
    }
}

/// Results of (part of) one epoch: a lane's private share, or the
/// merged whole the coordinator harvests.
#[derive(Debug, Default)]
struct EpochAcc {
    collect: bool,
    /// Stream mode: one accumulator per segment, created by the first
    /// group that lands in it.
    stats: Vec<Option<StreamStats>>,
    /// Collect mode: `(first global index, histories)` per simulated
    /// sub-range, in completion order.
    parts: Vec<(u64, Vec<GroupHistory>)>,
    /// Quarantined groups as `(scenario, group)`, in completion order.
    quarantine: Vec<(usize, QuarantinedGroup)>,
}

impl EpochAcc {
    fn new(segments: usize, collect: bool) -> Self {
        EpochAcc {
            collect,
            stats: (0..segments).map(|_| None).collect(),
            parts: Vec::new(),
            quarantine: Vec::new(),
        }
    }

    /// Merges another share of the same epoch into this one.
    fn absorb(&mut self, other: EpochAcc) {
        for (mine, theirs) in self.stats.iter_mut().zip(other.stats) {
            match (mine.as_mut(), theirs) {
                (Some(mine), Some(theirs)) => mine.merge(theirs),
                (None, theirs) => *mine = theirs,
                (Some(_), None) => {}
            }
        }
        self.parts.extend(other.parts);
        self.quarantine.extend(other.quarantine);
    }

    /// Orders the merged whole deterministically, whichever lane
    /// produced which share.
    fn harvest(self, segments: &[Segment], scenarios: &[PlannedScenario<'_>]) -> Harvest {
        let stats = if self.collect {
            Vec::new()
        } else {
            self.stats
                .into_iter()
                .zip(segments)
                .map(|(stats, seg)| {
                    stats.unwrap_or_else(|| {
                        StreamStats::new(scenarios[seg.scenario].cfg.mission_hours)
                    })
                })
                .collect()
        };
        // Sub-range starts are unique within the epoch, so sorting by
        // start (an integer index — no float ordering involved) and
        // concatenating restores global index order. The explicit
        // comparators are deliberate: the float-discipline lint bans
        // the `_by_key` form in simulation crates.
        let mut parts = self.parts;
        #[allow(clippy::unnecessary_sort_by)]
        parts.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut histories = Vec::with_capacity(parts.iter().map(|p| p.1.len()).sum());
        for (_, mut part) in parts {
            histories.append(&mut part);
        }
        let mut quarantine = self.quarantine;
        #[allow(clippy::unnecessary_sort_by)]
        quarantine.sort_unstable_by(|a, b| (a.0, a.1.index).cmp(&(b.0, b.1.index)));
        Harvest {
            stats,
            histories,
            quarantine,
        }
    }
}

/// One executor thread's simulation state (see the module docs).
struct Lane<'a> {
    ctx: &'a ExecCtx<'a>,
    /// Lowered sampling kernels shared by this lane's sessions, so a
    /// distribution tree several scenarios share lowers once per lane.
    kernels: KernelCache,
    /// One session per scenario, opened on its first group.
    sessions: Vec<Option<Box<dyn EngineSession + 'a>>>,
    /// Counters of sessions retired after a quarantined panic.
    retired: EngineCounters,
    /// Scenarios this lane has simulated at least one group of.
    touched: Vec<bool>,
    groups_done: u64,
    last_bucket: u64,
}

impl<'a> Lane<'a> {
    fn new(ctx: &'a ExecCtx<'a>) -> Self {
        let n = ctx.scenarios.len();
        Lane {
            ctx,
            kernels: KernelCache::new(),
            sessions: (0..n).map(|_| None).collect(),
            retired: EngineCounters::default(),
            touched: vec![false; n],
            groups_done: 0,
            // Stride accounting starts at the current global bucket so
            // a resumed run does not re-report strides its checkpointed
            // prefix already covered.
            last_bucket: ctx.done.load(Ordering::Relaxed) / PROGRESS_STRIDE,
        }
    }

    /// The group loop: simulates global indices `[start, end)` of
    /// `segments` into `acc`, one segment's share at a time.
    fn run(&mut self, segments: &[Segment], start: u64, end: u64, acc: &mut EpochAcc) {
        for (k, seg) in segments.iter().enumerate() {
            let (lo, hi) = (start.max(seg.lo), end.min(seg.hi));
            if lo >= hi {
                continue;
            }
            let sc = self.ctx.scenarios[seg.scenario];
            self.touched[seg.scenario] = true;
            let mut histories = Vec::new();
            if acc.collect {
                histories.reserve_exact((hi - lo) as usize);
            }
            for i in lo..hi {
                let index = seg.stream_lo + (i - seg.lo);
                let mut rng = stream(sc.seed, index);
                let session = self.sessions[seg.scenario].get_or_insert_with(|| {
                    self.ctx.engine.session_tuned_cached(
                        sc.cfg,
                        self.ctx.bias,
                        self.ctx.tuning,
                        &mut self.kernels,
                    )
                });
                if acc.collect {
                    histories.push(session.simulate_group(&mut rng).clone());
                } else {
                    let stats =
                        acc.stats[k].get_or_insert_with(|| StreamStats::new(sc.cfg.mission_hours));
                    // Unwind safety: `stats` is only mutated by `push`,
                    // which runs after `simulate_group` returned a
                    // complete history — a panic leaves it untouched.
                    // The session may be mid-update, so it is retired
                    // (its counters kept) and reopened on the next group.
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        stats.push(session.simulate_group(&mut rng));
                    }));
                    if let Err(payload) = outcome {
                        acc.quarantine.push((
                            seg.scenario,
                            QuarantinedGroup {
                                index,
                                message: panic_message(payload.as_ref()),
                            },
                        ));
                        if let Some(session) = self.sessions[seg.scenario].take() {
                            self.retired.merge(session.counters());
                        }
                    }
                }
                self.note_group();
            }
            if acc.collect {
                acc.parts.push((lo, histories));
            }
        }
    }

    /// Counts a completed group against the global counter and reports
    /// a progress stride if this lane crossed into a new bucket — per
    /// lane monotone by construction; the drivers' final callback
    /// covers the sub-stride remainder.
    fn note_group(&mut self) {
        self.groups_done += 1;
        let completed = self.ctx.done.fetch_add(1, Ordering::Relaxed) + 1;
        let bucket = completed / PROGRESS_STRIDE;
        if bucket > self.last_bucket {
            self.last_bucket = bucket;
            self.ctx.observer.on_progress(Progress {
                groups_done: completed,
                groups_target: self.ctx.target,
            });
        }
    }

    /// Work counters of every session this lane opened.
    fn counters(&self) -> EngineCounters {
        let mut counters = self.retired;
        for session in self.sessions.iter().flatten() {
            counters.merge(session.counters());
        }
        counters
    }

    /// Scenarios after the first that this lane claimed groups from:
    /// its cross-scenario steals ([`SchedulerStats::steals`]).
    fn steals(&self) -> u64 {
        self.touched.iter().skip(1).filter(|&&t| t).count() as u64
    }
}

/// The serial runner: the whole epoch on the calling thread.
impl BatchRunner for Lane<'_> {
    fn run_epoch(&mut self, segments: &[Segment], collect: bool) -> Harvest {
        let (lo, hi) = span(segments);
        let mut acc = EpochAcc::new(segments.len(), collect);
        self.run(segments, lo, hi, &mut acc);
        acc.harvest(segments, self.ctx.scenarios)
    }
}

/// Runs `body` against the run's executor — a serial lane when
/// `threads == 1`, a persistent worker pool otherwise — and reports the
/// run's scheduler statistics.
///
/// # Panics
///
/// Panics if `threads == 0`, and (pool only) when *every* worker died:
/// the coordinator re-raises at its quiesce wait, after all threads
/// have been joined so no worker outlives the borrowed context. Partial
/// losses are supervised: survivors redo the dead workers' unmerged
/// ranges and the run completes with bit-identical aggregates.
pub(crate) fn execute<R>(
    ctx: ExecCtx<'_>,
    body: impl FnOnce(&mut dyn BatchRunner) -> R,
) -> (R, SchedulerStats) {
    assert!(ctx.threads > 0, "need at least one thread");
    if ctx.threads > 1 {
        return run_pool(&ctx, body);
    }
    let mut lane = Lane::new(&ctx);
    let result = body(&mut lane);
    let sched = SchedulerStats {
        worker_groups: vec![lane.groups_done],
        thread_spawns: 0,
        workers_lost: 0,
        steals: 0,
        counters: lane.counters(),
    };
    (result, sched)
}

/// An epoch's claim cursor together with the segments it tiles.
struct EpochPlan {
    cursor: BatchCursor,
    segments: Vec<Segment>,
}

/// The data plane of one epoch: the plan workers drain and the
/// accumulator they merge into. Guarded by its own mutex, held only for
/// short non-blocking sections (install, plan hand-out, merge, harvest)
/// — all ordering between them is provided by the protocol in
/// [`PoolCore`], never by this lock.
#[derive(Default)]
struct EpochData {
    /// Plan of the current epoch, `Some` from install to harvest.
    plan: Option<Arc<EpochPlan>>,
    /// The epoch accumulator.
    acc: EpochAcc,
}

struct Shared {
    /// Protocol state + condvars; all blocking goes through here.
    sync: StdSync,
    /// Epoch data plane (see [`EpochData`]).
    data: Mutex<EpochData>,
}

fn lock_data(shared: &Shared) -> MutexGuard<'_, EpochData> {
    shared.data.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Requests worker shutdown when dropped, so the enclosing
/// `thread::scope` can join even if the driver body unwinds.
struct ShutdownOnDrop<'a>(&'a StdSync);

impl Drop for ShutdownOnDrop<'_> {
    fn drop(&mut self) {
        let wake = self.0.guarded(PoolCore::request_shutdown);
        self.0.wake(wake);
    }
}

/// Supervises one worker: tracks what the pool is owed if the worker
/// dies (a panic unwinding through its serve loop) and settles the debt
/// from its `Drop`.
///
/// `pending` accumulates **every** range the worker claimed since its
/// current serve began — completed ones included, because the worker's
/// private accumulator (and with it the results of completed ranges)
/// dies with it; only the merge publishes them. It is cleared
/// immediately after the merge publishes, with no panic point in
/// between, so no death can double-count or lose a range.
///
/// Disarmed on normal serve-loop exit.
struct SupervisionGuard<'a> {
    sync: &'a StdSync,
    armed: bool,
    /// Last epoch this worker accepted.
    seen_epoch: u64,
    /// `true` between accepting an epoch and checking out of it (the
    /// check-out clears it inside the guarded section).
    serving: bool,
    /// Claimed-but-unmerged ranges of the current serve.
    pending: Vec<(u64, u64)>,
}

impl Drop for SupervisionGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let (seen, serving) = (self.seen_epoch, self.serving);
        let remainder = std::mem::take(&mut self.pending);
        let wake = self
            .sync
            .guarded(|core| core.mark_lost(seen, serving, remainder));
        self.sync.wake(wake);
    }
}

/// Dispatches epochs to the worker pool.
struct PoolRunner<'p> {
    ctx: &'p ExecCtx<'p>,
    shared: &'p Shared,
}

impl BatchRunner for PoolRunner<'_> {
    /// Installs and publishes the epoch, wakes the workers, blocks
    /// until it quiesces, and harvests the merged accumulator.
    ///
    /// Re-raises (as a coordinator panic) when the pool lost every
    /// worker — partial losses are supervised and do not surface here.
    fn run_epoch(&mut self, segments: &[Segment], collect: bool) -> Harvest {
        let (lo, hi) = span(segments);
        let claim = effective_claim(self.ctx.claim_batch, hi - lo, self.ctx.threads as u64);
        // Install the data plane first: workers cannot observe it until
        // the guarded publish makes the epoch visible, and no worker
        // from the previous epoch can still touch it (`active == 0`).
        {
            let mut data = lock_data(self.shared);
            data.plan = Some(Arc::new(EpochPlan {
                cursor: BatchCursor::new(lo, hi, claim),
                segments: segments.to_vec(),
            }));
            data.acc = EpochAcc::new(segments.len(), collect);
        }
        let spec = JobSpec {
            lo,
            hi,
            claim,
            collect,
        };
        let wake = self.shared.sync.guarded(|core| core.publish(spec));
        self.shared.sync.wake(wake);
        let outcome = self
            .shared
            .sync
            .poll_until(Cv::Quiesced, |core| match core.quiesce_poll() {
                QuiescePoll::Wait => None,
                other => Some(other),
            });
        self.shared.sync.guarded(PoolCore::retire);
        if outcome == QuiescePoll::Panicked {
            panic!("simulation worker panicked");
        }
        let acc = {
            let mut data = lock_data(self.shared);
            data.plan = None;
            std::mem::take(&mut data.acc)
        };
        acc.harvest(segments, self.ctx.scenarios)
    }
}

/// Runs the guarded check-out for a worker that has merged everything
/// it claimed. Returns a resubmitted range if the check-out was refused
/// (the worker stays serving and must redo it), or `None` once the
/// worker is out (with the requested wake delivered).
fn attempt_check_out(sync: &StdSync, guard: &mut SupervisionGuard<'_>) -> Option<(u64, u64)> {
    let (redo, wake) = {
        let serving = &mut guard.serving;
        let pending = &mut guard.pending;
        sync.guarded(|core| match core.check_out() {
            // Recording the redo in `pending` inside the guarded
            // section keeps the supervision accounting gap-free: from
            // the instant the range leaves the pool's queue it is
            // covered by this worker's guard.
            CheckOutcome::Redo(range) => {
                pending.push(range);
                (Some(range), Wake::None)
            }
            CheckOutcome::Out(wake) => {
                *serving = false;
                (None, wake)
            }
        })
    };
    sync.wake(wake);
    redo
}

/// Body of one pool worker: a lane serving epochs until shutdown.
/// Returns the worker's lifetime group count, its cross-scenario steals
/// and its sessions' work counters.
fn worker_loop<'a>(ctx: &'a ExecCtx<'a>, shared: &Shared) -> (u64, u64, EngineCounters) {
    let mut lane = Lane::new(ctx);
    let mut guard = SupervisionGuard {
        sync: &shared.sync,
        armed: true,
        seen_epoch: 0,
        serving: false,
        pending: Vec::new(),
    };
    loop {
        let seen = guard.seen_epoch;
        let poll = shared
            .sync
            .poll_until(Cv::Work, |core| match core.worker_poll(seen) {
                WorkerPoll::Wait => None,
                WorkerPoll::Shutdown => Some(None),
                WorkerPoll::Job(spec, epoch) => Some(Some((spec, epoch))),
            });
        let Some((job, epoch)) = poll else { break };
        guard.seen_epoch = epoch;
        guard.serving = true;
        let plan = lock_data(shared)
            .plan
            .clone()
            .expect("a published epoch carries a plan");
        // Each round drains the claim source (the cursor, then any
        // range the refused check-out handed back), merges, and
        // attempts the guarded check-out. Merge-before-check-out: the
        // check-out is what publishes this worker's merge to the
        // coordinator's harvest, and `serving` clears inside the
        // guarded section itself, so a death at any point is accounted
        // exactly once.
        let claim = || plan.cursor.claim().map(|r| (r.start, r.end));
        let mut next = claim();
        loop {
            let mut acc = EpochAcc::new(plan.segments.len(), job.collect);
            while let Some((start, end)) = next {
                guard.pending.push((start, end));
                lane.run(&plan.segments, start, end, &mut acc);
                next = claim();
            }
            lock_data(shared).acc.absorb(acc);
            guard.pending.clear();
            next = attempt_check_out(&shared.sync, &mut guard);
            if next.is_none() {
                break;
            }
        }
    }
    guard.armed = false;
    (lane.groups_done, lane.steals(), lane.counters())
}

/// Spawns the pool, runs `body` against a [`PoolRunner`], shuts the
/// workers down, and reports per-worker scheduling statistics
/// (including how many workers died and were supervised out).
fn run_pool<R>(
    ctx: &ExecCtx<'_>,
    body: impl FnOnce(&mut dyn BatchRunner) -> R,
) -> (R, SchedulerStats) {
    let shared = Shared {
        sync: StdSync::new(ctx.threads),
        data: Mutex::new(EpochData::default()),
    };
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(ctx.threads);
        for _ in 0..ctx.threads {
            let shared = &shared;
            handles.push(scope.spawn(move || worker_loop(ctx, shared)));
        }
        let result = {
            // Shut the workers down even when `body` unwinds, so the
            // scope's implicit joins cannot deadlock.
            let _shutdown = ShutdownOnDrop(&shared.sync);
            let mut runner = PoolRunner {
                ctx,
                shared: &shared,
            };
            body(&mut runner)
        };
        let mut sched = SchedulerStats {
            worker_groups: Vec::with_capacity(ctx.threads),
            thread_spawns: ctx.threads as u64,
            workers_lost: 0,
            steals: 0,
            counters: EngineCounters::default(),
        };
        for h in handles {
            match h.join() {
                Ok((groups, steals, counters)) => {
                    sched.worker_groups.push(groups);
                    sched.steals += steals;
                    sched.counters.merge(counters);
                }
                // A supervised death: its guard already settled the
                // accounting (resubmission or, on total loss, the
                // coordinator's re-raise above), so the payload is
                // spent — record the loss and move on.
                Err(_) => {
                    sched.worker_groups.push(0);
                    sched.workers_lost += 1;
                }
            }
        }
        (result, sched)
    })
}
