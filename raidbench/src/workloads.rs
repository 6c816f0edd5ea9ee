//! The four workloads: their configurations, set-up, and one timed
//! round each. A round is the unit the benchmark repeats: one fused
//! sweep, one streamed run, or one precision-stopped checkpointed run
//! with a resume.

use crate::trace::{StoreTrace, TimedCadence, TimedStore};
use raidsim::checkpoint::{DriverState, SimCheckpoint};
use raidsim::config::{RaidGroupConfig, Redundancy};
use raidsim::engine::{BiasPolicy, DesEngine, Engine, SessionTuning, TimelineEngine};
use raidsim::events::QuarantinedGroup;
use raidsim::hdd::scrub::ScrubPolicy;
use raidsim::run::{
    CheckpointCadence, CheckpointPlan, FusedSweep, PrecisionReport, RunControl, Simulator,
    StreamObserver,
};
use raidsim::stats::{SchedulerStats, StreamStats};
use raidsim::store::{AttemptBudget, FsStore, SnapshotStore};
use raidsim::sweep::SweepScenario;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Two-sided 95 % normal quantile.
const Z95: f64 = 1.959_963_984_540_054;

/// Seed distance between consecutive rounds; sweep scenarios use
/// `round seed + rung index`, so rounds never share a stream.
const ROUND_STRIDE: u64 = 1_000_003;

/// Group cap of the precision-stopped run; never reached.
const PRECISION_CAP: u64 = 4_000_000;

/// Checkpoint write attempts per boundary (the driver's retry budget).
const WRITE_ATTEMPTS: u32 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `FusedSweep::run_streaming` over a scenario ladder.
    Sweep,
    /// `Simulator::run_streaming_instrumented` of one configuration.
    Streaming,
    /// `Simulator::run_checkpointed` with a precision stop, interrupted
    /// once and resumed from its checkpoint.
    Precision,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    Des,
    Timeline,
}

impl EngineKind {
    pub fn build(self) -> Arc<dyn Engine> {
        match self {
            EngineKind::Des => Arc::new(DesEngine::new()),
            EngineKind::Timeline => Arc::new(TimelineEngine::new()),
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Des => "des",
            EngineKind::Timeline => "timeline",
        }
    }
}

/// A workload's fixed parameters.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    pub engine: EngineKind,
    pub threads: usize,
    pub bias: BiasPolicy,
    /// Groups per scenario per round (sweep, streaming), or the driver
    /// batch size (precision).
    pub groups: u64,
    /// Relative 95 % CI half-width on mean DDFs/group that
    /// `time_to_ci_s` is measured or projected to.
    pub target_rel_hw: f64,
    /// Precision workload only: the first leg is interrupted at the
    /// first batch boundary at or past this many groups.
    pub interrupt_at: u64,
}

pub fn spec(name: &str) -> Option<Spec> {
    let base = Spec {
        name: "",
        kind: Kind::Streaming,
        engine: EngineKind::Des,
        threads: 1,
        bias: BiasPolicy::None,
        groups: 0,
        target_rel_hw: 0.0,
        interrupt_at: 0,
    };
    Some(match name {
        "sweep_table3_des" => Spec {
            name: "sweep_table3_des",
            kind: Kind::Sweep,
            threads: 2,
            groups: 1_500,
            target_rel_hw: 0.05,
            ..base
        },
        "base168_timeline_serial" => Spec {
            name: "base168_timeline_serial",
            engine: EngineKind::Timeline,
            groups: 4_000,
            target_rel_hw: 0.02,
            ..base
        },
        "raid6_forced_is" => Spec {
            name: "raid6_forced_is",
            // The BENCH_rareevent pilot's selected setting.
            bias: BiasPolicy::ForcedCritical {
                fraction: 0.015,
                window_hours: 250.0,
            },
            groups: 2_000,
            target_rel_hw: 0.05,
            ..base
        },
        "noscrub_precision_ckpt" => Spec {
            name: "noscrub_precision_ckpt",
            kind: Kind::Precision,
            threads: 2,
            groups: 4_096,
            target_rel_hw: 0.0075,
            interrupt_at: 16_384,
            ..base
        },
        _ => return None,
    })
}

impl Spec {
    pub fn biased(&self) -> bool {
        !self.bias.is_unbiased()
    }
}

/// The workload's scenarios with their seed offsets from the round seed.
pub fn scenarios(spec: &Spec) -> Result<Vec<(String, RaidGroupConfig, u64)>, String> {
    let err = |e: raidsim::CoreError| e.to_string();
    let base = RaidGroupConfig::paper_base_case().map_err(err)?;
    Ok(match spec.name {
        "sweep_table3_des" => {
            // The exp_table3 / BENCH_sweep ladder, built from one base
            // configuration so the rungs share their TTOp/TTR/TTLd trees
            // (what the per-worker KernelCache memoizes), plus a duplicate
            // of the 336 h rung under its seed: a SweepCache hit.
            let rungs = [
                ("table3_no_scrub", ScrubPolicy::Disabled),
                (
                    "table3_scrub_336h",
                    ScrubPolicy::with_characteristic_hours(336.0),
                ),
                (
                    "table3_scrub_168h",
                    ScrubPolicy::with_characteristic_hours(168.0),
                ),
                (
                    "table3_scrub_48h",
                    ScrubPolicy::with_characteristic_hours(48.0),
                ),
                (
                    "table3_scrub_12h",
                    ScrubPolicy::with_characteristic_hours(12.0),
                ),
            ];
            let mut out = Vec::new();
            for (i, (label, policy)) in rungs.into_iter().enumerate() {
                let cfg = base.clone().with_scrub_policy(policy).map_err(err)?;
                out.push((label.to_string(), cfg, i as u64));
            }
            let dup = out[1].clone();
            out.push(("table3_scrub_336h_dup".to_string(), dup.1, dup.2));
            out
        }
        "base168_timeline_serial" => vec![("base_168h".to_string(), base, 0)],
        "raid6_forced_is" => {
            let cfg = RaidGroupConfig {
                redundancy: Redundancy::DoubleParity,
                ..base
            }
            .with_scrub_policy(ScrubPolicy::with_characteristic_hours(168.0))
            .map_err(err)?;
            vec![("raid6_168h".to_string(), cfg, 0)]
        }
        "noscrub_precision_ckpt" => {
            let cfg = base.with_scrub_policy(ScrubPolicy::Disabled).map_err(err)?;
            vec![("base_no_scrub".to_string(), cfg, 0)]
        }
        other => return Err(format!("unknown workload {other}")),
    })
}

/// A directory removed when dropped.
#[derive(Debug)]
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn create(path: PathBuf) -> Result<Self, String> {
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Self(path))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Everything built before timing starts.
pub struct Prepared {
    pub spec: Spec,
    pub seed: u64,
    pub scenarios: Vec<(String, RaidGroupConfig, u64)>,
    pub engine: Arc<dyn Engine>,
    /// Checkpoint directory (precision workload only).
    pub tmp: Option<TempDir>,
}

/// Set-up: configuration build and validation, simulator or sweep
/// construction, the first session open (which lowers the sampling
/// kernels), and checkpoint-directory preparation.
pub fn prepare(spec: &Spec, seed: u64, tmp_root: &Path) -> Result<Prepared, String> {
    let scenarios = scenarios(spec)?;
    for (label, cfg, _) in &scenarios {
        cfg.validate().map_err(|e| format!("{label}: {e}"))?;
    }
    let engine = spec.engine.build();
    match spec.kind {
        Kind::Sweep => {
            std::hint::black_box(build_sweep(spec, &scenarios, &engine, seed));
        }
        Kind::Streaming | Kind::Precision => {
            std::hint::black_box(build_sim(spec, &scenarios[0].1, &engine));
        }
    }
    for (_, cfg, _) in &scenarios {
        let session = engine.session_tuned(cfg, spec.bias, SessionTuning::default());
        std::hint::black_box(&session);
    }
    let tmp = match spec.kind {
        Kind::Precision => Some(TempDir::create(tmp_root.join(spec.name))?),
        Kind::Sweep | Kind::Streaming => None,
    };
    Ok(Prepared {
        spec: *spec,
        seed,
        scenarios,
        engine,
        tmp,
    })
}

fn build_sweep(
    spec: &Spec,
    scenarios: &[(String, RaidGroupConfig, u64)],
    engine: &Arc<dyn Engine>,
    seed: u64,
) -> FusedSweep {
    FusedSweep::new(
        scenarios
            .iter()
            .map(|(label, cfg, off)| SweepScenario::new(label.clone(), cfg.clone(), seed + off))
            .collect(),
    )
    .with_engine(Arc::clone(engine))
    .with_bias(spec.bias)
}

fn build_sim(spec: &Spec, cfg: &RaidGroupConfig, engine: &Arc<dyn Engine>) -> Simulator {
    Simulator::new(cfg.clone())
        .with_engine(Arc::clone(engine))
        .with_bias(spec.bias)
}

pub fn round_seed(seed: u64, round: u64) -> u64 {
    seed.wrapping_add(round.wrapping_mul(ROUND_STRIDE))
}

/// Counts the failures a run reports through its observer. Used by
/// every run, traced or not: it is the observer the CLI also installs.
#[derive(Debug, Default)]
pub struct CountingObserver {
    pub saved: AtomicU64,
    pub failed: AtomicU64,
    pub quarantined: AtomicU64,
}

impl StreamObserver for CountingObserver {
    fn on_checkpoint_saved(&self, _path: &Path, _groups_done: u64) {
        self.saved.fetch_add(1, Ordering::Relaxed);
    }

    fn on_checkpoint_failed(&self, _error: &raidsim::checkpoint::CheckpointError) {
        self.failed.fetch_add(1, Ordering::Relaxed);
    }

    fn on_group_quarantined(&self, _group: &QuarantinedGroup) {
        self.quarantined.fetch_add(1, Ordering::Relaxed);
    }
}

/// Writes at every batch boundary; optionally requests a graceful stop
/// once `stop_at` groups are done.
struct EveryBatch<'a> {
    stop_at: u64,
    stop: Option<&'a AtomicBool>,
}

impl CheckpointCadence for EveryBatch<'_> {
    fn due(&mut self, groups_done: u64, _groups_since_last_write: u64) -> bool {
        if let Some(flag) = self.stop {
            if groups_done >= self.stop_at {
                flag.store(true, Ordering::Relaxed);
            }
        }
        true
    }
}

/// What the traced run records inside one round.
#[derive(Debug, Default)]
pub struct RoundTrace {
    pub batch_ms: Vec<f64>,
    pub store: StoreTrace,
    pub load_us: Vec<f64>,
}

/// One round's outcome.
#[derive(Debug)]
pub struct Round {
    pub wall_s: f64,
    /// Groups whose aggregates the round delivered (cache hits included).
    pub delivered: u64,
    /// Groups actually simulated.
    pub simulated: u64,
    /// Aggregates per scenario, in scenario order.
    pub results: Vec<StreamStats>,
    /// Precision workload: whether the run converged on its width target.
    pub converged: bool,
    pub quarantined: u64,
    pub ckpt_writes: u64,
    pub ckpt_failed: u64,
    pub sched: Option<SchedulerStats>,
    pub cache_hits: u64,
    pub simulated_scenarios: u64,
}

impl Round {
    /// The exact encodings of every aggregate, concatenated.
    pub fn bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for s in &self.results {
            s.encode_into(&mut out);
        }
        out
    }
}

/// Runs round `round` of the workload on `engine` (the plain engine or
/// its traced wrapper). `trace` wraps the checkpoint cadence and store.
pub fn run_round(
    p: &Prepared,
    engine: &Arc<dyn Engine>,
    round: u64,
    trace: Option<&mut RoundTrace>,
) -> Result<Round, String> {
    let spec = &p.spec;
    let seed = round_seed(p.seed, round);
    let observer = CountingObserver::default();
    let t0 = Instant::now();
    let mut out = match spec.kind {
        Kind::Sweep => {
            let report = build_sweep(spec, &p.scenarios, engine, seed)
                .run_streaming(spec.groups as usize, spec.threads);
            Round {
                wall_s: 0.0,
                delivered: spec.groups * report.results.len() as u64,
                simulated: spec.groups * report.simulated,
                results: report.results.into_iter().map(|(_, s)| s).collect(),
                converged: false,
                quarantined: report.quarantined.len() as u64,
                ckpt_writes: 0,
                ckpt_failed: 0,
                sched: Some(report.sched),
                cache_hits: report.cache_hits,
                simulated_scenarios: report.simulated,
            }
        }
        Kind::Streaming => {
            let sim = build_sim(spec, &p.scenarios[0].1, engine);
            let (stats, sched) =
                sim.run_streaming_instrumented(spec.groups as usize, seed, spec.threads, &observer);
            Round {
                wall_s: 0.0,
                delivered: spec.groups,
                simulated: spec.groups,
                quarantined: spec.groups - stats.groups(),
                results: vec![stats],
                converged: false,
                ckpt_writes: 0,
                ckpt_failed: 0,
                sched: Some(sched),
                cache_hits: 0,
                simulated_scenarios: 1,
            }
        }
        Kind::Precision => {
            let (stats, report) = precision_run(p, engine, seed, true, trace, &observer)?;
            Round {
                wall_s: 0.0,
                delivered: stats.groups(),
                simulated: stats.groups() + report.quarantined as u64,
                quarantined: report.quarantined as u64,
                results: vec![stats],
                converged: report.converged,
                ckpt_writes: 0,
                ckpt_failed: 0,
                sched: None,
                cache_hits: 0,
                simulated_scenarios: 1,
            }
        }
    };
    out.wall_s = t0.elapsed().as_secs_f64();
    out.quarantined += observer.quarantined.load(Ordering::Relaxed);
    let failed = observer.failed.load(Ordering::Relaxed);
    out.ckpt_failed = failed;
    out.ckpt_writes = observer.saved.load(Ordering::Relaxed) + failed;
    Ok(out)
}

/// The CLI's `simulate --precision --checkpoint` path: a
/// precision-stopped `run_checkpointed` writing through `FsStore` at
/// every batch boundary. With `interrupt`, the first leg stops
/// gracefully at `interrupt_at` groups and a second leg resumes from the
/// checkpoint it left.
pub fn precision_run(
    p: &Prepared,
    engine: &Arc<dyn Engine>,
    seed: u64,
    interrupt: bool,
    mut trace: Option<&mut RoundTrace>,
    observer: &CountingObserver,
) -> Result<(StreamStats, PrecisionReport), String> {
    let spec = &p.spec;
    let dir = p
        .tmp
        .as_ref()
        .ok_or("precision workload has no checkpoint directory")?;
    let path = dir.0.join("run.ckpt");
    let sim = build_sim(spec, &p.scenarios[0].1, engine);
    let driver = DriverState::precision(spec.target_rel_hw, 0.95, spec.groups, PRECISION_CAP, seed);
    let stop = AtomicBool::new(false);
    let first = leg(
        &sim,
        spec.threads,
        driver,
        observer,
        &stop,
        EveryBatch {
            stop_at: spec.interrupt_at,
            stop: interrupt.then_some(&stop),
        },
        &path,
        None,
        trace.as_deref_mut(),
    )?;
    if !interrupt {
        return Ok(first);
    }
    let load_start = Instant::now();
    let resume = match trace.as_deref_mut() {
        Some(t) => SimCheckpoint::load_from(
            &mut TimedStore {
                inner: FsStore,
                trace: &mut t.store,
            },
            &path,
        ),
        None => SimCheckpoint::load_from(&mut FsStore, &path),
    }
    .map_err(|e| format!("loading the mid-run checkpoint: {e}"))?;
    if let Some(t) = trace.as_deref_mut() {
        t.load_us.push(load_start.elapsed().as_secs_f64() * 1e6);
    }
    leg(
        &sim,
        spec.threads,
        driver,
        observer,
        &(),
        EveryBatch {
            stop_at: 0,
            stop: None,
        },
        &path,
        Some(resume),
        trace,
    )
}

#[allow(clippy::too_many_arguments)]
fn leg(
    sim: &Simulator,
    threads: usize,
    driver: DriverState,
    observer: &CountingObserver,
    control: &dyn RunControl,
    cadence: EveryBatch<'_>,
    path: &Path,
    resume: Option<SimCheckpoint>,
    trace: Option<&mut RoundTrace>,
) -> Result<(StreamStats, PrecisionReport), String> {
    let mut backoff = AttemptBudget(WRITE_ATTEMPTS);
    let (mut cadence, mut store): (Box<dyn CheckpointCadence + '_>, Box<dyn SnapshotStore + '_>) =
        match trace {
            Some(t) => (
                Box::new(TimedCadence::new(cadence, &mut t.batch_ms)),
                Box::new(TimedStore {
                    inner: FsStore,
                    trace: &mut t.store,
                }),
            ),
            None => (Box::new(cadence), Box::new(FsStore)),
        };
    let plan = CheckpointPlan {
        path,
        cadence: cadence.as_mut(),
        store: store.as_mut(),
        backoff: &mut backoff,
        required: false,
    };
    sim.run_checkpointed(driver, threads, observer, control, Some(plan), resume)
        .map_err(|e| format!("checkpointed run: {e}"))
}

/// Relative 95 % CI half-width of mean DDFs/group: the weighted
/// estimator under a bias, the plain one otherwise.
pub fn rel_half_width(s: &StreamStats, biased: bool) -> f64 {
    if biased {
        s.weighted_half_width(Z95) / s.weighted_mean_ddfs()
    } else {
        s.half_width(Z95) / s.mean_ddfs()
    }
}
