//! Delegating wrappers around the simulator's public traits, used only by
//! the traced run. Each forwards every call unchanged — the traced run's
//! aggregates must stay byte-equal to the untraced run's — and records
//! counts or timings at the layer boundary.

use raidsim::checkpoint::CheckpointError;
use raidsim::config::RaidGroupConfig;
use raidsim::dists::rng::SimRng;
use raidsim::dists::KernelCache;
use raidsim::engine::{BiasPolicy, Engine, EngineCounters, EngineSession, SessionTuning};
use raidsim::events::GroupHistory;
use raidsim::run::CheckpointCadence;
use raidsim::store::SnapshotStore;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Counts gathered from every session a traced engine opened.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineTrace {
    /// Engine counters summed over all closed sessions.
    pub counters: EngineCounters,
    /// Sessions opened.
    pub sessions: u64,
    /// Groups whose importance weight `exp(log_weight)` was not finite
    /// and positive.
    pub bad_weights: u64,
    /// Kernel-cache hits and lowerings seen by cached session opens.
    pub cache_hits: u64,
    pub cache_lowerings: u64,
}

/// An [`Engine`] that forwards to `inner` and wraps every session it
/// opens in a [`TracedSession`]. It reports the inner engine's name, so
/// run fingerprints (checkpoints, sweep-cache keys) are unchanged.
#[derive(Debug)]
pub struct TracedEngine {
    inner: Arc<dyn Engine>,
    trace: Arc<Mutex<EngineTrace>>,
}

impl TracedEngine {
    pub fn new(inner: Arc<dyn Engine>) -> Self {
        Self {
            inner,
            trace: Arc::default(),
        }
    }

    /// A snapshot of the counts so far (sessions still open are not yet
    /// included).
    pub fn snapshot(&self) -> EngineTrace {
        *self
            .trace
            .lock()
            .expect("trace lock poisoned by a panicking session")
    }

    /// Clears the counts.
    pub fn reset(&self) {
        *self
            .trace
            .lock()
            .expect("trace lock poisoned by a panicking session") = EngineTrace::default();
    }

    fn wrap<'a>(&'a self, inner: Box<dyn EngineSession + 'a>) -> Box<dyn EngineSession + 'a> {
        self.trace.lock().expect("trace lock poisoned").sessions += 1;
        Box::new(TracedSession {
            inner,
            trace: &self.trace,
            bad_weights: 0,
        })
    }
}

impl Engine for TracedEngine {
    fn simulate_group(&self, cfg: &RaidGroupConfig, rng: &mut SimRng) -> GroupHistory {
        self.inner.simulate_group(cfg, rng)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn session<'a>(
        &'a self,
        cfg: &'a RaidGroupConfig,
        bias: BiasPolicy,
    ) -> Box<dyn EngineSession + 'a> {
        self.wrap(self.inner.session(cfg, bias))
    }

    fn session_tuned<'a>(
        &'a self,
        cfg: &'a RaidGroupConfig,
        bias: BiasPolicy,
        tuning: SessionTuning,
    ) -> Box<dyn EngineSession + 'a> {
        self.wrap(self.inner.session_tuned(cfg, bias, tuning))
    }

    fn session_tuned_cached<'a>(
        &'a self,
        cfg: &'a RaidGroupConfig,
        bias: BiasPolicy,
        tuning: SessionTuning,
        kernels: &mut KernelCache,
    ) -> Box<dyn EngineSession + 'a> {
        let (hits, lowerings) = (kernels.hits(), kernels.lowerings());
        let session = self.inner.session_tuned_cached(cfg, bias, tuning, kernels);
        {
            let mut t = self.trace.lock().expect("trace lock poisoned");
            t.cache_hits += kernels.hits() - hits;
            t.cache_lowerings += kernels.lowerings() - lowerings;
        }
        self.wrap(session)
    }
}

/// A session that forwards to `inner`, checks each group's importance
/// weight, and folds its counters into the engine's trace when closed.
#[derive(Debug)]
struct TracedSession<'a> {
    inner: Box<dyn EngineSession + 'a>,
    trace: &'a Mutex<EngineTrace>,
    bad_weights: u64,
}

impl EngineSession for TracedSession<'_> {
    fn simulate_group(&mut self, rng: &mut SimRng) -> &GroupHistory {
        let h = self.inner.simulate_group(rng);
        let w = h.log_weight.exp();
        if !(w.is_finite() && w > 0.0) {
            self.bad_weights += 1;
        }
        h
    }

    fn counters(&self) -> EngineCounters {
        self.inner.counters()
    }
}

impl Drop for TracedSession<'_> {
    fn drop(&mut self) {
        // A poisoned lock means another session panicked; its run is
        // already failing, so losing these counts is harmless.
        if let Ok(mut t) = self.trace.lock() {
            t.counters.merge(self.inner.counters());
            t.bad_weights += self.bad_weights;
        }
    }
}

/// A [`CheckpointCadence`] that forwards to `inner` and records the wall
/// time between consecutive `due` calls — one driver batch, barrier to
/// barrier, including the previous boundary's checkpoint write.
pub struct TimedCadence<'a, C> {
    inner: C,
    last: Instant,
    batch_ms: &'a mut Vec<f64>,
}

impl<'a, C> TimedCadence<'a, C> {
    pub fn new(inner: C, batch_ms: &'a mut Vec<f64>) -> Self {
        Self {
            inner,
            last: Instant::now(),
            batch_ms,
        }
    }
}

impl<C: CheckpointCadence> CheckpointCadence for TimedCadence<'_, C> {
    fn due(&mut self, groups_done: u64, groups_since_last_write: u64) -> bool {
        let now = Instant::now();
        self.batch_ms
            .push(now.duration_since(self.last).as_secs_f64() * 1e3);
        self.last = now;
        self.inner.due(groups_done, groups_since_last_write)
    }

    fn on_write_outcome(&mut self, success: bool) {
        self.inner.on_write_outcome(success);
    }
}

/// What a [`TimedStore`] saw.
#[derive(Debug, Default, Clone)]
pub struct StoreTrace {
    /// Duration of each write call, µs.
    pub write_us: Vec<f64>,
    /// Write calls that failed (each is retried or given up on).
    pub write_failures: u64,
    /// Bytes written by successful writes.
    pub bytes: u64,
    /// Duration of each read call, µs.
    pub read_us: Vec<f64>,
}

/// A [`SnapshotStore`] that forwards to `inner` and times each call.
pub struct TimedStore<'a, S> {
    pub inner: S,
    pub trace: &'a mut StoreTrace,
}

impl<S: SnapshotStore> SnapshotStore for TimedStore<'_, S> {
    fn write(&mut self, path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
        let t0 = Instant::now();
        let out = self.inner.write(path, bytes);
        self.trace.write_us.push(t0.elapsed().as_secs_f64() * 1e6);
        match out {
            Ok(()) => self.trace.bytes += bytes.len() as u64,
            Err(_) => self.trace.write_failures += 1,
        }
        out
    }

    fn read(&mut self, path: &Path) -> Result<Vec<u8>, CheckpointError> {
        let t0 = Instant::now();
        let out = self.inner.read(path);
        self.trace.read_us.push(t0.elapsed().as_secs_f64() * 1e6);
        out
    }
}
