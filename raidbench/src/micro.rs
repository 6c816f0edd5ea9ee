//! Warmed, interleaved microbenchmarks of the layers the run loop does
//! not expose: RNG, sampling kernels, kernel lowering, engine sessions,
//! `StreamStats` and checkpoint encoding — each on the workload's own
//! configurations.

use crate::report::median;
use crate::workloads::Prepared;
use raidsim::checkpoint::{DriverState, SimCheckpoint};
use raidsim::config::RaidGroupConfig;
use raidsim::dists::kernel::{Forcing, MathMode, Tilt};
use raidsim::dists::rng::{fill_uniforms, stream, SimRng};
use raidsim::dists::{KernelCache, LifeDistribution, SampleKernel};
use raidsim::engine::{BiasPolicy, Engine, EngineSession, SessionTuning};
use raidsim::events::GroupHistory;
use raidsim::stats::StreamStats;
use rand::Rng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Timed passes over every microbenchmark always run, after one warm-up
/// pass, however soon the caller asks to stop.
const MIN_PASSES: usize = 3;

/// Seed of the microbenchmarks' own streams, offset from the workload
/// seed so they never replay a timed round's groups.
const MICRO_SEED_OFFSET: u64 = 0x5eed_0000;

/// Forcing window of the `forced_ns` draws, hours (the workload's).
const FORCE_WINDOW: f64 = 250.0;

/// A set of timed closures, each returning ns per operation for one
/// chunk of work, run in interleaved passes.
#[derive(Default)]
struct Harness<'a> {
    items: Vec<(String, Box<dyn FnMut() -> f64 + 'a>)>,
}

impl<'a> Harness<'a> {
    fn add(&mut self, name: impl Into<String>, f: impl FnMut() -> f64 + 'a) {
        self.items.push((name.into(), Box::new(f)));
    }

    /// One warm-up pass, then timed passes, each followed by `between`,
    /// until `between` returns `false` (after at least [`MIN_PASSES`]);
    /// the median per item.
    fn run(
        mut self,
        between: &mut dyn FnMut() -> Result<bool, String>,
    ) -> Result<BTreeMap<String, f64>, String> {
        for (_, f) in &mut self.items {
            black_box(f());
        }
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); self.items.len()];
        loop {
            for (i, (_, f)) in self.items.iter_mut().enumerate() {
                samples[i].push(f());
            }
            if !between()? && samples[0].len() >= MIN_PASSES {
                break;
            }
        }
        Ok(self
            .items
            .iter()
            .zip(samples)
            .map(|((name, _), s)| (name.clone(), median(&s)))
            .collect())
    }
}

fn ns_per(t0: Instant, ops: usize) -> f64 {
    t0.elapsed().as_secs_f64() * 1e9 / ops as f64
}

/// One lowered kernel of the workload, with the transition it samples.
pub struct KernelSite {
    pub transition: &'static str,
    pub kernel: SampleKernel,
}

/// The distinct (by allocation) transition distributions of the
/// workload's scenarios, lowered.
fn kernel_sites(p: &Prepared) -> Vec<KernelSite> {
    let mut seen: Vec<Arc<dyn LifeDistribution>> = Vec::new();
    let mut out = Vec::new();
    for (_, cfg, _) in &p.scenarios {
        let d = &cfg.dists;
        let sites = [
            ("ttop", Some(&d.ttop)),
            ("ttr", Some(&d.ttr)),
            ("ttld", d.ttld.as_ref()),
            ("ttscrub", d.ttscrub.as_ref()),
        ];
        for (transition, dist) in sites {
            let Some(dist) = dist else { continue };
            if seen.iter().any(|s| Arc::ptr_eq(s, dist)) {
                continue;
            }
            seen.push(Arc::clone(dist));
            out.push(KernelSite {
                transition,
                kernel: SampleKernel::lower(dist),
            });
        }
    }
    out
}

/// The bias an engine can run the workload's configuration under: the
/// timeline engine has no forced-critical support, so it runs unbiased.
fn bias_for(engine: &dyn Engine, bias: BiasPolicy) -> BiasPolicy {
    match bias {
        BiasPolicy::ForcedCritical { .. } if engine.name() == "pairwise-timeline" => {
            BiasPolicy::None
        }
        b => b,
    }
}

/// Per-group engine counts from an untimed session run.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineShape {
    pub samples_per_group: f64,
    pub events_per_group: f64,
}

/// Samples and events per group of `engine` on the workload's simulated
/// scenarios, from 200 groups each.
pub fn engine_shape(p: &Prepared, engine: &dyn Engine) -> EngineShape {
    let bias = bias_for(engine, p.spec.bias);
    let mut shape = EngineShape::default();
    let configs = simulated_configs(p);
    for cfg in &configs {
        let mut session = engine.session_tuned(cfg, bias, SessionTuning::default());
        for i in 0..200 {
            let mut rng = stream(p.seed ^ MICRO_SEED_OFFSET, i);
            black_box(session.simulate_group(&mut rng));
        }
        let c = session.counters();
        shape.samples_per_group += c.samples_drawn as f64 / c.groups as f64 / configs.len() as f64;
        shape.events_per_group += c.events as f64 / c.groups as f64 / configs.len() as f64;
    }
    shape
}

/// The configurations a round actually simulates: the sweep's duplicate
/// rung repeats an earlier rung's seed offset and is a cache hit.
pub fn simulated_configs(p: &Prepared) -> Vec<&RaidGroupConfig> {
    let mut out = Vec::new();
    let mut seen = Vec::new();
    for (_, cfg, off) in &p.scenarios {
        if !seen.contains(off) {
            seen.push(*off);
            out.push(cfg);
        }
    }
    out
}

/// Everything the microbenchmarks measured, keyed by metric-like names:
/// `rng.*`, `kernel.<index>.<form>`, `lower`, `session_open`,
/// `group.<engine>.<config>`, `push`, `merge`, `encode`, `ckpt_encode`.
pub struct MicroResults {
    pub ns: BTreeMap<String, f64>,
    pub sites: Vec<KernelSite>,
    pub encoded_bytes: usize,
    pub checkpoint_bytes: usize,
    pub simulated_configs: usize,
}

/// Runs every microbenchmark on the workload's configurations, in passes
/// interleaved with `between` (which runs the workload's rounds), so the
/// layer costs and the rounds see the same host conditions. `engines`
/// lists `(label, engine)` pairs to time groups on; `stats` is a
/// realistic aggregate to encode.
pub fn run(
    p: &Prepared,
    engines: &[(&'static str, Arc<dyn Engine>)],
    stats: &StreamStats,
    between: &mut dyn FnMut() -> Result<bool, String>,
) -> Result<MicroResults, String> {
    let seed = p.seed ^ MICRO_SEED_OFFSET;
    let sites = kernel_sites(p);
    let configs = simulated_configs(p);
    let primary = configs[0];
    let tuning = SessionTuning::default();
    let histories = histories(p, 512);
    let mut h = Harness::default();

    // RNG.
    let mut rng = stream(seed, 0);
    h.add("rng.word", move || {
        const N: usize = 200_000;
        let t0 = Instant::now();
        let mut acc = 0u64;
        for _ in 0..N {
            acc = acc.wrapping_add(rng.next_u64());
        }
        black_box(acc);
        ns_per(t0, N)
    });
    let mut rng = stream(seed, 1);
    let mut buf = vec![0.0; 64];
    h.add("rng.fill_uniforms", move || {
        const CHUNKS: usize = 2_000;
        let t0 = Instant::now();
        for _ in 0..CHUNKS {
            fill_uniforms(&mut rng, &mut buf);
            black_box(&buf);
        }
        ns_per(t0, CHUNKS * buf.len())
    });
    let mut next = 0u64;
    h.add("rng.stream", move || {
        const N: usize = 50_000;
        let t0 = Instant::now();
        for _ in 0..N {
            black_box(stream(seed, next));
            next += 1;
        }
        ns_per(t0, N)
    });

    // Sampling kernels, every draw form.
    let tilt = Tilt::new(0.5).expect("a finite tilt is valid");
    let forcing = Forcing::new(0.015).expect("the workload's forcing fraction is valid");
    for (i, site) in sites.iter().enumerate() {
        let k = &site.kernel;
        let mut mid = [0.5];
        k.samples_from_uniforms(MathMode::Exact, &mut mid);
        let t_mid = mid[0];
        const N: usize = 20_000;
        let mut rng = stream(seed, 10 + i as u64);
        h.add(format!("kernel.{i}.sample_ns"), move || {
            let t0 = Instant::now();
            let mut acc = 0.0;
            for _ in 0..N {
                acc += k.sample(&mut rng);
            }
            black_box(acc);
            ns_per(t0, N)
        });
        let mut rng = stream(seed, 100 + i as u64);
        h.add(format!("kernel.{i}.conditional_ns"), move || {
            let t0 = Instant::now();
            let mut acc = 0.0;
            for _ in 0..N {
                acc += k.sample_conditional(t_mid, &mut rng);
            }
            black_box(acc);
            ns_per(t0, N)
        });
        let mut src = vec![0.0; 256];
        fill_uniforms(&mut stream(seed, 200 + i as u64), &mut src);
        let mut work = vec![0.0; 256];
        h.add(format!("kernel.{i}.block_ns"), move || {
            let reps = N / work.len();
            let t0 = Instant::now();
            for _ in 0..reps {
                work.copy_from_slice(&src);
                k.samples_from_uniforms(MathMode::Exact, &mut work);
                black_box(&work);
            }
            ns_per(t0, reps * work.len())
        });
        let mut rng = stream(seed, 300 + i as u64);
        h.add(format!("kernel.{i}.tilted_ns"), move || {
            let t0 = Instant::now();
            let (mut acc, mut lw) = (0.0, 0.0);
            for _ in 0..N {
                acc += k.sample_tilted(tilt, &mut lw, &mut rng);
            }
            black_box((acc, lw));
            ns_per(t0, N)
        });
        let mut rng = stream(seed, 400 + i as u64);
        h.add(format!("kernel.{i}.forced_ns"), move || {
            let t0 = Instant::now();
            let (mut acc, mut lw) = (0.0, 0.0);
            for _ in 0..N {
                acc += k.sample_conditional_forced(t_mid, FORCE_WINDOW, forcing, &mut lw, &mut rng);
            }
            black_box((acc, lw));
            ns_per(t0, N)
        });
    }

    // Kernel lowering through a fresh (all-miss) cache.
    let dists: Vec<&Arc<dyn LifeDistribution>> = [
        Some(&primary.dists.ttop),
        Some(&primary.dists.ttr),
        primary.dists.ttld.as_ref(),
        primary.dists.ttscrub.as_ref(),
    ]
    .into_iter()
    .flatten()
    .collect();
    h.add("lower", move || {
        const REPS: usize = 2_000;
        let t0 = Instant::now();
        for _ in 0..REPS {
            let mut cache = KernelCache::new();
            for d in &dists {
                black_box(cache.lower(d));
            }
        }
        ns_per(t0, REPS * dists.len())
    });

    // Engine sessions: open cost, and warmed per-group cost per engine and
    // configuration, with the RNG streams derived outside the timer.
    let run_engine = &p.engine;
    h.add("session_open", move || {
        const REPS: usize = 200;
        let t0 = Instant::now();
        for _ in 0..REPS {
            black_box(run_engine.session_tuned(primary, p.spec.bias, tuning));
        }
        ns_per(t0, REPS)
    });
    for (label, engine) in engines {
        let bias = bias_for(engine.as_ref(), p.spec.bias);
        for (c, cfg) in configs.iter().enumerate() {
            let mut session = engine.session_tuned(cfg, bias, tuning);
            let mut next = 0u64;
            let mut rngs: Vec<SimRng> = Vec::new();
            h.add(format!("group.{label}.{c}"), move || {
                const K: usize = 200;
                rngs.clear();
                rngs.extend((0..K as u64).map(|i| stream(seed ^ 0xe11e, next + i)));
                next += K as u64;
                let t0 = Instant::now();
                for rng in &mut rngs {
                    black_box(session.simulate_group(rng));
                }
                ns_per(t0, K)
            });
        }
    }

    // StreamStats push / merge / encode on histories of the workload.
    let mission = primary.mission_hours;
    let hs = &histories;
    h.add("push", move || {
        let t0 = Instant::now();
        let mut s = StreamStats::new(mission);
        for h in hs {
            s.push(h);
        }
        black_box(&s);
        ns_per(t0, hs.len())
    });
    let partials: Vec<StreamStats> = histories
        .chunks(16)
        .map(|chunk| {
            let mut s = StreamStats::new(mission);
            for h in chunk {
                s.push(h);
            }
            s
        })
        .collect();
    h.add("merge", move || {
        let batch = partials.clone();
        let n = batch.len();
        let mut acc = StreamStats::new(mission);
        let t0 = Instant::now();
        for s in batch {
            acc.merge(s);
        }
        black_box(&acc);
        ns_per(t0, n)
    });
    let mut bytes = Vec::new();
    stats.encode_into(&mut bytes);
    let encoded_bytes = bytes.len();
    h.add("encode", move || {
        const REPS: usize = 200;
        let t0 = Instant::now();
        for _ in 0..REPS {
            bytes.clear();
            stats.encode_into(&mut bytes);
            black_box(&bytes);
        }
        ns_per(t0, REPS)
    });
    let driver = DriverState::precision(p.spec.target_rel_hw, 0.95, p.spec.groups, 1 << 22, p.seed);
    let checkpoint_bytes = SimCheckpoint::bytes_from_parts(0, &driver, stats).len();
    h.add("ckpt_encode", move || {
        const REPS: usize = 200;
        let t0 = Instant::now();
        for _ in 0..REPS {
            black_box(SimCheckpoint::bytes_from_parts(0, &driver, stats));
        }
        ns_per(t0, REPS)
    });

    let simulated = configs.len();
    Ok(MicroResults {
        ns: h.run(between)?,
        sites,
        encoded_bytes,
        checkpoint_bytes,
        simulated_configs: simulated,
    })
}

/// `n` histories of the workload's simulated scenarios (round-robin),
/// under its bias, from the workload's engine.
fn histories(p: &Prepared, n: usize) -> Vec<GroupHistory> {
    let configs = simulated_configs(p);
    let mut sessions: Vec<Box<dyn EngineSession + '_>> = configs
        .iter()
        .map(|cfg| {
            p.engine
                .session_tuned(cfg, p.spec.bias, SessionTuning::default())
        })
        .collect();
    let len = sessions.len();
    (0..n)
        .map(|i| {
            let mut rng = stream(p.seed ^ MICRO_SEED_OFFSET ^ 0x415, i as u64);
            sessions[i % len].simulate_group(&mut rng).clone()
        })
        .collect()
}
