//! `raidbench`: the raidsim benchmark.
//!
//! ```text
//! raidbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! raidbench --list
//! ```
//!
//! Each invocation runs one workload in its own process: set-up
//! (repeated, median reported), the correctness gate, then rounds of the
//! workload for `--seconds`. With `--trace 0` it reports the end-to-end
//! metrics; with `--trace 1` it runs the layer microbenchmarks and
//! interleaves plain rounds with rounds through delegating wrappers, and
//! reports the per-layer metrics and the ledger. A human-readable table
//! goes to stderr; the last line of stdout is the JSON result.
//! NOTES.md explains the workloads, the metrics and the ledger.

mod calib;
mod gate;
mod micro;
mod report;
mod trace;
mod workloads;

use gate::{check_reference, Gate, REFERENCES};
use raidsim::engine::Engine;
use raidsim::run::DEFAULT_CLAIM_BATCH;
use raidsim::stats::StreamStats;
use raidsim::store::FsStore;
use report::{median, tail_percentile, CiTime, Ledger, Metric};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use trace::{StoreTrace, TimedStore, TracedEngine};
use workloads::{
    rel_half_width, round_seed, run_round, EngineKind, Kind, Prepared, Round, RoundTrace, TempDir,
};

const USAGE: &str = "usage: raidbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       raidbench --list";

/// Set-up runs in blocks of back-to-back repetitions, with a calibration
/// pass before each block; `setup_s` is the median repetition.
const SETUP_BLOCKS: usize = 11;
const SETUP_BLOCK_REPS: usize = 11;

/// Timed rounds always run, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

/// Checkpoint writes of the store probe on workloads without in-run
/// checkpoints (enough for a 90th percentile with ten samples beyond).
const PROBE_WRITES: usize = 100;

/// Scratch space for checkpoints, relative to the working directory.
const TMP_ROOT: &str = ".raidbench_tmp";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: cannot parse '{value}' as {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("an unsigned integer"))?,
                )
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn host_note() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "host: nproc={nproc} (available_parallelism); the reference host is shared and has 2 vCPUs, \
         so 2-thread workloads compete with other tenants"
    )
}

fn print_list() -> bool {
    let mut ok = true;
    println!("workloads:");
    for (name, why) in report::WORKLOADS {
        ok &= report::valid_name(name);
        println!("  {name}: {why}");
    }
    println!("end-to-end metrics (--trace 0):");
    for (name, unit, better) in report::END_TO_END {
        ok &= report::valid_name(name);
        println!("  {name} [{unit}] {} is better", better.as_str());
    }
    println!("per-layer metrics (--trace 1):");
    for (name, unit, better) in report::per_layer_defs() {
        ok &= report::valid_name(&name);
        println!("  {name} [{unit}] {} is better", better.as_str());
    }
    println!("{}", host_note());
    println!(
        "metric names {} [A-Za-z0-9_.-]+",
        if ok { "all match" } else { "DO NOT all match" }
    );
    ok
}

/// Marks the re-executed process that runs the workload.
const CHILD_FLAG: &str = "--workload-process";

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--list") {
        return if print_list() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    // Linux carries the peak RSS of the image a process replaced into its
    // own `ru_maxrss`, so a workload started by `cargo run` would report
    // cargo's peak. The workload therefore runs in a re-executed child of
    // this small launcher, whose peak is all it inherits.
    let Some(child) = argv.iter().position(|a| a == CHILD_FLAG) else {
        let status = std::env::current_exe().and_then(|exe| {
            std::process::Command::new(exe)
                .args(&argv)
                .arg(CHILD_FLAG)
                .status()
        });
        return match status {
            Ok(s) if s.success() => ExitCode::SUCCESS,
            Ok(s) => ExitCode::from(s.code().and_then(|c| u8::try_from(c).ok()).unwrap_or(1)),
            Err(e) => {
                eprintln!("error: cannot start the workload process: {e}");
                ExitCode::FAILURE
            }
        };
    };
    argv.remove(child);
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let tmp_root = PathBuf::from(TMP_ROOT).join(std::process::id().to_string());
    let outcome = run(&args, &tmp_root);
    // Leave no scratch behind; the shared root goes once it is empty.
    let _ = std::fs::remove_dir_all(&tmp_root);
    let _ = std::fs::remove_dir(TMP_ROOT);
    match outcome {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Attempted and failed operations: groups, checkpoint writes, checks.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn round(&mut self, r: &Round) {
        self.attempted += r.delivered + r.quarantined + r.ckpt_writes;
        self.failed += r.quarantined + r.ckpt_failed;
    }

    fn gate(&mut self, g: &Gate) {
        self.attempted += g.checks.len() as u64;
        self.failed += g.failed();
    }
}

/// A finished timed round, reduced to what the metrics need.
struct Timed {
    /// Wall seconds at the reference host speed: the round's wall time
    /// divided by the slowdown of the calibration pass run just before it.
    ref_s: f64,
    delivered: u64,
}

fn run(args: &Args, tmp_root: &std::path::Path) -> Result<String, String> {
    let spec = workloads::spec(&args.workload).ok_or_else(|| {
        let names: Vec<&str> = report::WORKLOADS.iter().map(|(n, _)| *n).collect();
        format!(
            "unknown workload '{}' (one of {})",
            args.workload,
            names.join(", ")
        )
    })?;
    eprintln!("{}", host_note());
    eprintln!(
        "workload {} seed {} seconds {} trace {}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    // Set-up, repeated in blocks of back-to-back repetitions with a
    // calibration pass before each block; the last one is kept.
    let mut setup_s = Vec::new();
    let mut passes = Vec::new();
    let mut prepared: Option<Prepared> = None;
    for _ in 0..SETUP_BLOCKS {
        passes.push(calib::pass(1));
        for _ in 0..SETUP_BLOCK_REPS {
            drop(prepared.take());
            let t0 = Instant::now();
            let p = workloads::prepare(&spec, args.seed, tmp_root)?;
            setup_s.push(t0.elapsed().as_secs_f64());
            prepared = Some(p);
        }
    }
    // A set-up takes microseconds and mostly runs between the host's
    // interruptions, so it is scaled by the fastest pass, which also
    // missed them.
    let setup_slowdown = calib::slowdown(passes.iter().copied().fold(f64::INFINITY, f64::min), 1);
    let setup_s = median(&setup_s) / setup_slowdown;
    eprintln!(
        "setup: median {:.3e} s of {} at reference speed; host slowdown {setup_slowdown:.3} (fastest of {} passes)",
        setup_s,
        SETUP_BLOCKS * SETUP_BLOCK_REPS,
        passes.len()
    );
    let p = prepared.expect("set-up runs at least once");

    // Correctness gate, before any timing.
    let mut tally = Tally::default();
    let traced = Arc::new(TracedEngine::new(Arc::clone(&p.engine)));
    let gate = run_gate(&p, &traced, &mut tally)?;
    for c in &gate.checks {
        eprintln!(
            "gate {} {}: {}",
            if c.ok { "ok  " } else { "FAIL" },
            c.name,
            c.detail
        );
    }
    tally.gate(&gate);

    let (mut metrics, extra_checks) = if args.trace {
        traced_run(&p, args.seconds, tmp_root, &traced, &mut tally)?
    } else {
        (
            untraced_run(&p, args.seconds, setup_s, &mut tally)?,
            Gate::default(),
        )
    };
    for c in &extra_checks.checks {
        if !c.ok {
            eprintln!("check FAIL {}: {}", c.name, c.detail);
        }
    }
    tally.gate(&extra_checks);

    if !args.trace {
        let ok_share = 1.0 - tally.failed as f64 / tally.attempted.max(1) as f64;
        metrics.push(metric("ok_share", "ratio", ok_share));
    }
    // The emitted names and units must be exactly the catalogue's.
    let expected: Vec<(String, &str)> = if args.trace {
        report::per_layer_defs()
            .into_iter()
            .map(|(n, u, _)| (n, u))
            .collect()
    } else {
        report::END_TO_END
            .iter()
            .map(|(n, u, _)| (n.to_string(), *u))
            .collect()
    };
    let emitted: Vec<(String, &str)> = metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.as_str()))
        .collect();
    if emitted != expected {
        return Err(format!(
            "emitted metrics differ from the catalogue: {emitted:?} vs {expected:?}"
        ));
    }
    eprintln!("metrics:");
    for m in &metrics {
        eprintln!("  {:<44} {:>18.6} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "attempted {} failed {} (groups, checkpoint writes, checks)",
        tally.attempted, tally.failed
    );
    let correct = tally.failed == 0;
    let line = report::result_json(correct, tally.attempted.max(1), tally.failed, &metrics);
    report::parse_json(&line).map_err(|e| format!("the result line is not valid JSON: {e}"))?;
    Ok(line)
}

fn metric(name: &str, unit: &str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit: unit.to_string(),
        value,
    }
}

fn bytes_of(s: &StreamStats) -> Vec<u8> {
    let mut out = Vec::new();
    s.encode_into(&mut out);
    out
}

fn run_gate(p: &Prepared, traced: &Arc<TracedEngine>, tally: &mut Tally) -> Result<Gate, String> {
    let spec = &p.spec;
    let traced_dyn: Arc<dyn Engine> = traced.clone();
    let mut gate = Gate::default();
    let plain = run_round(p, &p.engine, 0, None)?;
    traced.reset();
    let mut rt = RoundTrace::default();
    let with_trace = run_round(p, &traced_dyn, 0, Some(&mut rt))?;
    tally.round(&plain);
    tally.round(&with_trace);
    gate.check(
        "traced_aggregates_byte_equal",
        plain.bytes() == with_trace.bytes(),
        format!("{} aggregate bytes", plain.bytes().len()),
    );
    let et = traced.snapshot();
    gate.check(
        "engine_loop_allocs_zero",
        et.counters.loop_allocs == 0 && et.counters.groups > 0,
        format!(
            "{} loop allocations over {} groups",
            et.counters.loop_allocs, et.counters.groups
        ),
    );
    match spec.kind {
        Kind::Sweep => {
            let dup = p.scenarios.len() - 1;
            let owner = p
                .scenarios
                .iter()
                .position(|s| s.2 == p.scenarios[dup].2)
                .expect("the duplicate rung repeats an earlier rung");
            let equal = bytes_of(&plain.results[dup]) == bytes_of(&plain.results[owner]);
            gate.check(
                "duplicate_scenario_cache_hit",
                plain.cache_hits >= 1 && equal,
                format!(
                    "{} cache hit(s), {} simulated, duplicate byte-equal to its owner: {equal}",
                    plain.cache_hits, plain.simulated_scenarios
                ),
            );
        }
        Kind::Precision => {
            let observer = workloads::CountingObserver::default();
            let (whole, report) = workloads::precision_run(
                p,
                &p.engine,
                round_seed(p.seed, 0),
                false,
                None,
                &observer,
            )?;
            tally.attempted +=
                whole.groups() + observer.saved.load(std::sync::atomic::Ordering::Relaxed);
            gate.check(
                "resume_byte_equal_to_uninterrupted",
                bytes_of(&whole) == plain.bytes() && report.converged && plain.converged,
                format!(
                    "{} groups uninterrupted ({}), {} groups interrupted at {} and resumed",
                    whole.groups(),
                    report.criterion,
                    plain.results[0].groups(),
                    spec.interrupt_at
                ),
            );
        }
        Kind::Streaming => {}
    }
    if spec.biased() {
        let s = &plain.results[0];
        let ess = s.effective_sample_size();
        let w = s.weight_sum();
        gate.check(
            "importance_weights_finite_positive",
            et.bad_weights == 0 && w.is_finite() && w > 0.0,
            format!(
                "{} non-finite or non-positive group weights, weight sum {w:.3}",
                et.bad_weights
            ),
        );
        gate.check(
            "ess_at_most_groups",
            ess.is_finite() && ess > 0.0 && ess <= s.groups() as f64 * (1.0 + 1e-12),
            format!("ESS {ess:.1} of {} groups", s.groups()),
        );
    }
    for r in REFERENCES.iter().filter(|r| r.workload == spec.name) {
        let idx = p
            .scenarios
            .iter()
            .position(|s| s.0 == r.scenario)
            .ok_or_else(|| format!("reference scenario {} missing", r.scenario))?;
        let (ok, est, tol) = check_reference(&plain.results[idx], spec.biased(), r);
        gate.check(
            format!("reference_{}_{}", r.source, r.scenario),
            ok,
            format!(
                "{est:.2} vs {} DDFs/1000 groups{} (tolerance ±{tol:.2}, z = {})",
                r.per_thousand,
                if r.first_year { " in year 1" } else { "" },
                gate::GATE_Z
            ),
        );
    }
    Ok(gate)
}

/// Pools each scenario's aggregate across rounds.
fn pool_into(pooled: &mut Vec<StreamStats>, results: Vec<StreamStats>) {
    if pooled.is_empty() {
        *pooled = results;
    } else {
        for (acc, s) in pooled.iter_mut().zip(results) {
            acc.merge(s);
        }
    }
}

fn untraced_run(
    p: &Prepared,
    seconds: f64,
    setup_s: f64,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let spec = &p.spec;
    let start = Instant::now();
    let mut timed = Vec::new();
    let mut slowdowns = Vec::new();
    let mut pooled = Vec::new();
    let mut round = 1;
    while timed.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        let slowdown = calib::slowdown(calib::pass(spec.threads), spec.threads);
        let r = run_round(p, &p.engine, round, None)?;
        tally.round(&r);
        if spec.kind == Kind::Precision && !r.converged {
            tally.failed += 1;
        }
        timed.push(Timed {
            ref_s: r.wall_s / slowdown,
            delivered: r.delivered,
        });
        slowdowns.push(slowdown);
        pool_into(&mut pooled, r.results);
        round += 1;
    }
    let rates: Vec<f64> = timed.iter().map(|t| t.delivered as f64 / t.ref_s).collect();
    let groups_per_s = median(&rates);
    eprintln!(
        "{} rounds: groups/s median {groups_per_s:.1} at reference speed; host slowdown median {:.3} (p10 {:.3}, p90 {:.3})",
        timed.len(),
        median(&slowdowns),
        report::quantile(&slowdowns, 0.1),
        report::quantile(&slowdowns, 0.9)
    );
    // Kish efficiency of the pooled sample: 1 when unbiased.
    let (ess, n) = pooled.iter().fold((0.0, 0.0), |(e, n), s| {
        (e + s.effective_sample_size(), n + s.groups() as f64)
    });
    let (ttc, how, which) = time_to_ci(p, &timed, &pooled);
    eprintln!(
        "time_to_ci_s is {} ({}), target relative half-width {}",
        match how {
            CiTime::Measured => "measured",
            CiTime::Projected => "projected",
        },
        which,
        spec.target_rel_hw
    );
    Ok(vec![
        metric("groups_per_s", "groups/s", groups_per_s),
        metric("ess_per_s", "samples/s", groups_per_s * ess / n),
        metric("time_to_ci_s", "s", ttc),
        metric("setup_s", "s", setup_s),
        metric("peak_rss_mb", "MiB", peak_rss_mib()?),
    ])
}

/// `time_to_ci_s`: the median precision-stopped round on the precision
/// workload; elsewhere projected from the median round's time per group
/// and the pooled estimate's width, for the worst scenario. All times
/// are at the reference host speed.
fn time_to_ci(p: &Prepared, timed: &[Timed], pooled: &[StreamStats]) -> (f64, CiTime, String) {
    let spec = &p.spec;
    if spec.kind == Kind::Precision {
        let t = median(&timed.iter().map(|t| t.ref_s).collect::<Vec<_>>());
        let desc = format!("median of {} precision-stopped runs", timed.len());
        return (t, CiTime::Measured, desc);
    }
    let s_per_group = median(
        &timed
            .iter()
            .map(|t| t.ref_s / spec.groups as f64)
            .collect::<Vec<_>>(),
    );
    let mut worst = (0.0, String::new());
    for (s, (label, _, _)) in pooled.iter().zip(&p.scenarios) {
        let rel = rel_half_width(s, spec.biased());
        let t =
            report::projected_time_to_ci(s_per_group * s.groups() as f64, rel, spec.target_rel_hw);
        if t > worst.0 {
            worst = (
                t,
                format!("worst scenario {label}, pooled relative half-width {rel:.4}"),
            );
        }
    }
    (worst.0, CiTime::Projected, worst.1)
}

/// Peak resident set of this process, MiB.
#[cfg(target_os = "linux")]
fn peak_rss_mib() -> Result<f64, String> {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value laid out as Linux's
    // 64-bit `struct rusage` (two `timeval`s then fourteen `long`s), the
    // only memory getrusage writes.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc != 0 {
        return Err("getrusage failed".into());
    }
    // Linux reports ru_maxrss in KiB.
    Ok(usage.maxrss as f64 / 1024.0)
}

#[cfg(not(target_os = "linux"))]
fn peak_rss_mib() -> Result<f64, String> {
    Err("peak_rss_mb needs Linux getrusage".into())
}

/// The traced run: microbenchmarks, then plain and traced rounds
/// interleaved, then the per-layer metrics and the ledger.
fn traced_run(
    p: &Prepared,
    seconds: f64,
    tmp_root: &std::path::Path,
    traced: &Arc<TracedEngine>,
    tally: &mut Tally,
) -> Result<(Vec<Metric>, Gate), String> {
    let spec = &p.spec;
    let traced_dyn: Arc<dyn Engine> = traced.clone();
    let start = Instant::now();
    let mut checks = Gate::default();

    // Layers the run loop does not expose.
    let engines: Vec<(&'static str, Arc<dyn Engine>)> = [EngineKind::Des, EngineKind::Timeline]
        .into_iter()
        .map(|k| (k.label(), k.build()))
        .collect();
    let sample = run_round(p, &p.engine, 0, None)?;
    tally.round(&sample);
    let shapes: Vec<micro::EngineShape> = engines
        .iter()
        .map(|(_, e)| micro::engine_shape(p, e.as_ref()))
        .collect();
    for ((label, _), shape) in engines.iter().zip(&shapes) {
        eprintln!(
            "engine {label}: {:.1} samples, {:.1} events per group",
            shape.samples_per_group, shape.events_per_group
        );
    }
    let probe = if spec.kind == Kind::Precision {
        None
    } else {
        Some(store_probe(p, &sample.results[0], tmp_root)?)
    };

    // Microbenchmark passes alternate with pairs of plain and traced
    // rounds on the same seeds, so both see the same host conditions.
    traced.reset();
    let mut plain: Vec<Round> = Vec::new();
    let mut ratios = Vec::new();
    let mut rt = RoundTrace::default();
    let mut traced_walls = Vec::new();
    let mut traced_writes = Vec::new();
    let mut round = 1;
    let mut pair = || -> Result<bool, String> {
        // Alternate which side runs first, so drift and cache state
        // favour neither.
        let (a, b) = if round % 2 == 1 {
            let a = run_round(p, &p.engine, round, None)?;
            (a, run_round(p, &traced_dyn, round, Some(&mut rt))?)
        } else {
            let b = run_round(p, &traced_dyn, round, Some(&mut rt))?;
            (run_round(p, &p.engine, round, None)?, b)
        };
        tally.round(&a);
        tally.round(&b);
        checks.check(
            format!("round_{round}_traced_byte_equal"),
            a.bytes() == b.bytes(),
            "traced round aggregates differ from the plain round's",
        );
        ratios.push(b.wall_s / a.wall_s);
        traced_walls.push(b.wall_s * 1e3);
        traced_writes.push(b.ckpt_writes as f64);
        let mut a = a;
        // The aggregates were compared above; only the timings are kept.
        a.results.clear();
        plain.push(a);
        round += 1;
        Ok(plain.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds)
    };
    let micro = micro::run(p, &engines, &sample.results[0], &mut pair)?;
    let et = traced.snapshot();
    let traced_groups: u64 = et.counters.groups.max(1);

    let ns = |key: &str| micro.ns.get(key).copied().unwrap_or(f64::NAN);
    let mut m = Vec::new();

    // dists
    m.push(metric("dists.rng.word_ns", "ns", ns("rng.word")));
    m.push(metric(
        "dists.rng.fill_uniforms_ns",
        "ns",
        ns("rng.fill_uniforms"),
    ));
    m.push(metric("dists.rng.stream_ns", "ns", ns("rng.stream")));
    let mut kernel_metrics = Vec::new();
    for variant in report::KERNEL_VARIANTS {
        let idx: Vec<usize> = micro
            .sites
            .iter()
            .enumerate()
            .filter(|(_, s)| s.kernel.variant_name() == *variant)
            .map(|(i, _)| i)
            .collect();
        for form in report::KERNEL_FORMS {
            let v = idx
                .iter()
                .map(|i| ns(&format!("kernel.{i}.{form}")))
                .sum::<f64>()
                / idx.len() as f64;
            kernel_metrics.push(metric(&format!("dists.kernel.{variant}.{form}"), "ns", v));
        }
    }
    let sites_desc: Vec<String> = micro
        .sites
        .iter()
        .enumerate()
        .map(|(i, s)| {
            format!(
                "{}={} {:.1}ns",
                s.transition,
                s.kernel.variant_name(),
                ns(&format!("kernel.{i}.sample_ns"))
            )
        })
        .collect();
    eprintln!("kernels: {}", sites_desc.join(", "));
    m.push(metric("dists.kernel_cache.lower_ns", "ns", ns("lower")));
    let hit_ratio = if et.cache_hits + et.cache_lowerings > 0 {
        et.cache_hits as f64 / (et.cache_hits + et.cache_lowerings) as f64
    } else {
        replayed_hit_ratio(p)
    };
    m.push(metric("dists.kernel_cache.hit_ratio", "ratio", hit_ratio));

    // engine
    let group_ns = |label: &str| {
        (0..micro.simulated_configs)
            .map(|c| ns(&format!("group.{label}.{c}")))
            .sum::<f64>()
            / micro.simulated_configs as f64
    };
    let run_label = spec.engine.label();
    let engine_ns = group_ns(run_label);
    let sample_ns = weighted_sample_ns(p, &micro, &sample.results);
    let spg = et.counters.samples_drawn as f64 / traced_groups as f64;
    let epg = et.counters.events as f64 / traced_groups as f64;
    m.push(metric("engine.des.group_ns", "ns", group_ns("des")));
    m.push(metric(
        "engine.timeline.group_ns",
        "ns",
        group_ns("timeline"),
    ));
    m.push(metric("engine.samples_per_group", "count", spg));
    m.push(metric("engine.events_per_group", "count", epg));
    m.push(metric(
        "engine.loop_allocs",
        "count",
        et.counters.loop_allocs as f64,
    ));
    m.push(metric(
        "engine.scratch_grows",
        "count",
        et.counters.scratch_grows as f64 / plain.len() as f64,
    ));
    for ((label, _), shape) in engines.iter().zip(&shapes) {
        let ex = (group_ns(label) - shape.samples_per_group * sample_ns) / shape.events_per_group;
        m.push(metric(
            &format!("engine.{label}.ns_per_event_ex_sampling"),
            "ns",
            ex,
        ));
    }
    m.push(metric(
        "engine.sampling_share",
        "ratio",
        spg * sample_ns / engine_ns,
    ));
    m.push(metric("engine.session_open_ns", "ns", ns("session_open")));

    // stats
    m.push(metric("stats.push_ns", "ns", ns("push")));
    m.push(metric("stats.merge_ns", "ns", ns("merge")));
    m.push(metric("stats.encode_ns", "ns", ns("encode")));
    m.push(metric(
        "stats.encoded_bytes",
        "bytes",
        micro.encoded_bytes as f64,
    ));

    // run
    let batch_ms = if spec.kind == Kind::Precision {
        rt.batch_ms.clone()
    } else {
        traced_walls.clone()
    };
    let (q50, p50) = tail_percentile(&batch_ms, 0.5);
    let (q90, p90) = tail_percentile(&batch_ms, 0.9);
    eprintln!(
        "run.batch_ms: p{:.0} {p50:.3} ms, p{:.0} {p90:.3} ms over {} batches{}",
        q50 * 100.0,
        q90 * 100.0,
        batch_ms.len(),
        if spec.kind == Kind::Precision {
            ""
        } else {
            " (one round = one batch)"
        }
    );
    m.push(metric("run.batch_ms_p50", "ms", p50));
    m.push(metric("run.batch_ms_p90", "ms", p90));
    m.push(metric("run.batch_samples", "count", batch_ms.len() as f64));
    // Thread-ns per simulated group: the median plain round, like the
    // medians of the microbenchmark passes interleaved with the rounds.
    let measured = median(
        &plain
            .iter()
            .map(|r| r.wall_s * spec.threads as f64 / r.simulated as f64 * 1e9)
            .collect::<Vec<_>>(),
    );
    let overhead = measured - engine_ns - ns("rng.stream") - ns("push");
    m.push(metric("run.overhead_ns_per_group", "ns", overhead));

    // pool
    let scheds: Vec<raidsim::stats::SchedulerStats> = if spec.kind == Kind::Precision {
        // run_checkpointed does not return its scheduler statistics:
        // probe the same pool executor on the same configuration.
        let sim = raidsim::run::Simulator::new(p.scenarios[0].1.clone())
            .with_engine(Arc::clone(&p.engine))
            .with_bias(spec.bias);
        let n = (spec.groups * 8) as usize;
        let (_, sched) =
            sim.run_streaming_instrumented(n, round_seed(p.seed, 0), spec.threads, &());
        tally.attempted += n as u64;
        vec![sched]
    } else {
        plain.iter().filter_map(|r| r.sched.clone()).collect()
    };
    let med = |f: &dyn Fn(&raidsim::stats::SchedulerStats) -> f64| {
        median(&scheds.iter().map(f).collect::<Vec<_>>())
    };
    m.push(metric(
        "pool.thread_spawns",
        "count",
        med(&|s| s.thread_spawns as f64),
    ));
    m.push(metric("pool.balance", "ratio", med(&|s| s.balance())));
    m.push(metric(
        "pool.worker_groups_min",
        "count",
        med(&|s| s.min_worker_groups() as f64),
    ));
    m.push(metric(
        "pool.worker_groups_max",
        "count",
        med(&|s| s.max_worker_groups() as f64),
    ));
    m.push(metric(
        "pool.workers_lost",
        "count",
        scheds.iter().map(|s| s.workers_lost as f64).sum(),
    ));
    m.push(metric("pool.steals", "count", med(&|s| s.steals as f64)));

    // sweep
    let (hits, simulated) = if spec.kind == Kind::Sweep {
        (
            median(
                &plain
                    .iter()
                    .map(|r| r.cache_hits as f64)
                    .collect::<Vec<_>>(),
            ),
            median(
                &plain
                    .iter()
                    .map(|r| r.simulated_scenarios as f64)
                    .collect::<Vec<_>>(),
            ),
        )
    } else {
        (0.0, 0.0)
    };
    m.push(metric("sweep.cache_hits", "count", hits));
    m.push(metric("sweep.simulated", "count", simulated));

    // checkpoint / store
    let store = probe.as_ref().unwrap_or(&rt.store);
    let load_us = match &probe {
        Some(s) => median(&s.read_us),
        None => median(&rt.load_us),
    };
    let writes_per_round = if spec.kind == Kind::Precision {
        median(&traced_writes)
    } else {
        0.0
    };
    let ckpt_bytes = if spec.kind == Kind::Precision
        && rt.store.write_us.len() as u64 > rt.store.write_failures
    {
        rt.store.bytes as f64 / (rt.store.write_us.len() as u64 - rt.store.write_failures) as f64
    } else {
        micro.checkpoint_bytes as f64
    };
    let (_, w50) = tail_percentile(&store.write_us, 0.5);
    let (wq, w90) = tail_percentile(&store.write_us, 0.9);
    eprintln!(
        "store.write_us: p50 {w50:.1}, p{:.0} {w90:.1} over {} writes ({})",
        wq * 100.0,
        store.write_us.len(),
        if probe.is_some() { "probe" } else { "in-run" }
    );
    m.push(metric("checkpoint.writes", "count", writes_per_round));
    m.push(metric("checkpoint.bytes", "bytes", ckpt_bytes));
    m.push(metric(
        "checkpoint.encode_us",
        "us",
        ns("ckpt_encode") / 1e3,
    ));
    m.push(metric("checkpoint.load_us", "us", load_us));
    m.push(metric("store.write_us_p50", "us", w50));
    m.push(metric("store.write_us_p90", "us", w90));
    m.push(metric(
        "store.retries",
        "count",
        store.write_failures as f64,
    ));

    // ledger
    let threads = spec.threads as f64;
    let simulated_per_round = median(&plain.iter().map(|r| r.simulated as f64).collect::<Vec<_>>());
    // Driver batch (precision) or whole round (otherwise) per merge into
    // the run's accumulator.
    let batch_len = spec.groups as f64;
    let merges_per_group = if spec.threads > 1 {
        1.0 / DEFAULT_CLAIM_BATCH as f64 + 1.0 / batch_len
    } else {
        1.0 / batch_len
    };
    let mut ledger = Ledger::default();
    ledger.term("rng.stream", ns("rng.stream"), 1.0);
    ledger.term("engine", engine_ns, 1.0);
    ledger.term("stats.push", ns("push"), 1.0);
    ledger.term("stats.merge", ns("merge"), merges_per_group);
    ledger.term(
        "engine.session_open",
        ns("session_open"),
        et.sessions as f64 / traced_groups as f64,
    );
    if spec.kind == Kind::Precision {
        let write_ns = ns("ckpt_encode") + w50 * 1e3;
        ledger.term(
            "checkpoint.write",
            write_ns * threads,
            writes_per_round / simulated_per_round,
        );
        ledger.term(
            "checkpoint.load",
            load_us * 1e3 * threads,
            1.0 / simulated_per_round,
        );
    }
    for (layer, v) in ledger.terms() {
        eprintln!("ledger term {layer:<22} {v:>12.1} ns/group");
    }
    eprintln!(
        "ledger: weighted sample cost {sample_ns:.1} ns; predicted {:.1} vs measured {measured:.1} ns/group (thread-ns)",
        ledger.predicted()
    );
    m.push(metric(
        "ledger.predicted_ns_per_group",
        "ns",
        ledger.predicted(),
    ));
    m.push(metric("ledger.measured_ns_per_group", "ns", measured));
    m.push(metric(
        "ledger.residual_share",
        "ratio",
        ledger.residual_share(measured),
    ));
    m.push(metric(
        "trace.overhead_share",
        "ratio",
        median(&ratios) - 1.0,
    ));

    let mut out = kernel_metrics;
    out.extend(m);
    Ok((out, checks))
}

/// Writes the workload's aggregate as a checkpoint [`PROBE_WRITES`]
/// times through a timed `FsStore`, and reads it back as many times.
fn store_probe(
    p: &Prepared,
    stats: &StreamStats,
    tmp_root: &std::path::Path,
) -> Result<StoreTrace, String> {
    let dir = TempDir::create(tmp_root.join(format!("{}-probe", p.spec.name)))?;
    let driver =
        raidsim::checkpoint::DriverState::fixed(stats.groups(), stats.groups().max(1), p.seed);
    let path = dir.0.join("probe.ckpt");
    let mut trace = StoreTrace::default();
    let mut store = TimedStore {
        inner: FsStore,
        trace: &mut trace,
    };
    for _ in 0..PROBE_WRITES {
        raidsim::checkpoint::SimCheckpoint::save_parts_to(&mut store, &path, 0, &driver, stats)
            .map_err(|e| format!("store probe write: {e}"))?;
    }
    let mut load_us = Vec::new();
    for _ in 0..PROBE_WRITES {
        let t0 = Instant::now();
        let back = raidsim::checkpoint::SimCheckpoint::load_from(&mut FsStore, &path)
            .map_err(|e| format!("store probe read: {e}"))?;
        load_us.push(t0.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(back);
    }
    trace.read_us = load_us;
    Ok(trace)
}

/// Kernel-cache hit ratio of lowering every simulated scenario's
/// distributions through one cache, as a sweep worker does.
fn replayed_hit_ratio(p: &Prepared) -> f64 {
    let mut cache = raidsim::dists::KernelCache::new();
    for cfg in micro::simulated_configs(p) {
        let d = &cfg.dists;
        for dist in [
            Some(&d.ttop),
            Some(&d.ttr),
            d.ttld.as_ref(),
            d.ttscrub.as_ref(),
        ]
        .into_iter()
        .flatten()
        {
            std::hint::black_box(cache.lower(dist));
        }
    }
    cache.hits() as f64 / (cache.hits() + cache.lowerings()).max(1) as f64
}

/// The workload's mean cost of one draw: each transition's measured
/// `sample_ns`, weighted by how often the engine draws it per group —
/// TTOp once per drive slot and per restore, TTR per operational
/// failure, TTLd per slot, per restore and per latent defect, TTScrub
/// per latent defect — from the aggregates' counters.
fn weighted_sample_ns(p: &Prepared, micro: &micro::MicroResults, results: &[StreamStats]) -> f64 {
    let mut totals = [0.0f64; 4];
    let configs = micro::simulated_configs(p);
    for (s, cfg) in results.iter().zip(&configs) {
        let n = s.groups() as f64;
        let drives = cfg.drives as f64;
        let has_ld = cfg.dists.ttld.is_some();
        let has_scrub = cfg.dists.ttscrub.is_some();
        let (op, ld, rs) = (
            s.total_op_failures() as f64,
            s.total_latent_defects() as f64,
            s.total_restores_completed() as f64,
        );
        totals[0] += drives * n + rs;
        totals[1] += op;
        if has_ld {
            totals[2] += drives * n + rs + ld;
        }
        if has_scrub {
            totals[3] += ld;
        }
    }
    let cost = |transition: &str| {
        let v: Vec<f64> = micro
            .sites
            .iter()
            .enumerate()
            .filter(|(_, s)| s.transition == transition)
            .map(|(i, _)| {
                micro
                    .ns
                    .get(&format!("kernel.{i}.sample_ns"))
                    .copied()
                    .unwrap_or(f64::NAN)
            })
            .collect();
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let costs = [cost("ttop"), cost("ttr"), cost("ttld"), cost("ttscrub")];
    let draws: f64 = totals.iter().sum();
    totals.iter().zip(costs).map(|(n, c)| n * c).sum::<f64>() / draws
}
