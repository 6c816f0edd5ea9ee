//! The benchmark's pure logic: the metric catalogue, order statistics,
//! the time-to-precision formula, the per-layer ledger and the JSON
//! result line. Everything here is arithmetic on measured numbers, so it
//! is unit-tested without running a simulation.

use std::fmt::Write as _;

/// Workloads, each with the reason it exists (see NOTES.md).
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "sweep_table3_des",
        "Table-3 scrub ladder plus a duplicate rung as one FusedSweep on DES at 2 threads: \
         fused executor, cross-scenario queue, KernelCache and the SweepCache hit",
    ),
    (
        "base168_timeline_serial",
        "paper base case (RAID 5, 168 h scrub) on the timeline engine, 1 thread, run_streaming: \
         sampling-bound, no pool and no checkpoints",
    ),
    (
        "raid6_forced_is",
        "RAID 6 at 168 h scrub on DES with forced-critical importance sampling, 1 thread: \
         tilted and forced draws and weighted StreamStats moments",
    ),
    (
        "noscrub_precision_ckpt",
        "base case without scrub on DES at 2 threads, precision-stopped run_checkpointed with \
         an FsStore checkpoint per batch and one resume: single-run pool and checkpoint I/O",
    ),
];

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric definition: name, unit, direction.
pub type MetricDef = (&'static str, &'static str, Better);

/// End-to-end metrics, reported with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    ("groups_per_s", "groups/s", Better::Higher),
    ("ess_per_s", "samples/s", Better::Higher),
    ("time_to_ci_s", "s", Better::Lower),
    ("setup_s", "s", Better::Lower),
    ("peak_rss_mb", "MiB", Better::Lower),
    ("ok_share", "ratio", Better::Higher),
];

/// The sampling-kernel variants the workloads' configurations lower to
/// (`SampleKernel::variant_name`); every workload reports each of them.
pub const KERNEL_VARIANTS: &[&str] = &["weibull3"];

/// Per-kernel draw forms, in `dists.kernel.<variant>.<form>` names.
pub const KERNEL_FORMS: &[&str] = &[
    "sample_ns",
    "conditional_ns",
    "block_ns",
    "tilted_ns",
    "forced_ns",
];

/// Per-layer metrics other than the per-kernel ones, reported by the
/// traced run.
pub const PER_LAYER_FIXED: &[MetricDef] = &[
    ("dists.rng.word_ns", "ns", Better::Lower),
    ("dists.rng.fill_uniforms_ns", "ns", Better::Lower),
    ("dists.rng.stream_ns", "ns", Better::Lower),
    ("dists.kernel_cache.lower_ns", "ns", Better::Lower),
    ("dists.kernel_cache.hit_ratio", "ratio", Better::Higher),
    ("engine.des.group_ns", "ns", Better::Lower),
    ("engine.timeline.group_ns", "ns", Better::Lower),
    ("engine.samples_per_group", "count", Better::Lower),
    ("engine.events_per_group", "count", Better::Lower),
    ("engine.loop_allocs", "count", Better::Lower),
    ("engine.scratch_grows", "count", Better::Lower),
    ("engine.des.ns_per_event_ex_sampling", "ns", Better::Lower),
    (
        "engine.timeline.ns_per_event_ex_sampling",
        "ns",
        Better::Lower,
    ),
    ("engine.sampling_share", "ratio", Better::Lower),
    ("engine.session_open_ns", "ns", Better::Lower),
    ("stats.push_ns", "ns", Better::Lower),
    ("stats.merge_ns", "ns", Better::Lower),
    ("stats.encode_ns", "ns", Better::Lower),
    ("stats.encoded_bytes", "bytes", Better::Lower),
    ("run.batch_ms_p50", "ms", Better::Lower),
    ("run.batch_ms_p90", "ms", Better::Lower),
    ("run.batch_samples", "count", Better::Higher),
    ("run.overhead_ns_per_group", "ns", Better::Lower),
    ("pool.thread_spawns", "count", Better::Lower),
    ("pool.balance", "ratio", Better::Higher),
    ("pool.worker_groups_min", "count", Better::Higher),
    ("pool.worker_groups_max", "count", Better::Lower),
    ("pool.workers_lost", "count", Better::Lower),
    ("pool.steals", "count", Better::Higher),
    ("sweep.cache_hits", "count", Better::Higher),
    ("sweep.simulated", "count", Better::Lower),
    ("checkpoint.writes", "count", Better::Lower),
    ("checkpoint.bytes", "bytes", Better::Lower),
    ("checkpoint.encode_us", "us", Better::Lower),
    ("checkpoint.load_us", "us", Better::Lower),
    ("store.write_us_p50", "us", Better::Lower),
    ("store.write_us_p90", "us", Better::Lower),
    ("store.retries", "count", Better::Lower),
    ("ledger.predicted_ns_per_group", "ns", Better::Lower),
    ("ledger.measured_ns_per_group", "ns", Better::Lower),
    ("ledger.residual_share", "ratio", Better::Lower),
    ("trace.overhead_share", "ratio", Better::Lower),
];

/// Every per-layer metric: the per-kernel names first, then the fixed
/// ones.
pub fn per_layer_defs() -> Vec<(String, &'static str, Better)> {
    let mut defs = Vec::new();
    for variant in KERNEL_VARIANTS {
        for form in KERNEL_FORMS {
            defs.push((
                format!("dists.kernel.{variant}.{form}"),
                "ns",
                Better::Lower,
            ));
        }
    }
    defs.extend(
        PER_LAYER_FIXED
            .iter()
            .map(|(n, u, b)| (n.to_string(), *u, *b)),
    );
    defs
}

/// `true` when `name` matches `[A-Za-z0-9_.-]+`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// The median of `values` (the mean of the two middle values for an
/// even count). Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolation quantile (`statistics.quantiles` "inclusive"
/// convention) of `values` at `q` in `[0, 1]`. Panics on an empty
/// slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// A tail percentile under the sample-count rule: report the requested
/// percentile only when at least ten samples lie beyond it; otherwise
/// fall back to the highest percentile that has ten samples beyond it,
/// and never below the median. Returns `(percentile used, value)`.
pub fn tail_percentile(values: &[f64], want: f64) -> (f64, f64) {
    let n = values.len() as f64;
    let highest_supported = 1.0 - 10.0 / n;
    let q = want.min(highest_supported).max(0.5);
    (q, quantile(values, q))
}

/// Time to a target relative CI half-width, projected from a run that
/// reached `achieved_rel_hw` in `wall_s`: the half-width shrinks as
/// `1/√n`, so the groups (and wall time, at constant throughput) needed
/// scale as `(achieved / target)²`.
pub fn projected_time_to_ci(wall_s: f64, achieved_rel_hw: f64, target_rel_hw: f64) -> f64 {
    wall_s * (achieved_rel_hw / target_rel_hw).powi(2)
}

/// How a `time_to_ci_s` value was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CiTime {
    /// A precision-stopped run timed to its stop.
    Measured,
    /// Projected with [`projected_time_to_ci`].
    Projected,
}

/// Per-group cost model: each term is a layer's cost (ns per
/// occurrence) times its occurrences per group; the ledger compares
/// their sum with the measured thread-ns per group.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    terms: Vec<(&'static str, f64)>,
}

impl Ledger {
    /// Adds a term of `per_group` occurrences at `cost_ns` each.
    pub fn term(&mut self, layer: &'static str, cost_ns: f64, per_group: f64) {
        self.terms.push((layer, cost_ns * per_group));
    }

    /// The terms, in ns per group.
    pub fn terms(&self) -> &[(&'static str, f64)] {
        &self.terms
    }

    /// Σ counter × layer cost, in ns per group.
    pub fn predicted(&self) -> f64 {
        self.terms.iter().map(|(_, ns)| ns).sum()
    }

    /// Share of the measured cost the terms leave unexplained (negative
    /// when they over-explain it).
    pub fn residual_share(&self, measured_ns: f64) -> f64 {
        (measured_ns - self.predicted()) / measured_ns
    }
}

/// One reported metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

/// Formats an `f64` as a JSON number with all its digits (Rust's
/// shortest round-trip representation). Non-finite values have no JSON
/// form and are written as `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` writes `1e-7` style exponents, which JSON accepts.
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: one JSON object with exactly `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_string(&m.name),
            json_number(m.value),
            json_string(&m.unit)
        );
    }
    out.push_str("}}");
    out
}

/// A parsed JSON value (the subset the result line and `BENCHMARK.json`
/// use).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

#[cfg(test)]
impl Json {
    /// Field `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Parses one JSON document.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing data at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> Result<(), String> {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(())
        } else {
            Err(format!("expected `{lit}` at byte {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.ws();
                    self.eat(":")?;
                    fields.push((key, self.value()?));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected `,` or `}}` at byte {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected `,` or `]` at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat("false").map(|()| Json::Bool(false)),
            Some(b'n') => self.eat("null").map(|()| Json::Null),
            Some(_) => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(
                        self.s[self.i],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.i += 1;
                }
                let text =
                    std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?;
                text.parse::<f64>()
                    .map(Json::Num)
                    .map_err(|_| format!("bad number `{text}` at byte {start}"))
            }
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat("\"")?;
        let mut out = String::new();
        loop {
            let c = *self.s.get(self.i).ok_or("unterminated string")?;
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self.s.get(self.i).ok_or("unterminated escape")?;
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4).ok_or("short \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                            self.i += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.i)),
                    }
                }
                _ => {
                    // Re-decode multi-byte UTF-8 sequences whole.
                    let start = self.i - 1;
                    let len = match c {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let bytes = self.s.get(start..start + len).ok_or("truncated UTF-8")?;
                    out.push_str(std::str::from_utf8(bytes).map_err(|e| e.to_string())?);
                    self.i = start + len;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_sums_terms_and_reports_the_residual() {
        let mut ledger = Ledger::default();
        ledger.term("stream", 24.0, 1.0);
        ledger.term("sample", 50.0, 160.0);
        ledger.term("merge", 640.0, 1.0 / 64.0);
        assert_eq!(ledger.terms().len(), 3);
        assert!((ledger.predicted() - (24.0 + 8_000.0 + 10.0)).abs() < 1e-9);
        // 10% of a measured 8,926 ns is left over.
        let measured = 8_034.0 / 0.9;
        assert!((ledger.residual_share(measured) - 0.1).abs() < 1e-12);
        // Over-explaining gives a negative residual.
        assert!(ledger.residual_share(4_017.0) < 0.0);
        assert_eq!(Ledger::default().residual_share(5.0), 1.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let (q, x) = tail_percentile(&v, 0.9);
        assert_eq!(q, 0.9);
        assert!((x - quantile(&v, 0.9)).abs() < 1e-12);
        // 50 samples support at most the 80th percentile.
        let (q, _) = tail_percentile(&v[..50], 0.9);
        assert!((q - 0.8).abs() < 1e-12);
        // Exactly 100 samples support the 90th.
        let (q, _) = tail_percentile(&v[..100], 0.9);
        assert!((q - 0.9).abs() < 1e-12);
        // Too few samples for any tail: the median.
        let (q, x) = tail_percentile(&v[..7], 0.9);
        assert_eq!(q, 0.5);
        assert_eq!(x, 4.0);
    }

    #[test]
    fn quantiles_interpolate_like_statistics_inclusive() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.25) - 1.75).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn projected_time_scales_with_the_squared_width_ratio() {
        // Twice the target width needs four times the groups.
        assert!((projected_time_to_ci(2.0, 0.10, 0.05) - 8.0).abs() < 1e-12);
        // Already tighter than the target: proportionally less time.
        assert!((projected_time_to_ci(2.0, 0.025, 0.05) - 0.5).abs() < 1e-12);
        // At the target the projection is the wall time itself.
        assert_eq!(projected_time_to_ci(1.5, 0.05, 0.05), 1.5);
    }

    #[test]
    fn result_json_round_trips() {
        let metrics = vec![
            Metric {
                name: "groups_per_s".into(),
                unit: "groups/s".into(),
                value: 123_456.789_012_345_6,
            },
            Metric {
                name: "setup_s".into(),
                unit: "s".into(),
                value: 1.234_567_890_123e-4,
            },
            Metric {
                name: "engine.loop_allocs".into(),
                unit: "count".into(),
                value: 0.0,
            },
        ];
        let line = result_json(true, 1_000, 0, &metrics);
        assert!(!line.contains('\n'));
        let parsed = parse_json(&line).expect("the result line is valid JSON");
        let Json::Obj(fields) = &parsed else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(parsed.get("attempted"), Some(&Json::Num(1_000.0)));
        assert_eq!(parsed.get("failed"), Some(&Json::Num(0.0)));
        let m = parsed.get("metrics").expect("metrics");
        for metric in &metrics {
            let entry = m.get(&metric.name).expect("metric present");
            // Every digit survives: the parsed value is bit-equal.
            assert_eq!(entry.get("value"), Some(&Json::Num(metric.value)));
            assert_eq!(entry.get("unit"), Some(&Json::Str(metric.unit.clone())));
        }
    }

    #[test]
    fn non_finite_values_become_null() {
        let line = result_json(
            false,
            1,
            1,
            &[Metric {
                name: "x".into(),
                unit: "s".into(),
                value: f64::NAN,
            }],
        );
        let parsed = parse_json(&line).expect("valid JSON");
        let v = parsed.get("metrics").and_then(|m| m.get("x")).expect("x");
        assert_eq!(v.get("value"), Some(&Json::Null));
    }

    #[test]
    fn metric_names_are_valid_and_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _, _)| n.to_string()).collect();
        names.extend(per_layer_defs().into_iter().map(|(n, _, _)| n));
        names.extend(WORKLOADS.iter().map(|(n, _)| n.to_string()));
        for n in &names {
            assert!(valid_name(n), "{n}");
            assert!(n.len() <= 64, "{n}");
        }
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            names.len(),
            "duplicate metric or workload name"
        );
        assert!(!valid_name("a b"));
        assert!(!valid_name(""));
    }

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// workloads and metrics this binary emits.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc = parse_json(&text).expect("BENCHMARK.json is valid JSON");
        let names = |key: &str| -> Vec<(String, Option<String>, Option<String>)> {
            match doc.get(key) {
                Some(Json::Arr(items)) => items
                    .iter()
                    .map(|it| {
                        let s = |k: &str| match it.get(k) {
                            Some(Json::Str(s)) => Some(s.clone()),
                            _ => None,
                        };
                        (s("name").expect("name"), s("unit"), s("better"))
                    })
                    .collect(),
                _ => panic!("{key} is not an array"),
            }
        };
        let workloads: Vec<String> = names("workloads").into_iter().map(|w| w.0).collect();
        let expected: Vec<String> = WORKLOADS.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(workloads, expected);
        let e2e = names("end_to_end");
        let expected: Vec<_> = END_TO_END
            .iter()
            .map(|(n, u, b)| {
                (
                    n.to_string(),
                    Some(u.to_string()),
                    Some(b.as_str().to_string()),
                )
            })
            .collect();
        assert_eq!(e2e, expected);
        let layers = names("per_layer");
        let expected: Vec<_> = per_layer_defs()
            .into_iter()
            .map(|(n, u, b)| (n, Some(u.to_string()), Some(b.as_str().to_string())))
            .collect();
        assert_eq!(layers, expected);
    }
}
