//! The CTJam benchmark: four workloads driven through the workspace's
//! public entry points, each with output checks, end-to-end metrics
//! (untraced) and a traced run that attributes time to layers.
//!
//! Usage (from the repository root, normally through `run.py`):
//!
//! ```text
//! ctjam-perfbench --workload <sweep_train|campaign_zoo|field_goodput|serve_open>
//!                 --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! The last line of standard output is one JSON object carrying
//! `correct`, `attempted`, `failed`, every metric measured (name →
//! value and unit) and the run's provenance. See `METRICS.md`.

mod alloc;
mod campaign;
mod field;
mod serve;
mod sweep;
mod trace;
mod traced;

use ctjam_telemetry::JsonValue;
use std::path::PathBuf;
use std::process::exit;
use std::time::Instant;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut out_dir = PathBuf::from(".bench_build/perfbench-out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out-dir" => out_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        out_dir,
    })
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Out {
    /// Operations attempted (points, campaign runs, field passes,
    /// requests).
    pub attempted: u64,
    /// Operations that failed: digest mismatches, panics, served-action
    /// mismatches, error or shed replies, timeouts.
    pub failed: u64,
    /// Why an output check did not hold (the run is not correct).
    pub problems: Vec<String>,
    /// `(name, value, unit)` in emission order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Workload-specific provenance.
    pub provenance: Vec<(String, JsonValue)>,
}

impl Out {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Counts one failed operation whose output was wrong.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.problems.push(why);
    }

    /// A check that is not an operation (self-test, traced-vs-untraced
    /// digest): makes the run incorrect without counting an operation.
    pub fn problem(&mut self, why: String) {
        self.problems.push(why);
    }

    pub fn note(&mut self, key: &str, value: impl Into<JsonValue>) {
        self.provenance.push((key.to_string(), value.into()));
    }
}

/// SplitMix64: derives independent input seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a digest of simulated outputs (their `Debug` or JSON text, in
/// which every float prints with all the digits it needs to round-trip).
pub fn digest(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Median of a non-empty list (mean of the middle two for even length).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending list.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Repeats `setup` `reps` times, appending each wall time in seconds to
/// `times`, and returns the last setup's value. Cheap set-ups are
/// repeated before every unit of work: the host's speed drifts within a
/// run, so the median of all repetitions then covers the same stretch
/// of time as the units' median, not one instant of it.
pub fn time_setups<T>(times: &mut Vec<f64>, reps: usize, mut setup: impl FnMut() -> T) -> T {
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        let value = std::hint::black_box(setup());
        times.push(t.elapsed().as_secs_f64());
        last = Some(value);
    }
    last.expect("at least one setup")
}

/// Peak resident set size (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn cpu_features() -> JsonValue {
    let mut features = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        macro_rules! probe {
            ($($f:tt),*) => {$(
                if std::arch::is_x86_feature_detected!($f) {
                    features.push(JsonValue::Str($f.to_string()));
                }
            )*};
        }
        probe!("sse4.2", "avx", "avx2", "fma", "avx512f", "avx512vnni");
    }
    JsonValue::Arr(features)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Builds and checks the layer tree of a traced run, writes its spans,
/// runs the synthetic self-test, and adds the overhead share.
pub fn finish_trace(
    out: &mut Out,
    args: &Args,
    spans: &[trace::Span],
    untraced_s: f64,
    traced_s: f64,
) -> std::collections::BTreeMap<trace::Layer, trace::Node> {
    if let Err(err) = trace::self_test() {
        out.problem(format!("layer-tree self-test: {err}"));
    }
    match trace::tree(spans) {
        Ok(paths) => {
            for (path, node) in paths {
                eprintln!(
                    "  {path}: calls {} total {:.3} ms self {:.3} ms allocs {}",
                    node.calls,
                    node.total_ns as f64 / 1e6,
                    node.self_ns as f64 / 1e6,
                    node.allocs
                );
            }
        }
        Err(err) => out.problem(format!("layer tree of the traced run: {err}")),
    }
    let path = args
        .out_dir
        .join(format!("trace-{}-{}.spans", args.workload, args.seed));
    match trace::write(&path, spans) {
        Ok(()) => eprintln!("(spans {})", path.display()),
        Err(err) => out.problem(format!("cannot write {}: {err}", path.display())),
    }
    out.metric(
        "trace.overhead_share",
        ((traced_s - untraced_s) / traced_s).max(0.0),
        "share",
    );
    trace::by_layer(spans).unwrap_or_default()
}

/// Emits the slot-loop and DQN per-layer metrics of a traced run.
/// Per-call values divide by the layer's own call count; `core.*`
/// per-slot values divide by the environment steps traced.
/// `skipped` is the train steps the agent's guard skipped; `act`, when
/// given, replaces the `dqn.act` totals (the field workload times only
/// its frozen passes there, not the ε-greedy acts of its training).
pub fn slot_layer_metrics(
    out: &mut Out,
    nodes: &std::collections::BTreeMap<trace::Layer, trace::Node>,
    skipped: u64,
    act: Option<trace::Node>,
) {
    use trace::Layer as L;
    let node = |l: L| nodes.get(&l).copied().unwrap_or_default();
    let per = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let (train, observe) = (node(L::DqnTrainStep), node(L::DqnObserve));
    let act = act.unwrap_or_else(|| node(L::DqnAct));
    let (env, jam, run) = (
        node(L::CoreEnvStep),
        node(L::CoreAdversaryJam),
        node(L::CoreRun),
    );
    let slots = env.calls;
    out.metric("dqn.train_step.ns", per(train.total_ns, train.calls), "ns");
    out.metric("dqn.train_step.calls", train.calls as f64, "count");
    out.metric(
        "dqn.train_step.skipped_ratio",
        per(skipped, train.calls + skipped),
        "ratio",
    );
    out.metric(
        "dqn.alloc_per_train_step",
        per(train.allocs, train.calls),
        "count",
    );
    out.metric("dqn.observe.ns", per(observe.total_ns, observe.calls), "ns");
    out.metric("dqn.act.ns", per(act.total_ns, act.calls), "ns");
    out.metric("dqn.alloc_per_act", per(act.allocs, act.calls), "count");
    out.metric("core.env_step.ns", per(env.self_ns, slots), "ns");
    out.metric("core.adversary_jam.ns", per(jam.total_ns, slots), "ns");
    out.metric(
        "core.decide.ns",
        per(node(L::CoreDecide).total_ns, slots),
        "ns",
    );
    out.metric(
        "core.feedback.ns",
        per(node(L::CoreFeedback).total_ns, slots),
        "ns",
    );
    out.metric("core.loop_self.ns", per(run.self_ns, slots), "ns");
    out.metric("core.alloc_per_slot", per(run.allocs, slots), "count");
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("ctjam-perfbench: {err}");
            exit(2)
        }
    };
    if let Err(err) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("cannot create {}: {err}", args.out_dir.display());
        exit(2)
    }
    let mut out = Out::default();
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        match args.workload.as_str() {
            "sweep_train" => sweep::run(&args, &mut out),
            "campaign_zoo" => campaign::run(&args, &mut out),
            "field_goodput" => field::run(&args, &mut out),
            "serve_open" => serve::run(&args, &mut out),
            other => {
                eprintln!("unknown workload {other:?}");
                exit(2)
            }
        }
    }));
    if run.is_err() {
        out.attempted = out.attempted.max(1);
        out.fail("the workload panicked".into());
    }
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    let attempted = out.attempted.max(1);
    out.metric(
        "failed_ratio",
        out.failed as f64 / attempted as f64,
        "ratio",
    );
    for problem in &out.problems {
        eprintln!("PROBLEM: {problem}");
    }

    let mut provenance = JsonValue::object();
    provenance
        .set("workload", args.workload.as_str())
        .set("seed", args.seed.to_string())
        .set("seconds", args.seconds)
        .set("trace", args.trace)
        .set(
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get()) as f64,
        )
        .set("cpu_model", cpu_model())
        .set("cpu_features", cpu_features());
    for (key, value) in &out.provenance {
        provenance.set(key, value.clone());
    }
    let mut metrics = JsonValue::object();
    for (name, value, unit) in &out.metrics {
        let mut m = JsonValue::object();
        m.set("value", *value).set("unit", *unit);
        metrics.set(name, m);
    }
    let mut result = JsonValue::object();
    result
        .set("correct", out.problems.is_empty())
        .set("attempted", attempted as f64)
        .set("failed", out.failed as f64)
        .set("metrics", metrics)
        .set("provenance", provenance);
    println!("{}", result.to_string_compact());
}
