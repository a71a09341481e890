//! `serve_open`: an in-process `PolicyServer` (`workers: 1`, the rest of
//! `ServerConfig` at its defaults, the paper-default network) driven
//! open-loop over one loopback connection by one sender and one
//! receiver thread. Three fixed rates, then a ladder above them.
//!
//! The sender sends every request whose due time has come in one write,
//! then sleeps until the next due time — it never spins. Latency is
//! timed from each request's due time, so a stalled server (or a late
//! sender) shows in the latency of every request behind the stall.

use crate::trace::{self, Layer};
use crate::{median, mix, percentile, Args, Out};
use ctjam_core::defender::DqnDefender;
use ctjam_core::env::EnvParams;
use ctjam_dqn::policy::GreedyPolicy;
use ctjam_nn::batch::Batch;
use ctjam_serve::protocol::{Message, RecvError, DEFAULT_TENANT};
use ctjam_serve::server::{PolicyServer, ServerConfig};
use ctjam_telemetry::JsonValue;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The fixed tiers, req/s: about 10 / 40 / 70 % of what one pipelined
/// connection reaches closed-loop on a 2-thread x86-64 host.
const TIERS: [(&str, f64); 3] = [("low", 10_000.0), ("mid", 35_000.0), ("high", 60_000.0)];
/// The rate ladder above the tiers: steps 1.25× apart.
const LADDER_START: f64 = 75_000.0;
const LADDER_FACTOR: f64 = 1.25;
const LADDER_STEPS: usize = 8;
/// The latency limit on p99, µs: the paper's 0.9 ms ACK round trip,
/// rounded up.
const LIMIT_US: f64 = 1_000.0;
/// Distinct observations cycled through by the generator.
const POOL: usize = 1024;
/// Longest wait for a reply after the last request was due.
const DRAIN: Duration = Duration::from_secs(2);
/// Set-ups timed before the world's own and before each tier.
const SETUPS: usize = 17;
/// Most requests one write carries.
const MAX_BURST: usize = 256;

/// Slices a step is cut into for its sliced medians.
const SLICES: usize = 10;

const UNANSWERED: u64 = u64::MAX;
const REJECTED: u32 = u32::MAX;

/// Server-side view of one step, from `metrics_json` deltas.
#[derive(Debug, Default, Clone, Copy)]
struct ServerDelta {
    latency_p50_us: f64,
    latency_p99_us: f64,
    queue_depth_p99: f64,
    occupancy: f64,
    rejections: f64,
}

/// Everything one open-loop step measured.
struct Step {
    rate: f64,
    sent: u64,
    succeeded: u64,
    /// Error replies, timeouts, protocol errors and wrong actions.
    failed: u64,
    mismatches: u64,
    /// Due → reply, µs, ascending (answered requests only).
    latency_us: Vec<f64>,
    /// Due → sent, µs, ascending.
    lateness_us: Vec<f64>,
    backlog_growing: bool,
    /// Median over [`SLICES`] equal slices of the step (by due time)
    /// of each slice's p50 latency, µs: steadier than the pooled p50
    /// when the host stalls the process for part of a step.
    slice_p50_us: f64,
    server: ServerDelta,
    server_allocs: u64,
    /// Per request: send and reply instants (for spans).
    stamps: Vec<(Instant, Option<Instant>)>,
    t0: Instant,
    end: Instant,
}

impl Step {
    fn p(&self, q: f64) -> f64 {
        percentile(&self.latency_us, q)
    }

    fn passes(&self) -> bool {
        self.failed == 0
            && self.succeeded == self.sent
            && !self.backlog_growing
            && self.p(0.99) <= LIMIT_US
    }
}

/// The in-process world: server, connection, policy twin, inputs.
struct World {
    server: PolicyServer,
    stream: TcpStream,
    policy: GreedyPolicy,
    pool: Vec<Vec<f64>>,
    expected: Vec<u32>,
    next_id: u64,
    /// Keep per-request send and reply stamps (the traced pass only).
    keep_stamps: bool,
}

fn config() -> ServerConfig {
    ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    }
}

/// Set-up: build the paper-default network, bind the server, connect.
fn setup(seed: u64) -> (PolicyServer, TcpStream, GreedyPolicy) {
    let mut rng = StdRng::seed_from_u64(seed);
    let defender = DqnDefender::paper_default(&EnvParams::default(), &mut rng);
    let policy = GreedyPolicy::from_agent(defender.agent());
    let server =
        PolicyServer::bind("127.0.0.1:0", policy.clone(), config()).expect("loopback bind");
    let stream = TcpStream::connect(server.local_addr()).expect("loopback connect");
    stream.set_nodelay(true).expect("TCP_NODELAY");
    (server, stream, policy)
}

fn num(v: Option<&JsonValue>) -> f64 {
    match v {
        Some(JsonValue::Num(x)) => *x,
        _ => 0.0,
    }
}

fn counter(snap: &JsonValue, name: &str) -> f64 {
    num(snap.get("counters").and_then(|c| c.get(name)))
}

/// Bin counts plus under/overflow of a histogram in `metrics_json`.
fn bins(snap: &JsonValue, name: &str) -> (Vec<f64>, f64, f64) {
    let h = snap.get(name);
    let counts = match h.and_then(|h| h.get("bins")) {
        Some(JsonValue::Arr(v)) => v.iter().map(|b| num(Some(b))).collect(),
        _ => Vec::new(),
    };
    (
        counts,
        num(h.and_then(|h| h.get("underflow"))),
        num(h.and_then(|h| h.get("overflow"))),
    )
}

/// Percentile of the difference of two histogram snapshots over
/// `[lo, hi)`, by the rank rule of the telemetry `Histogram` (linear
/// within a bin; underflow reads `lo`, overflow `hi`).
fn delta_percentile(
    before: &JsonValue,
    after: &JsonValue,
    name: &str,
    lo: f64,
    hi: f64,
    q: f64,
) -> f64 {
    let (b, bu, bo) = bins(before, name);
    let (a, au, ao) = bins(after, name);
    let counts: Vec<f64> = a
        .iter()
        .zip(b.iter().chain(std::iter::repeat(&0.0)))
        .map(|(x, y)| x - y)
        .collect();
    let (under, over) = (au - bu, ao - bo);
    let total = under + over + counts.iter().sum::<f64>();
    if total <= 0.0 || counts.is_empty() {
        return 0.0;
    }
    let rank = (q * total).ceil().clamp(1.0, total);
    if rank <= under {
        return lo;
    }
    let width = (hi - lo) / counts.len() as f64;
    let mut cumulative = under;
    for (i, &c) in counts.iter().enumerate() {
        if c > 0.0 && rank <= cumulative + c {
            return lo + width * (i as f64 + (rank - cumulative) / c);
        }
        cumulative += c;
    }
    hi
}

fn server_delta(before: &JsonValue, after: &JsonValue) -> ServerDelta {
    let d = |name| counter(after, name) - counter(before, name);
    let batches = d("batches");
    ServerDelta {
        latency_p50_us: delta_percentile(before, after, "latency_us", 0.0, 50_000.0, 0.50),
        latency_p99_us: delta_percentile(before, after, "latency_us", 0.0, 50_000.0, 0.99),
        queue_depth_p99: delta_percentile(before, after, "queue_depth", 0.0, 1024.0, 0.99),
        occupancy: if batches > 0.0 {
            d("responses") / batches
        } else {
            0.0
        },
        rejections: d("busy_rejections") + d("slo_rejections"),
    }
}

/// Runs one open-loop step: request `i` is due `i / rate` seconds
/// after the start, whatever the server does, for `window`.
fn step(world: &mut World, rate: f64, window: Duration) -> Step {
    let n = ((rate * window.as_secs_f64()).round() as usize).max(1);
    let base = world.next_id;
    world.next_id += n as u64;
    let due = |i: usize| Duration::from_nanos((i as f64 * 1e9 / rate) as u64);
    let last_due = due(n);
    let pool = &world.pool;
    let mut writer = world.stream.try_clone().expect("clone the connection");
    let reader = world.stream.try_clone().expect("clone the connection");
    reader
        .set_read_timeout(Some(Duration::from_millis(20)))
        .expect("read timeout");
    // Counts only: neither publishes other data.
    let received = AtomicU64::new(0);
    let sent_total = AtomicU64::new(u64::MAX);
    let before = world.server.metrics_json();
    let main_allocs = crate::alloc::thread();
    let global_allocs = crate::alloc::total();
    let t0 = Instant::now();

    let ((send, mid_out, end_out, writer_allocs), (replies, protocol_errors, reader_allocs)) =
        std::thread::scope(|s| {
            let (received, sent_total) = (&received, &sent_total);
            let sender = s.spawn(move || {
                let allocs = crate::alloc::thread();
                let mut send = Vec::with_capacity(n);
                let mut buf = Vec::with_capacity(MAX_BURST * 256);
                let mut mid_out = 0;
                let mut i = 0;
                while i < n {
                    let now = t0.elapsed();
                    if due(i) > now {
                        std::thread::sleep(due(i) - now);
                        continue;
                    }
                    let burst = (i..n)
                        .take(MAX_BURST)
                        .take_while(|&j| due(j) <= now)
                        .count();
                    buf.clear();
                    for j in i..i + burst {
                        Message::Observe {
                            id: base + j as u64,
                            tenant: DEFAULT_TENANT,
                            observation: pool[j % POOL].clone(),
                        }
                        .encode_into(&mut buf);
                    }
                    let stamp = Instant::now();
                    if writer.write_all(&buf).is_err() {
                        break;
                    }
                    send.extend(std::iter::repeat_n(stamp, burst));
                    if i < n / 2 && i + burst >= n / 2 {
                        mid_out = (i + burst) as u64 - received.load(Ordering::Relaxed);
                    }
                    i += burst;
                }
                let end_out = send.len() as u64 - received.load(Ordering::Relaxed);
                sent_total.store(send.len() as u64, Ordering::Relaxed);
                (send, mid_out, end_out, crate::alloc::thread() - allocs)
            });
            let receiver = s.spawn(move || {
                let allocs = crate::alloc::thread();
                let mut replies = vec![(UNANSWERED, 0u32); n];
                let mut input = BufReader::with_capacity(1 << 16, reader);
                let mut got = 0u64;
                let mut protocol_errors = 0u64;
                while got < sent_total.load(Ordering::Relaxed) {
                    let reply = match Message::read_from(&mut input) {
                        Ok(Some(reply)) => reply,
                        Ok(None) => break,
                        Err(RecvError::Io(e))
                            if matches!(
                                e.kind(),
                                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                            ) =>
                        {
                            if t0.elapsed() > last_due + DRAIN {
                                break;
                            }
                            continue;
                        }
                        Err(_) => {
                            protocol_errors += 1;
                            break;
                        }
                    };
                    let at = t0.elapsed().as_nanos() as u64;
                    let (id, action) = match reply {
                        Message::Action { id, action } => (id, action),
                        Message::Error { id, .. } => (id, REJECTED),
                        _ => {
                            protocol_errors += 1;
                            continue;
                        }
                    };
                    let index = id.wrapping_sub(base) as usize;
                    if index >= n || replies[index].0 != UNANSWERED {
                        protocol_errors += 1;
                        continue;
                    }
                    replies[index] = (at, action);
                    got += 1;
                    received.store(got, Ordering::Relaxed);
                }
                (replies, protocol_errors, crate::alloc::thread() - allocs)
            });
            (
                sender.join().expect("the sender thread"),
                receiver.join().expect("the receiver thread"),
            )
        });
    let end = Instant::now();
    let global = crate::alloc::total() - global_allocs;
    let main = crate::alloc::thread() - main_allocs;
    let after = world.server.metrics_json();

    let sent = send.len() as u64;
    let mut result = Step {
        rate,
        sent,
        succeeded: 0,
        failed: protocol_errors,
        mismatches: 0,
        latency_us: Vec::with_capacity(send.len()),
        lateness_us: Vec::with_capacity(send.len()),
        // Outstanding requests grew across the step's second half by
        // more than 1% of what it sent (and more than 64, well under
        // one scheduler hiccup's worth at these rates).
        backlog_growing: end_out > mid_out + (sent / 100).max(64),
        slice_p50_us: 0.0,
        server: server_delta(&before, &after),
        server_allocs: global.saturating_sub(writer_allocs + reader_allocs + main),
        stamps: Vec::new(),
        t0,
        end,
    };
    let slice_of = |t: Instant| {
        let f = t.saturating_duration_since(t0).as_secs_f64() / last_due.as_secs_f64();
        ((f * SLICES as f64) as usize).min(SLICES - 1)
    };
    let mut slice_latency = vec![Vec::new(); SLICES];
    for (i, (&(at, action), &sent_at)) in replies.iter().zip(&send).enumerate() {
        let due_at = t0 + due(i);
        let late = sent_at.saturating_duration_since(due_at);
        result.lateness_us.push(late.as_secs_f64() * 1e6);
        let reply_at = (at != UNANSWERED).then(|| t0 + Duration::from_nanos(at));
        if world.keep_stamps {
            result.stamps.push((sent_at, reply_at));
        }
        if at == UNANSWERED || action == REJECTED {
            result.failed += 1;
        } else if action != world.expected[i % POOL] {
            result.failed += 1;
            result.mismatches += 1;
        } else {
            let reply_at = reply_at.expect("answered");
            result.succeeded += 1;
            let latency = reply_at.saturating_duration_since(due_at).as_secs_f64() * 1e6;
            result.latency_us.push(latency);
            slice_latency[slice_of(due_at)].push(latency);
        }
    }
    let slice_p50: Vec<f64> = slice_latency
        .iter_mut()
        .filter(|l| !l.is_empty())
        .map(|l| {
            l.sort_by(f64::total_cmp);
            percentile(l, 0.5)
        })
        .collect();
    result.slice_p50_us = median(&slice_p50);
    result.latency_us.sort_by(f64::total_cmp);
    result.lateness_us.sort_by(f64::total_cmp);
    result
}

fn report_tier(out: &mut Out, name: &str, s: &Step) {
    let m = |k: &str| format!("serve.{name}.{k}");
    out.metric(&m("p50_us"), s.p(0.50), "us");
    out.metric(&m("p99_us"), s.p(0.99), "us");
    out.metric(&m("slice_p50_us"), s.slice_p50_us, "us");
    out.metric(&m("samples"), s.latency_us.len() as f64, "count");
    out.metric(&m("sent"), s.sent as f64, "count");
    out.metric(&m("succeeded"), s.succeeded as f64, "count");
    out.metric(&m("failed"), s.failed as f64, "count");
    out.metric(&m("rejections"), s.server.rejections, "count");
    out.metric(
        &m("lateness.p99_us"),
        percentile(&s.lateness_us, 0.99),
        "us",
    );
    out.metric(&m("server_latency.p50_us"), s.server.latency_p50_us, "us");
    out.metric(&m("server_latency.p99_us"), s.server.latency_p99_us, "us");
    out.metric(&m("queue_depth.p99"), s.server.queue_depth_p99, "count");
    out.metric(&m("batch_occupancy"), s.server.occupancy, "count");
    out.metric(&m("wire.p50_us"), s.p(0.50) - s.server.latency_p50_us, "us");
}

fn log_step(label: &str, s: &Step) {
    eprintln!(
        "serve {label} @ {:.0} req/s: sent {} ok {} failed {} p50 {:.1} us (sliced {:.1}) \
         p99 {:.1} us (n={}) late p50 {:.1} p99 {:.1} us backlog {} server p50 {:.0} us occupancy {:.2}",
        s.rate,
        s.sent,
        s.succeeded,
        s.failed,
        s.p(0.5),
        s.slice_p50_us,
        s.p(0.99),
        s.latency_us.len(),
        percentile(&s.lateness_us, 0.5),
        percentile(&s.lateness_us, 0.99),
        if s.backlog_growing { "growing" } else { "steady" },
        s.server.latency_p50_us,
        s.server.occupancy,
    );
}

/// Warm-up, then the three tiers, each `window` long, calling
/// `between` before each tier.
fn tiers(world: &mut World, window: Duration, mut between: impl FnMut()) -> Vec<Step> {
    step(world, TIERS[0].1, Duration::from_millis(300));
    TIERS
        .iter()
        .map(|&(name, rate)| {
            between();
            let s = step(world, rate, window);
            log_step(name, &s);
            s
        })
        .collect()
}

/// Counts a tier's requests. A wrong action is an incorrect output; a
/// shed, refused or unanswered request is a failed operation only.
fn account(out: &mut Out, label: &str, s: &Step) {
    out.attempted += s.sent;
    out.failed += s.failed;
    if s.failed > 0 {
        eprintln!("{label}: {} of {} requests failed", s.failed, s.sent);
    }
    if s.mismatches > 0 {
        out.problem(format!("{label}: {} wrong actions", s.mismatches));
    }
}

/// Times `SETUPS` set-ups, shutting each server down again.
fn time_setups(times: &mut Vec<f64>, seed: u64) {
    for _ in 0..SETUPS {
        let t = Instant::now();
        let (server, stream, _) = setup(seed);
        times.push(t.elapsed().as_secs_f64());
        drop(stream);
        server.shutdown();
    }
}

pub fn run(args: &Args, out: &mut Out) {
    let policy_seed = mix(args.seed, 1);
    // Set-ups are repeated before the world's own and before every tier,
    // so their median spans the run (see `crate::time_setups`).
    let mut times = Vec::new();
    time_setups(&mut times, policy_seed);
    let t = Instant::now();
    let (server, stream, policy) = setup(policy_seed);
    times.push(t.elapsed().as_secs_f64());

    let mut rng = StdRng::seed_from_u64(mix(args.seed, 2));
    let pool: Vec<Vec<f64>> = (0..POOL)
        .map(|_| (0..policy.input_size()).map(|_| rng.gen::<f64>()).collect())
        .collect();
    let expected = pool.iter().map(|o| policy.act_greedy(o) as u32).collect();
    let mut world = World {
        server,
        stream,
        policy,
        pool,
        expected,
        next_id: 0,
        keep_stamps: false,
    };
    out.note("server_config", format!("{:?}", config()));
    out.note(
        "tier_rates_rps",
        TIERS
            .iter()
            .map(|(n, r)| format!("{n}={r}"))
            .collect::<Vec<_>>()
            .join(" "),
    );
    out.note("load", "1 connection, 1 sender + 1 receiver thread");

    // Step lengths scale with --seconds; the traced run halves them to
    // leave room for its traced pass.
    let scale = args.seconds * if args.trace { 0.5 } else { 1.0 };
    let tier_window = Duration::from_secs_f64(0.15 * scale);

    let mut tier_s = 0.0;
    let mut last = Instant::now();
    let steps = tiers(&mut world, tier_window, || {
        tier_s += last.elapsed().as_secs_f64();
        time_setups(&mut times, policy_seed);
        last = Instant::now();
    });
    let untraced_s = tier_s + last.elapsed().as_secs_f64();
    out.metric("setup_s", median(&times), "s");
    let mut max_rate = 0.0;
    let mut all_passed = true;
    let mut server_allocs = 0;
    let mut tier_requests = 0;
    for (&(name, _), s) in TIERS.iter().zip(&steps) {
        account(out, name, s);
        report_tier(out, name, s);
        server_allocs += s.server_allocs;
        tier_requests += s.sent;
        if all_passed && s.passes() {
            max_rate = s.rate;
        } else {
            all_passed = false;
        }
    }
    out.metric(
        "serve.alloc_per_request",
        server_allocs as f64 / tier_requests.max(1) as f64,
        "count",
    );
    out.metric("unit_p50_ms", steps[1].slice_p50_us / 1e3, "ms");

    // The ladder: the first step that misses the limit, sheds or
    // times out a request, or lets the backlog grow ends it. Its
    // shed requests are the expected result of the probe and are not
    // counted as failures; wrong actions always are. Every step sends
    // a third of the high tier's requests, so the ladder never holds
    // more per-request state than the tiers and the peak RSS does not
    // depend on how far it climbs.
    let ladder_requests = TIERS[2].1 * tier_window.as_secs_f64() / 3.0;
    let mut rate = LADDER_START;
    for k in 0..LADDER_STEPS {
        if !all_passed {
            break;
        }
        let s = step(
            &mut world,
            rate,
            Duration::from_secs_f64(ladder_requests / rate),
        );
        log_step(&format!("ladder {k}"), &s);
        if s.mismatches > 0 {
            out.attempted += s.mismatches;
            out.failed += s.mismatches;
            out.problem(format!("ladder {k}: {} wrong actions", s.mismatches));
        }
        if !s.passes() {
            break;
        }
        out.attempted += s.sent;
        max_rate = rate;
        rate *= LADDER_FACTOR;
    }
    out.metric("serve.max_rate_rps", max_rate, "1/s");
    if !args.trace {
        finish(world);
        return;
    }

    // Traced pass: the same tiers again, each request a span from its
    // send to its reply, each tier a span from its start to its end.
    let requests: f64 = TIERS
        .iter()
        .map(|(_, r)| r * tier_window.as_secs_f64())
        .sum();
    world.keep_stamps = true;
    trace::start(requests as usize + 64);
    let t = Instant::now();
    let traced = tiers(&mut world, tier_window, || {});
    let mut id = 0u32;
    for (i, s) in traced.iter().enumerate() {
        account(out, &format!("traced {}", TIERS[i].0), s);
        trace::record(Layer::ServeTier, i as u32, s.t0, s.end);
        for &(sent, reply) in &s.stamps {
            if let Some(reply) = reply {
                trace::record(Layer::ServeRequest, id, sent, reply);
            }
            id += 1;
        }
    }
    let traced_s = t.elapsed().as_secs_f64();
    let spans = trace::finish();
    crate::finish_trace(out, args, &spans, untraced_s, traced_s);

    // The batched forward alone, in-process, at the occupancy measured
    // at the high tier, over the same observation stream.
    let rows = steps[2].server.occupancy.round().max(1.0) as usize;
    let mut batch = Batch::with_cols(world.policy.input_size());
    let mut scratch = world.policy.scratch();
    let mut actions = Vec::new();
    let total_rows = 64 * POOL;
    let t = Instant::now();
    let mut wrong = 0;
    for chunk in 0..total_rows.div_ceil(rows) {
        batch.clear();
        for r in 0..rows {
            batch.push_row(&world.pool[(chunk * rows + r) % POOL]);
        }
        world
            .policy
            .act_greedy_batch(&batch, &mut scratch, &mut actions);
        for (r, &a) in actions.iter().enumerate() {
            if a as u32 != world.expected[(chunk * rows + r) % POOL] {
                wrong += 1;
            }
        }
    }
    let ns = t.elapsed().as_nanos() as f64;
    if wrong > 0 {
        out.problem(format!(
            "act_greedy_batch disagreed with act_greedy on {wrong} rows"
        ));
    }
    out.metric(
        "nn.forward_batch.ns_per_row",
        ns / (total_rows.div_ceil(rows) * rows) as f64,
        "ns",
    );
    out.metric("serve.forward_batch.rows", rows as f64, "count");
    finish(world);
}

fn finish(world: World) {
    drop(world.stream);
    let metrics = world.server.shutdown();
    eprintln!("server metrics: {}", metrics.to_string_compact());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(bins: &[f64]) -> JsonValue {
        let mut h = JsonValue::object();
        h.set(
            "bins",
            JsonValue::Arr(bins.iter().map(|&b| JsonValue::Num(b)).collect()),
        )
        .set("underflow", 0.0)
        .set("overflow", 0.0);
        let mut snap = JsonValue::object();
        snap.set("latency_us", h);
        snap
    }

    #[test]
    fn percentiles_come_from_the_histogram_delta() {
        let before = snapshot(&[5.0, 0.0, 0.0, 0.0]);
        let after = snapshot(&[5.0, 1.0, 1.0, 2.0]);
        // Delta [0, 1, 1, 2] over [0, 40): rank 2 of 4 ends bin 2.
        let p50 = delta_percentile(&before, &after, "latency_us", 0.0, 40.0, 0.5);
        assert!((p50 - 30.0).abs() < 1e-9, "{p50}");
        let p99 = delta_percentile(&before, &after, "latency_us", 0.0, 40.0, 0.99);
        assert!((p99 - 40.0).abs() < 1e-9, "{p99}");
        assert_eq!(
            delta_percentile(&after, &after, "latency_us", 0.0, 40.0, 0.5),
            0.0
        );
    }
}
