//! `daemonbench`: the out-of-process benchmark of the `isomit-serve`
//! daemon. See `README.md` in this directory for the workloads, the
//! metrics and how to run it.
//!
//! ```text
//! daemonbench --workload <cold_rid|hot_lookup|watch_stream|simulate>
//!             --seed <n> --seconds <s> --trace <0|1> [--repeat <k>]
//! ```
//!
//! Run it from the repository root. It builds `isomit-serve`, writes the
//! served network, draws the workload's inputs and oracle replies from
//! the seed, boots the daemon, drives it over loopback and prints the
//! metrics; the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.

mod daemon;
mod drive;
mod order;
mod outbreak;
mod procfs;
mod replay;
mod statsdiff;
mod trace;
mod workloads;

use daemon::{Control, Daemon};
use drive::{Budget, Op};
use isomit_graph::json::Value;
use isomit_graph::SignedDigraph;
use isomit_service::protocol::RequestBody;
use isomit_telemetry::names;
use rand::rngs::StdRng;
use rand::SeedableRng;
use statsdiff::{StatsDiff, StatsSample};
use std::collections::BTreeMap;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Recorder;
use workloads::{Warmup, Workload};

/// The served network: Epinions-like at 30% scale (about 39.5k nodes
/// and 252k edges), fixed across seeds. Its 8.5 MB JSON makes a boot
/// take about 180 ms, long enough to time repeatably.
const NETWORK_SCALE: f64 = 0.3;
const NETWORK_SEED: u64 = 7;

/// Daemon boots per run; `setup_s` is their median.
const BOOTS: usize = 5;

/// Span of host CPU samples around an operation's completion from which
/// its steal share is taken (see `procfs::steal_adjusted`).
const STEAL_WINDOW_NS: u64 = 1_000_000_000;

/// No run starts a pass after this long, so a slow host still finishes
/// well inside the harness's per-run limit.
const MAX_DRIVE: Duration = Duration::from_secs(100);

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("ops_per_cpu_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1`; a layer the workload
/// does not load reads 0.
const PER_LAYER: [(&str, &str); 37] = [
    ("service.server.request_us", "us"),
    ("service.server.unattributed_us", "us"),
    ("service.server.cpu_per_wall", "ratio"),
    ("service.server.overloaded", "count"),
    ("service.server.deadline_exceeded", "count"),
    ("service.queue.wait_us", "us"),
    ("service.engine.cache_hit_ratio", "ratio"),
    ("service.cache.result_hit_ratio", "ratio"),
    ("service.server.shard_imbalance_pct", "%"),
    ("core.stages.extract_ms", "ms"),
    ("core.stages.extract_per_op", "count"),
    ("core.stages.query_ms", "ms"),
    ("core.stages.query_per_op", "count"),
    ("core.incremental.delta_us", "us"),
    ("core.incremental.dirty_per_answer", "count"),
    ("core.incremental.fallback_ratio", "ratio"),
    ("diffusion.wide.batch_ms", "ms"),
    ("diffusion.wide.batches_per_op", "count"),
    ("diffusion.wide.lane_utilization", "ratio"),
    ("graph.json.load_ms", "ms"),
    ("service.framing.scan_us", "us"),
    ("service.protocol.parse_us", "us"),
    ("service.fingerprint.span_us", "us"),
    ("service.fingerprint.snapshot_us", "us"),
    ("core.stages.artifact_kb", "KB"),
    ("core.codec.serialize_us", "us"),
    ("service.protocol.reply_us", "us"),
    ("service.cache.lookup_us", "us"),
    ("core.incremental.apply_us", "us"),
    ("core.incremental.answer_ms", "ms"),
    ("service.engine.adopt_us", "us"),
    ("diffusion.wide.estimate_ms", "ms"),
    ("diffusion.codec.serialize_us", "us"),
    ("service.bytes_in_per_op", "B"),
    ("service.bytes_out_per_op", "B"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.replay_unattributed_us", "us"),
];

/// Replay spans reported as self time per operation: (span name,
/// metric, ns per unit). The extraction and query spans are left out:
/// those layers are reported from the daemon's own telemetry.
const SPAN_METRICS: [(&str, &str, f64); 12] = [
    ("service.framing.scan", "service.framing.scan_us", 1e3),
    ("service.protocol.parse", "service.protocol.parse_us", 1e3),
    (
        "service.fingerprint.span",
        "service.fingerprint.span_us",
        1e3,
    ),
    (
        "service.fingerprint.snapshot",
        "service.fingerprint.snapshot_us",
        1e3,
    ),
    ("core.codec.serialize", "core.codec.serialize_us", 1e3),
    ("service.protocol.reply", "service.protocol.reply_us", 1e3),
    ("service.cache.lookup", "service.cache.lookup_us", 1e3),
    ("core.incremental.apply", "core.incremental.apply_us", 1e3),
    ("core.incremental.answer", "core.incremental.answer_ms", 1e6),
    ("service.engine.adopt", "service.engine.adopt_us", 1e3),
    ("diffusion.wide.estimate", "diffusion.wide.estimate_ms", 1e6),
    (
        "diffusion.codec.serialize",
        "diffusion.codec.serialize_us",
        1e3,
    ),
];

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: usize,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 1;
        let mut seconds = 10;
        let mut trace = false;
        let mut repeat = 1;
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    workload =
                        Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
                }
                "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                    };
                }
                "--repeat" => {
                    repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if seconds == 0 || repeat == 0 {
            return Err("--seconds and --repeat must be positive".to_owned());
        }
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
            repeat,
        })
    }
}

/// What every run shares: the daemon binary and the served network.
struct Env {
    server: PathBuf,
    graph: SignedDigraph,
    graph_json: String,
    graph_path: PathBuf,
    work: PathBuf,
}

impl Env {
    fn prepare(root: &Path) -> Result<Env, String> {
        if !root.join("crates/service/Cargo.toml").is_file() {
            return Err(format!(
                "{} holds no isomit workspace; run from the repository root",
                root.display()
            ));
        }
        let server = daemon::build_server(root)?;
        let work = root.join("daemonbench/work");
        std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
        let mut rng = StdRng::seed_from_u64(NETWORK_SEED);
        let social = isomit_datasets::epinions_like_scaled(NETWORK_SCALE, &mut rng);
        let graph = isomit_datasets::paper_weights(&social, &mut rng);
        let graph_json = graph.to_json_string();
        let graph_path = work.join("network.json");
        let partial = work.join("network.json.partial");
        std::fs::write(&partial, &graph_json)
            .and_then(|()| std::fs::rename(&partial, &graph_path))
            .map_err(|e| format!("write {}: {e}", graph_path.display()))?;
        Ok(Env {
            server,
            graph,
            graph_json,
            graph_path,
            work,
        })
    }
}

/// One run's result.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    diagnostics: Vec<(String, Value)>,
}

fn num(value: f64) -> Value {
    Value::Number(value)
}

fn ms(ns: Option<u64>) -> Value {
    ns.map_or(Value::Null, |ns| num(ns as f64 / 1e6))
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Boots the daemon, runs the workload's warm-up, and returns the
/// daemon with its control and measurement connections.
fn boot(env: &Env, warmup: &Warmup) -> Result<(Daemon, Control, TcpStream), String> {
    let daemon = Daemon::spawn(&env.server, &env.graph_path)
        .map_err(|e| format!("boot isomit-serve: {e}"))?;
    let mut control = Control::connect(daemon.addr).map_err(|e| format!("connect: {e}"))?;
    let health = control
        .call(&RequestBody::Health)
        .map_err(|e| format!("health: {e}"))?;
    if health.get("edges").and_then(Value::as_u64) != Some(env.graph.edge_count() as u64) {
        return Err(format!(
            "daemon serves another network: {}",
            health.to_json()
        ));
    }
    let connect = || -> Result<TcpStream, String> {
        let stream = TcpStream::connect(daemon.addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(stream)
    };
    let measure = connect()?;
    match warmup {
        Warmup::None => {}
        Warmup::Prime(ops) => {
            let primer = connect()?;
            for op in ops {
                drive::run_untimed(&primer, op).map_err(|e| format!("priming: {e}"))?;
            }
        }
        Warmup::OnConnection(op) => {
            drive::run_untimed(&measure, op).map_err(|e| format!("warm-up: {e}"))?;
        }
    }
    Ok((daemon, control, measure))
}

fn stats(control: &mut Control) -> Result<StatsSample, String> {
    let result = control
        .call(&RequestBody::Stats)
        .map_err(|e| format!("stats: {e}"))?;
    StatsSample::from_result(&result)
}

fn run_once(
    env: &Env,
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Result<Report, String> {
    let generated = Instant::now();
    let inputs = workloads::generate(workload, &env.graph, seed);
    eprintln!(
        "daemonbench: {} seed {seed}: {} (generated in {:.2} s)",
        workload.name(),
        inputs.summary,
        generated.elapsed().as_secs_f64()
    );

    // Wall-clock set-up time of every boot, and the same with the
    // host's stolen share of the boot removed.
    let mut setups = Vec::with_capacity(BOOTS);
    let mut setups_adjusted = Vec::with_capacity(BOOTS);
    let mut booted = None;
    for _ in 0..BOOTS {
        if let Some((daemon, _, _)) = booted.take() {
            Daemon::stop(daemon).map_err(|e| format!("stop isomit-serve: {e}"))?;
        }
        let host0 = procfs::host_cpu().map_err(|e| e.to_string())?;
        let started = Instant::now();
        let up = boot(env, &inputs.warmup)?;
        let setup = started.elapsed().as_secs_f64();
        let steal = host0.steal_share_until(&procfs::host_cpu().map_err(|e| e.to_string())?);
        setups.push(setup);
        setups_adjusted.push(setup * (1.0 - steal));
        booted = Some(up);
    }
    let (daemon, mut control, measure) = booted.expect("BOOTS is positive");
    let pid = daemon.pid();

    let before = stats(&mut control)?;
    if before.shards != workloads::DAEMON_SHARDS as u64 {
        return Err(format!(
            "the daemon runs {} shards; the workloads are sized for {}",
            before.shards,
            workloads::DAEMON_SHARDS
        ));
    }
    let host0 = procfs::host_cpu().map_err(|e| e.to_string())?;
    let cpu0 = procfs::process_cpu_s(pid).map_err(|e| e.to_string())?;
    let budget = Budget {
        min_wall: Duration::from_secs(seconds),
        min_ops: order::min_samples(90),
        max_wall: MAX_DRIVE,
    };
    let outcome = drive::drive(&measure, &inputs.pool, inputs.window, budget);
    let cpu_s = procfs::process_cpu_s(pid).map_err(|e| e.to_string())? - cpu0;
    let host1 = procfs::host_cpu().map_err(|e| e.to_string())?;
    let peak_rss_kb = procfs::peak_rss_kb(pid).map_err(|e| e.to_string())?;
    let after = stats(&mut control)?;
    let diff = StatsDiff::new(&before, &after);
    drop(measure);
    drop(control);
    daemon
        .stop()
        .map_err(|e| format!("stop isomit-serve: {e}"))?;

    let mut problems = Vec::new();
    if let Some(error) = &outcome.transport_error {
        problems.push(error.clone());
    }
    if outcome.wrong > 0 {
        problems.push(format!("{} replies differ from the oracle", outcome.wrong));
        problems.extend(outcome.mismatches.iter().cloned());
    }
    let ops = outcome.attempted;
    if let Err(message) = workloads::self_check(workload, &diff, ops) {
        problems.push(format!("self-check: {message}"));
    }
    let mut latencies = outcome.latencies_ns.clone();
    latencies.sort_unstable();
    let mut adjusted = procfs::steal_adjusted(
        &outcome.latencies_ns,
        &outcome.ends_ns,
        &outcome.host_samples,
        STEAL_WINDOW_NS,
    );
    adjusted.sort_unstable();
    let completed = latencies.len() as u64;
    let p50 = order::percentile(&adjusted, 50);
    let p90 = order::percentile(&adjusted, 90);
    if p90.is_none() {
        problems.push(format!(
            "{completed} timed operations; p90 needs {}",
            order::min_samples(90)
        ));
    }
    let wall_s = outcome.wall.as_secs_f64();
    let mean_latency_ns = latencies.iter().sum::<u64>() as f64 / completed.max(1) as f64;

    let mut metrics = BTreeMap::new();
    if traced {
        layer_metrics(
            &mut metrics,
            workload,
            &diff,
            ops,
            cpu_s / wall_s,
            mean_latency_ns,
        );
        metrics.insert("service.bytes_in_per_op", ratio(outcome.bytes_sent, ops));
        metrics.insert(
            "service.bytes_out_per_op",
            ratio(outcome.bytes_received, ops),
        );
        if let Err(message) = replayed_metrics(&mut metrics, env, &inputs, seed, mean_latency_ns) {
            problems.push(format!("replay: {message}"));
        }
    } else {
        metrics.insert("setup_s", order::median(&setups_adjusted));
        metrics.insert("p50_ms", p50.unwrap_or(0) as f64 / 1e6);
        metrics.insert("p90_ms", p90.unwrap_or(0) as f64 / 1e6);
        metrics.insert("ops_per_cpu_s", completed as f64 / cpu_s.max(1e-9));
        metrics.insert("peak_rss_mb", peak_rss_kb as f64 / 1024.0);
    }
    for problem in &problems {
        eprintln!("daemonbench: {problem}");
    }

    let diagnostics = vec![
        ("workload".into(), Value::String(workload.name().into())),
        ("seed".into(), num(seed as f64)),
        ("inputs".into(), Value::String(inputs.summary.clone())),
        ("timed_samples".into(), num(completed as f64)),
        ("refused".into(), num(outcome.refused as f64)),
        ("wrong".into(), num(outcome.wrong as f64)),
        ("passes".into(), num(outcome.passes as f64)),
        ("untimed_ops".into(), num(outcome.untimed as f64)),
        ("wall_s".into(), num(wall_s)),
        ("daemon_cpu_s".into(), num(cpu_s)),
        ("daemon_cpu_per_wall".into(), num(cpu_s / wall_s)),
        (
            "host_steal_share".into(),
            num(host0.steal_share_until(&host1)),
        ),
        (
            "host_steal_share_per_s".into(),
            Value::Array(steal_per_second(&outcome.host_samples)),
        ),
        (
            "setup_wall_s".into(),
            Value::Array(setups.iter().map(|&s| num(s)).collect()),
        ),
        ("wall_p50_ms".into(), ms(order::percentile(&latencies, 50))),
        ("wall_p90_ms".into(), ms(order::percentile(&latencies, 90))),
        (
            "nproc".into(),
            num(std::thread::available_parallelism().map_or(1, usize::from) as f64),
        ),
        (
            "rayon_threads".into(),
            num(rayon::current_num_threads() as f64),
        ),
        ("cpu_model".into(), Value::String(procfs::cpu_model())),
        (
            "problems".into(),
            Value::Array(problems.iter().map(|p| Value::String(p.clone())).collect()),
        ),
    ];
    Ok(Report {
        correct: problems.is_empty(),
        attempted: ops,
        failed: outcome.failed,
        metrics,
        diagnostics,
    })
}

/// The host's steal share in consecutive windows of at least a second,
/// rounded to 0.1 %, for the diagnostics.
fn steal_per_second(samples: &[(u64, procfs::HostCpu)]) -> Vec<Value> {
    let mut shares = Vec::new();
    let mut from = samples.first();
    for sample in samples {
        if let Some(start) = from {
            if sample.0 >= start.0 + 1_000_000_000 {
                let share = start.1.steal_share_until(&sample.1);
                shares.push(num((share * 1e3).round() / 1e3));
                from = Some(sample);
            }
        }
    }
    shares
}

/// Per-layer metrics from the daemon's own telemetry over the timed
/// phase.
fn layer_metrics(
    metrics: &mut BTreeMap<&'static str, f64>,
    workload: Workload,
    diff: &StatsDiff,
    ops: u64,
    cpu_per_wall: f64,
    mean_latency_ns: f64,
) {
    let request = diff.histogram(names::SERVICE_REQUEST_NS);
    let deltas = diff.histogram(names::WATCH_DELTA_NS);
    // Daemon-side time per operation: the request histogram, or for a
    // watch operation the time its deltas took on the shard worker.
    let daemon_ns = if workload == Workload::WatchStream {
        deltas.sum
    } else {
        request.sum
    };
    metrics.insert("service.server.request_us", request.mean() / 1e3);
    metrics.insert(
        "service.server.unattributed_us",
        (mean_latency_ns - ratio(daemon_ns, ops)) / 1e3,
    );
    metrics.insert("service.server.cpu_per_wall", cpu_per_wall);
    metrics.insert(
        "service.server.overloaded",
        diff.counter(names::SERVICE_OVERLOADED) as f64,
    );
    metrics.insert(
        "service.server.deadline_exceeded",
        diff.counter(names::SERVICE_DEADLINE_EXCEEDED) as f64,
    );
    metrics.insert(
        "service.queue.wait_us",
        diff.histogram(names::SERVICE_QUEUE_WAIT_NS).mean() / 1e3,
    );
    let hits = diff.counter(names::SERVICE_CACHE_HITS);
    let misses = diff.counter(names::SERVICE_CACHE_MISSES);
    metrics.insert("service.engine.cache_hit_ratio", ratio(hits, hits + misses));
    let result_hits = diff.counter(names::SERVICE_RESULT_CACHE_HITS);
    let result_misses = diff.counter(names::SERVICE_RESULT_CACHE_MISSES);
    metrics.insert(
        "service.cache.result_hit_ratio",
        ratio(result_hits, result_hits + result_misses),
    );
    metrics.insert(
        "service.server.shard_imbalance_pct",
        diff.gauge_after(names::SERVICE_SHARD_IMBALANCE_PCT) as f64,
    );
    let extract = diff.histogram(names::RID_EXTRACT_STAGE_NS);
    let query = diff.histogram(names::RID_QUERY_STAGE_NS);
    metrics.insert("core.stages.extract_ms", extract.mean() / 1e6);
    metrics.insert("core.stages.extract_per_op", ratio(extract.count, ops));
    metrics.insert("core.stages.query_ms", query.mean() / 1e6);
    metrics.insert("core.stages.query_per_op", ratio(query.count, ops));
    let answers = if workload == Workload::WatchStream {
        ops
    } else {
        0
    };
    metrics.insert("core.incremental.delta_us", deltas.mean() / 1e3);
    metrics.insert(
        "core.incremental.dirty_per_answer",
        ratio(diff.counter(names::WATCH_DIRTY_COMPONENTS), answers),
    );
    metrics.insert(
        "core.incremental.fallback_ratio",
        ratio(diff.counter(names::WATCH_FULL_RECOMPUTE_FALLBACKS), answers),
    );
    let batches = diff.counter(names::MC_WIDE_BATCHES);
    metrics.insert(
        "diffusion.wide.batch_ms",
        diff.histogram(names::MC_WIDE_BATCH_NS).mean() / 1e6,
    );
    metrics.insert("diffusion.wide.batches_per_op", ratio(batches, ops));
    metrics.insert(
        "diffusion.wide.lane_utilization",
        ratio(diff.counter(names::MC_WIDE_LANES), 64 * batches),
    );
}

/// The operations the traced replay covers: a slice of the cold pool
/// (its snapshots are alike), enough lookups to time microsecond
/// layers, and otherwise one whole pass, so the replay sees the same mix
/// as the timed phase.
fn replay_ops(inputs: &workloads::Inputs) -> Vec<&Op> {
    let pool = inputs.pool.iter();
    match inputs.workload {
        Workload::ColdRid => pool.take(48).collect(),
        Workload::HotLookup => pool.cycle().take(4096).collect(),
        Workload::WatchStream | Workload::Simulate => pool.collect(),
    }
}

/// Per-layer metrics from the traced replay; also writes the spans.
fn replayed_metrics(
    metrics: &mut BTreeMap<&'static str, f64>,
    env: &Env,
    inputs: &workloads::Inputs,
    seed: u64,
    mean_latency_ns: f64,
) -> Result<(), String> {
    let mut loads: Vec<f64> = Vec::new();
    for _ in 0..3 {
        let started = Instant::now();
        let graph = SignedDigraph::from_json_str(&env.graph_json).map_err(|e| e.to_string())?;
        loads.push(started.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(graph);
    }
    metrics.insert("graph.json.load_ms", order::median(&loads));

    let ops = replay_ops(inputs);
    let n = ops.iter().filter(|op| op.timed).count() as f64;
    // Alternate untraced and traced replays and keep each side's
    // fastest, so warm-up lands on neither.
    let mut plain_ns = f64::INFINITY;
    let mut traced_ns = f64::INFINITY;
    let mut recorded = None;
    for _ in 0..2 {
        let mut off = Recorder::new(false);
        let started = Instant::now();
        replay::replay(inputs.workload, &env.graph, &ops, &mut off)?;
        plain_ns = plain_ns.min(started.elapsed().as_nanos() as f64);

        let mut on = Recorder::new(true);
        let started = Instant::now();
        let artifact_bytes = replay::replay(inputs.workload, &env.graph, &ops, &mut on)?;
        traced_ns = traced_ns.min(started.elapsed().as_nanos() as f64);
        recorded = Some((on, artifact_bytes));
    }
    let (rec, artifact_bytes) = recorded.expect("the replay ran");
    metrics.insert(
        "bench.trace_overhead_pct",
        (traced_ns - plain_ns) / plain_ns * 100.0,
    );
    metrics.insert(
        "core.stages.artifact_kb",
        artifact_bytes as f64 / 1024.0 / n,
    );
    let self_ns = rec.self_time_by_name();
    for (span, metric, scale) in SPAN_METRICS {
        let total = self_ns.get(span).copied().unwrap_or(0);
        metrics.insert(metric, total as f64 / n / scale);
    }
    metrics.insert(
        "bench.replay_unattributed_us",
        (mean_latency_ns - rec.total_ns("request") as f64 / n) / 1e3,
    );
    let path = env
        .work
        .join(format!("trace-{}-{seed}.jsonl", inputs.workload.name()));
    std::fs::write(&path, rec.to_json_lines()).map_err(|e| format!("write {}: {e}", path.display()))
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let metrics = metrics
        .iter()
        .map(|(name, unit, value)| {
            (
                (*name).to_owned(),
                Value::Object(vec![
                    ("value".into(), num(*value)),
                    ("unit".into(), Value::String((*unit).to_owned())),
                ]),
            )
        })
        .collect();
    Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), num(attempted as f64)),
        ("failed".into(), num(failed as f64)),
        ("metrics".into(), Value::Object(metrics)),
    ])
    .to_json()
}

fn listed(traced: bool) -> &'static [(&'static str, &'static str)] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let root = std::env::current_dir().map_err(|e| format!("current directory: {e}"))?;
    let env = Env::prepare(&root)?;
    let mut reports = Vec::with_capacity(args.repeat);
    for r in 0..args.repeat {
        let seed = args.seed + r as u64;
        let report = run_once(&env, args.workload, seed, args.seconds, args.trace)?;
        let metrics = report
            .metrics
            .iter()
            .map(|(name, value)| ((*name).to_owned(), num(*value)))
            .collect();
        let mut diagnostics = report.diagnostics.clone();
        diagnostics.push(("metrics".into(), Value::Object(metrics)));
        println!(
            "{}",
            Value::Object(vec![("diagnostics".into(), Value::Object(diagnostics))]).to_json()
        );
        reports.push(report);
    }
    let value = |report: &Report, name: &str| report.metrics.get(name).copied().unwrap_or(0.0);
    let metrics: Vec<(&str, &str, f64)> = if args.repeat == 1 {
        listed(args.trace)
            .iter()
            .map(|&(name, unit)| (name, unit, value(&reports[0], name)))
            .collect()
    } else {
        println!(
            "{:<36} {:>12} {:>12} {:>12} {:>12} {:>12} {:>9}",
            "metric", "min", "q1", "median", "q3", "max", "iqr/med"
        );
        listed(args.trace)
            .iter()
            .map(|&(name, unit)| {
                let values: Vec<f64> = reports.iter().map(|r| value(r, name)).collect();
                let [q1, median, q3] = order::quartiles(&values);
                let min = values.iter().copied().fold(f64::INFINITY, f64::min);
                let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let spread = if median == 0.0 { 0.0 } else { (q3 - q1) / median };
                println!(
                    "{name:<36} {min:>12.4} {q1:>12.4} {median:>12.4} {q3:>12.4} {max:>12.4} {spread:>9.4}"
                );
                (name, unit, order::median(&values))
            })
            .collect()
    };
    let correct = reports.iter().all(|r| r.correct);
    let attempted = reports.iter().map(|r| r.attempted).sum();
    let failed = reports.iter().map(|r| r.failed).sum();
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(correct)
}

fn main() {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("daemonbench: {message}");
            eprintln!(
                "usage: daemonbench --workload <cold_rid|hot_lookup|watch_stream|simulate> \
                 --seed <n> --seconds <s> --trace <0|1> [--repeat <k>]"
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(message) => {
            eprintln!("daemonbench: {message}");
            std::process::exit(1);
        }
    }
}
