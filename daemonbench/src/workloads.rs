//! The four workloads: their inputs, drawn from the workload seed, and
//! the oracle replies every daemon reply is compared with.
//!
//! All inputs and oracle answers are computed before the daemon boots,
//! so none of that work is ever timed.

use crate::drive::{Op, Reply};
use crate::outbreak;
use crate::statsdiff::StatsDiff;
use isomit_core::{IncrementalRid, InitiatorDetector, Rid, RidConfig, RidResult};
use isomit_diffusion::{par_estimate_infection_probabilities_wide, InfectedNetwork, SeedSet};
use isomit_graph::json::Value;
use isomit_graph::SignedDigraph;
use isomit_service::fingerprint::snapshot_fingerprint;
use isomit_service::protocol::{encode_request, ok_line, ok_line_raw, RequestBody};
use isomit_service::server::shard_for_fingerprint;
use isomit_telemetry::names;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::sync::Arc;

/// `isomit-serve` defaults the workloads are sized against: shard
/// count and artifact-cache entries per shard. The shard count is
/// checked against the daemon's `stats` at boot.
pub const DAEMON_SHARDS: usize = 4;
const DAEMON_ARTIFACT_CACHE: usize = 32;

/// Infected nodes of a `cold_rid` snapshot: about 4.7k edges come with
/// them, a request line of about 160 KB.
const COLD_NODES: usize = 2_000;
/// Initiators of each simulated outbreak.
const OUTBREAK_SEEDS: usize = 10;
/// Snapshots taken from one `cold_rid` outbreak, `COLD_STEP`
/// infections apart; many outbreaks per pool keep the pool's mix of
/// snapshot shapes the same from seed to seed.
const COLD_PER_OUTBREAK: usize = 12;
const COLD_STEP: usize = 4;

/// `hot_lookup`: cached snapshots, their size, and lookups in flight
/// (enough that the daemon's io thread never runs out of work and
/// sleeps in its idle backoff).
const HOT_SNAPSHOTS: usize = 32;
const HOT_NODES: usize = 64;
const HOT_WINDOW: usize = 64;

/// `watch_stream`: outbreaks replayed per pass, each in its own
/// session and stopped at `WATCH_NODES` infected nodes; every
/// `WATCH_ANSWER_EVERY`-th delta is answered.
const WATCH_OUTBREAKS: usize = 4;
const WATCH_NODES: usize = 2_000;
pub const WATCH_ANSWER_EVERY: u64 = 64;

/// `simulate`: distinct requests and Monte-Carlo runs each (two 64-lane
/// batches, one per rayon thread on two cores). Every request starts
/// from the same `SIM_SEEDS` initiators, drawn once with the fixed
/// `SIM_SEED_SET` RNG seed; the workload seed draws each request's
/// master seed. A request's cost follows the size of its outbreaks, so
/// a fixed source keeps the cost the same from seed to seed; this one
/// infects about 5k nodes per run, about 100 ms of two cores.
const SIM_REQUESTS: usize = 16;
const SIM_SEEDS: usize = 3;
const SIM_SEED_SET: u64 = 0;
pub const SIM_RUNS: usize = 128;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Full-form `rid` on snapshots the artifact cache does not hold.
    ColdRid,
    /// By-fingerprint `rid` of primed snapshots, several in flight.
    HotLookup,
    /// A watch session replaying an outbreak delta by delta.
    WatchStream,
    /// `simulate` requests on the served network.
    Simulate,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 4] = [
        Workload::ColdRid,
        Workload::HotLookup,
        Workload::WatchStream,
        Workload::Simulate,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdRid => "cold_rid",
            Workload::HotLookup => "hot_lookup",
            Workload::WatchStream => "watch_stream",
            Workload::Simulate => "simulate",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What set-up does after the daemon answers `health`.
#[derive(Debug, Clone)]
pub enum Warmup {
    /// Nothing.
    None,
    /// Send these operations on a control connection (priming).
    Prime(Vec<Op>),
    /// Send this operation on the measurement connection (`watch_open`).
    OnConnection(Op),
}

/// A workload's generated inputs.
#[derive(Debug)]
pub struct Inputs {
    /// Which workload.
    pub workload: Workload,
    /// One pass of operations, driven in order.
    pub pool: Vec<Op>,
    /// Operations in flight.
    pub window: usize,
    /// Set-up traffic after `health`.
    pub warmup: Warmup,
    /// Size of the inputs, for the log.
    pub summary: String,
}

fn line(id: u64, body: &RequestBody) -> String {
    let mut line = encode_request(id, body);
    line.push('\n');
    line
}

fn bytes(text: String) -> Arc<[u8]> {
    Arc::from(text.into_bytes())
}

fn rid_json(rid: &Rid, config: RidConfig, snapshot: &InfectedNetwork) -> String {
    RidResult {
        config,
        detection: rid.detect(snapshot),
    }
    .to_json_value()
    .to_json()
}

/// Generates the inputs of `workload` from `seed` on the served `graph`.
pub fn generate(workload: Workload, graph: &SignedDigraph, seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x005E_ED0F_B3AC);
    let config = RidConfig::default();
    match workload {
        Workload::ColdRid => cold_rid(graph, config, &mut rng),
        Workload::HotLookup => hot_lookup(graph, config, &mut rng),
        Workload::WatchStream => watch_stream(graph, config, &mut rng),
        Workload::Simulate => simulate(graph, config, &mut rng),
    }
}

fn cold_rid(graph: &SignedDigraph, config: RidConfig, rng: &mut StdRng) -> Inputs {
    let model = config.model().expect("default alpha is valid");
    let rid = Rid::from_config(config).expect("default config is valid");
    let sizes: Vec<usize> = (0..COLD_PER_OUTBREAK)
        .map(|t| COLD_NODES + COLD_STEP * t)
        .collect();
    let largest = sizes.last().copied().expect("sizes are not empty");
    // Every shard must see more distinct snapshots than its artifact
    // cache holds, so cycling the pool in order always misses.
    let mut per_shard = [0usize; DAEMON_SHARDS];
    let mut snapshots = Vec::new();
    while per_shard.iter().any(|&n| n <= DAEMON_ARTIFACT_CACHE + 4) {
        let cascade = outbreak::simulate(graph, &model, OUTBREAK_SEEDS, largest, rng);
        for snapshot in outbreak::snapshots_at_sizes(graph, &cascade, &sizes) {
            per_shard[shard_for_fingerprint(snapshot_fingerprint(&snapshot), DAEMON_SHARDS)] += 1;
            snapshots.push(snapshot);
        }
    }
    let mut line_bytes = 0usize;
    let pool: Vec<Op> = snapshots
        .iter()
        .enumerate()
        .map(|(i, snapshot)| {
            let id = i as u64 + 1;
            let request = line(
                id,
                &RequestBody::Rid {
                    snapshot: Box::new(snapshot.clone()),
                    config: None,
                    detector: None,
                },
            );
            line_bytes += request.len();
            Op {
                request: bytes(request),
                replies: vec![Reply::Exact(bytes(ok_line_raw(
                    id,
                    &rid_json(&rid, config, snapshot),
                )))],
                timed: true,
            }
        })
        .collect();
    let edges: usize = snapshots.iter().map(|s| s.graph().edge_count()).sum();
    Inputs {
        workload: Workload::ColdRid,
        summary: format!(
            "{} snapshots of {}..{} nodes, mean {} edges, mean line {} KB, per shard {:?}",
            pool.len(),
            COLD_NODES,
            largest,
            edges / snapshots.len(),
            line_bytes / pool.len() / 1024,
            per_shard
        ),
        pool,
        window: 1,
        warmup: Warmup::None,
    }
}

fn hot_lookup(graph: &SignedDigraph, config: RidConfig, rng: &mut StdRng) -> Inputs {
    let model = config.model().expect("default alpha is valid");
    let rid = Rid::from_config(config).expect("default config is valid");
    let per_outbreak = 4;
    let sizes: Vec<usize> = (0..per_outbreak).map(|t| HOT_NODES + t).collect();
    let mut snapshots = Vec::new();
    while snapshots.len() < HOT_SNAPSHOTS {
        let cascade =
            outbreak::simulate(graph, &model, OUTBREAK_SEEDS, HOT_NODES + per_outbreak, rng);
        snapshots.extend(outbreak::snapshots_at_sizes(graph, &cascade, &sizes));
    }
    snapshots.truncate(HOT_SNAPSHOTS);
    let mut prime = Vec::new();
    let mut pool = Vec::new();
    for (i, snapshot) in snapshots.iter().enumerate() {
        let id = i as u64 + 1;
        let expected = bytes(ok_line_raw(id, &rid_json(&rid, config, snapshot)));
        prime.push(Op {
            request: bytes(line(
                id,
                &RequestBody::Rid {
                    snapshot: Box::new(snapshot.clone()),
                    config: None,
                    detector: None,
                },
            )),
            replies: vec![Reply::Exact(Arc::clone(&expected))],
            timed: false,
        });
        pool.push(Op {
            request: bytes(line(
                id,
                &RequestBody::RidByFingerprint {
                    fingerprint: snapshot_fingerprint(snapshot),
                    config: None,
                    detector: None,
                },
            )),
            replies: vec![Reply::Exact(expected)],
            timed: true,
        });
    }
    let reply_bytes: usize = pool
        .iter()
        .map(|op| match &op.replies[0] {
            Reply::Exact(b) => b.len(),
            Reply::WatchAnswer { .. } => 0,
        })
        .sum();
    Inputs {
        workload: Workload::HotLookup,
        summary: format!(
            "{} primed snapshots of {}..{} nodes, mean reply {} B, {} in flight",
            pool.len(),
            HOT_NODES,
            HOT_NODES + per_outbreak - 1,
            reply_bytes / pool.len(),
            HOT_WINDOW
        ),
        pool,
        window: HOT_WINDOW,
        warmup: Warmup::Prime(prime),
    }
}

fn watch_open_line() -> String {
    line(
        0,
        &RequestBody::WatchOpen {
            config: None,
            answer_every: Some(WATCH_ANSWER_EVERY),
        },
    )
}

fn watch_opened_reply() -> Reply {
    Reply::Exact(bytes(ok_line(
        0,
        Value::Object(vec![
            ("opened".into(), Value::Bool(true)),
            (
                "answer_every".into(),
                Value::Number(WATCH_ANSWER_EVERY as f64),
            ),
        ]),
    )))
}

fn watch_stream(graph: &SignedDigraph, config: RidConfig, rng: &mut StdRng) -> Inputs {
    let model = config.model().expect("default alpha is valid");
    let rid = Rid::from_config(config).expect("default config is valid");
    let mut pool = Vec::new();
    let mut total_deltas = 0;
    for _ in 0..WATCH_OUTBREAKS {
        let cascade = outbreak::simulate(graph, &model, OUTBREAK_SEEDS, WATCH_NODES, rng);
        let mut deltas = outbreak::deltas(graph, &cascade, WATCH_NODES);
        // Every operation ends on an answer.
        deltas.truncate(deltas.len() - deltas.len() % WATCH_ANSWER_EVERY as usize);
        total_deltas += deltas.len();
        // The oracle session validates every delta and gives the
        // snapshot each answer must match a cold detection of.
        let mut session = IncrementalRid::new(config).expect("default config is valid");
        let mut request = String::new();
        let mut replies = Vec::new();
        for (i, delta) in deltas.iter().enumerate() {
            let id = i as u64 + 1;
            session
                .apply(delta)
                .unwrap_or_else(|e| panic!("outbreak delta {i} is invalid: {e}"));
            request.push_str(&line(id, &RequestBody::WatchDelta { delta: *delta }));
            if id.is_multiple_of(WATCH_ANSWER_EVERY) {
                let full = ok_line_raw(id, &rid_json(&rid, config, &session.snapshot()));
                // Drop the closing braces of the result and the envelope:
                // the daemon appends its session fields there.
                let head = &full[..full.len() - 2];
                replies.push(Reply::WatchAnswer {
                    head: Arc::from(head.as_bytes()),
                    deltas: id,
                });
                pool.push(Op {
                    request: bytes(std::mem::take(&mut request)),
                    replies: std::mem::take(&mut replies),
                    timed: true,
                });
            } else {
                replies.push(Reply::Exact(bytes(ok_line(
                    id,
                    Value::Object(vec![
                        ("acked".into(), Value::Bool(true)),
                        ("deltas".into(), Value::Number(id as f64)),
                    ]),
                ))));
            }
        }
        // The next outbreak gets a fresh session, untimed.
        let mut reopen = line(0, &RequestBody::WatchClose);
        reopen.push_str(&watch_open_line());
        pool.push(Op {
            request: bytes(reopen),
            replies: vec![
                Reply::Exact(bytes(ok_line(
                    0,
                    Value::Object(vec![
                        ("closed".into(), Value::Bool(true)),
                        ("deltas".into(), Value::Number(deltas.len() as f64)),
                    ]),
                ))),
                watch_opened_reply(),
            ],
            timed: false,
        });
    }
    let answers = pool.iter().filter(|op| op.timed).count();
    Inputs {
        workload: Workload::WatchStream,
        summary: format!(
            "{WATCH_OUTBREAKS} outbreaks replayed to {WATCH_NODES} nodes each: \
             {total_deltas} deltas, {answers} answers"
        ),
        pool,
        window: 1,
        warmup: Warmup::OnConnection(Op {
            request: bytes(watch_open_line()),
            replies: vec![watch_opened_reply()],
            timed: false,
        }),
    }
}

fn simulate(graph: &SignedDigraph, config: RidConfig, rng: &mut StdRng) -> Inputs {
    let model = config.model().expect("default alpha is valid");
    let seeds = SeedSet::sample(
        graph,
        SIM_SEEDS,
        0.5,
        &mut StdRng::seed_from_u64(SIM_SEED_SET),
    );
    let pool: Vec<Op> = (0..SIM_REQUESTS)
        .map(|i| {
            let id = i as u64 + 1;
            let seeds = seeds.clone();
            // Below 2^52, so the wire's f64 numbers carry it exactly.
            let seed = rng.next_u64() >> 12;
            let estimate =
                par_estimate_infection_probabilities_wide(&model, graph, &seeds, SIM_RUNS, seed)
                    .expect("sampled seeds lie in the graph");
            Op {
                request: bytes(line(
                    id,
                    &RequestBody::Simulate {
                        seeds,
                        runs: SIM_RUNS,
                        seed,
                    },
                )),
                replies: vec![Reply::Exact(bytes(ok_line(id, estimate.to_json_value())))],
                timed: true,
            }
        })
        .collect();
    Inputs {
        workload: Workload::Simulate,
        summary: format!(
            "{} requests of {} initiators x {} runs on {} nodes",
            pool.len(),
            SIM_SEEDS,
            SIM_RUNS,
            graph.node_count()
        ),
        pool,
        window: 1,
        warmup: Warmup::None,
    }
}

/// Checks, from the `stats` diff of the timed phase, that the workload
/// loaded the layers it claims to. `ops` is the number of timed
/// operations.
pub fn self_check(workload: Workload, diff: &StatsDiff, ops: u64) -> Result<(), String> {
    let extractions = diff.histogram(names::RID_EXTRACT_STAGE_NS).count;
    match workload {
        Workload::ColdRid => {
            let hits = diff.counter(names::SERVICE_CACHE_HITS);
            if hits != 0 {
                return Err(format!("cold_rid hit the artifact cache {hits} times"));
            }
            if extractions != ops {
                return Err(format!(
                    "cold_rid extracted {extractions} times for {ops} operations"
                ));
            }
        }
        Workload::HotLookup => {
            let hits = diff.counter(names::SERVICE_RESULT_CACHE_HITS);
            let misses = diff.counter(names::SERVICE_RESULT_CACHE_MISSES);
            if hits != ops || misses != 0 {
                return Err(format!(
                    "hot_lookup result cache: {hits} hits, {misses} misses for {ops} lookups"
                ));
            }
            if extractions != 0 {
                return Err(format!("hot_lookup extracted {extractions} times"));
            }
        }
        Workload::WatchStream => {
            // Each operation carries one answer's worth of deltas and ends
            // on a checked answer. Rejected deltas return before
            // `watch.delta_ns` is recorded, so a full count also means no
            // delta met an invalid_delta error.
            let applied = diff.histogram(names::WATCH_DELTA_NS).count;
            if applied != ops * WATCH_ANSWER_EVERY {
                return Err(format!(
                    "watch_stream applied {applied} deltas for {ops} answers of {WATCH_ANSWER_EVERY}"
                ));
            }
        }
        Workload::Simulate => {
            let batches = diff.counter(names::MC_WIDE_BATCHES);
            let per_op = SIM_RUNS.div_ceil(64) as u64;
            if batches != ops * per_op {
                return Err(format!(
                    "simulate ran {batches} wide batches for {ops} requests (want {per_op} each)"
                ));
            }
        }
    }
    Ok(())
}
