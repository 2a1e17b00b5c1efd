//! Incremental watch-session load driver: seed an [`IncrementalRid`]
//! session to batch-eval scale through deltas, then stream a sparse
//! delta tail, answering **every** delta both incrementally and by cold
//! recompute of the final snapshot prefix. Writes
//! `BENCH_incremental.json` with the amortized per-delta latencies,
//! their ratio (`speedup_amortized`), a `bit_identical` flag that is 1.0
//! only if every incremental answer matched its cold reference
//! byte-for-byte, and two exact counts of how the tail was answered:
//! `stream_fallbacks` (tail answers in which every component was dirty)
//! and `stream_extractions` (forest extractions the tail's incremental
//! answers ran) — the artifact `xtask bench-check` gates on. The seeded
//! session's first answer, in which every component is dirty, is timed
//! on its own as `warmup_answer_ns` (recorded, not gated).
//!
//! Options:
//!
//! * `--nodes N` / `--edges N` — seed-phase session size (defaults
//!   10 000 / 50 000), built entirely through `infect` / `add_edge`
//!   deltas;
//! * `--deltas N` — sparse stream length after seeding (default 50):
//!   fresh-node infections and occasional two-node fresh components,
//!   the workload where delta-driven maintenance should shine;
//! * `--seed N` — RNG seed (the run is deterministic in it).

use isomit_bench::report::{BenchReport, TimingStats};
use isomit_core::{
    extraction_run_count, IncrementalRid, InitiatorDetector, Rid, RidConfig, RidDelta,
};
use isomit_graph::{NodeId, NodeState, Sign};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

struct Options {
    nodes: usize,
    edges: usize,
    deltas: usize,
    seed: u64,
}

impl Options {
    fn parse(mut args: std::env::Args) -> Options {
        let mut opts = Options {
            nodes: 10_000,
            edges: 50_000,
            deltas: 50,
            seed: 7,
        };
        args.next(); // program name
        while let Some(flag) = args.next() {
            let mut value = |name: &str| {
                args.next()
                    .unwrap_or_else(|| panic!("{name} requires a value"))
            };
            match flag.as_str() {
                "--nodes" => opts.nodes = value("--nodes").parse().expect("--nodes: usize"),
                "--edges" => opts.edges = value("--edges").parse().expect("--edges: usize"),
                "--deltas" => opts.deltas = value("--deltas").parse().expect("--deltas: usize"),
                "--seed" => opts.seed = value("--seed").parse().expect("--seed: u64"),
                other => panic!("unknown flag `{other}`"),
            }
        }
        assert!(opts.nodes >= 2, "--nodes must be at least 2");
        assert!(opts.deltas > 0, "--deltas must be positive");
        opts
    }
}

/// Seeds the session to `nodes` infected nodes and up to `edges` random
/// edges among them, all through deltas, and returns the delta count.
fn seed_session(session: &mut IncrementalRid, opts: &Options, rng: &mut StdRng) -> u64 {
    for i in 0..opts.nodes {
        let state = if rng.gen_bool(0.8) {
            NodeState::Positive
        } else {
            NodeState::Negative
        };
        session
            .apply(&RidDelta::Infect {
                node: NodeId::from_index(i),
                state,
            })
            .expect("fresh infections are always valid");
    }
    let mut applied = opts.nodes as u64;
    let mut attempts = 0usize;
    let mut added = 0usize;
    // Random edges among the infected population; duplicates and
    // self-loops are rejected by the session's validator and resampled.
    while added < opts.edges && attempts < opts.edges * 4 {
        attempts += 1;
        let src = rng.gen_range(0..opts.nodes);
        let dst = rng.gen_range(0..opts.nodes);
        let delta = RidDelta::AddEdge {
            src: NodeId::from_index(src),
            dst: NodeId::from_index(dst),
            sign: if rng.gen_bool(0.85) {
                Sign::Positive
            } else {
                Sign::Negative
            },
            weight: 0.02 + 0.28 * rng.gen_range(0.0..1.0),
        };
        if session.apply(&delta).is_ok() {
            added += 1;
            applied += 1;
        }
    }
    applied
}

/// One sparse-tail delta: usually a fresh singleton infection, every
/// third step grown into a two-node fresh component — the streaming
/// workload where only a tiny fraction of components goes dirty.
fn sparse_delta(step: usize, next_node: &mut usize, rng: &mut StdRng) -> Vec<RidDelta> {
    let node = *next_node;
    *next_node += 1;
    let mut deltas = vec![RidDelta::Infect {
        node: NodeId::from_index(node),
        state: if rng.gen_bool(0.5) {
            NodeState::Positive
        } else {
            NodeState::Negative
        },
    }];
    if step % 3 == 2 {
        let partner = *next_node;
        *next_node += 1;
        deltas.push(RidDelta::Infect {
            node: NodeId::from_index(partner),
            state: NodeState::Positive,
        });
        deltas.push(RidDelta::AddEdge {
            src: NodeId::from_index(node),
            dst: NodeId::from_index(partner),
            sign: Sign::Positive,
            weight: 0.02 + 0.28 * rng.gen_range(0.0..1.0),
        });
    }
    deltas
}

fn main() {
    let opts = Options::parse(std::env::args());
    let config = RidConfig::default();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut session = IncrementalRid::new(config).expect("valid default config");
    let rid = Rid::from_config(config).expect("valid default config");

    let t0 = Instant::now();
    let seed_deltas = seed_session(&mut session, &opts, &mut rng);
    let seed_ns = t0.elapsed().as_nanos() as f64;
    let t0 = Instant::now();
    let _ = session.answer(); // warm the per-component solutions
    let warmup_answer_ns = t0.elapsed().as_nanos() as f64;
    println!(
        "seeded session: {} nodes / {} edges / {} components in {:.2}s, \
         warm-up answer {:.2}ms",
        session.node_count(),
        session.edge_count(),
        session.component_count(),
        seed_ns / 1e9,
        warmup_answer_ns / 1e6
    );

    let mut incremental_ns = Vec::with_capacity(opts.deltas);
    let mut cold_ns = Vec::with_capacity(opts.deltas);
    let mut bit_identical = true;
    let mut dirty_total = 0u64;
    let mut stream_fallbacks = 0u64;
    let mut stream_extractions = 0u64;
    let mut next_node = session.node_count();
    for step in 0..opts.deltas {
        for delta in sparse_delta(step, &mut next_node, &mut rng) {
            session.apply(&delta).expect("sparse deltas are valid");
        }

        // Extractions are counted around this call alone: the cold
        // `rid.detect` below extracts too.
        let extractions_before = extraction_run_count();
        let t0 = Instant::now();
        let (incremental, outcome) = session.answer_detailed();
        incremental_ns.push(t0.elapsed().as_nanos() as f64);
        stream_extractions += extraction_run_count() - extractions_before;
        dirty_total += outcome.dirty_components as u64;
        stream_fallbacks += u64::from(outcome.full_recompute);

        // Cold baseline: a from-scratch detector run over the session's
        // current snapshot (materialized outside the timed region, in
        // the baseline's favor).
        let snapshot = session.snapshot();
        let t0 = Instant::now();
        let cold = rid.detect(&snapshot);
        cold_ns.push(t0.elapsed().as_nanos() as f64);

        let identical = incremental.detection == cold
            && incremental.detection.objective.to_bits() == cold.objective.to_bits()
            && incremental.detection.to_json_value().to_json() == cold.to_json_value().to_json();
        if !identical {
            bit_identical = false;
            eprintln!("MISMATCH at stream delta {step}: incremental != cold");
        }
    }

    let incr_mean = incremental_ns.iter().sum::<f64>() / incremental_ns.len() as f64;
    let cold_mean = cold_ns.iter().sum::<f64>() / cold_ns.len() as f64;
    let speedup = cold_mean / incr_mean;
    println!(
        "stream: {} deltas, amortized incremental {:.3}ms vs cold {:.3}ms -> {:.1}x, \
         bit_identical={}, stream_fallbacks={}, extractions={} for {} dirty components",
        opts.deltas,
        incr_mean / 1e6,
        cold_mean / 1e6,
        speedup,
        bit_identical,
        stream_fallbacks,
        stream_extractions,
        dirty_total
    );

    let mut report = BenchReport::new("incremental");
    report.add_entry(
        "incremental",
        "watch_load",
        vec![
            ("nodes".into(), session.node_count() as f64),
            ("edges".into(), session.edge_count() as f64),
            ("components".into(), session.component_count() as f64),
            ("seed_deltas".into(), seed_deltas as f64),
            ("stream_deltas".into(), opts.deltas as f64),
            ("bit_identical".into(), f64::from(u8::from(bit_identical))),
            ("speedup_amortized".into(), speedup),
            ("incremental_mean_ns".into(), incr_mean),
            ("cold_mean_ns".into(), cold_mean),
            ("dirty_components_total".into(), dirty_total as f64),
            ("stream_fallbacks".into(), stream_fallbacks as f64),
            ("stream_extractions".into(), stream_extractions as f64),
            ("seed_ns".into(), seed_ns),
            ("warmup_answer_ns".into(), warmup_answer_ns),
        ],
        TimingStats::from_samples(&incremental_ns),
    );
    report.add_timing(
        "incremental",
        "cold_recompute",
        TimingStats::from_samples(&cold_ns),
    );
    let path = report.write().expect("write BENCH_incremental.json");
    println!("wrote {}", path.display());
    assert!(bit_identical, "incremental answers diverged from cold");
}
