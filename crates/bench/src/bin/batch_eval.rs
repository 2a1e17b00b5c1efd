// lint:allow-file(unsafe) the counting global allocator must implement the unsafe GlobalAlloc trait; it only delegates to std's System allocator and updates atomics
//! SNAP-scale batch evaluation driver: generate (or load) a large signed
//! network, sample `K` infected snapshots by simulating MFC forward, run
//! the two-stage RID pipeline over every snapshot, and write per-stage
//! timings plus allocation statistics to `BENCH_scale.json`.
//!
//! This is the scale harness behind the repository's forest-extraction
//! optimization work: alongside the production per-component extraction
//! path it times the retained single-run reference
//! ([`extract_cascade_forest_reference`]) on the same snapshots, asserts
//! the two agree **exactly**, and reports the measured speedup and
//! allocation churn reduction.
//!
//! Options:
//!
//! * `--nodes N` / `--edges N` — generated graph size (defaults
//!   100 000 / 500 000), via [`isomit_datasets::snap_like`];
//! * `--load PATH` — load a SNAP edge list through the streaming
//!   [`isomit_datasets::load_snap_file`] loader instead of generating;
//! * `--snapshots K` — infected snapshots to evaluate (default 8);
//! * `--initiators N` — planted initiators per snapshot (default 5);
//! * `--rounds N` — observation horizon: MFC rounds simulated before the
//!   snapshot is taken (default 256, effectively "run to quiescence";
//!   small values yield early-stage, fragmented multi-cascade snapshots);
//! * `--sign-fraction F` — positive-edge fraction when generating
//!   (default 0.85, the Epinions figure);
//! * `--seed N`, `--threads N` — determinism and rayon worker count;
//! * `--no-baseline` — skip the reference-extraction comparison.

use isomit_bench::report::{BenchReport, TimingStats};
use isomit_core::{extract_cascade_forest, extract_cascade_forest_reference, Rid, RidConfig};
use isomit_diffusion::{
    estimate_infection_probabilities_wide_reference, par_estimate_infection_probabilities,
    par_estimate_infection_probabilities_wide, DiffusionModel, InfectedNetwork, SeedSet,
};
use isomit_graph::{Edge, SignedDigraph};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::time::Instant;

/// Counting wrapper around the system allocator: tracks live bytes, the
/// live-byte high-water mark (a peak-RSS proxy for heap usage) and the
/// total number of allocation calls, so the harness can report the
/// allocation churn of each extraction path.
struct CountingAlloc;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method delegates to the System allocator with the exact
// layout it received; the atomic counters never touch the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards the caller's layout to System.alloc unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            let live = LIVE_BYTES.fetch_add(layout.size(), Relaxed) + layout.size();
            PEAK_BYTES.fetch_max(live, Relaxed);
            ALLOC_CALLS.fetch_add(1, Relaxed);
        }
        ptr
    }

    // SAFETY: forwards the caller's pointer and layout to System.dealloc
    // unchanged; the pointer was produced by the same System allocator.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE_BYTES.fetch_sub(layout.size(), Relaxed);
    }

    // SAFETY: forwards pointer, old layout and new size to System.realloc
    // unchanged; counter updates only run after a non-null return.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            let live = if new_size >= layout.size() {
                LIVE_BYTES.fetch_add(new_size - layout.size(), Relaxed) + (new_size - layout.size())
            } else {
                LIVE_BYTES.fetch_sub(layout.size() - new_size, Relaxed) - (layout.size() - new_size)
            };
            PEAK_BYTES.fetch_max(live, Relaxed);
            ALLOC_CALLS.fetch_add(1, Relaxed);
        }
        new_ptr
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

struct Options {
    nodes: usize,
    edges: usize,
    snapshots: usize,
    initiators: usize,
    rounds: usize,
    sign_fraction: f64,
    seed: u64,
    threads: Option<usize>,
    load: Option<String>,
    baseline: bool,
}

impl Options {
    fn parse(mut args: std::env::Args) -> Options {
        let mut opts = Options {
            nodes: 100_000,
            edges: 500_000,
            snapshots: 8,
            initiators: 5,
            rounds: 256,
            sign_fraction: 0.85,
            seed: 7,
            threads: None,
            load: None,
            baseline: true,
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
                "--snapshots" => {
                    opts.snapshots = value("--snapshots").parse().expect("--snapshots: usize")
                }
                "--initiators" => {
                    opts.initiators = value("--initiators").parse().expect("--initiators: usize")
                }
                "--rounds" => opts.rounds = value("--rounds").parse().expect("--rounds: usize"),
                "--sign-fraction" => {
                    opts.sign_fraction = value("--sign-fraction")
                        .parse()
                        .expect("--sign-fraction: f64")
                }
                "--seed" => opts.seed = value("--seed").parse().expect("--seed: u64"),
                "--threads" => {
                    opts.threads = Some(value("--threads").parse().expect("--threads: usize"))
                }
                "--load" => opts.load = Some(value("--load")),
                "--no-baseline" => opts.baseline = false,
                other => panic!("unknown flag `{other}`"),
            }
        }
        assert!(opts.snapshots > 0, "--snapshots must be positive");
        assert!(opts.initiators > 0, "--initiators must be positive");
        assert!(opts.rounds > 0, "--rounds must be positive");
        assert!(opts.threads != Some(0), "--threads must be positive");
        opts
    }

    /// Runs `f` inside a rayon pool of `--threads` workers (or the
    /// default pool when the flag is absent).
    fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        match self.threads {
            Some(n) => rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .expect("build rayon pool")
                .install(f),
            None => f(),
        }
    }
}

/// SplitMix64 finalizer: a cheap, high-quality deterministic hash used to
/// derive per-edge diffusion weights without the quadratic blow-up of
/// neighbourhood-overlap weighting on 500k+ edge graphs.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Replaces every edge's weight with a deterministic hash-derived value
/// in `[0.02, 0.30]` — fast at any scale and seed-stable. The upper bound
/// stays below `1/α` so no boosted probability reaches exactly 1: MFC's
/// flip waves then terminate with probability 1 instead of oscillating
/// forever on deterministic positive cycles (see the `Mfc` docs).
fn hash_weights(graph: &SignedDigraph, seed: u64, alpha: f64) -> SignedDigraph {
    let hi = 0.30f64.min(1.0 / alpha - 0.02);
    let edges: Vec<Edge> = graph
        .edges()
        .map(|e| {
            let key = ((e.src.index() as u64) << 32) | e.dst.index() as u64;
            let u = splitmix64(key ^ seed) as f64 / u64::MAX as f64;
            Edge::new(e.src, e.dst, e.sign, 0.02 + (hi - 0.02) * u)
        })
        .collect();
    SignedDigraph::from_edge_vec(graph.node_count(), edges).expect("weights stay in [0, 1]")
}

/// Latency percentile by nearest-rank over a sorted sample, in ns.
fn percentile(sorted_ns: &[f64], q: f64) -> f64 {
    assert!(!sorted_ns.is_empty());
    let rank = ((sorted_ns.len() - 1) as f64 * q).round() as usize;
    sorted_ns
        .get(rank)
        .copied()
        .expect("nearest-rank index is below the sample length")
}

fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples
}

fn main() {
    let opts = Options::parse(std::env::args());
    let mut report = BenchReport::new("scale");

    // Stage 1: obtain the social graph — streamed from disk or generated.
    let t0 = Instant::now();
    let (social, load_metrics) = match &opts.load {
        Some(path) => {
            let (graph, load_report) =
                isomit_datasets::load_snap_file(path, &isomit_datasets::LoadOptions::lenient())
                    .unwrap_or_else(|e| panic!("loading {path}: {e}"));
            println!(
                "loaded {path}: {} lines -> {} nodes / {} edges \
                 ({} comments, {} dup, {} self-loops, {} malformed)",
                load_report.total_lines,
                load_report.nodes,
                load_report.edges,
                load_report.comment_lines,
                load_report.duplicate_edges,
                load_report.self_loops,
                load_report.malformed_lines,
            );
            let metrics = vec![
                ("loaded".into(), 1.0),
                ("total_lines".into(), load_report.total_lines as f64),
                ("comment_lines".into(), load_report.comment_lines as f64),
                ("parsed_edges".into(), load_report.parsed_edges as f64),
                ("duplicate_edges".into(), load_report.duplicate_edges as f64),
                ("self_loops".into(), load_report.self_loops as f64),
                ("malformed_lines".into(), load_report.malformed_lines as f64),
            ];
            (graph, metrics)
        }
        None => {
            let graph =
                isomit_datasets::snap_like(opts.nodes, opts.edges, opts.sign_fraction, opts.seed);
            (graph, vec![("loaded".into(), 0.0)])
        }
    };
    let build_ns = t0.elapsed().as_nanos() as f64;

    // Stage 2: deterministic diffusion weights + CSR rebuild.
    let config = RidConfig::default();
    let t0 = Instant::now();
    let graph = hash_weights(&social, opts.seed, config.alpha);
    let weighting_ns = t0.elapsed().as_nanos() as f64;
    drop(social);
    println!(
        "graph ready: {} nodes / {} edges (build {:.1} ms, weighting+CSR {:.1} ms)",
        graph.node_count(),
        graph.edge_count(),
        build_ns / 1e6,
        weighting_ns / 1e6,
    );
    let mut graph_metrics = vec![
        ("nodes".into(), graph.node_count() as f64),
        ("edges".into(), graph.edge_count() as f64),
        ("build_ns".into(), build_ns),
        ("weighting_csr_ns".into(), weighting_ns),
    ];
    graph_metrics.extend(load_metrics);
    report.add_metrics("dataset", "graph", graph_metrics);

    // Stage 3: sample K infected snapshots by simulating MFC forward.
    // `--rounds` doubles as the observation horizon and as a backstop:
    // hash weights stay below 1/alpha, so cascades terminate on their own
    // with probability 1 even at the default cap.
    let model = config
        .model()
        .expect("valid alpha")
        .with_max_rounds(opts.rounds);
    let t0 = Instant::now();
    let snapshots: Vec<InfectedNetwork> = (0..opts.snapshots)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(opts.seed ^ (0x5EED_0000 + i as u64));
            let seeds = SeedSet::sample(&graph, opts.initiators, 0.5, &mut rng);
            let cascade = model
                .simulate(&graph, &seeds, &mut rng)
                .expect("MFC simulation");
            InfectedNetwork::from_cascade(&graph, &cascade)
        })
        .collect();
    let sampling_ns = t0.elapsed().as_nanos() as f64;
    let total_infected: usize = snapshots.iter().map(|s| s.node_count()).sum();
    println!(
        "{} snapshots sampled in {:.1} ms ({} infected nodes total)",
        snapshots.len(),
        sampling_ns / 1e6,
        total_infected,
    );
    report.add_metrics(
        "dataset",
        "snapshots",
        vec![
            ("count".into(), snapshots.len() as f64),
            ("rounds_cap".into(), opts.rounds as f64),
            ("sampling_ns".into(), sampling_ns),
            ("infected_total".into(), total_infected as f64),
        ],
    );

    // Stage 3b: wide Monte-Carlo comparison on the same workload — one
    // full 64-lane batch through the bitplane engine against the same
    // trial count through the production scalar estimator, plus the
    // scalar wide-reference replay that pins bit-identity. Both timed
    // estimators run in a 1-thread pool, so the speedup compares one
    // core with one core; it is what `cargo run -p xtask -- bench-check`
    // gates against the committed floor in `bench_baselines.json`.
    const WIDE_TRIALS: usize = 64;
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x5EED_FFFF);
    let mc_seeds = SeedSet::sample(&graph, opts.initiators, 0.5, &mut rng);
    let one_thread = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("thread pool construction cannot fail");

    let t0 = Instant::now();
    let scalar = one_thread
        .install(|| {
            par_estimate_infection_probabilities(&model, &graph, &mc_seeds, WIDE_TRIALS, opts.seed)
        })
        .expect("sampled seeds lie within the graph");
    let sampling_scalar_ns = t0.elapsed().as_nanos() as f64;

    let t0 = Instant::now();
    let wide = one_thread
        .install(|| {
            par_estimate_infection_probabilities_wide(
                &model,
                &graph,
                &mc_seeds,
                WIDE_TRIALS,
                opts.seed,
            )
        })
        .expect("sampled seeds lie within the graph");
    let sampling_wide_ns = t0.elapsed().as_nanos() as f64;

    let t0 = Instant::now();
    let wide_ref = estimate_infection_probabilities_wide_reference(
        &model,
        &graph,
        &mc_seeds,
        WIDE_TRIALS,
        opts.seed,
    )
    .expect("sampled seeds lie within the graph");
    let sampling_reference_ns = t0.elapsed().as_nanos() as f64;
    assert_eq!(
        wide, wide_ref,
        "wide estimate must be bit-identical to the scalar wide reference"
    );

    let wide_speedup = sampling_scalar_ns / sampling_wide_ns;
    println!(
        "wide MC: {WIDE_TRIALS} trials — scalar {:.1} ms, wide {:.1} ms ({wide_speedup:.2}x), \
         reference {:.1} ms — wide bit-identical to reference \
         (expected infected: scalar {:.1}, wide {:.1})",
        sampling_scalar_ns / 1e6,
        sampling_wide_ns / 1e6,
        sampling_reference_ns / 1e6,
        scalar.expected_infected(),
        wide.expected_infected(),
    );
    report.add_metrics(
        "montecarlo_wide",
        "sampling",
        vec![
            ("trials".into(), WIDE_TRIALS as f64),
            ("sampling_scalar_ns".into(), sampling_scalar_ns),
            ("sampling_wide_ns".into(), sampling_wide_ns),
            ("sampling_reference_ns".into(), sampling_reference_ns),
            ("speedup".into(), wide_speedup),
            ("bit_identical".into(), 1.0),
            ("expected_infected".into(), wide.expected_infected()),
        ],
    );

    opts.install(|| run_pipeline(&opts, &snapshots, config, &mut report));

    report.write().expect("write BENCH_scale.json");
    println!("wrote {}", report.path().display());
}

/// Times the two-stage RID pipeline (and, unless `--no-baseline`, the
/// reference extraction) over every snapshot and records the results.
fn run_pipeline(
    opts: &Options,
    snapshots: &[InfectedNetwork],
    config: RidConfig,
    report: &mut BenchReport,
) {
    let rid = Rid::from_config(config).expect("valid config");
    let alpha = config.alpha;

    let mut extract_ns = Vec::with_capacity(snapshots.len());
    let mut query_ns = Vec::with_capacity(snapshots.len());
    let mut opt_ns = Vec::with_capacity(snapshots.len());
    let mut ref_ns = Vec::with_capacity(snapshots.len());
    let mut opt_allocs = 0u64;
    let mut ref_allocs = 0u64;

    for (i, snapshot) in snapshots.iter().enumerate() {
        // Forest-extraction micro-comparison: optimized per-component
        // driver vs the retained single-run reference, same snapshot,
        // results asserted identical. The optimized path runs once warm
        // (the thread-local arenas carry over between snapshots, as they
        // do in the serving engine).
        let allocs_before = ALLOC_CALLS.load(Relaxed);
        let t0 = Instant::now();
        let fast = extract_cascade_forest(snapshot, alpha);
        opt_ns.push(t0.elapsed().as_nanos() as f64);
        opt_allocs += ALLOC_CALLS.load(Relaxed) - allocs_before;

        if opts.baseline {
            let allocs_before = ALLOC_CALLS.load(Relaxed);
            let t0 = Instant::now();
            let reference = extract_cascade_forest_reference(snapshot, alpha);
            ref_ns.push(t0.elapsed().as_nanos() as f64);
            ref_allocs += ALLOC_CALLS.load(Relaxed) - allocs_before;
            assert_eq!(
                fast, reference,
                "optimized extraction diverged from the reference on snapshot {i}"
            );
        }

        // Full two-stage pipeline timings (extraction + external support,
        // then the DP query).
        let t0 = Instant::now();
        let artifacts = rid.extract_stage(snapshot);
        let e_ns = t0.elapsed().as_nanos() as f64;
        let t0 = Instant::now();
        let detection = rid
            .query_stage(snapshot, &artifacts)
            .expect("query stage succeeds");
        let q_ns = t0.elapsed().as_nanos() as f64;
        extract_ns.push(e_ns);
        query_ns.push(q_ns);
        println!(
            "snapshot {i}: {} infected, {} components, {} initiators — \
             extract {:.1} ms, query {:.1} ms",
            snapshot.node_count(),
            detection.component_count,
            detection.len(),
            e_ns / 1e6,
            q_ns / 1e6,
        );
        report.add_metrics(
            "snapshots",
            format!("s{i}"),
            vec![
                ("infected".into(), snapshot.node_count() as f64),
                ("components".into(), detection.component_count as f64),
                ("initiators".into(), detection.len() as f64),
                ("extract_ns".into(), e_ns),
                ("query_ns".into(), q_ns),
            ],
        );
    }

    // Aggregate per-stage statistics across snapshots.
    report.add_timing(
        "rid",
        "extract_stage",
        TimingStats::from_samples(&extract_ns),
    );
    report.add_timing("rid", "query_stage", TimingStats::from_samples(&query_ns));
    let extract_sorted = sorted(extract_ns);
    let query_sorted = sorted(query_ns);
    let percentiles = vec![
        ("extract_p50_ns".into(), percentile(&extract_sorted, 0.50)),
        ("extract_p95_ns".into(), percentile(&extract_sorted, 0.95)),
        ("query_p50_ns".into(), percentile(&query_sorted, 0.50)),
        ("query_p95_ns".into(), percentile(&query_sorted, 0.95)),
    ];
    println!(
        "rid stages: extract p50 {:.1} ms / p95 {:.1} ms, query p50 {:.1} ms / p95 {:.1} ms",
        percentile(&extract_sorted, 0.50) / 1e6,
        percentile(&extract_sorted, 0.95) / 1e6,
        percentile(&query_sorted, 0.50) / 1e6,
        percentile(&query_sorted, 0.95) / 1e6,
    );
    report.add_metrics("rid", "percentiles", percentiles);

    report.add_timing(
        "forest_extraction",
        "optimized",
        TimingStats::from_samples(&opt_ns),
    );
    let runs = snapshots.len() as f64;
    let mut comparison = vec![
        ("allocs_per_run_optimized".into(), opt_allocs as f64 / runs),
        ("peak_heap_bytes".into(), PEAK_BYTES.load(Relaxed) as f64),
    ];
    if opts.baseline {
        report.add_timing(
            "forest_extraction",
            "reference",
            TimingStats::from_samples(&ref_ns),
        );
        let opt_total: f64 = opt_ns.iter().sum();
        let ref_total: f64 = ref_ns.iter().sum();
        let speedup = ref_total / opt_total;
        comparison.push(("allocs_per_run_reference".into(), ref_allocs as f64 / runs));
        comparison.push(("speedup".into(), speedup));
        println!(
            "forest extraction: optimized {:.1} ms vs reference {:.1} ms total — \
             {speedup:.2}x speedup, {:.0} vs {:.0} allocs/run",
            opt_total / 1e6,
            ref_total / 1e6,
            opt_allocs as f64 / runs,
            ref_allocs as f64 / runs,
        );
    }
    report.add_metrics("forest_extraction", "comparison", comparison);
}
