//! `isomit-serve` — the RID inference daemon.
//!
//! ```text
//! isomit-serve [--addr HOST:PORT] [--shards N] [--queue N]
//!              [--timeout-ms MS] [--cache N] [--result-cache N]
//!              [--max-watch N] [--alpha A] [--beta B]
//!              (--graph FILE | --generate epinions|slashdot)
//!              [--scale S] [--seed N]
//! ```
//!
//! Loads (or generates) the diffusion network once, then serves the
//! newline-delimited JSON protocol until a client sends `shutdown`.
//! Prints `isomit-serve listening on HOST:PORT` once ready — tests and
//! scripts parse that line to discover ephemeral ports.

use isomit_core::RidConfig;
use isomit_graph::SignedDigraph;
use isomit_service::{RidEngine, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

struct Options {
    addr: String,
    shards: usize,
    result_cache: usize,
    queue: usize,
    timeout_ms: u64,
    cache: usize,
    max_watch: usize,
    alpha: f64,
    beta: f64,
    graph_file: Option<String>,
    generate: Option<String>,
    scale: f64,
    seed: u64,
}

impl Options {
    fn parse(mut args: std::env::Args) -> Options {
        let mut opts = Options {
            addr: "127.0.0.1:7878".to_owned(),
            shards: 4,
            result_cache: 512,
            queue: 64,
            timeout_ms: 30_000,
            cache: 32,
            max_watch: 4,
            alpha: 3.0,
            beta: 0.1,
            graph_file: None,
            generate: None,
            scale: 0.05,
            seed: 7,
        };
        args.next(); // program name
        while let Some(flag) = args.next() {
            let mut value = |name: &str| {
                args.next()
                    .unwrap_or_else(|| panic!("{name} requires a value"))
            };
            match flag.as_str() {
                "--addr" => opts.addr = value("--addr"),
                "--shards" => opts.shards = value("--shards").parse().expect("--shards: usize"),
                "--result-cache" => {
                    opts.result_cache = value("--result-cache")
                        .parse()
                        .expect("--result-cache: usize")
                }
                "--queue" => opts.queue = value("--queue").parse().expect("--queue: usize"),
                "--timeout-ms" => {
                    opts.timeout_ms = value("--timeout-ms").parse().expect("--timeout-ms: u64")
                }
                "--cache" => opts.cache = value("--cache").parse().expect("--cache: usize"),
                "--max-watch" => {
                    opts.max_watch = value("--max-watch").parse().expect("--max-watch: usize")
                }
                "--alpha" => opts.alpha = value("--alpha").parse().expect("--alpha: f64"),
                "--beta" => opts.beta = value("--beta").parse().expect("--beta: f64"),
                "--graph" => opts.graph_file = Some(value("--graph")),
                "--generate" => opts.generate = Some(value("--generate")),
                "--scale" => opts.scale = value("--scale").parse().expect("--scale: f64"),
                "--seed" => opts.seed = value("--seed").parse().expect("--seed: u64"),
                "--help" | "-h" => {
                    println!(
                        "usage: isomit-serve [--addr HOST:PORT] [--shards N] [--queue N] \
                         [--timeout-ms MS] [--cache N] [--result-cache N] [--max-watch N] \
                         [--alpha A] [--beta B] \
                         (--graph FILE | --generate epinions|slashdot) [--scale S] [--seed N]"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown flag `{other}` (try --help)"),
            }
        }
        opts
    }
}

fn load_graph(opts: &Options) -> SignedDigraph {
    if let Some(file) = &opts.graph_file {
        let text = std::fs::read_to_string(file)
            .unwrap_or_else(|e| panic!("cannot read graph file {file}: {e}"));
        return SignedDigraph::from_json_str(&text)
            .unwrap_or_else(|e| panic!("invalid graph file {file}: {e}"));
    }
    let kind = opts.generate.as_deref().unwrap_or("epinions");
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let social = match kind {
        "epinions" => isomit_datasets::epinions_like_scaled(opts.scale, &mut rng),
        "slashdot" => isomit_datasets::slashdot_like_scaled(opts.scale, &mut rng),
        other => panic!("unknown generator `{other}` (epinions|slashdot)"),
    };
    isomit_datasets::paper_weights(&social, &mut rng)
}

fn main() {
    let opts = Options::parse(std::env::args());
    let graph = load_graph(&opts);
    eprintln!(
        "isomit-serve: loaded network with {} nodes / {} edges",
        graph.node_count(),
        graph.edge_count()
    );
    let config = RidConfig {
        alpha: opts.alpha,
        beta: opts.beta,
        ..RidConfig::default()
    };
    let engine =
        Arc::new(RidEngine::new(graph, config, opts.cache).expect("invalid detector config"));
    let server = Server::start(
        engine,
        &opts.addr,
        ServerConfig {
            shards: opts.shards,
            queue_capacity: opts.queue,
            request_timeout: Duration::from_millis(opts.timeout_ms),
            max_watch_sessions: opts.max_watch,
            result_cache_capacity: opts.result_cache,
        },
    )
    .expect("cannot bind listener");
    // Stdout, flushed: scripts and tests block on this exact line.
    println!("isomit-serve listening on {}", server.local_addr());
    use std::io::Write;
    std::io::stdout().flush().expect("flush stdout");
    server.join();
    eprintln!("isomit-serve: drained and stopped");
}
