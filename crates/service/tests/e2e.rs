//! End-to-end serving tests: spawn the real `isomit-serve` binary on an
//! ephemeral port, query it through the client library, and check every
//! answer byte-for-byte against the in-process pipeline.

use isomit_core::{IncrementalRid, InitiatorDetector, Rid, RidConfig, RidDelta, RidTree};
use isomit_diffusion::{
    par_estimate_infection_probabilities_wide, DiffusionError, InfectedNetwork, Mfc, SeedSet,
};
use isomit_graph::{NodeId, NodeState, Sign, SignedDigraph};
use isomit_service::engine::MAX_SIMULATE_RUNS;
use isomit_service::protocol::ErrorKind;
use isomit_service::{Client, ClientError, DetectorKind, WatchReply};
use isomit_telemetry::names;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};

/// Scale / seed the daemon is launched with; [`server_graph`] must
/// replicate this build exactly for byte-identical comparisons.
const SCALE: &str = "0.02";
const NET_SEED: &str = "7";

/// A running `isomit-serve` child, killed on drop so a failing test
/// never leaks the process.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn spawn(extra: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_isomit-serve"))
            .args([
                "--addr",
                "127.0.0.1:0",
                "--generate",
                "epinions",
                "--scale",
                SCALE,
                "--seed",
                NET_SEED,
            ])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn isomit-serve");
        let stdout = child.stdout.take().expect("child stdout");
        let mut lines = BufReader::new(stdout).lines();
        let line = lines
            .next()
            .expect("daemon exited before announcing its address")
            .expect("read daemon stdout");
        let announced = line
            .strip_prefix("isomit-serve listening on ")
            .unwrap_or_else(|| panic!("unexpected announce line: {line}"));
        // The announce line must be a parseable socket address with a
        // real (kernel-assigned, nonzero) port — scripts dial exactly
        // what the daemon printed.
        let parsed: SocketAddr = announced
            .parse()
            .unwrap_or_else(|e| panic!("announce line `{line}` is not a socket address: {e}"));
        assert_ne!(parsed.port(), 0, "daemon announced the wildcard port");
        Daemon {
            child,
            addr: parsed.to_string(),
        }
    }

    fn client(&self) -> Client {
        Client::connect(&self.addr).expect("connect to daemon")
    }

    fn raw(&self) -> TcpStream {
        TcpStream::connect(&self.addr).expect("raw connect to daemon")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The exact network `isomit-serve --generate epinions` builds.
fn server_graph() -> SignedDigraph {
    let mut rng = StdRng::seed_from_u64(7);
    let social = isomit_datasets::epinions_like_scaled(0.02, &mut rng);
    isomit_datasets::paper_weights(&social, &mut rng)
}

/// A deterministic infected snapshot, independent of the server graph.
fn snapshot(seed: u64) -> InfectedNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let social = isomit_datasets::epinions_like_scaled(0.02, &mut rng);
    let scenario = isomit_datasets::build_scenario(
        &social,
        &isomit_datasets::ScenarioConfig::small(),
        &mut rng,
    );
    scenario.snapshot
}

fn expected_detection(snap: &InfectedNetwork, config: RidConfig) -> isomit_core::Detection {
    let rid = Rid::from_config(config).expect("valid config");
    rid.detect(snap)
}

#[test]
fn rid_round_trip_is_byte_identical_to_in_process() {
    let daemon = Daemon::spawn(&[]);
    let mut client = daemon.client();

    let health = client.health().expect("health");
    assert_eq!(
        health.get("version").and_then(|v| v.as_str()),
        Some(isomit_service::protocol::PROTOCOL_VERSION)
    );

    for seed in [1, 2, 3] {
        let snap = snapshot(seed);
        let served = client.rid(&snap, None).expect("rid");
        let local = expected_detection(&snap, RidConfig::default());
        assert_eq!(served.detection, local, "snapshot seed {seed}");
        // Byte-identical through the codec, not merely equal.
        assert_eq!(
            served.detection.to_json_value().to_json(),
            local.to_json_value().to_json()
        );
        assert_eq!(
            served.detection.objective.to_bits(),
            local.objective.to_bits()
        );
    }

    // A config override takes the same path.
    let snap = snapshot(1);
    let config = RidConfig {
        beta: 0.0,
        ..RidConfig::default()
    };
    let served = client.rid(&snap, Some(config)).expect("rid with config");
    assert_eq!(served.config, config);
    assert_eq!(served.detection, expected_detection(&snap, config));

    // The repeated snapshot above must have hit the artifact cache.
    let stats = client.stats().expect("stats");
    assert!(stats.cache_hits >= 1, "expected cache hits, got {stats:?}");
    assert_eq!(stats.rid_requests, 4);

    // The daemon's telemetry registry travels over the wire and shows
    // the traffic we just generated: end-to-end and per-stage latency
    // histograms have recordings, and the cache counters mirror stats.
    let telemetry = client.telemetry().expect("telemetry over the wire");
    for name in [
        names::SERVICE_REQUEST_NS,
        names::SERVICE_QUEUE_WAIT_NS,
        names::RID_EXTRACT_STAGE_NS,
        names::RID_QUERY_STAGE_NS,
    ] {
        let count = telemetry.histogram(name).map_or(0, |h| h.count());
        assert!(count > 0, "{name}: expected recordings after rid traffic");
    }
    assert_eq!(
        telemetry.counter(names::SERVICE_CACHE_HITS),
        Some(stats.cache_hits)
    );
    assert_eq!(
        telemetry.counter(names::SERVICE_CACHE_MISSES),
        Some(stats.cache_misses)
    );
    assert_eq!(
        telemetry.counter(names::SERVICE_RID_REQUESTS),
        Some(stats.rid_requests)
    );

    client.shutdown().expect("shutdown");
}

#[test]
fn four_concurrent_clients_get_bit_identical_answers() {
    let daemon = Daemon::spawn(&[]);

    // Precompute expected answers once, in process.
    let cases: Vec<(InfectedNetwork, String)> = [11u64, 12, 13, 14]
        .iter()
        .map(|&seed| {
            let snap = snapshot(seed);
            let expected = expected_detection(&snap, RidConfig::default())
                .to_json_value()
                .to_json();
            (snap, expected)
        })
        .collect();

    std::thread::scope(|scope| {
        for worker in 0..4 {
            let daemon = &daemon;
            let cases = &cases;
            scope.spawn(move || {
                let mut client = daemon.client();
                // Each client walks the cases from a different offset so
                // cold and cached lookups interleave across connections.
                for round in 0..3 {
                    let (snap, expected) = &cases[(worker + round) % cases.len()];
                    let served = client.rid(snap, None).expect("concurrent rid");
                    assert_eq!(&served.detection.to_json_value().to_json(), expected);
                }
            });
        }
    });

    let mut client = daemon.client();
    let stats = client.stats().expect("stats");
    assert_eq!(stats.rid_requests, 12);
    assert!(stats.cache_hits >= 8, "4 snapshots, 12 requests: {stats:?}");
    client.shutdown().expect("shutdown");
}

#[test]
fn simulate_matches_in_process_monte_carlo() {
    let daemon = Daemon::spawn(&[]);
    let mut client = daemon.client();

    let seeds = SeedSet::from_pairs(vec![
        (NodeId::from_index(0), Sign::Positive),
        (NodeId::from_index(5), Sign::Negative),
    ])
    .expect("seed set");
    let served = client.simulate(&seeds, 64, 42).expect("simulate");

    let graph = server_graph();
    let model = Mfc::new(RidConfig::default().alpha).expect("model");
    let local = par_estimate_infection_probabilities_wide(&model, &graph, &seeds, 64, 42)
        .expect("local mc");
    assert_eq!(
        served.to_json_value().to_json(),
        local.to_json_value().to_json()
    );

    // Out-of-bounds seeds come back as a structured diffusion error.
    let bad = SeedSet::single(NodeId::from_index(10_000_000), Sign::Positive);
    match client.simulate(&bad, 8, 1) {
        Err(ClientError::Remote(err)) => {
            assert_eq!(err.kind, ErrorKind::Diffusion);
            assert!(err.diffusion_detail().is_some());
        }
        other => panic!("expected a remote diffusion error, got {other:?}"),
    }

    client.shutdown().expect("shutdown");
}

#[test]
fn an_oversized_simulate_is_refused_and_the_shard_answers_on() {
    let daemon = Daemon::spawn(&["--shards", "1"]);
    let mut client = daemon.client();
    let seeds = SeedSet::single(NodeId::from_index(0), Sign::Positive);
    // The line carries `"runs":65537`; the refusal comes before any
    // batch runs (a debug build would otherwise simulate for minutes).
    match client.simulate(&seeds, MAX_SIMULATE_RUNS + 1, 1) {
        Err(ClientError::Remote(err)) => {
            assert_eq!(err.kind, ErrorKind::Diffusion, "{err}");
            assert!(
                matches!(
                    err.diffusion_detail(),
                    Some(DiffusionError::InvalidParameter { name: "runs", .. })
                ),
                "{err}"
            );
        }
        other => panic!("expected a remote diffusion error, got {other:?}"),
    }
    client.health().expect("health right after the refusal");
    let snap = snapshot(1);
    let served = client
        .rid(&snap, None)
        .expect("rid right after the refusal");
    assert_eq!(
        served.detection,
        expected_detection(&snap, RidConfig::default())
    );
    client.shutdown().expect("shutdown");
}

#[test]
fn malformed_lines_get_structured_errors_not_disconnects() {
    let daemon = Daemon::spawn(&[]);
    let mut raw = daemon.raw();
    let mut reader = BufReader::new(raw.try_clone().expect("clone stream"));

    let mut exchange = |line: &str| -> String {
        raw.write_all(line.as_bytes()).expect("write");
        raw.write_all(b"\n").expect("write newline");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read reply");
        assert!(!reply.is_empty(), "server disconnected on {line:?}");
        reply
    };

    let reply = exchange("this is not json");
    assert!(reply.contains("\"ok\":false"), "{reply}");
    assert!(reply.contains("\"id\":null"), "{reply}");
    assert!(reply.contains("bad_request"), "{reply}");

    let reply = exchange("{\"id\":9,\"type\":\"no-such-request\"}");
    assert!(reply.contains("\"id\":9"), "{reply}");
    assert!(reply.contains("bad_request"), "{reply}");

    let reply = exchange("{\"id\":10,\"type\":\"rid\",\"snapshot\":{\"bogus\":true}}");
    assert!(reply.contains("\"id\":10"), "{reply}");
    assert!(reply.contains("bad_request"), "{reply}");

    // The connection is still healthy after all three errors.
    let reply = exchange("{\"id\":11,\"type\":\"health\"}");
    assert!(reply.contains("\"ok\":true"), "{reply}");

    let mut client = daemon.client();
    client.shutdown().expect("shutdown");
}

#[test]
fn detector_requests_round_trip_and_unknown_names_error() {
    let daemon = Daemon::spawn(&[]);
    let mut raw = daemon.raw();
    let mut reader = BufReader::new(raw.try_clone().expect("clone stream"));

    let mut exchange = |line: &str| -> String {
        raw.write_all(line.as_bytes()).expect("write");
        raw.write_all(b"\n").expect("write newline");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read reply");
        assert!(!reply.is_empty(), "server disconnected on detector request");
        reply
    };

    // An unknown detector name is a structured error carrying the known
    // names — and the connection survives it.
    let snap = snapshot(21);
    let reply = exchange(&format!(
        "{{\"id\":3,\"type\":\"rid\",\"detector\":\"bogus\",\"snapshot\":{}}}",
        snap.to_json_string()
    ));
    assert!(reply.contains("\"ok\":false"), "{reply}");
    assert!(reply.contains("\"id\":3"), "{reply}");
    assert!(reply.contains("unknown_detector"), "{reply}");
    for known in [
        "rid_tree",
        "rid_positive",
        "rumor_centrality",
        "jordan_center",
    ] {
        assert!(
            reply.contains(known),
            "known names missing {known}: {reply}"
        );
    }
    let reply = exchange("{\"id\":4,\"type\":\"health\"}");
    assert!(reply.contains("\"ok\":true"), "{reply}");

    // A valid detector name is echoed in the response envelope.
    let reply = exchange(&format!(
        "{{\"id\":5,\"type\":\"rid\",\"detector\":\"rid_tree\",\"snapshot\":{}}}",
        snap.to_json_string()
    ));
    assert!(reply.contains("\"ok\":true"), "{reply}");
    assert!(reply.contains("\"detector\":\"rid_tree\""), "{reply}");

    // And through the typed client, the served answer matches the
    // in-process estimator exactly.
    let mut client = daemon.client();
    let served = client
        .rid_with_detector(&snap, None, Some(DetectorKind::RidTree))
        .expect("rid_tree over the wire");
    let local = RidTree::new(RidConfig::default().alpha)
        .expect("valid alpha")
        .detect(&snap);
    assert_eq!(served.detection, local);
    assert_eq!(
        served.detection.objective.to_bits(),
        local.objective.to_bits()
    );

    client.shutdown().expect("shutdown");
}

/// Polls `stats` over a fresh connection until `pred` holds. Control
/// requests bypass the worker queue, so this works while workers and
/// queue are saturated.
fn wait_for_stats(daemon: &Daemon, pred: impl Fn(&isomit_graph::json::Value) -> bool) {
    let mut client = daemon.client();
    for _ in 0..200 {
        let stats = client
            .request(&isomit_service::protocol::RequestBody::Stats)
            .expect("stats poll");
        if pred(&stats) {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    panic!("stats condition not reached within 5s");
}

#[test]
fn overload_yields_structured_errors_not_hangs() {
    // One worker, queue of one: a single long simulation plus one queued
    // job saturate the data plane completely.
    let daemon = Daemon::spawn(&["--shards", "1", "--queue", "1"]);

    let seeds_json = "[[0,1],[5,-1]]";
    // A debug-build 4000-run simulate at this scale keeps the worker
    // busy for about 2 s (measured on a 2-vCPU x86-64 VM).
    let long_job = format!(
        "{{\"id\":1,\"type\":\"simulate\",\"seeds\":{seeds_json},\"runs\":4000,\"seed\":1}}"
    );
    let mut busy = daemon.raw();
    busy.write_all(long_job.as_bytes()).expect("write long job");
    busy.write_all(b"\n").expect("newline");

    // Wait until the worker has actually dequeued it.
    wait_for_stats(&daemon, |stats| {
        stats.get("simulate_requests").and_then(|v| v.as_u64()) == Some(1)
    });

    // Fill the queue with a second job.
    let mut filler = daemon.raw();
    filler
        .write_all(long_job.replace("\"id\":1", "\"id\":2").as_bytes())
        .expect("write filler");
    filler.write_all(b"\n").expect("newline");
    wait_for_stats(&daemon, |stats| {
        stats.get("queue_depth").and_then(|v| v.as_u64()) == Some(1)
    });

    // Every further data-plane request must be rejected immediately with
    // a structured `overloaded` error — no hang, no disconnect.
    let snap = snapshot(1);
    let mut client = daemon.client();
    for _ in 0..8 {
        match client.rid(&snap, None) {
            Err(ClientError::Remote(err)) => {
                assert_eq!(err.kind, ErrorKind::Overloaded, "{err}");
            }
            other => panic!("expected overloaded, got {other:?}"),
        }
    }

    // Control plane stays responsive throughout.
    client.health().expect("health under overload");

    // Cleanup: kill the daemon via Drop; the long jobs never finish.
}

/// A deterministic watch-session delta script: three components that
/// grow, merge and flip — enough to exercise answers with some and
/// with every component dirty.
fn watch_script() -> Vec<RidDelta> {
    let mut deltas = Vec::new();
    for i in 0..10u32 {
        deltas.push(RidDelta::Infect {
            node: NodeId(i),
            state: if i % 3 == 0 {
                NodeState::Negative
            } else {
                NodeState::Positive
            },
        });
    }
    for &(src, dst, weight) in &[
        (0u32, 1u32, 0.9),
        (1, 2, 0.8),
        (3, 4, 0.7),
        (4, 5, 0.6),
        (6, 7, 0.9),
        (2, 3, 0.5), // merges the first two chains
        (8, 9, 0.4),
    ] {
        deltas.push(RidDelta::AddEdge {
            src: NodeId(src),
            dst: NodeId(dst),
            sign: if (src + dst) % 2 == 0 {
                Sign::Positive
            } else {
                Sign::Negative
            },
            weight,
        });
    }
    deltas.push(RidDelta::FlipState {
        node: NodeId(5),
        state: NodeState::Negative,
    });
    deltas
}

fn infect(node: u32) -> RidDelta {
    RidDelta::Infect {
        node: NodeId(node),
        state: NodeState::Positive,
    }
}

#[test]
fn watch_answers_are_bit_identical_to_cold_recompute() {
    let daemon = Daemon::spawn(&[]);
    let mut client = daemon.client();
    client.watch_open(None, None).expect("watch_open");

    // Mirror the stream locally only to materialize each prefix
    // snapshot; the reference answer is a *cold* detector run on it.
    let mut mirror = IncrementalRid::new(RidConfig::default()).expect("mirror session");
    let rid = Rid::from_config(RidConfig::default()).expect("valid config");
    for delta in watch_script() {
        let reply = client.watch_delta(&delta).expect("watch_delta");
        mirror.apply(&delta).expect("mirror apply");
        let served = reply
            .answer()
            .expect("answer_every defaults to 1: every delta answers");
        let cold = rid.detect(&mirror.snapshot());
        assert_eq!(served.detection, cold);
        assert_eq!(
            served.detection.to_json_value().to_json(),
            cold.to_json_value().to_json(),
            "wire answer must be byte-identical to cold recompute"
        );
    }
    client.watch_close().expect("watch_close");
    client.shutdown().expect("shutdown");
}

#[test]
fn watch_ack_cadence_answers_every_nth_delta() {
    let daemon = Daemon::spawn(&[]);
    let mut client = daemon.client();
    client
        .watch_open(None, Some(4))
        .expect("watch_open with cadence");

    let mut mirror = IncrementalRid::new(RidConfig::default()).expect("mirror session");
    let rid = Rid::from_config(RidConfig::default()).expect("valid config");
    for (i, delta) in watch_script().into_iter().enumerate() {
        let reply = client.watch_delta(&delta).expect("watch_delta");
        mirror.apply(&delta).expect("mirror apply");
        let applied = (i + 1) as u64;
        if applied.is_multiple_of(4) {
            let served = reply.answer().expect("every 4th delta answers");
            assert_eq!(served.detection, rid.detect(&mirror.snapshot()));
        } else {
            assert_eq!(
                reply,
                WatchReply::Ack { deltas: applied },
                "delta {applied}"
            );
        }
    }
    client.watch_close().expect("watch_close");
    client.shutdown().expect("shutdown");
}

#[test]
fn watch_sessions_survive_malformed_and_invalid_deltas() {
    let daemon = Daemon::spawn(&[]);
    let mut raw = daemon.raw();
    let mut reader = BufReader::new(raw.try_clone().expect("clone stream"));

    let mut exchange = |line: &str| -> String {
        raw.write_all(line.as_bytes()).expect("write");
        raw.write_all(b"\n").expect("write newline");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read reply");
        assert!(!reply.is_empty(), "server disconnected on {line:?}");
        reply
    };

    // A close or a delta without an open session is a structured error.
    let reply = exchange("{\"id\":1,\"type\":\"watch_close\"}");
    assert!(reply.contains("bad_request"), "{reply}");
    let reply = exchange(
        "{\"id\":1,\"type\":\"watch_delta\",\"delta\":{\"op\":\"infect\",\"node\":0,\"state\":\"+\"}}",
    );
    assert!(reply.contains("bad_request"), "{reply}");

    let reply = exchange("{\"id\":2,\"type\":\"watch_open\"}");
    assert!(reply.contains("\"opened\":true"), "{reply}");

    let reply = exchange(
        "{\"id\":3,\"type\":\"watch_delta\",\"delta\":{\"op\":\"infect\",\"node\":0,\"state\":\"+\"}}",
    );
    assert!(reply.contains("\"ok\":true"), "{reply}");

    // A malformed delta payload is rejected at parse time...
    let reply = exchange("{\"id\":4,\"type\":\"watch_delta\",\"delta\":{\"op\":\"melt\"}}");
    assert!(reply.contains("bad_request"), "{reply}");

    // ...a well-formed but semantically invalid one at validation time.
    let reply = exchange(
        "{\"id\":5,\"type\":\"watch_delta\",\"delta\":{\"op\":\"infect\",\"node\":0,\"state\":\"+\"}}",
    );
    assert!(reply.contains("invalid_delta"), "{reply}");

    // Neither closed the session: the next valid delta still answers.
    let reply = exchange(
        "{\"id\":6,\"type\":\"watch_delta\",\"delta\":{\"op\":\"infect\",\"node\":1,\"state\":\"-\"}}",
    );
    assert!(reply.contains("\"ok\":true"), "{reply}");
    assert!(reply.contains("\"detection\""), "{reply}");

    // Close reports only the deltas that were actually applied.
    let reply = exchange("{\"id\":7,\"type\":\"watch_close\"}");
    assert!(reply.contains("\"closed\":true"), "{reply}");
    assert!(reply.contains("\"deltas\":2"), "{reply}");

    let mut client = daemon.client();
    client.shutdown().expect("shutdown");
}

#[test]
fn watch_sessions_expire_at_their_deadline() {
    let daemon = Daemon::spawn(&["--timeout-ms", "100"]);
    let mut client = daemon.client();
    client.watch_open(None, None).expect("watch_open");
    client.watch_delta(&infect(0)).expect("within deadline");

    std::thread::sleep(std::time::Duration::from_millis(250));
    match client.watch_delta(&infect(1)) {
        Err(ClientError::Remote(err)) => {
            assert_eq!(err.kind, ErrorKind::DeadlineExceeded, "{err}");
        }
        other => panic!("expected deadline_exceeded, got {other:?}"),
    }

    // The expired session was closed and its slot freed: the same
    // connection can open a fresh one and stream again.
    client.watch_open(None, None).expect("reopen after expiry");
    let reply = client.watch_delta(&infect(0)).expect("fresh session");
    assert!(reply.answer().is_some());
    client.watch_close().expect("watch_close");
    client.shutdown().expect("shutdown");
}

#[test]
fn watch_admission_cap_sheds_excess_sessions_while_active_ones_stream() {
    let daemon = Daemon::spawn(&["--max-watch", "1"]);
    let mut active = daemon.client();
    // A refused config hands its reserved slot back.
    let invalid = RidConfig {
        alpha: 0.5,
        ..RidConfig::default()
    };
    match active.watch_open(Some(invalid), None) {
        Err(ClientError::Remote(err)) => assert_eq!(err.kind, ErrorKind::BadRequest, "{err}"),
        other => panic!("expected bad_request for alpha 0.5, got {other:?}"),
    }
    active.watch_open(None, None).expect("first session");
    active.watch_delta(&infect(0)).expect("first delta");

    let mut shed = daemon.client();
    match shed.watch_open(None, None) {
        Err(ClientError::Remote(err)) => {
            assert_eq!(err.kind, ErrorKind::Overloaded, "{err}");
        }
        other => panic!("expected overloaded, got {other:?}"),
    }

    // The admitted session streams on, unaffected by the shed one.
    let reply = active.watch_delta(&infect(1)).expect("active streams on");
    assert!(reply.answer().is_some());

    // Shedding is visible in telemetry.
    let telemetry = shed.telemetry().expect("telemetry");
    assert!(
        telemetry
            .counter(names::WATCH_SESSIONS_SHED)
            .is_some_and(|n| n >= 1),
        "shed session must increment {}",
        names::WATCH_SESSIONS_SHED
    );

    // Closing the active session frees the slot for the shed client.
    active.watch_close().expect("watch_close");
    shed.watch_open(None, None).expect("slot freed after close");
    shed.watch_close().expect("close second session");
    shed.shutdown().expect("shutdown");
}

/// Opens a watch session on `client` once the admission cap lets it in,
/// polling for up to 5 s; every refusal on the way must be `overloaded`.
fn open_once_admitted(client: &mut Client) {
    for _ in 0..200 {
        match client.watch_open(None, None) {
            Ok(()) => return,
            Err(ClientError::Remote(err)) if err.kind == ErrorKind::Overloaded => {
                std::thread::sleep(std::time::Duration::from_millis(25));
            }
            other => panic!("expected admission or overloaded, got {other:?}"),
        }
    }
    panic!("watch_open not admitted within 5s");
}

#[test]
fn an_idle_watch_session_frees_its_slot_at_the_deadline() {
    let daemon = Daemon::spawn(&["--max-watch", "1", "--timeout-ms", "100"]);
    let mut idle = daemon.client();
    idle.watch_open(None, None).expect("watch_open");
    idle.watch_delta(&infect(0)).expect("within deadline");

    // The idle client sends nothing more, yet its session ends at the
    // deadline and the only slot goes to the next client.
    std::thread::sleep(std::time::Duration::from_millis(300));
    let mut next = daemon.client();
    open_once_admitted(&mut next);

    // The idle client learns of the expiry from its next watch request.
    match idle.watch_delta(&infect(1)) {
        Err(ClientError::Remote(err)) => {
            assert_eq!(err.kind, ErrorKind::DeadlineExceeded, "{err}");
        }
        other => panic!("expected deadline_exceeded, got {other:?}"),
    }

    // A close past the deadline is answered `deadline_exceeded` once;
    // after that the connection has no session to close.
    std::thread::sleep(std::time::Duration::from_millis(300));
    match next.watch_close() {
        Err(ClientError::Remote(err)) => {
            assert_eq!(err.kind, ErrorKind::DeadlineExceeded, "{err}");
        }
        other => panic!("expected deadline_exceeded, got {other:?}"),
    }
    match next.watch_close() {
        Err(ClientError::Remote(err)) => assert_eq!(err.kind, ErrorKind::BadRequest, "{err}"),
        other => panic!("expected bad_request, got {other:?}"),
    }
    next.shutdown().expect("shutdown");
}

#[test]
fn a_dropped_connection_frees_its_watch_slot() {
    let daemon = Daemon::spawn(&["--max-watch", "1"]);
    let mut dropped = daemon.raw();
    let mut reader = BufReader::new(dropped.try_clone().expect("clone stream"));
    dropped
        .write_all(b"{\"id\":1,\"type\":\"watch_open\"}\n")
        .expect("write watch_open");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read watch_open reply");
    assert!(reply.contains("\"opened\":true"), "{reply}");

    let mut next = daemon.client();
    match next.watch_open(None, None) {
        Err(ClientError::Remote(err)) => assert_eq!(err.kind, ErrorKind::Overloaded, "{err}"),
        other => panic!("expected overloaded while the slot is held, got {other:?}"),
    }

    // A batch of deltas, then the socket closes with every reply unread.
    let batch: String = (0..32u32)
        .map(|node| {
            format!(
                "{{\"id\":{},\"type\":\"watch_delta\",\"delta\":{{\"op\":\"infect\",\"node\":{node},\"state\":\"+\"}}}}\n",
                node + 2
            )
        })
        .collect();
    dropped.write_all(batch.as_bytes()).expect("write deltas");
    drop(reader);
    drop(dropped);

    open_once_admitted(&mut next);
    next.watch_close().expect("watch_close");
    next.shutdown().expect("shutdown");
}

#[test]
fn stats_expose_watch_telemetry() {
    let daemon = Daemon::spawn(&[]);
    let mut client = daemon.client();
    client.watch_open(None, None).expect("watch_open");
    let script = watch_script();
    for delta in &script {
        client.watch_delta(delta).expect("watch_delta");
    }

    let telemetry = client.telemetry().expect("telemetry");
    assert_eq!(
        telemetry
            .histogram(names::WATCH_DELTA_NS)
            .map(|h| h.count()),
        Some(script.len() as u64),
        "every applied delta records one {} sample",
        names::WATCH_DELTA_NS
    );
    assert!(
        telemetry.counter(names::WATCH_DIRTY_COMPONENTS).is_some(),
        "{} must be registered",
        names::WATCH_DIRTY_COMPONENTS
    );
    // The very first answer (one node) has every component dirty.
    assert!(
        telemetry
            .counter(names::WATCH_FULL_RECOMPUTE_FALLBACKS)
            .is_some_and(|n| n >= 1),
        "{} must count the first, all-dirty answer",
        names::WATCH_FULL_RECOMPUTE_FALLBACKS
    );

    // The stats payload carries the supersession counter.
    let stats = client
        .request(&isomit_service::protocol::RequestBody::Stats)
        .expect("stats");
    assert!(
        stats.get("cache_superseded").is_some(),
        "stats payload must expose cache_superseded: {}",
        stats.to_json()
    );

    client.watch_close().expect("watch_close");
    client.shutdown().expect("shutdown");
}

#[test]
fn a_watch_session_leaves_the_artifact_caches_alone() {
    // One shard: an entry the session left in any artifact cache would
    // be the one a `rid` of its snapshot meets.
    let daemon = Daemon::spawn(&["--shards", "1"]);
    let mut client = daemon.client();
    client.watch_open(None, None).expect("watch_open");
    let mut mirror = IncrementalRid::new(RidConfig::default()).expect("mirror session");
    let mut last = None;
    for delta in watch_script() {
        mirror.apply(&delta).expect("mirror apply");
        let reply = client.watch_delta(&delta).expect("watch_delta");
        last = Some(
            reply
                .answer()
                .expect("answer_every defaults to 1: every delta answers")
                .clone(),
        );
    }
    client.watch_close().expect("watch_close");
    let full_recomputes = client
        .telemetry()
        .expect("telemetry")
        .counter(names::WATCH_FULL_RECOMPUTE_FALLBACKS);
    assert!(
        full_recomputes.is_some_and(|n| n >= 1),
        "the first answer (one node) has every component dirty: {full_recomputes:?}"
    );

    let stats = client.stats().expect("stats");
    assert_eq!(stats.cache_entries, 0, "{stats:?}");
    assert_eq!(stats.cache_superseded, 0, "{stats:?}");

    let last = last.expect("the script answers");
    let served = client
        .rid(&mirror.snapshot(), None)
        .expect("full-form rid of the final snapshot");
    assert_eq!(
        served.detection.to_json_value().to_json(),
        last.detection.to_json_value().to_json(),
        "a cold rid of the session's snapshot answers like its last watch answer"
    );
    client.shutdown().expect("shutdown");
}

#[test]
fn queued_work_past_its_deadline_is_rejected() {
    // The 100ms deadline is long enough that the blocker below is
    // dequeued before it expires, and far shorter than the blocker runs.
    let daemon = Daemon::spawn(&["--shards", "1", "--queue", "4", "--timeout-ms", "100"]);

    // Occupy the single worker (about 2 s in a debug build, as in the
    // overload test) so the `rid` queued behind it, submitted only after
    // a stats poll and a new connection, still exceeds the deadline by
    // dequeue time.
    let long_job =
        "{\"id\":1,\"type\":\"simulate\",\"seeds\":[[0,1],[5,-1]],\"runs\":4000,\"seed\":1}";
    let mut busy = daemon.raw();
    busy.write_all(long_job.as_bytes()).expect("write long job");
    busy.write_all(b"\n").expect("newline");
    wait_for_stats(&daemon, |stats| {
        stats.get("simulate_requests").and_then(|v| v.as_u64()) == Some(1)
    });

    let snap = snapshot(1);
    let mut client = daemon.client();
    match client.rid(&snap, None) {
        Err(ClientError::Remote(err)) => {
            assert_eq!(err.kind, ErrorKind::DeadlineExceeded, "{err}");
        }
        other => panic!("expected deadline_exceeded, got {other:?}"),
    }

    // The rejection is visible in telemetry, and the expired job's
    // queue wait was still recorded.
    let telemetry = client.telemetry().expect("telemetry");
    assert!(
        telemetry
            .counter(names::SERVICE_DEADLINE_EXCEEDED)
            .is_some_and(|n| n >= 1),
        "deadline rejection must increment {}",
        names::SERVICE_DEADLINE_EXCEEDED
    );
    assert!(
        telemetry
            .histogram(names::SERVICE_QUEUE_WAIT_NS)
            .is_some_and(|h| h.count() >= 1),
        "queue wait of the expired job must be recorded"
    );
}

// ---------------------------------------------------------------------
// Sharded-serving correctness: routing, the by-fingerprint fast path,
// per-shard overload isolation, and watch pinning under load.
// ---------------------------------------------------------------------

use isomit_service::fingerprint::{fingerprint_bytes, snapshot_fingerprint};
use isomit_service::server::shard_for_fingerprint;

#[test]
fn by_fingerprint_requests_match_the_full_form_byte_for_byte() {
    let daemon = Daemon::spawn(&["--shards", "4"]);
    let mut client = daemon.client();

    let snap = snapshot(1);
    let fp = snapshot_fingerprint(&snap);

    // Cold by-fingerprint: the snapshot has never been answered, so the
    // structured miss tells the client to fall back to the full form.
    match client.rid_by_fingerprint(fp, None, None) {
        Err(ClientError::Remote(err)) => {
            assert_eq!(err.kind, ErrorKind::UnknownSnapshot, "{err}");
        }
        other => panic!("expected unknown_snapshot, got {other:?}"),
    }

    // Prime with the full form, then re-ask by fingerprint.
    let full = client.rid(&snap, None).expect("full-form rid");
    let cached = client
        .rid_by_fingerprint(fp, None, None)
        .expect("by-fingerprint rid after priming");
    assert_eq!(
        full.to_json_value().to_json(),
        cached.to_json_value().to_json(),
        "cached fast-path answer must be byte-identical to the full form"
    );
    assert_eq!(
        cached.detection,
        expected_detection(&snap, RidConfig::default())
    );

    // The cache key covers the config: the same snapshot under a
    // different config is a different (unprimed) entry.
    let tweaked = RidConfig {
        beta: 0.0,
        ..RidConfig::default()
    };
    match client.rid_by_fingerprint(fp, Some(tweaked), None) {
        Err(ClientError::Remote(err)) => {
            assert_eq!(err.kind, ErrorKind::UnknownSnapshot, "{err}");
        }
        other => panic!("expected unknown_snapshot for unprimed config, got {other:?}"),
    }
    let full_tweaked = client.rid(&snap, Some(tweaked)).expect("prime tweaked");
    let cached_tweaked = client
        .rid_by_fingerprint(fp, Some(tweaked), None)
        .expect("by-fingerprint with tweaked config");
    assert_eq!(
        full_tweaked.to_json_value().to_json(),
        cached_tweaked.to_json_value().to_json()
    );

    // A fingerprint the server never saw stays a structured miss.
    match client.rid_by_fingerprint(fp.wrapping_add(1), None, None) {
        Err(ClientError::Remote(err)) => {
            assert_eq!(err.kind, ErrorKind::UnknownSnapshot, "{err}");
        }
        other => panic!("expected unknown_snapshot, got {other:?}"),
    }

    // Fast-path hits are attributable in telemetry.
    let telemetry = client.telemetry().expect("telemetry");
    assert!(
        telemetry
            .counter(names::SERVICE_RESULT_CACHE_HITS)
            .is_some_and(|hits| hits >= 2),
        "result-cache hits must be recorded"
    );
    client.shutdown().expect("shutdown");
}

#[test]
fn same_fingerprint_requests_land_on_the_same_shard() {
    const SHARDS: usize = 4;
    let daemon = Daemon::spawn(&["--shards", "4"]);

    let snap = snapshot(1);
    let expected_shard = shard_for_fingerprint(snapshot_fingerprint(&snap), SHARDS);

    // Six requests for one snapshot across three connections.
    for _ in 0..3 {
        let mut client = daemon.client();
        for _ in 0..2 {
            client.rid(&snap, None).expect("rid");
        }
    }

    let mut client = daemon.client();
    let telemetry = client.telemetry().expect("telemetry");
    for shard in 0..SHARDS {
        let requests = telemetry
            .counter(&format!("shard.{shard}.requests"))
            .unwrap_or_else(|| panic!("shard.{shard}.requests missing from stats"));
        if shard == expected_shard {
            assert_eq!(requests, 6, "all six requests belong on shard {shard}");
        } else {
            assert_eq!(requests, 0, "shard {shard} must stay idle");
        }
    }
    assert_eq!(
        telemetry.counter(names::SERVICE_RID_REQUESTS),
        Some(6),
        "fleet-wide total is the per-shard sum"
    );
    client.shutdown().expect("shutdown");
}

#[test]
fn rid_lines_with_non_digit_ids_share_the_canonical_cache_key() {
    let daemon = Daemon::spawn(&["--shards", "4"]);
    let mut raw = daemon.raw();
    let mut reader = BufReader::new(raw.try_clone().expect("clone stream"));
    let mut exchange = |line: &str| -> String {
        raw.write_all(line.as_bytes()).expect("write");
        raw.write_all(b"\n").expect("write newline");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read reply");
        let response = isomit_service::protocol::parse_response(&reply).expect("envelope");
        response.outcome.expect("rid succeeds").to_json()
    };

    let snap = snapshot(1);
    let canonical = snap.to_json_string();
    // The id `5.0` reads as 5, and the server keys the request by the
    // hash of its snapshot span, the canonical encoding.
    let decimal_id = exchange(&format!(
        "{{\"id\":5.0,\"type\":\"rid\",\"snapshot\":{canonical}}}"
    ));
    let mut client = daemon.client();
    let framed = client
        .rid(&snap, None)
        .expect("canonical rid")
        .to_json_value()
        .to_json();
    assert_eq!(decimal_id, framed);
    // The client's request found the first request's artifacts: one
    // snapshot, one key.
    let telemetry = client.telemetry().expect("telemetry");
    assert_eq!(telemetry.counter(names::SERVICE_CACHE_MISSES), Some(1));
    assert_eq!(telemetry.counter(names::SERVICE_CACHE_HITS), Some(1));

    // A non-canonical encoding frames, but its span hash is a key of
    // its own: a fresh extraction with the same answer.
    let spaced = canonical.replace("\",\"", "\", \"");
    assert_ne!(spaced, canonical);
    let respaced = exchange(&format!(
        "{{\"id\":7,\"type\":\"rid\",\"snapshot\":{spaced}}}"
    ));
    assert_eq!(respaced, framed);
    let telemetry = client.telemetry().expect("telemetry");
    assert_eq!(telemetry.counter(names::SERVICE_CACHE_MISSES), Some(2));
    client.shutdown().expect("shutdown");
}

#[test]
fn an_escaped_snapshot_key_cannot_file_one_snapshot_under_anothers_key() {
    let daemon = Daemon::spawn(&["--shards", "4"]);
    let small = snapshot(1);
    let mut rng = StdRng::seed_from_u64(2);
    let social = isomit_datasets::epinions_like_scaled(0.04, &mut rng);
    let large = isomit_datasets::build_scenario(
        &social,
        &isomit_datasets::ScenarioConfig::small(),
        &mut rng,
    )
    .snapshot;
    assert!(large.node_count() > small.node_count());

    // The parser decodes the key `snap\u0073hot` to `snapshot` and
    // takes the first match, so this line asks about `large`; the
    // unescaped `snapshot` key that follows holds `small`.
    let line = format!(
        "{{\"id\":1,\"type\":\"rid\",\"snap\\u0073hot\":{},\"snapshot\":{}}}\n",
        large.to_json_string(),
        small.to_json_string()
    );
    let mut raw = daemon.raw();
    raw.write_all(line.as_bytes()).expect("write");
    let mut reply = String::new();
    BufReader::new(raw)
        .read_line(&mut reply)
        .expect("read reply");
    let response = isomit_service::protocol::parse_response(&reply).expect("envelope");
    let answered = isomit_core::RidResult::from_json_value(&response.outcome.expect("rid"))
        .expect("rid result");
    assert_eq!(
        answered.detection,
        expected_detection(&large, RidConfig::default())
    );

    // A canonical request for `small` must not find `large`'s artifacts
    // under `small`'s key. Finding them panics the shard's worker and
    // no reply ever comes, so the request waits on a deadline.
    let expected = expected_detection(&small, RidConfig::default());
    let mut client = daemon.client();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(client.rid(&small, None).map(|served| served.detection));
    });
    let served = rx
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("the canonical rid gets a reply")
        .expect("canonical rid");
    assert_eq!(served, expected);
    daemon.client().shutdown().expect("shutdown");
}

#[test]
fn snapshots_naming_more_nodes_than_they_list_are_refused_without_allocating() {
    // Each line names billions of nodes in a few bytes. Building the
    // graph before checking the count would try to allocate tens of
    // gigabytes and abort the daemon.
    let daemon = Daemon::spawn(&[]);
    let mut raw = daemon.raw();
    let mut reader = BufReader::new(raw.try_clone().expect("clone stream"));
    let mut exchange = |line: &str| -> String {
        raw.write_all(line.as_bytes()).expect("write");
        raw.write_all(b"\n").expect("write newline");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read reply");
        reply
    };
    for (id, line) in [
        (
            "2",
            r#"{"id":2,"type":"rid","snapshot":{"graph":{"nodes":4294967295,"edges":[]},"states":[],"mapping":[]}}"#,
        ),
        (
            "3",
            r#"{"id":3,"type":"rid","snapshot":{"graph":{"nodes":1,"edges":[[0,4294967294,1,0.5]]},"states":["+"],"mapping":[0]}}"#,
        ),
        // `4.0` reads as 4, and the refusal echoes it.
        (
            "4",
            r#"{"id":4.0,"type":"rid","snapshot":{"graph":{"nodes":4294967295,"edges":[]},"states":[],"mapping":[]}}"#,
        ),
    ] {
        let reply = exchange(line);
        assert!(reply.contains(&format!("\"id\":{id},")), "{reply}");
        assert!(reply.contains("bad_request"), "{reply}");
        assert!(reply.contains("disagree on node count"), "{reply}");
    }
    let reply = exchange(r#"{"id":5,"type":"health"}"#);
    assert!(reply.contains("\"ok\":true"), "{reply}");
    daemon.client().shutdown().expect("shutdown");
}

#[test]
fn deeply_nested_lines_are_refused_and_the_daemon_lives_on() {
    // 100,000 nested brackets in a 200 KB line used to overflow the
    // stack of the thread parsing them and abort the daemon. The reader
    // refuses nesting past 128 levels, on the walk's bracket-depth
    // skip of a `snapshot` too.
    let daemon = Daemon::spawn(&[]);
    let mut raw = daemon.raw();
    let mut reader = BufReader::new(raw.try_clone().expect("clone stream"));
    let mut exchange = |line: &str| -> String {
        raw.write_all(line.as_bytes()).expect("write");
        raw.write_all(b"\n").expect("write newline");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read reply");
        reply
    };
    let deep = "[".repeat(100_000) + &"]".repeat(100_000);
    for line in [
        deep.clone(),
        format!(r#"{{"id":6,"type":"rid","snapshot":{deep}}}"#),
    ] {
        let reply = exchange(&line);
        assert!(reply.contains("bad_request"), "{reply}");
        assert!(reply.contains("nesting deeper than 128 levels"), "{reply}");
    }
    let reply = exchange(r#"{"id":7,"type":"health"}"#);
    assert!(reply.contains("\"ok\":true"), "{reply}");
    daemon.client().shutdown().expect("shutdown");
}

#[test]
fn cached_answers_are_not_served_to_malformed_by_fingerprint_lines() {
    let daemon = Daemon::spawn(&[]);
    let mut client = daemon.client();
    let snap = snapshot(1);
    client.rid(&snap, None).expect("prime the result cache");
    let fingerprint = snapshot_fingerprint(&snap);

    let mut raw = daemon.raw();
    let mut reader = BufReader::new(raw.try_clone().expect("clone stream"));
    let mut exchange = |line: String| -> String {
        raw.write_all(format!("{line}\n").as_bytes())
            .expect("write");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read reply");
        reply
    };
    let line = format!(r#"{{"id":6,"type":"rid","fingerprint":"{fingerprint}""#);
    let reply = exchange(format!("{line}}}"));
    assert!(
        reply.contains("\"ok\":true"),
        "the cache is primed: {reply}"
    );
    // The parser refuses the `nul` literal, so the cache must not
    // answer the line either.
    let reply = exchange(format!(r#"{line},"x":nul}}"#));
    assert!(reply.contains("\"id\":null"), "{reply}");
    assert!(reply.contains("bad_request"), "{reply}");
    client.shutdown().expect("shutdown");
}

#[test]
fn by_fingerprint_lines_the_parser_reads_alike_hit_the_cache() {
    let daemon = Daemon::spawn(&[]);
    let mut client = daemon.client();
    let snap = snapshot(1);
    let full = client
        .rid(&snap, None)
        .expect("prime the result cache")
        .to_json_value()
        .to_json();
    let fingerprint = snapshot_fingerprint(&snap).to_string();
    let escaped: String = fingerprint
        .chars()
        .map(|digit| format!("\\u{:04x}", u32::from(digit)))
        .collect();

    let mut raw = daemon.raw();
    let mut reader = BufReader::new(raw.try_clone().expect("clone stream"));
    for (id, line) in [
        (
            5,
            format!(r#"{{"id":5.0,"type":"rid","fingerprint":"{fingerprint}"}}"#),
        ),
        (
            6,
            format!(r#"{{"id":6,"type":"rid","fingerprint":"{escaped}"}}"#),
        ),
    ] {
        raw.write_all(format!("{line}\n").as_bytes())
            .expect("write");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read reply");
        let expected = format!("{{\"id\":{id},\"ok\":true,\"result\":{full}}}\n");
        assert_eq!(reply, expected, "{line}");
    }
    client.shutdown().expect("shutdown");
}

#[test]
fn sixty_four_concurrent_clients_get_bit_identical_answers() {
    let daemon = Daemon::spawn(&["--shards", "4"]);

    let cases: Vec<(InfectedNetwork, String)> = [1u64, 2, 3, 4]
        .into_iter()
        .map(|seed| {
            let snap = snapshot(seed);
            let expected = expected_detection(&snap, RidConfig::default())
                .to_json_value()
                .to_json();
            (snap, expected)
        })
        .collect();
    let cases = std::sync::Arc::new(cases);

    let handles: Vec<_> = (0..64)
        .map(|i| {
            let cases = std::sync::Arc::clone(&cases);
            let addr = daemon.addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                let (snap, expected) = &cases[i % cases.len()];
                let served = client.rid(snap, None).expect("rid");
                assert_eq!(
                    &served.detection.to_json_value().to_json(),
                    expected,
                    "client {i} got a divergent answer"
                );
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("client thread");
    }

    let mut client = daemon.client();
    let stats = client.stats().expect("stats");
    assert_eq!(stats.rid_requests, 64);
    // Four distinct snapshots: every request after a shard's first for
    // that snapshot is an artifact-cache hit.
    assert_eq!(stats.cache_misses, 4);
    assert_eq!(stats.cache_hits, 60);
    client.shutdown().expect("shutdown");
}

/// Finds a deterministic snapshot routed to each of the two shards.
fn snapshots_on_both_shards() -> [(InfectedNetwork, usize); 2] {
    let mut found: [Option<InfectedNetwork>; 2] = [None, None];
    for seed in 1..=16 {
        let snap = snapshot(seed);
        let shard = shard_for_fingerprint(snapshot_fingerprint(&snap), 2);
        if found[shard].is_none() {
            found[shard] = Some(snap);
        }
        if found.iter().all(Option::is_some) {
            break;
        }
    }
    let [a, b] = found;
    [
        (a.expect("no snapshot routed to shard 0 in 16 seeds"), 0),
        (b.expect("no snapshot routed to shard 1 in 16 seeds"), 1),
    ]
}

#[test]
fn per_shard_overload_sheds_while_other_shards_keep_serving() {
    // Two shards, queue of one each: one long simulation plus one queued
    // job saturate exactly one shard; the other must stay unaffected.
    let daemon = Daemon::spawn(&["--shards", "2", "--queue", "1"]);
    let [(snap_a, shard_a), (snap_b, shard_b)] = snapshots_on_both_shards();
    assert_ne!(shard_a, shard_b);

    // A simulate routes by its raw seeds span; search one that lands on
    // the shard we want to saturate.
    let seeds_json = (0..64)
        .map(|node| format!("[[{node},1],[5,-1]]"))
        .find(|span| shard_for_fingerprint(fingerprint_bytes(span.as_bytes()), 2) == shard_a)
        .expect("no seeds span routed to the busy shard in 64 tries");
    let long_job = format!(
        "{{\"id\":1,\"type\":\"simulate\",\"seeds\":{seeds_json},\"runs\":4000,\"seed\":1}}"
    );
    let mut busy = daemon.raw();
    busy.write_all(long_job.as_bytes()).expect("write long job");
    busy.write_all(b"\n").expect("newline");
    wait_for_stats(&daemon, |stats| {
        stats.get("simulate_requests").and_then(|v| v.as_u64()) == Some(1)
    });

    // Fill the busy shard's queue (capacity 1) without blocking on the
    // reply.
    let filler = isomit_service::protocol::encode_request(
        2,
        &isomit_service::protocol::RequestBody::Rid {
            snapshot: Box::new(snap_a.clone()),
            config: None,
            detector: None,
        },
    );
    let mut filler_conn = daemon.raw();
    filler_conn
        .write_all(filler.as_bytes())
        .expect("write filler");
    filler_conn.write_all(b"\n").expect("newline");
    wait_for_stats(&daemon, |stats| {
        stats.get("queue_depth").and_then(|v| v.as_u64()) == Some(1)
    });

    // The saturated shard sheds with a structured `overloaded` error...
    let mut client = daemon.client();
    match client.rid(&snap_a, None) {
        Err(ClientError::Remote(err)) => {
            assert_eq!(err.kind, ErrorKind::Overloaded, "{err}");
        }
        other => panic!("expected overloaded on the busy shard, got {other:?}"),
    }

    // ...while the other shard answers normally, and correctly.
    let served = client.rid(&snap_b, None).expect("healthy shard serves");
    assert_eq!(
        served.detection,
        expected_detection(&snap_b, RidConfig::default())
    );

    // The shed is attributed to the busy shard alone.
    let telemetry = client.telemetry().expect("telemetry");
    assert!(
        telemetry
            .counter(&format!("shard.{shard_a}.shed"))
            .is_some_and(|shed| shed >= 1),
        "busy shard must record its shed"
    );
    assert_eq!(
        telemetry.counter(&format!("shard.{shard_b}.shed")),
        Some(0),
        "healthy shard must not shed"
    );
    // Cleanup: kill the daemon via Drop; the long jobs never finish.
}

#[test]
fn watch_session_survives_on_its_pinned_shard_under_cross_shard_load() {
    let daemon = Daemon::spawn(&["--shards", "4"]);
    let mut client = daemon.client();
    client.watch_open(None, None).expect("watch_open");

    // Hammer all shards from four background connections while the
    // watch stream runs.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let hammers: Vec<_> = (0..4u64)
        .map(|i| {
            let stop = std::sync::Arc::clone(&stop);
            let addr = daemon.addr.clone();
            std::thread::spawn(move || {
                let snap = snapshot(i + 1);
                let expected = expected_detection(&snap, RidConfig::default())
                    .to_json_value()
                    .to_json();
                let mut client = Client::connect(&addr).expect("connect");
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let served = client.rid(&snap, None).expect("hammer rid");
                    assert_eq!(served.detection.to_json_value().to_json(), expected);
                }
            })
        })
        .collect();

    // The pinned session's answers stay byte-identical to cold
    // recomputes of every prefix, delta ordering intact.
    let mut mirror = IncrementalRid::new(RidConfig::default()).expect("mirror session");
    let rid = Rid::from_config(RidConfig::default()).expect("valid config");
    for delta in watch_script() {
        let reply = client.watch_delta(&delta).expect("watch_delta under load");
        mirror.apply(&delta).expect("mirror apply");
        let served = reply.answer().expect("answer_every defaults to 1");
        let cold = rid.detect(&mirror.snapshot());
        assert_eq!(
            served.detection.to_json_value().to_json(),
            cold.to_json_value().to_json(),
            "watch answer diverged under cross-shard load"
        );
    }
    client.watch_close().expect("watch_close");

    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for hammer in hammers {
        hammer.join().expect("hammer thread");
    }
    client.shutdown().expect("shutdown");
}

// ---------------------------------------------------------------------
// Clients that stop reading: replies wait in a capped per-connection
// outbox, and nobody else waits for them.
// ---------------------------------------------------------------------

use isomit_service::server::{MAX_LINES_PER_SWEEP, OUTBOX_CAP};
use std::io::{ErrorKind as IoErrorKind, Read};
use std::time::{Duration, Instant};

const HEALTH_LINE: &[u8] = b"{\"id\":1,\"type\":\"health\"}\n";

/// Writes `health` lines on `stream` and reads nothing, until one write
/// has been refused for `patience` (the daemon stopped reading this
/// connection) or the daemon closed it. Returns the bytes written.
fn flood_without_reading(stream: &mut TcpStream, patience: Duration) -> usize {
    stream
        .set_write_timeout(Some(patience))
        .expect("write timeout");
    let chunk = HEALTH_LINE.repeat(1024);
    let mut written = 0;
    loop {
        match stream.write(&chunk) {
            Ok(n) => written += n,
            // Refused for `patience`, or closed by the daemon.
            Err(e)
                if matches!(
                    e.kind(),
                    IoErrorKind::WouldBlock
                        | IoErrorKind::TimedOut
                        | IoErrorKind::ConnectionReset
                        | IoErrorKind::BrokenPipe
                ) =>
            {
                return written
            }
            Err(e) => panic!("flood write failed: {e}"),
        }
    }
}

#[test]
fn a_client_that_never_reads_stalls_no_one_else() {
    // Each round trip of a polite client stays under this bound while
    // another client floods the daemon and never reads a reply.
    const ROUND_TRIP_BOUND: Duration = Duration::from_millis(250);
    let daemon = Daemon::spawn(&[]);
    let mut hostile = daemon.raw();
    let flooder = std::thread::spawn(move || {
        let written = flood_without_reading(&mut hostile, Duration::from_secs(2));
        (hostile, written)
    });

    let mut polite = daemon.raw();
    polite
        .set_read_timeout(Some(ROUND_TRIP_BOUND * 8))
        .expect("read timeout");
    let mut reader = BufReader::new(polite.try_clone().expect("clone stream"));
    let mut reply = String::new();
    let mut after_flood = 0;
    let mut trips = 0;
    // Round trips while the flood runs, then 50 more once the daemon has
    // stopped reading the flooder.
    let deadline = Instant::now() + Duration::from_secs(60);
    while after_flood < 50 {
        assert!(
            Instant::now() < deadline,
            "the daemon never stopped reading a client that reads nothing"
        );
        if flooder.is_finished() {
            after_flood += 1;
        }
        let started = Instant::now();
        polite.write_all(HEALTH_LINE).expect("polite write");
        reply.clear();
        let read = reader.read_line(&mut reply);
        let took = started.elapsed();
        assert!(
            read.is_ok() && took < ROUND_TRIP_BOUND,
            "round trip {trips} took {took:?} ({read:?}) while another client flooded"
        );
        assert!(reply.contains("\"ok\":true"), "{reply}");
        trips += 1;
    }
    let (hostile, written) = flooder.join().expect("flooder");
    assert!(
        written > OUTBOX_CAP / 4,
        "the flood wrote only {written} bytes before the daemon stopped reading it"
    );

    // The flooder's backlog stopped at the cap, give or take one sweep
    // of replies.
    let reply_len = reply.len();
    let telemetry = daemon.client().telemetry().expect("telemetry");
    let peak = telemetry
        .gauge(names::SERVICE_OUTBOX_BYTES_MAX)
        .expect("outbox gauge registered");
    let peak = usize::try_from(peak).expect("a byte count");
    assert!(
        (OUTBOX_CAP..OUTBOX_CAP + MAX_LINES_PER_SWEEP * reply_len).contains(&peak),
        "largest outbox {peak} B, cap {OUTBOX_CAP} B, sweep of {MAX_LINES_PER_SWEEP} replies of {reply_len} B"
    );
    drop(hostile);
    daemon.client().shutdown().expect("shutdown");
}

#[test]
fn a_client_whose_replies_stall_past_the_timeout_is_closed() {
    let daemon = Daemon::spawn(&["--timeout-ms", "500"]);
    let mut hostile = daemon.raw();
    // The last write waited 2 s with the daemon no longer reading: the
    // replies have not moved for longer than the 500 ms timeout.
    flood_without_reading(&mut hostile, Duration::from_secs(2));
    let closed_by = Instant::now() + Duration::from_secs(10);
    hostile
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let mut buf = vec![0u8; 1 << 16];
    loop {
        match hostile.read(&mut buf) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) if e.kind() == IoErrorKind::ConnectionReset => break,
            Err(e) => panic!("the stalled connection is still open: {e}"),
        }
        assert!(
            Instant::now() < closed_by,
            "the daemon kept writing to a connection it should have closed"
        );
    }
    // The daemon lives on for everyone else.
    let mut client = daemon.client();
    client.health().expect("health after the close");
    client.shutdown().expect("shutdown");
}

#[test]
fn a_pipelined_rid_and_health_lines_get_every_reply_in_completion_order() {
    let daemon = Daemon::spawn(&[]);
    let snap = snapshot(1);
    let mut batch = format!(
        "{{\"id\":0,\"type\":\"rid\",\"snapshot\":{}}}\n",
        snap.to_json_string()
    );
    for id in 1..=300 {
        batch += &format!("{{\"id\":{id},\"type\":\"health\"}}\n");
    }
    let mut raw = daemon.raw();
    raw.write_all(batch.as_bytes()).expect("write batch");
    let mut reader = BufReader::new(raw);
    let mut health_ids = Vec::new();
    let mut rid = None;
    for _ in 0..=300 {
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read reply");
        let response = isomit_service::protocol::parse_response(&reply).expect("envelope");
        match response.id {
            Some(0) => {
                assert!(rid.is_none(), "the rid was answered twice");
                rid = Some(response.outcome.expect("rid succeeds"));
            }
            Some(id) => {
                assert!(response.outcome.is_ok(), "{reply}");
                health_ids.push(id);
            }
            None => panic!("reply without an id: {reply}"),
        }
    }
    // The inline replies keep their arrival order; the worker's reply
    // lands among them wherever it completed.
    assert_eq!(health_ids, (1..=300).collect::<Vec<u64>>());
    let answered =
        isomit_core::RidResult::from_json_value(&rid.expect("rid answered")).expect("rid result");
    assert_eq!(
        answered.detection,
        expected_detection(&snap, RidConfig::default())
    );
    daemon.client().shutdown().expect("shutdown");
}

#[test]
fn a_line_past_the_size_cap_is_refused_and_closed_while_others_are_served() {
    use isomit_service::server::MAX_LINE_BYTES;
    let daemon = Daemon::spawn(&[]);
    let mut hostile = daemon.raw();
    let flooder = std::thread::spawn(move || {
        // Past the cap the daemon stops reading, answers and closes, so
        // the last writes may block until the close and then fail.
        let chunk = vec![b'x'; 1 << 20];
        let mut written = 0;
        while written <= MAX_LINE_BYTES + chunk.len() {
            match hostile.write(&chunk) {
                Ok(n) => written += n,
                Err(_) => break,
            }
        }
        hostile
            .set_read_timeout(Some(Duration::from_secs(20)))
            .expect("read timeout");
        let mut replies = Vec::new();
        let mut buf = [0u8; 4096];
        loop {
            match hostile.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => replies.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == IoErrorKind::ConnectionReset => break,
                Err(e) => panic!("no reply and no close after the flood: {e}"),
            }
        }
        (written, String::from_utf8(replies).expect("utf-8 replies"))
    });

    // Another connection is answered while the flood runs and after it.
    let mut polite = daemon.client();
    let mut trips = 0;
    while !flooder.is_finished() || trips < 5 {
        polite.health().expect("health beside the flood");
        trips += 1;
    }
    let (written, replies) = flooder.join().expect("flooder");
    assert!(written > MAX_LINE_BYTES, "wrote only {written} bytes");
    let lines: Vec<&str> = replies.lines().collect();
    assert_eq!(lines.len(), 1, "one reply, then the close: {replies:?}");
    let response = isomit_service::protocol::parse_response(lines[0]).expect("envelope");
    assert_eq!(response.id, None);
    let error = response.outcome.expect_err("refused");
    assert_eq!(error.kind, ErrorKind::RequestTooLarge, "{error}");

    // The buffer stopped at the cap plus one read.
    let telemetry = polite.telemetry().expect("telemetry");
    let peak = telemetry
        .gauge(names::CONN_BUFFER_BYTES_MAX)
        .expect("buffer gauge registered");
    let peak = usize::try_from(peak).expect("a byte count");
    assert!(
        (MAX_LINE_BYTES + 1..=MAX_LINE_BYTES + (1 << 20)).contains(&peak),
        "largest read buffer {peak} B, cap {MAX_LINE_BYTES} B"
    );
    polite.shutdown().expect("shutdown");
}

#[test]
fn a_client_pipelining_faster_than_it_is_served_waits_in_tcp() {
    // 40,000 `health` lines (about 1 MB) in one write, served at most
    // 128 per sweep: the daemon reads again only once it has served the
    // lines it holds, so the rest waits in TCP, not in its read buffer.
    const LINES: usize = 40_000;
    let daemon = Daemon::spawn(&[]);
    let raw = daemon.raw();
    let mut sender = raw.try_clone().expect("clone stream");
    let writer = std::thread::spawn(move || sender.write_all(&HEALTH_LINE.repeat(LINES)));
    let mut reader = BufReader::new(raw);
    let mut reply = String::new();
    for _ in 0..LINES {
        reply.clear();
        reader.read_line(&mut reply).expect("read reply");
        assert!(reply.contains("\"ok\":true"), "{reply}");
    }
    writer.join().expect("writer").expect("write batch");
    let mut client = daemon.client();
    let peak = client
        .telemetry()
        .expect("telemetry")
        .gauge(names::CONN_BUFFER_BYTES_MAX)
        .expect("buffer gauge registered");
    // One read of unserved lines, not the whole megabyte.
    assert!(peak <= 64 * 1024, "read buffer reached {peak} B");
    client.shutdown().expect("shutdown");
}
