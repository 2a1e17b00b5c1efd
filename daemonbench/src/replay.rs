//! The traced replay: the workload's request lines run in this process
//! through the public functions the daemon calls for them, in the order
//! `server.rs` and `engine.rs` call them, one span per call.
//!
//! This is the only place the benchmark calls into the layers
//! in-process. Every replayed reply is checked against the oracle, so a
//! replay that drifted from the daemon's code path would fail the run.

use crate::drive::Op;
use crate::trace::Recorder;
use crate::workloads::{Workload, WATCH_ANSWER_EVERY};
use isomit_core::{IncrementalRid, Rid, RidConfig, RidResult};
use isomit_diffusion::par_estimate_infection_probabilities_wide;
use isomit_graph::json::Value;
use isomit_graph::SignedDigraph;
use isomit_service::fingerprint::{fingerprint_bytes, snapshot_fingerprint};
use isomit_service::protocol::{ok_line, ok_line_raw, parse_request, RequestBody};
use isomit_service::{framing, LruCache, RidEngine};
use std::sync::Arc;

/// Result-cache key half of a request with neither `config` nor
/// `detector`: the server hashes the two spans around a `0xFF`
/// separator, which leaves this single byte.
const NO_CONFIG_KEY: &[u8] = &[0xFF];

/// Replays `ops` (operations of one pass, in order) with their spans in
/// `rec`, checking each reply. Untimed operations only matter to
/// `watch_stream`, where they start a fresh session. Returns the summed
/// `ForestArtifacts::approx_bytes` of the extractions (0 without any).
pub fn replay(
    workload: Workload,
    graph: &SignedDigraph,
    ops: &[&Op],
    rec: &mut Recorder,
) -> Result<u64, String> {
    let config = RidConfig::default();
    let mut artifact_bytes = 0u64;
    match workload {
        Workload::ColdRid => {
            for (request, op) in ops.iter().enumerate() {
                let r = request as u64;
                let line = line_of(&op.request);
                let reply = rec.span("request", r, |rec| {
                    cold_rid(config, line, r, rec, &mut artifact_bytes)
                });
                check(op, 0, reply.as_bytes())?;
            }
        }
        Workload::HotLookup => {
            // The shard's result cache as priming leaves it.
            let mut cache = LruCache::new(512);
            for op in ops {
                let frame =
                    framing::scan(line_of(&op.request)).ok_or("lookup line does not frame")?;
                let fingerprint: u64 = frame
                    .fingerprint
                    .and_then(|f| f.parse().ok())
                    .ok_or("lookup line has no fingerprint")?;
                let reply = expected_exact(op, 0)?;
                let head = format!("{{\"id\":{},\"ok\":true,\"result\":", frame.id);
                let payload = reply
                    .strip_prefix(head.as_str())
                    .and_then(|rest| rest.strip_suffix('}'))
                    .ok_or("cached reply is not a success envelope")?;
                cache.insert(
                    (fingerprint, fingerprint_bytes(NO_CONFIG_KEY)),
                    Arc::<str>::from(payload),
                );
            }
            for (request, op) in ops.iter().enumerate() {
                let r = request as u64;
                let reply = rec.span("request", r, |rec| {
                    let line = line_of(&op.request);
                    let frame = rec
                        .span("service.framing.scan", r, |_| framing::scan(line))
                        .expect("lookup lines frame");
                    let payload = rec.span("service.cache.lookup", r, |_| {
                        let fingerprint: u64 = frame
                            .fingerprint
                            .and_then(|f| f.parse().ok())
                            .expect("framed lookups carry a fingerprint");
                        cache.get(&(fingerprint, fingerprint_bytes(NO_CONFIG_KEY)))
                    });
                    let payload = payload.expect("every lookup was primed");
                    rec.span("service.protocol.reply", r, |_| {
                        ok_line_raw(frame.id, &payload)
                    })
                });
                check(op, 0, reply.as_bytes())?;
            }
        }
        Workload::WatchStream => {
            let engine = RidEngine::new(graph.clone(), config, 32).map_err(|e| e.to_string())?;
            let new_session = || IncrementalRid::new(config).expect("default config is valid");
            let mut session = new_session();
            let mut adopted = None;
            for (request, op) in ops.iter().enumerate() {
                let r = request as u64;
                if !op.timed {
                    // watch_close + watch_open: the daemon drops the
                    // session and starts an empty one.
                    session = new_session();
                    adopted = None;
                    continue;
                }
                let replies = rec.span("request", r, |rec| {
                    let text = std::str::from_utf8(&op.request).expect("requests are UTF-8");
                    text.lines()
                        .map(|line| watch_delta(&engine, &mut session, &mut adopted, line, r, rec))
                        .collect::<Vec<String>>()
                });
                for (i, reply) in replies.iter().enumerate() {
                    check(op, i, reply.as_bytes())?;
                }
            }
        }
        Workload::Simulate => {
            let model = config.model().map_err(|e| e.to_string())?;
            for (request, op) in ops.iter().enumerate() {
                let r = request as u64;
                let reply = rec.span("request", r, |rec| {
                    let line = line_of(&op.request);
                    let frame = rec
                        .span("service.framing.scan", r, |_| framing::scan(line))
                        .expect("simulate lines frame");
                    let parsed = rec
                        .span("service.protocol.parse", r, |_| parse_request(line))
                        .expect("simulate lines parse");
                    rec.span("service.fingerprint.span", r, |_| {
                        fingerprint_bytes(frame.seeds.expect("framed seeds").as_bytes())
                    });
                    let RequestBody::Simulate { seeds, runs, seed } = parsed.body else {
                        panic!("simulate pool holds simulate requests");
                    };
                    let estimate = rec.span("diffusion.wide.estimate", r, |_| {
                        seeds
                            .validate_against(graph)
                            .expect("seeds lie in the graph");
                        par_estimate_infection_probabilities_wide(&model, graph, &seeds, runs, seed)
                            .expect("valid simulate request")
                    });
                    rec.span("diffusion.codec.serialize", r, |_| {
                        ok_line(parsed.id, estimate.to_json_value())
                    })
                });
                check(op, 0, reply.as_bytes())?;
            }
        }
    }
    Ok(artifact_bytes)
}

fn line_of(request: &[u8]) -> &str {
    std::str::from_utf8(request)
        .expect("requests are UTF-8")
        .trim_end()
}

fn expected_exact(op: &Op, index: usize) -> Result<&str, String> {
    match &op.replies[index] {
        crate::drive::Reply::Exact(bytes) => std::str::from_utf8(bytes).map_err(|e| e.to_string()),
        crate::drive::Reply::WatchAnswer { .. } => Err("not an exact reply".to_owned()),
    }
}

fn check(op: &Op, index: usize, reply: &[u8]) -> Result<(), String> {
    if op.replies[index].matches(reply) {
        Ok(())
    } else {
        Err(format!(
            "replayed reply differs from the oracle: {}",
            String::from_utf8_lossy(&reply[..reply.len().min(300)])
        ))
    }
}

/// One full-form `rid`: the io thread's framing, parse and span
/// fingerprint, then `RidEngine::rid`'s snapshot fingerprint,
/// extraction and query, then the worker's serialisation and envelope.
fn cold_rid(
    config: RidConfig,
    line: &str,
    r: u64,
    rec: &mut Recorder,
    artifact_bytes: &mut u64,
) -> String {
    let frame = rec
        .span("service.framing.scan", r, |_| framing::scan(line))
        .expect("canonical lines frame");
    let parsed = rec
        .span("service.protocol.parse", r, |_| parse_request(line))
        .expect("pool lines parse");
    rec.span("service.fingerprint.span", r, |_| {
        fingerprint_bytes(frame.snapshot.expect("framed snapshot").as_bytes())
    });
    let RequestBody::Rid { snapshot, .. } = parsed.body else {
        panic!("cold pool holds full-form rid requests");
    };
    let rid = Rid::from_config(config).expect("default config is valid");
    rec.span("service.fingerprint.snapshot", r, |_| {
        snapshot_fingerprint(&snapshot)
    });
    let artifacts = rec.span("core.stages.extract", r, |_| rid.extract_stage(&snapshot));
    *artifact_bytes += artifacts.approx_bytes() as u64;
    let detection = rec
        .span("core.stages.query", r, |_| {
            rid.query_stage(&snapshot, &artifacts)
        })
        .expect("artifacts match the config");
    let serialized = rec.span("core.codec.serialize", r, |_| {
        RidResult { config, detection }.to_json_value().to_json()
    });
    rec.span("service.protocol.reply", r, |_| {
        ok_line_raw(parsed.id, &serialized)
    })
}

/// One `watch_delta` line: framing and parse on the io thread, then the
/// shard worker's apply, and on every answer-due delta the incremental
/// answer, the adoption of fallback artifacts and the serialisation.
fn watch_delta(
    engine: &RidEngine,
    session: &mut IncrementalRid,
    adopted: &mut Option<(u64, u64)>,
    line: &str,
    r: u64,
    rec: &mut Recorder,
) -> String {
    rec.span("service.framing.scan", r, |_| framing::scan(line));
    let parsed = rec
        .span("service.protocol.parse", r, |_| parse_request(line))
        .expect("delta lines parse");
    let RequestBody::WatchDelta { delta } = parsed.body else {
        panic!("watch operations hold deltas");
    };
    rec.span("core.incremental.apply", r, |_| session.apply(&delta))
        .expect("the oracle validated every delta");
    let deltas = session.deltas_applied();
    if !deltas.is_multiple_of(WATCH_ANSWER_EVERY) {
        return rec.span("service.protocol.reply", r, |_| {
            ok_line(
                parsed.id,
                Value::Object(vec![
                    ("acked".into(), Value::Bool(true)),
                    ("deltas".into(), Value::Number(deltas as f64)),
                ]),
            )
        });
    }
    let (result, outcome) = rec.span("core.incremental.answer", r, |_| session.answer_detailed());
    if let Some((snapshot, artifacts)) = session.take_fallback_artifacts() {
        let config = session.config();
        *adopted = Some(rec.span("service.engine.adopt", r, |_| {
            engine.adopt_artifacts(&snapshot, &config, artifacts, *adopted)
        }));
    }
    rec.span("core.codec.serialize", r, |_| {
        let mut payload = result.to_json_value();
        if let Value::Object(fields) = &mut payload {
            fields.push(("deltas".into(), Value::Number(deltas as f64)));
            fields.push((
                "dirty_components".into(),
                Value::Number(outcome.dirty_components as f64),
            ));
            fields.push(("full_recompute".into(), Value::Bool(outcome.full_recompute)));
        }
        ok_line(parsed.id, payload)
    })
}
