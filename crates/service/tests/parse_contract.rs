//! `parse_request` against the whole-line `Value`-tree parser it
//! replaced, kept here as the oracle: on seeded mutations of every verb
//! and form, the walk-and-span-decode parser must give the same request
//! or the same error line, and the worker-side decode of every line the
//! io thread routes as a full-form `rid` must give the oracle's answer.

use isomit_core::{RidConfig, RidDelta};
use isomit_diffusion::{InfectedNetwork, SeedSet};
use isomit_graph::json::Value;
use isomit_graph::{Edge, NodeId, NodeState, Sign, SignedDigraph};
use isomit_service::framing::scan;
use isomit_service::protocol::{
    decode_framed_rid, encode_request, error_line, parse_request, ErrorKind, Request, RequestBody,
    WireError,
};
use isomit_service::DetectorKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The parser before the walk: the whole line parsed into a `Value`
/// tree, the snapshot re-encoded and decoded again. Copied verbatim,
/// comments included.
fn oracle(line: &str) -> Result<Request, (Option<u64>, WireError)> {
    let bad =
        |id: Option<u64>, message: String| (id, WireError::new(ErrorKind::BadRequest, message));
    let doc = Value::parse(line).map_err(|e| bad(None, format!("invalid JSON: {e}")))?;
    let id = doc.get("id").and_then(Value::as_u64);
    let Some(id) = id else {
        return Err(bad(None, "`id` must be a non-negative integer".to_owned()));
    };
    let type_label = doc
        .get("type")
        .and_then(Value::as_str)
        .ok_or_else(|| bad(Some(id), "`type` must be a string".to_owned()))?;
    let body =
        match type_label {
            "health" => RequestBody::Health,
            "stats" => RequestBody::Stats,
            "shutdown" => RequestBody::Shutdown,
            "rid" => {
                let config = match doc.get("config") {
                    None => None,
                    Some(v) => Some(
                        RidConfig::from_json_value(v)
                            .map_err(|e| bad(Some(id), format!("invalid config: {e}")))?,
                    ),
                };
                let detector = match doc.get("detector") {
                    None => None,
                    Some(v) => {
                        let label = v.as_str().ok_or_else(|| {
                            bad(Some(id), "`detector` must be a string".to_owned())
                        })?;
                        Some(DetectorKind::from_label(label).map_err(|_| {
                            (
                                Some(id),
                                WireError {
                                    kind: ErrorKind::UnknownDetector,
                                    message: format!(
                                        "unknown detector `{label}` (known: {})",
                                        DetectorKind::known_labels().join(", ")
                                    ),
                                    detail: Some(Value::Object(vec![(
                                        "known".into(),
                                        Value::Array(
                                            DetectorKind::known_labels()
                                                .into_iter()
                                                .map(|l| Value::String(l.into()))
                                                .collect(),
                                        ),
                                    )])),
                                },
                            )
                        })?)
                    }
                };
                if let Some(fp) = doc.get("fingerprint") {
                    let fingerprint =
                        fp.as_str()
                            .and_then(|s| s.parse::<u64>().ok())
                            .ok_or_else(|| {
                                bad(
                                    Some(id),
                                    "`fingerprint` must be a decimal u64 carried as a string"
                                        .to_owned(),
                                )
                            })?;
                    RequestBody::RidByFingerprint {
                        fingerprint,
                        config,
                        detector,
                    }
                } else {
                    let snapshot_value = doc
                        .require("snapshot")
                        .map_err(|e| bad(Some(id), e.to_string()))?;
                    // Lines the scanner refuses come here; framed ones
                    // are decoded from their spans by
                    // `decode_framed_rid`. Both paths run one decoder.
                    let snapshot = InfectedNetwork::from_json_str(&snapshot_value.to_json())
                        .map_err(|e| bad(Some(id), format!("invalid snapshot: {e}")))?;
                    RequestBody::Rid {
                        snapshot: Box::new(snapshot),
                        config,
                        detector,
                    }
                }
            }
            "simulate" => {
                let seeds_value = doc
                    .require("seeds")
                    .map_err(|e| bad(Some(id), e.to_string()))?;
                let seeds = SeedSet::from_json_value(seeds_value)
                    .map_err(|e| bad(Some(id), format!("invalid seeds: {e}")))?;
                let runs = doc.get("runs").and_then(Value::as_usize).ok_or_else(|| {
                    bad(Some(id), "`runs` must be a non-negative integer".to_owned())
                })?;
                let seed = doc.get("seed").and_then(Value::as_u64).ok_or_else(|| {
                    bad(Some(id), "`seed` must be a non-negative integer".to_owned())
                })?;
                RequestBody::Simulate { seeds, runs, seed }
            }
            "watch_open" => {
                let config = match doc.get("config") {
                    None => None,
                    Some(v) => Some(
                        RidConfig::from_json_value(v)
                            .map_err(|e| bad(Some(id), format!("invalid config: {e}")))?,
                    ),
                };
                let answer_every = match doc.get("answer_every") {
                    None => None,
                    Some(v) => {
                        let every = v.as_u64().ok_or_else(|| {
                            bad(
                                Some(id),
                                "`answer_every` must be a positive integer".to_owned(),
                            )
                        })?;
                        if every == 0 {
                            return Err(bad(
                                Some(id),
                                "`answer_every` must be a positive integer".to_owned(),
                            ));
                        }
                        Some(every)
                    }
                };
                RequestBody::WatchOpen {
                    config,
                    answer_every,
                }
            }
            "watch_delta" => {
                let delta_value = doc
                    .require("delta")
                    .map_err(|e| bad(Some(id), e.to_string()))?;
                let delta = RidDelta::from_json_value(delta_value)
                    .map_err(|e| bad(Some(id), format!("invalid delta: {e}")))?;
                RequestBody::WatchDelta { delta }
            }
            "watch_close" => RequestBody::WatchClose,
            other => {
                return Err(bad(Some(id), format!("unknown request type `{other}`")));
            }
        };
    Ok(Request { id, body })
}

type Parsed = Result<Request, (Option<u64>, WireError)>;

/// Asserts that two parses agree: the same request, or the same error
/// line on the wire.
fn assert_same(got: &Parsed, want: &Parsed, line: &str) {
    match (got, want) {
        (Ok(got), Ok(want)) => assert_eq!(got, want, "{line}"),
        (Err((got_id, got)), Err((want_id, want))) => {
            assert_eq!(
                error_line(*got_id, got),
                error_line(*want_id, want),
                "{line}"
            )
        }
        _ => panic!("{line}: got {got:?}, want {want:?}"),
    }
}

fn snapshot(weight: f64) -> InfectedNetwork {
    let g = SignedDigraph::from_edges(
        3,
        [
            Edge::new(NodeId(0), NodeId(1), Sign::Positive, weight),
            Edge::new(NodeId(1), NodeId(2), Sign::Negative, 0.5),
        ],
    )
    .expect("a valid graph");
    InfectedNetwork::from_parts(
        g,
        vec![
            NodeState::Positive,
            NodeState::Negative,
            NodeState::Positive,
        ],
    )
}

/// One line per verb and form, plus the lines the old strict scanner
/// refused and the parser reads.
fn bases() -> Vec<String> {
    let full = |id: u64, config, detector| {
        encode_request(
            id,
            &RequestBody::Rid {
                snapshot: Box::new(snapshot(0.8)),
                config,
                detector,
            },
        )
    };
    let plain = full(7, None, None);
    let near_limit = plain.replacen("\"id\":7", "\"id\":9007199254740992", 1);
    let small = snapshot(0.8).to_json_string();
    let other = snapshot(0.25).to_json_string();
    let mut bases = vec![
        plain.clone(),
        full(8, Some(RidConfig::default()), None),
        full(9, None, Some(DetectorKind::RidTree)),
        full(
            10,
            Some(RidConfig::default()),
            Some(DetectorKind::JordanCenter),
        ),
        near_limit.clone(),
        near_limit.replacen("992", "991", 1),
        plain.replacen("\"type\"", "\"x\":[1,{\"y\":null},\"s\"],\"type\"", 1),
        plain.replacen('}', r#"},"extra":{"graph":0}"#, 1),
        r#"{"id":11,"type":"rid","fingerprint":"42","note":[true,-1.5e3]}"#.to_owned(),
        // Ids the old scanner refused.
        plain.replacen("\"id\":7", "\"id\":5.0", 1),
        plain.replacen("\"id\":7", "\"id\":5e0", 1),
        plain.replacen("\"id\":7", "\"id\":9007199254740993", 1),
        r#"{"id":5.0,"type":"rid","fingerprint":"42"}"#.to_owned(),
        // Escaped keys and strings, duplicated keys.
        format!(r#"{{"id":12,"type":"rid","snap\u0073hot":{other},"snapshot":{small}}}"#),
        format!(r#"{{"id":13,"type":"rid","snapshot":{small},"snap\u0073hot":{other}}}"#),
        plain.replacen("\"type\":\"rid\"", r#""type":"r\u0069d""#, 1),
        r#"{"id":14,"type":"rid","fingerprint":"\u0034\u0032","detector":"rid_tree"}"#.to_owned(),
        format!(r#"{{"id":15,"type":"rid","snapshot":{small},"snapshot":{{"graph":[1,]}}}}"#),
        format!(r#"{{"id":16,"type":"rid","fingerprint":"42","snapshot":{small}}}"#),
        r#"{"id":17,"type":"health","snapshot":{"graph":[1,],"x":nul}}"#.to_owned(),
        r#"[{"id":18,"type":"health"}]"#.to_owned(),
        r#"{"id":19,"type":"stats"} x"#.to_owned(),
        r#"{"id":20,"id":21,"type":"stats","type":"health"}"#.to_owned(),
    ];
    for (id, body) in [
        RequestBody::Health,
        RequestBody::Stats,
        RequestBody::Shutdown,
        RequestBody::RidByFingerprint {
            fingerprint: 0xDEAD_BEEF_CAFE_F00D,
            config: Some(RidConfig::default()),
            detector: Some(DetectorKind::RumorCentrality),
        },
        RequestBody::Simulate {
            seeds: SeedSet::single(NodeId(0), Sign::Positive),
            runs: 128,
            seed: 7,
        },
        RequestBody::WatchOpen {
            config: Some(RidConfig::default()),
            answer_every: Some(16),
        },
        RequestBody::WatchDelta {
            delta: RidDelta::AddEdge {
                src: NodeId(3),
                dst: NodeId(4),
                sign: Sign::Negative,
                weight: 0.25,
            },
        },
        RequestBody::WatchDelta {
            delta: RidDelta::Infect {
                node: NodeId(3),
                state: NodeState::Positive,
            },
        },
        RequestBody::WatchClose,
    ]
    .into_iter()
    .enumerate()
    {
        bases.push(encode_request(30 + id as u64, &body));
    }
    bases
}

/// `line` after one to three random one-character edits drawn from
/// JSON structure, number and literal characters.
fn mutate(line: &str, rng: &mut StdRng) -> String {
    const ALPHABET: &[char] = &[
        '{', '}', '[', ']', ',', ':', '"', ' ', '\\', '0', '1', '3', '9', '-', '.', 'e', 'n', 'u',
        'l', 't', 'r', 'x', '+', '?',
    ];
    let mut chars: Vec<char> = line.chars().collect();
    for _ in 0..rng.gen_range(1..=3usize) {
        let at = rng.gen_range(0..=chars.len());
        let c = ALPHABET[rng.gen_range(0..ALPHABET.len())];
        match rng.gen_range(0..3usize) {
            0 if at < chars.len() => chars[at] = c,
            1 if at < chars.len() => {
                chars.remove(at);
            }
            _ => chars.insert(at, c),
        }
    }
    chars.into_iter().collect()
}

#[test]
fn parse_request_matches_the_value_tree_parser_on_mutated_lines() {
    let bases = bases();
    let mut rng = StdRng::seed_from_u64(53);
    let (mut accepted, mut full_form, mut decoded, mut by_fingerprint) = (0, 0, 0, 0);
    for case in 0..30_000 {
        let base = &bases[case % bases.len()];
        let line = if case < bases.len() {
            base.clone()
        } else {
            mutate(base, &mut rng)
        };
        let want = oracle(&line);
        assert_same(&parse_request(&line), &want, &line);
        accepted += usize::from(want.is_ok());

        let Some(frame) = scan(&line).filter(|f| f.verb == "rid") else {
            continue;
        };
        match (&frame.fingerprint, frame.snapshot) {
            // What the io thread routes to a shard worker undecoded.
            (None, Some(span)) => {
                full_form += 1;
                let got = decode_framed_rid(&line, span, frame.config, frame.detector).map(
                    |(snapshot, config, detector)| {
                        decoded += 1;
                        Request {
                            id: frame.id,
                            body: RequestBody::Rid {
                                snapshot: Box::new(snapshot),
                                config,
                                detector,
                            },
                        }
                    },
                );
                assert_same(&got, &want, &line);
            }
            // What the io thread may answer from the result cache.
            (Some(fingerprint), None) => match (fingerprint.parse::<u64>(), &want) {
                (Ok(fingerprint), Ok(request)) => {
                    by_fingerprint += 1;
                    assert_eq!(request.id, frame.id, "{line}");
                    assert!(
                        matches!(request.body, RequestBody::RidByFingerprint { fingerprint: f, .. } if f == fingerprint),
                        "{line}"
                    );
                }
                (Err(_), result) => assert!(result.is_err(), "{line}"),
                (Ok(_), Err(_)) => {}
            },
            _ => {}
        }
    }
    assert!(
        accepted > 1_000 && decoded > 400 && full_form > decoded && by_fingerprint > 150,
        "{accepted} accepted, {full_form} full-form rid lines, {decoded} decoded, \
         {by_fingerprint} by fingerprint"
    );
}
