//! The newline-delimited JSON wire protocol.
//!
//! One request per line, one response per line, correlated by `id`:
//!
//! ```text
//! → {"id": 1, "type": "health"}
//! ← {"id": 1, "ok": true, "result": {"status": "ok", ...}}
//! → {"id": 2, "type": "rid", "snapshot": {...}, "config": {"alpha": 3, "beta": 0.1}}
//! ← {"id": 2, "ok": true, "result": {"config": {...}, "detection": {...}}}
//! ← {"id": 3, "ok": false, "error": {"kind": "overloaded", "message": "..."}}
//! ```
//!
//! Request types: `health`, `stats`, `rid`, `simulate`, `shutdown`,
//! plus the stateful watch-session verbs `watch_open`, `watch_delta`
//! and `watch_close` (see `docs/PROTOCOL.md` for the session state
//! machine). Everything is built on the in-repo [`isomit_graph::json`]
//! codec, so floating-point payloads survive the wire bit-exactly.
//!
//! A request line is read once, by the walk in [`crate::framing`], and
//! decoded from the spans of its fields: [`parse_request`] on a whole
//! line, [`decode_framed_rid`] on a shard worker for a full-form `rid`
//! the io thread routed undecoded. Both give the same errors, with the
//! same messages, in the same order.

use crate::framing::{self, Fields};
use isomit_core::{RidConfig, RidDelta};
use isomit_detectors::DetectorKind;
use isomit_diffusion::{DiffusionError, InfectedNetwork, SeedSet};
use isomit_graph::json::{JsonError, Value};

/// Protocol identifier reported by `health`.
pub const PROTOCOL_VERSION: &str = "isomit-service/1";

/// Machine-readable failure category of an error response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request line was not a valid request.
    BadRequest,
    /// The bounded work queue was full; retry later.
    Overloaded,
    /// The request waited in the queue past its deadline.
    DeadlineExceeded,
    /// A diffusion-layer error; `detail` carries the encoded
    /// [`DiffusionError`].
    Diffusion,
    /// The server is draining for shutdown and takes no new work.
    ShuttingDown,
    /// The `rid` verb named a detector the server does not know;
    /// `detail` carries the list of known names under `"known"`.
    UnknownDetector,
    /// A `watch_delta` was rejected by the session's validator (e.g.
    /// infecting an already-infected node); the session state is
    /// unchanged and the connection stays usable.
    InvalidDelta,
    /// A by-fingerprint `rid` request named a snapshot the serving
    /// shard has no cached answer for; resend the full snapshot.
    UnknownSnapshot,
    /// A request line grew past
    /// [`MAX_LINE_BYTES`](crate::server::MAX_LINE_BYTES) without a
    /// newline; the daemon answers once and closes the connection.
    RequestTooLarge,
    /// Unexpected server-side failure.
    Internal,
}

impl ErrorKind {
    /// The snake_case wire label.
    pub fn as_label(&self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::DeadlineExceeded => "deadline_exceeded",
            ErrorKind::Diffusion => "diffusion",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::UnknownDetector => "unknown_detector",
            ErrorKind::InvalidDelta => "invalid_delta",
            ErrorKind::UnknownSnapshot => "unknown_snapshot",
            ErrorKind::RequestTooLarge => "request_too_large",
            ErrorKind::Internal => "internal",
        }
    }

    /// Parses the label produced by [`as_label`](ErrorKind::as_label).
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on an unknown label.
    pub fn from_label(label: &str) -> Result<Self, JsonError> {
        match label {
            "bad_request" => Ok(ErrorKind::BadRequest),
            "overloaded" => Ok(ErrorKind::Overloaded),
            "deadline_exceeded" => Ok(ErrorKind::DeadlineExceeded),
            "diffusion" => Ok(ErrorKind::Diffusion),
            "shutting_down" => Ok(ErrorKind::ShuttingDown),
            "unknown_detector" => Ok(ErrorKind::UnknownDetector),
            "invalid_delta" => Ok(ErrorKind::InvalidDelta),
            "unknown_snapshot" => Ok(ErrorKind::UnknownSnapshot),
            "request_too_large" => Ok(ErrorKind::RequestTooLarge),
            "internal" => Ok(ErrorKind::Internal),
            other => Err(JsonError::new(format!("unknown error kind `{other}`"))),
        }
    }
}

/// A structured error as carried on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireError {
    /// Failure category.
    pub kind: ErrorKind,
    /// Human-readable explanation.
    pub message: String,
    /// Structured payload for kinds that carry one (e.g. the encoded
    /// [`DiffusionError`] under [`ErrorKind::Diffusion`]).
    pub detail: Option<Value>,
}

impl WireError {
    /// Convenience constructor without detail payload.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        WireError {
            kind,
            message: message.into(),
            detail: None,
        }
    }

    /// Wraps a [`DiffusionError`], attaching its JSON encoding as
    /// detail so clients can decode it losslessly.
    pub fn from_diffusion(error: &DiffusionError) -> Self {
        WireError {
            kind: ErrorKind::Diffusion,
            message: error.to_string(),
            detail: Some(error.to_json_value()),
        }
    }

    /// The decoded [`DiffusionError`], when this is a
    /// [`ErrorKind::Diffusion`] error with an intact detail payload.
    pub fn diffusion_detail(&self) -> Option<DiffusionError> {
        let detail = self.detail.as_ref()?;
        DiffusionError::from_json_value(detail).ok()
    }

    fn to_json_value(&self) -> Value {
        let mut fields = vec![
            ("kind".into(), Value::String(self.kind.as_label().into())),
            ("message".into(), Value::String(self.message.clone())),
        ];
        if let Some(detail) = &self.detail {
            fields.push(("detail".into(), detail.clone()));
        }
        Value::Object(fields)
    }

    fn from_json_value(value: &Value) -> Result<Self, JsonError> {
        Ok(WireError {
            kind: ErrorKind::from_label(
                value
                    .require("kind")?
                    .as_str()
                    .ok_or_else(|| JsonError::new("error `kind` must be a string"))?,
            )?,
            message: value
                .require("message")?
                .as_str()
                .ok_or_else(|| JsonError::new("error `message` must be a string"))?
                .to_owned(),
            detail: value.get("detail").cloned(),
        })
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind.as_label(), self.message)
    }
}

/// The work a request asks for.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestBody {
    /// Liveness probe; answered inline, never queued.
    Health,
    /// Engine counter snapshot; answered inline, never queued.
    Stats,
    /// Begin graceful shutdown: drain queued work, then stop.
    Shutdown,
    /// Detect rumor initiators in a snapshot.
    Rid {
        /// The infected snapshot to explain (boxed: it dwarfs every
        /// other variant).
        snapshot: Box<InfectedNetwork>,
        /// Detector parameters; the server default applies when absent.
        config: Option<RidConfig>,
        /// Which detector to run; `None` means the default (`rid`),
        /// keeping the field wire-compatible with older clients.
        detector: Option<DetectorKind>,
    },
    /// Detect rumor initiators in a snapshot the server has already
    /// seen, addressed by its content fingerprint instead of resending
    /// the (much larger) snapshot. Served exclusively from the owning
    /// shard's result cache; a miss is an
    /// [`ErrorKind::UnknownSnapshot`] error and the client falls back
    /// to the full [`RequestBody::Rid`] form.
    RidByFingerprint {
        /// The [`crate::fingerprint::snapshot_fingerprint`] of the
        /// snapshot. Carried on the wire as a decimal *string*: the
        /// JSON codec stores numbers as `f64`, which cannot represent
        /// every `u64` fingerprint exactly.
        fingerprint: u64,
        /// Detector parameters; the server default applies when absent.
        /// Must match the config of the priming full-form request for
        /// the cached answer to be found.
        config: Option<RidConfig>,
        /// Which detector to run; `None` means the default (`rid`).
        detector: Option<DetectorKind>,
    },
    /// Monte-Carlo infection-probability estimation on the loaded
    /// network.
    Simulate {
        /// Rumor seed set.
        seeds: SeedSet,
        /// Number of simulation runs.
        runs: usize,
        /// Master RNG seed (results are deterministic in it).
        seed: u64,
    },
    /// Open an incremental watch session on this connection, starting
    /// from an empty infected network.
    WatchOpen {
        /// Detector parameters for every answer in the session; the
        /// server default applies when absent.
        config: Option<RidConfig>,
        /// Answer cadence: every N-th delta gets a full
        /// [`RidResult`](isomit_core::RidResult),
        /// the others a cheap ack. `None` means 1 (answer every delta).
        answer_every: Option<u64>,
    },
    /// Apply one delta to the connection's open watch session.
    WatchDelta {
        /// The typed mutation to apply.
        delta: RidDelta,
    },
    /// Close the connection's watch session, freeing its admission
    /// slot.
    WatchClose,
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// The requested operation.
    pub body: RequestBody,
}

/// Encodes a request as a single JSON line (no trailing newline).
pub fn encode_request(id: u64, body: &RequestBody) -> String {
    let mut fields = vec![("id".into(), Value::Number(id as f64))];
    let type_label = match body {
        RequestBody::Health => "health",
        RequestBody::Stats => "stats",
        RequestBody::Shutdown => "shutdown",
        RequestBody::Rid { .. } | RequestBody::RidByFingerprint { .. } => "rid",
        RequestBody::Simulate { .. } => "simulate",
        RequestBody::WatchOpen { .. } => "watch_open",
        RequestBody::WatchDelta { .. } => "watch_delta",
        RequestBody::WatchClose => "watch_close",
    };
    fields.push(("type".into(), Value::String(type_label.into())));
    match body {
        RequestBody::Rid {
            snapshot,
            config,
            detector,
        } => {
            fields.push(("snapshot".into(), snapshot.to_json_value()));
            if let Some(config) = config {
                fields.push(("config".into(), config.to_json_value()));
            }
            if let Some(detector) = detector {
                fields.push(("detector".into(), Value::String(detector.as_label().into())));
            }
        }
        RequestBody::RidByFingerprint {
            fingerprint,
            config,
            detector,
        } => {
            fields.push(("fingerprint".into(), Value::String(fingerprint.to_string())));
            if let Some(config) = config {
                fields.push(("config".into(), config.to_json_value()));
            }
            if let Some(detector) = detector {
                fields.push(("detector".into(), Value::String(detector.as_label().into())));
            }
        }
        RequestBody::Simulate { seeds, runs, seed } => {
            fields.push(("seeds".into(), seeds.to_json_value()));
            fields.push(("runs".into(), Value::Number(*runs as f64)));
            fields.push(("seed".into(), Value::Number(*seed as f64)));
        }
        RequestBody::WatchOpen {
            config,
            answer_every,
        } => {
            if let Some(config) = config {
                fields.push(("config".into(), config.to_json_value()));
            }
            if let Some(every) = answer_every {
                fields.push(("answer_every".into(), Value::Number(*every as f64)));
            }
        }
        RequestBody::WatchDelta { delta } => {
            fields.push(("delta".into(), delta.to_json_value()));
        }
        RequestBody::Health
        | RequestBody::Stats
        | RequestBody::Shutdown
        | RequestBody::WatchClose => {}
    }
    Value::Object(fields).to_json()
}

/// Parses a request line: one walk of the line
/// ([`crate::framing`]) that validates every value, then the request
/// decoded from the spans of its fields.
///
/// # Errors
///
/// On failure returns the request id if one could be recovered (so the
/// server can still address its error reply) plus a
/// [`ErrorKind::BadRequest`] wire error (or
/// [`ErrorKind::UnknownDetector`]). The checks run in a fixed order:
/// the JSON, the `id`, the `type`, then the verb's fields.
pub fn parse_request(line: &str) -> Result<Request, (Option<u64>, WireError)> {
    let fields = framing::walk(line, true).map_err(|e| invalid_json(&e))?;
    decode_request(&fields)
}

/// The error a line that is not valid JSON gets.
pub(crate) fn invalid_json(error: &JsonError) -> (Option<u64>, WireError) {
    (None, bad_request(format!("invalid JSON: {error}")))
}

fn bad_request(message: impl Into<String>) -> WireError {
    WireError::new(ErrorKind::BadRequest, message)
}

/// Decodes the request whose fields a walk recorded. This is what
/// [`parse_request`] gives the line when the walk validated the
/// `snapshot` span or found none.
pub(crate) fn decode_request(fields: &Fields<'_>) -> Result<Request, (Option<u64>, WireError)> {
    let id = fields
        .id
        .ok_or_else(|| (None, bad_request("`id` must be a non-negative integer")))?;
    let verb = fields
        .verb
        .as_deref()
        .ok_or_else(|| (Some(id), bad_request("`type` must be a string")))?;
    let body = decode_body(verb, fields).map_err(|error| (Some(id), error))?;
    Ok(Request { id, body })
}

fn decode_body(verb: &str, fields: &Fields<'_>) -> Result<RequestBody, WireError> {
    Ok(match verb {
        "health" => RequestBody::Health,
        "stats" => RequestBody::Stats,
        "shutdown" => RequestBody::Shutdown,
        "rid" => {
            let config = decode_field(fields.config, "config", RidConfig::from_json_value)?;
            let detector = decode_detector(fields.detector)?;
            match fields.fingerprint {
                Some(span) => RequestBody::RidByFingerprint {
                    fingerprint: framing::string(span)
                        .and_then(|s| s.parse::<u64>().ok())
                        .ok_or_else(|| {
                            bad_request("`fingerprint` must be a decimal u64 carried as a string")
                        })?,
                    config,
                    detector,
                },
                None => RequestBody::Rid {
                    snapshot: Box::new(decode_snapshot(
                        fields.snapshot.ok_or_else(|| missing("snapshot"))?,
                    )?),
                    config,
                    detector,
                },
            }
        }
        "simulate" => RequestBody::Simulate {
            seeds: decode_field(fields.seeds, "seeds", SeedSet::from_json_value)?
                .ok_or_else(|| missing("seeds"))?,
            runs: fields
                .runs
                .and_then(parsed)
                .and_then(|runs| runs.as_usize())
                .ok_or_else(|| bad_request("`runs` must be a non-negative integer"))?,
            seed: fields
                .seed
                .and_then(parsed)
                .and_then(|seed| seed.as_u64())
                .ok_or_else(|| bad_request("`seed` must be a non-negative integer"))?,
        },
        "watch_open" => RequestBody::WatchOpen {
            config: decode_field(fields.config, "config", RidConfig::from_json_value)?,
            answer_every: fields
                .answer_every
                .map(|span| {
                    parsed(span)
                        .and_then(|every| every.as_u64())
                        .filter(|&every| every > 0)
                        .ok_or_else(|| bad_request("`answer_every` must be a positive integer"))
                })
                .transpose()?,
        },
        "watch_delta" => RequestBody::WatchDelta {
            delta: decode_field(fields.delta, "delta", RidDelta::from_json_value)?
                .ok_or_else(|| missing("delta"))?,
        },
        "watch_close" => RequestBody::WatchClose,
        other => return Err(bad_request(format!("unknown request type `{other}`"))),
    })
}

fn parsed(span: &str) -> Option<Value> {
    Value::parse(span).ok()
}

fn missing(field: &str) -> WireError {
    bad_request(JsonError::missing(field).to_string())
}

/// A field decoded from its span by `codec`, when the request has it.
fn decode_field<T>(
    span: Option<&str>,
    field: &str,
    codec: impl FnOnce(&Value) -> Result<T, JsonError>,
) -> Result<Option<T>, WireError> {
    span.map(|span| {
        Value::parse(span)
            .and_then(|value| codec(&value))
            .map_err(|e| bad_request(format!("invalid {field}: {e}")))
    })
    .transpose()
}

fn decode_detector(span: Option<&str>) -> Result<Option<DetectorKind>, WireError> {
    let Some(span) = span else {
        return Ok(None);
    };
    let label = framing::string(span).ok_or_else(|| bad_request("`detector` must be a string"))?;
    let kind = DetectorKind::from_label(&label).map_err(|_| WireError {
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
    })?;
    Ok(Some(kind))
}

fn decode_snapshot(span: &str) -> Result<InfectedNetwork, WireError> {
    InfectedNetwork::from_json_str(span).map_err(|e| bad_request(format!("invalid snapshot: {e}")))
}

/// A full-form `rid` request as the shard worker decodes it: the
/// snapshot, then the optional config and detector.
pub type RidParts = (InfectedNetwork, Option<RidConfig>, Option<DetectorKind>);

/// Decodes a full-form `rid` line on the shard worker, from the spans
/// the io thread's walk recorded in it (the spans [`crate::framing::scan`]
/// reports): the config and detector as [`parse_request`] reads them,
/// then the snapshot straight to CSR. The line is walked again only
/// when the decode fails.
///
/// # Errors
///
/// The error [`parse_request`] gives the line.
pub fn decode_framed_rid(
    line: &str,
    snapshot: &str,
    config: Option<&str>,
    detector: Option<&str>,
) -> Result<RidParts, (Option<u64>, WireError)> {
    let decoded = decode_field(config, "config", RidConfig::from_json_value).and_then(|config| {
        let detector = decode_detector(detector)?;
        Ok((decode_snapshot(snapshot)?, config, detector))
    });
    decoded.map_err(|error| match framing::walk(line, true) {
        // The io thread's walk left the snapshot unchecked: a JSON error
        // inside it is the parser's first error.
        Err(json) => invalid_json(&json),
        // Otherwise the parser decodes these spans, in this order.
        Ok(fields) => (fields.id, error),
    })
}

/// Encodes a success response line (no trailing newline).
pub fn ok_line(id: u64, result: Value) -> String {
    Value::Object(vec![
        ("id".into(), Value::Number(id as f64)),
        ("ok".into(), Value::Bool(true)),
        ("result".into(), result),
    ])
    .to_json()
}

/// Encodes a success response line from an already-serialized `result`
/// payload (no trailing newline). Byte-identical to
/// [`ok_line`]`(id, result)` whenever `result_json` is
/// `result.to_json()` — the sharded server's cache-hit fast path uses
/// this to splice a stored payload string into the envelope without
/// re-parsing or re-serializing it.
pub fn ok_line_raw(id: u64, result_json: &str) -> String {
    let mut line = String::with_capacity(result_json.len() + 32);
    line.push_str("{\"id\":");
    line.push_str(&id.to_string());
    line.push_str(",\"ok\":true,\"result\":");
    line.push_str(result_json);
    line.push('}');
    line
}

/// Encodes an error response line (no trailing newline). A request
/// whose id could not be parsed is answered with `"id": null`.
pub fn error_line(id: Option<u64>, error: &WireError) -> String {
    let id_value = match id {
        Some(id) => Value::Number(id as f64),
        None => Value::Null,
    };
    Value::Object(vec![
        ("id".into(), id_value),
        ("ok".into(), Value::Bool(false)),
        ("error".into(), error.to_json_value()),
    ])
    .to_json()
}

/// A parsed response line: the echoed id (when present) and either the
/// `result` payload or the structured error.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Echoed request id; `None` when the server could not parse one.
    pub id: Option<u64>,
    /// `result` on success, [`WireError`] on failure.
    pub outcome: Result<Value, WireError>,
}

/// Parses a response line.
///
/// # Errors
///
/// Returns [`JsonError`] when the line is not a valid response
/// envelope.
pub fn parse_response(line: &str) -> Result<Response, JsonError> {
    let doc = Value::parse(line)?;
    let id = doc.require("id")?.as_u64();
    let ok = doc
        .require("ok")?
        .as_bool()
        .ok_or_else(|| JsonError::new("`ok` must be a boolean"))?;
    let outcome = if ok {
        Ok(doc.require("result")?.clone())
    } else {
        Err(WireError::from_json_value(doc.require("error")?)?)
    };
    Ok(Response { id, outcome })
}

#[cfg(test)]
mod tests {
    use super::*;
    use isomit_graph::{Edge, NodeId, NodeState, Sign, SignedDigraph};

    fn snapshot() -> InfectedNetwork {
        let g =
            SignedDigraph::from_edges(2, [Edge::new(NodeId(0), NodeId(1), Sign::Positive, 0.8)])
                .unwrap();
        InfectedNetwork::from_parts(g, vec![NodeState::Positive, NodeState::Negative])
    }

    #[test]
    fn requests_round_trip() {
        let bodies = [
            RequestBody::Health,
            RequestBody::Stats,
            RequestBody::Shutdown,
            RequestBody::Rid {
                snapshot: Box::new(snapshot()),
                config: None,
                detector: None,
            },
            RequestBody::Rid {
                snapshot: Box::new(snapshot()),
                config: Some(RidConfig::default()),
                detector: None,
            },
            RequestBody::Rid {
                snapshot: Box::new(snapshot()),
                config: None,
                detector: Some(DetectorKind::JordanCenter),
            },
            RequestBody::Simulate {
                seeds: SeedSet::single(NodeId(0), Sign::Positive),
                runs: 128,
                seed: 7,
            },
            RequestBody::WatchOpen {
                config: None,
                answer_every: None,
            },
            RequestBody::WatchOpen {
                config: Some(RidConfig::default()),
                answer_every: Some(16),
            },
            RequestBody::WatchDelta {
                delta: RidDelta::Infect {
                    node: NodeId(3),
                    state: NodeState::Positive,
                },
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
                delta: RidDelta::FlipState {
                    node: NodeId(3),
                    state: NodeState::Negative,
                },
            },
            RequestBody::WatchClose,
            RequestBody::RidByFingerprint {
                // Above 2^53: would be mangled as a JSON number, must
                // survive as a string.
                fingerprint: 0xDEAD_BEEF_CAFE_F00D,
                config: None,
                detector: None,
            },
            RequestBody::RidByFingerprint {
                fingerprint: 42,
                config: Some(RidConfig::default()),
                detector: Some(DetectorKind::RidTree),
            },
        ];
        for (i, body) in bodies.into_iter().enumerate() {
            let line = encode_request(i as u64, &body);
            let parsed = parse_request(&line).unwrap();
            assert_eq!(parsed.id, i as u64);
            assert_eq!(parsed.body, body, "line: {line}");
        }
    }

    #[test]
    fn bad_requests_keep_the_id_when_possible() {
        let (id, err) = parse_request("{\"id\": 9, \"type\": \"nope\"}").unwrap_err();
        assert_eq!(id, Some(9));
        assert_eq!(err.kind, ErrorKind::BadRequest);
        let (id, _) = parse_request("not json at all").unwrap_err();
        assert_eq!(id, None);
        let (id, _) = parse_request("{\"type\": \"health\"}").unwrap_err();
        assert_eq!(id, None);
    }

    #[test]
    fn responses_round_trip() {
        let ok = ok_line(3, Value::Object(vec![("x".into(), Value::Number(1.0))]));
        let parsed = parse_response(&ok).unwrap();
        assert_eq!(parsed.id, Some(3));
        assert!(parsed.outcome.is_ok());

        let err = WireError::new(ErrorKind::Overloaded, "queue full (capacity 64)");
        let line = error_line(Some(4), &err);
        let parsed = parse_response(&line).unwrap();
        assert_eq!(parsed.id, Some(4));
        assert_eq!(parsed.outcome.unwrap_err(), err);

        let anon = error_line(None, &WireError::new(ErrorKind::BadRequest, "no id"));
        assert_eq!(parse_response(&anon).unwrap().id, None);
    }

    #[test]
    fn diffusion_errors_survive_the_wire() {
        let source = DiffusionError::SeedOutOfBounds {
            node: NodeId(42),
            node_count: 10,
        };
        let wire = WireError::from_diffusion(&source);
        let line = error_line(Some(1), &wire);
        let parsed = parse_response(&line).unwrap();
        let err = parsed.outcome.unwrap_err();
        assert_eq!(err.kind, ErrorKind::Diffusion);
        assert_eq!(err.diffusion_detail().unwrap(), source);
    }

    #[test]
    fn every_detector_label_round_trips_in_rid_requests() {
        for kind in DetectorKind::ALL {
            let body = RequestBody::Rid {
                snapshot: Box::new(snapshot()),
                config: None,
                detector: Some(kind),
            };
            let line = encode_request(1, &body);
            assert_eq!(parse_request(&line).unwrap().body, body, "line: {line}");
        }
    }

    #[test]
    fn unknown_detector_is_a_structured_error_with_known_names() {
        let line = encode_request(
            5,
            &RequestBody::Rid {
                snapshot: Box::new(snapshot()),
                config: None,
                detector: None,
            },
        );
        let line = line.replacen("\"type\"", "\"detector\": \"bogus\", \"type\"", 1);
        let (id, err) = parse_request(&line).unwrap_err();
        assert_eq!(id, Some(5));
        assert_eq!(err.kind, ErrorKind::UnknownDetector);
        assert!(err.message.contains("bogus"), "{}", err.message);
        let known = err
            .detail
            .as_ref()
            .and_then(|d| d.get("known"))
            .and_then(|k| match k {
                Value::Array(items) => Some(items.len()),
                _ => None,
            });
        assert_eq!(known, Some(DetectorKind::ALL.len()));
        for label in DetectorKind::known_labels() {
            assert!(err.message.contains(label), "{}", err.message);
        }
    }

    #[test]
    fn watch_requests_reject_malformed_payloads() {
        let (id, err) = parse_request("{\"id\": 2, \"type\": \"watch_open\", \"answer_every\": 0}")
            .unwrap_err();
        assert_eq!(id, Some(2));
        assert_eq!(err.kind, ErrorKind::BadRequest);
        assert!(err.message.contains("answer_every"), "{}", err.message);

        let (id, err) = parse_request("{\"id\": 3, \"type\": \"watch_delta\"}").unwrap_err();
        assert_eq!(id, Some(3));
        assert_eq!(err.kind, ErrorKind::BadRequest);

        let (id, err) =
            parse_request("{\"id\": 4, \"type\": \"watch_delta\", \"delta\": {\"op\": \"melt\"}}")
                .unwrap_err();
        assert_eq!(id, Some(4));
        assert_eq!(err.kind, ErrorKind::BadRequest);
        assert!(err.message.contains("invalid delta"), "{}", err.message);
    }

    #[test]
    fn raw_ok_lines_match_the_value_encoder_byte_for_byte() {
        let payloads = [
            Value::Object(vec![
                ("status".into(), Value::String("ok".into())),
                ("nodes".into(), Value::Number(120.0)),
            ]),
            Value::Object(vec![(
                "nested".into(),
                Value::Array(vec![Value::Number(1.5), Value::Null, Value::Bool(true)]),
            )]),
        ];
        for (id, payload) in payloads.into_iter().enumerate() {
            let raw = ok_line_raw(id as u64, &payload.to_json());
            assert_eq!(raw, ok_line(id as u64, payload));
        }
    }

    #[test]
    fn malformed_fingerprints_are_bad_requests() {
        for field in [
            "\"fingerprint\": 42",          // number, not string
            "\"fingerprint\": \"not-hex\"", // non-decimal
            "\"fingerprint\": \"-3\"",      // negative
            "\"fingerprint\": \"\"",        // empty
        ] {
            let line = format!("{{\"id\": 6, \"type\": \"rid\", {field}}}");
            let (id, err) = parse_request(&line).unwrap_err();
            assert_eq!(id, Some(6), "line: {line}");
            assert_eq!(err.kind, ErrorKind::BadRequest, "line: {line}");
            assert!(err.message.contains("fingerprint"), "{}", err.message);
        }
    }

    #[test]
    fn every_reply_echoes_id_two_to_the_53_as_an_integer() {
        let id = 1u64 << 53;
        let payload = Value::Object(vec![("x".into(), Value::Number(1.0))]);
        assert_eq!(
            ok_line(id, payload.clone()),
            ok_line_raw(id, &payload.to_json())
        );
        let error = error_line(Some(id), &WireError::new(ErrorKind::BadRequest, "x"));
        assert!(error.starts_with("{\"id\":9007199254740992,"), "{error}");
    }

    #[test]
    fn error_kind_labels_round_trip() {
        for kind in [
            ErrorKind::BadRequest,
            ErrorKind::Overloaded,
            ErrorKind::DeadlineExceeded,
            ErrorKind::Diffusion,
            ErrorKind::ShuttingDown,
            ErrorKind::UnknownDetector,
            ErrorKind::InvalidDelta,
            ErrorKind::UnknownSnapshot,
            ErrorKind::RequestTooLarge,
            ErrorKind::Internal,
        ] {
            assert_eq!(ErrorKind::from_label(kind.as_label()).unwrap(), kind);
        }
        assert!(ErrorKind::from_label("whatever").is_err());
    }
}
