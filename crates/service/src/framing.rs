//! Zero-copy request framing for the sharded server's io thread.
//!
//! [`scan`] walks one request line and returns the byte spans of the
//! top-level fields the router needs — `id`, `type`, and the routing
//! keys (`fingerprint`, `snapshot`, `config`, `detector`, `seeds`) —
//! **without materializing a JSON value**. The io thread routes on
//! those spans: it rendezvous-hashes the raw snapshot bytes and hands
//! the line to the shard worker, which decodes the spans
//! ([`crate::protocol::decode_framed_rid`]), or answers a
//! by-fingerprint cache hit inline.
//!
//! The scanner walks the line with the one JSON lexer,
//! [`isomit_graph::json::Reader`], and validates every value it skips
//! or returns, except the `snapshot` span: that is skipped by bracket
//! depth alone, and the worker's decoder validates it. So a line the
//! scanner accepts is valid JSON wherever the full parser would look,
//! apart from the snapshot.
//!
//! The scanner is deliberately strict: *any* anomaly — malformed JSON,
//! an id that is not digits-only or exceeds 2^53, an escaped key or
//! `type` string, a duplicated tracked key — yields `None`, and the
//! caller takes the slow path, [`crate::protocol::parse_request`],
//! whose structured errors are the protocol's source of truth.
//!
//! For canonical clients (ours) the snapshot span is exactly the bytes
//! of `InfectedNetwork::to_json_string`, so FNV-1a over the span equals
//! [`crate::fingerprint::snapshot_fingerprint`]. That span hash is the
//! request's one key: the router, the artifact cache and the result
//! cache agree on snapshot identity without encoding anything.

use isomit_graph::json::Reader;
use std::borrow::Cow;

/// The largest id the scanner passes on: above 2^53 the full parser
/// rounds the id to an `f64`, so it decides.
const MAX_EXACT_ID: u64 = 1 << 53;

/// Byte spans of the routed top-level fields of one request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame<'a> {
    /// The correlation id (digits-only and at most 2^53; `12.0` falls
    /// back).
    pub id: u64,
    /// The raw `type` label, e.g. `"rid"`.
    pub verb: &'a str,
    /// Span of the `snapshot` value, when present. The only span the
    /// scanner does not validate.
    pub snapshot: Option<&'a str>,
    /// Span of the `fingerprint` value *without quotes*, when present
    /// and a simple string.
    pub fingerprint: Option<&'a str>,
    /// Span of the `config` value, when present.
    pub config: Option<&'a str>,
    /// Span of the `detector` value, when present.
    pub detector: Option<&'a str>,
    /// Span of the `seeds` value, when present.
    pub seeds: Option<&'a str>,
}

/// Scans `line` for the routed fields. Returns `None` on any anomaly;
/// the caller must then run the full parser for structured errors.
pub fn scan(line: &str) -> Option<Frame<'_>> {
    let mut reader = Reader::new(line);
    let mut fields = reader.read_object().ok()??;

    let mut id: Option<u64> = None;
    let mut verb: Option<&str> = None;
    let mut snapshot: Option<&str> = None;
    let mut fingerprint: Option<&str> = None;
    let mut config: Option<&str> = None;
    let mut detector: Option<&str> = None;
    let mut seeds: Option<&str> = None;

    while let Some(key) = fields.next_key(&mut reader).ok()? {
        // The full parser decodes escaped keys (`snap\u0073hot` is
        // `snapshot`), so their raw bytes could name the wrong field.
        let Cow::Borrowed(key) = key else {
            return None;
        };
        let start = reader.offset();
        if key == "snapshot" {
            reader.skip_unchecked().ok()?;
        } else {
            reader.skip().ok()?;
        }
        let span = line.get(start..reader.offset())?;
        match key {
            "id" => set_once(&mut id, parse_digits(span)?)?,
            "type" => set_once(&mut verb, unquote_simple(span)?)?,
            "snapshot" => set_once(&mut snapshot, span)?,
            "fingerprint" => set_once(&mut fingerprint, unquote_simple(span)?)?,
            "config" => set_once(&mut config, span)?,
            "detector" => set_once(&mut detector, span)?,
            "seeds" => set_once(&mut seeds, span)?,
            _ => {}
        }
    }
    reader.finish().ok()?;
    Some(Frame {
        id: id?,
        verb: verb?,
        snapshot,
        fingerprint,
        config,
        detector,
        seeds,
    })
}

/// Stores `value` into an empty slot; a duplicated tracked key is an
/// anomaly (the full parser's duplicate-key policy must decide).
fn set_once<T>(slot: &mut Option<T>, value: T) -> Option<()> {
    if slot.is_some() {
        return None;
    }
    *slot = Some(value);
    Some(())
}

/// Digits-only u64 up to 2^53 (rejects signs, exponents and floats,
/// which the full parser may still accept, and ids it would round).
fn parse_digits(span: &str) -> Option<u64> {
    if span.is_empty() || !span.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    span.parse().ok().filter(|&id| id <= MAX_EXACT_ID)
}

/// Strips the quotes off a simple string span — one with no escapes.
fn unquote_simple(span: &str) -> Option<&str> {
    let inner = span.strip_prefix('"')?.strip_suffix('"')?;
    if inner.contains(['"', '\\']) {
        return None;
    }
    Some(inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{encode_request, RequestBody};
    use isomit_diffusion::InfectedNetwork;
    use isomit_graph::{Edge, NodeId, NodeState, Sign, SignedDigraph};

    fn snapshot() -> InfectedNetwork {
        let g =
            SignedDigraph::from_edges(2, [Edge::new(NodeId(0), NodeId(1), Sign::Positive, 0.8)])
                .unwrap();
        InfectedNetwork::from_parts(g, vec![NodeState::Positive, NodeState::Negative])
    }

    #[test]
    fn canonical_rid_lines_yield_exact_snapshot_spans() {
        let snap = snapshot();
        let line = encode_request(
            7,
            &RequestBody::Rid {
                snapshot: Box::new(snap.clone()),
                config: None,
                detector: None,
            },
        );
        let frame = scan(&line).expect("canonical line scans");
        assert_eq!(frame.id, 7);
        assert_eq!(frame.verb, "rid");
        // The span is byte-identical to the canonical encoding, so
        // hashing it reproduces `snapshot_fingerprint`.
        assert_eq!(
            frame.snapshot,
            Some(snap.to_json_value().to_json().as_str())
        );
        assert_eq!(
            crate::fingerprint::fingerprint_bytes(frame.snapshot.unwrap().as_bytes()),
            crate::fingerprint::snapshot_fingerprint(&snap),
        );
    }

    #[test]
    fn fingerprint_and_detector_spans_are_unquoted() {
        let line = r#"{"id": 3, "type": "rid", "fingerprint": "16045690985374418957", "detector": "rid_tree", "config": {"alpha": 3}}"#;
        let frame = scan(line).expect("scans");
        assert_eq!(frame.id, 3);
        assert_eq!(frame.fingerprint, Some("16045690985374418957"));
        assert_eq!(frame.detector, Some(r#""rid_tree""#));
        assert_eq!(frame.config, Some(r#"{"alpha": 3}"#));
    }

    #[test]
    fn strings_with_escapes_and_nesting_are_skipped_correctly() {
        let line = r#"{"note": "a \"quoted\" } brace", "id": 1, "type": "health", "extra": [1, {"deep": [true, null]}, "x"]}"#;
        let frame = scan(line).expect("scans");
        assert_eq!(frame.id, 1);
        assert_eq!(frame.verb, "health");
    }

    #[test]
    fn anomalies_fall_back_to_the_full_parser() {
        for line in [
            "this is not json",
            "",
            "{}",
            r#"{"type": "health"}"#,                   // no id
            r#"{"id": 1.5, "type": "health"}"#,        // non-integer id
            r#"{"id": -1, "type": "health"}"#,         // negative id
            r#"{"id": 1, "type": "heal\th"}"#,         // escaped verb
            r#"{"id": 1, "type": "health""#,           // truncated
            r#"{"id": 1, "id": 2, "type": "health"}"#, // duplicate key
            r#"{"id": 1, "type": "rid", "snap\u0073hot": {}, "snapshot": {}}"#, // escaped key
            r#"{"id": 1, "type": "health"} trailing"#, // trailing junk
            r#"{"id": 1, "type": "rid", "fingerprint": 42}"#, // numeric fp
            r#"{"id": 9007199254740993, "type": "health"}"#, // id above 2^53
            r#"{"id": 18446744073709551615, "type": "health"}"#, // u64::MAX id
            r#"{"id": 1, "type": "health", "x": nul}"#, // malformed literal
            r#"{"id": 1, "type": "health", "x": [1,]}"#, // trailing comma
            r#"{"id": 1, "type": "health", "x": "\q"}"#, // unknown escape
            r#"{"id": 1, "type": "rid", "config": {"a" 1}}"#, // malformed config
            "{\"id\": 1\u{b}, \"type\": \"health\"}",  // not JSON whitespace
        ] {
            assert_eq!(scan(line), None, "line: {line}");
        }
    }

    #[test]
    fn ids_up_to_two_to_the_53_are_exact() {
        let line = r#"{"id": 9007199254740992, "type": "health"}"#;
        assert_eq!(scan(line).map(|f| f.id), Some(1 << 53));
    }

    #[test]
    fn the_snapshot_span_is_left_to_the_worker() {
        // Malformed inside, but bracket-balanced: the scanner passes it
        // on, and the worker's decoder refuses it.
        let line = r#"{"id": 2, "type": "rid", "snapshot": {"graph": [1,], "x": nul}}"#;
        let frame = scan(line).expect("scans");
        assert_eq!(frame.snapshot, Some(r#"{"graph": [1,], "x": nul}"#));
        assert_eq!(
            scan(r#"{"id": 2, "type": "rid", "snapshot": {"a": [}"#),
            None
        );
    }

    #[test]
    fn untracked_duplicate_keys_are_tolerated() {
        let line = r#"{"id": 1, "extra": 1, "extra": 2, "type": "stats"}"#;
        assert!(scan(line).is_some());
    }
}
