//! Zero-copy request framing for the sharded server's io thread.
//!
//! [`scan`] walks one request line and returns the byte spans of the
//! top-level fields the router needs — `id`, `type`, and the routing
//! keys (`fingerprint`, `snapshot`, `config`, `detector`, `seeds`) —
//! **without materializing a JSON value**. The io thread routes on
//! those spans (rendezvous-hashing the raw snapshot bytes, answering
//! by-fingerprint cache hits inline) and only falls back to the full
//! [`crate::protocol::parse_request`] parser when a request actually
//! needs its payload decoded, or when the line is in any way unusual.
//!
//! The scanner is deliberately strict: *any* anomaly — malformed JSON,
//! a non-integer id, an escaped key or `type` string, a duplicated
//! tracked key — yields `None`, and the caller takes the slow path, whose
//! structured errors are the protocol's source of truth. The scanner
//! can therefore never change what a client observes; it only decides
//! how cheaply a well-formed line is served.
//!
//! For canonical clients (ours) the snapshot span is exactly the bytes
//! of `InfectedNetwork::to_json_string`, so FNV-1a over the span equals
//! [`crate::fingerprint::snapshot_fingerprint`]. That span hash is the
//! request's one key: the router, the artifact cache and the result
//! cache agree on snapshot identity without encoding anything.

/// Byte spans of the routed top-level fields of one request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame<'a> {
    /// The correlation id (digits-only; `12.0` falls back).
    pub id: u64,
    /// The raw `type` label, e.g. `"rid"`.
    pub verb: &'a str,
    /// Span of the `snapshot` value, when present.
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
    let bytes = line.as_bytes();
    let mut pos = skip_ws(bytes, 0);
    if bytes.get(pos) != Some(&b'{') {
        return None;
    }
    pos += 1;

    let mut id: Option<u64> = None;
    let mut verb: Option<&str> = None;
    let mut snapshot: Option<&str> = None;
    let mut fingerprint: Option<&str> = None;
    let mut config: Option<&str> = None;
    let mut detector: Option<&str> = None;
    let mut seeds: Option<&str> = None;

    pos = skip_ws(bytes, pos);
    if bytes.get(pos) == Some(&b'}') {
        // Empty object: syntactically fine, but no id — slow path.
        return None;
    }
    loop {
        pos = skip_ws(bytes, pos);
        let (key_start, key_end) = scan_string(bytes, pos)?;
        let key = line.get(key_start..key_end)?;
        // The full parser decodes escaped keys (`snap\u0073hot` is
        // `snapshot`), so their raw bytes could name the wrong field.
        if key.contains('\\') {
            return None;
        }
        pos = skip_ws(bytes, key_end + 1);
        if bytes.get(pos) != Some(&b':') {
            return None;
        }
        pos = skip_ws(bytes, pos + 1);
        let value_start = pos;
        pos = skip_value(bytes, pos)?;
        let span = line.get(value_start..pos)?.trim_end();
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
        pos = skip_ws(bytes, pos);
        match bytes.get(pos) {
            Some(b',') => pos += 1,
            Some(b'}') => {
                pos += 1;
                break;
            }
            _ => return None,
        }
    }
    if line
        .get(pos..)
        .is_none_or(|rest| !rest.trim_end().is_empty())
    {
        return None;
    }
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

/// Digits-only u64 (rejects signs, exponents, leading `+`, and floats,
/// all of which the full parser may still accept).
fn parse_digits(span: &str) -> Option<u64> {
    if span.is_empty() || !span.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    span.parse().ok()
}

/// Strips the quotes off a simple string span — one with no escapes.
fn unquote_simple(span: &str) -> Option<&str> {
    let inner = span.strip_prefix('"')?.strip_suffix('"')?;
    if inner.contains(['"', '\\']) {
        return None;
    }
    Some(inner)
}

fn skip_ws(bytes: &[u8], mut pos: usize) -> usize {
    while matches!(bytes.get(pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        pos += 1;
    }
    pos
}

/// With `bytes[pos] == b'"'`, returns the content range (exclusive of
/// quotes); the closing quote sits at the returned end index.
fn scan_string(bytes: &[u8], pos: usize) -> Option<(usize, usize)> {
    if bytes.get(pos) != Some(&b'"') {
        return None;
    }
    let start = pos + 1;
    let mut i = start;
    loop {
        match bytes.get(i)? {
            b'\\' => i += 2,
            b'"' => return Some((start, i)),
            _ => i += 1,
        }
    }
}

/// Skips one JSON value starting at `pos`, returning the index just
/// past it. Containers are depth-counted with string awareness;
/// scalars run to the next delimiter.
fn skip_value(bytes: &[u8], pos: usize) -> Option<usize> {
    match bytes.get(pos)? {
        b'"' => scan_string(bytes, pos).map(|(_, end)| end + 1),
        b'{' | b'[' => {
            let mut depth = 0usize;
            let mut i = pos;
            loop {
                match bytes.get(i)? {
                    b'{' | b'[' => {
                        depth += 1;
                        i += 1;
                    }
                    b'}' | b']' => {
                        depth -= 1;
                        i += 1;
                        if depth == 0 {
                            return Some(i);
                        }
                    }
                    b'"' => i = scan_string(bytes, i)?.1 + 1,
                    _ => i += 1,
                }
            }
        }
        _ => {
            // Number / true / false / null: run to a structural delimiter.
            let mut i = pos;
            while let Some(b) = bytes.get(i) {
                if matches!(b, b',' | b'}' | b']' | b' ' | b'\t' | b'\n' | b'\r') {
                    break;
                }
                i += 1;
            }
            if i == pos {
                return None;
            }
            Some(i)
        }
    }
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
        ] {
            assert_eq!(scan(line), None, "line: {line}");
        }
    }

    #[test]
    fn untracked_duplicate_keys_are_tolerated() {
        let line = r#"{"id": 1, "extra": 1, "extra": 2, "type": "stats"}"#;
        assert!(scan(line).is_some());
    }
}
