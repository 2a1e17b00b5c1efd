//! The one reading of a request line.
//!
//! One walk reads a line, with the one JSON lexer
//! ([`isomit_graph::json::Reader`]). It reads the `id` (by
//! [`Value::as_u64`]'s rule) and the `type`, and records the byte span
//! of every other protocol field: `snapshot`, `fingerprint`, `config`,
//! `detector`, `seeds`, `runs`, `seed`, `answer_every` and `delta`. Keys
//! are decoded, escapes included; the first occurrence of a key is kept
//! and later ones are validated and ignored, as [`Value::get`] reads a
//! parsed object. Every request is decoded from what the walk recorded
//! ([`crate::protocol`]), so no second parser has to agree with this
//! one.
//!
//! Every value is validated, except that the io thread's walk skips the
//! first `snapshot` by bracket depth alone and hands the span on: the
//! shard worker's decoder validates it. FNV-1a over that span is the
//! request's one key: the router, the artifact cache and the result
//! cache agree on snapshot identity without decoding anything. For
//! canonical clients (ours) the span is exactly the bytes of
//! `InfectedNetwork::to_json_string`, so its hash equals
//! [`crate::fingerprint::snapshot_fingerprint`].
//!
//! [`scan`] gives the same reading, as a [`Frame`], to tools outside the
//! crate that route or replay request lines.

use isomit_graph::json::{JsonError, Reader, Value};
use std::borrow::Cow;

/// The top-level fields of one request line, as [`walk`] read them:
/// the `id` and `type`, and the span of the first occurrence of every
/// other protocol field.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Fields<'a> {
    /// The first `id`, when it is a number [`Value::as_u64`] accepts.
    pub(crate) id: Option<u64>,
    /// The first `type`, when it is a string, escapes decoded.
    pub(crate) verb: Option<Cow<'a, str>>,
    pub(crate) snapshot: Option<&'a str>,
    pub(crate) fingerprint: Option<&'a str>,
    pub(crate) config: Option<&'a str>,
    pub(crate) detector: Option<&'a str>,
    pub(crate) seeds: Option<&'a str>,
    pub(crate) runs: Option<&'a str>,
    pub(crate) seed: Option<&'a str>,
    pub(crate) answer_every: Option<&'a str>,
    pub(crate) delta: Option<&'a str>,
}

/// Walks `line` once and records its fields. With `check_snapshot`
/// false, the first `snapshot` value is skipped by bracket depth and
/// not validated; its nesting still counts from the line's root.
///
/// # Errors
///
/// Returns the [`JsonError`] [`Value::parse`] gives the line when it is
/// malformed. With `check_snapshot` false, a line whose snapshot alone
/// is malformed may pass, or fail at a later byte.
pub(crate) fn walk(line: &str, check_snapshot: bool) -> Result<Fields<'_>, JsonError> {
    let mut reader = Reader::new(line);
    let mut fields = Fields::default();
    // The first `id` and `type`, whatever they hold.
    let (mut id, mut verb) = (None, None);
    if let Some(mut members) = reader.read_object()? {
        while let Some(key) = members.next_key(&mut reader)? {
            let slot = match &*key {
                "id" if id.is_none() => {
                    id = Some(
                        reader
                            .read_number()?
                            .and_then(|n| Value::Number(n).as_u64()),
                    );
                    continue;
                }
                "type" if verb.is_none() => {
                    verb = Some(reader.read_string()?);
                    continue;
                }
                "snapshot" => &mut fields.snapshot,
                "fingerprint" => &mut fields.fingerprint,
                "config" => &mut fields.config,
                "detector" => &mut fields.detector,
                "seeds" => &mut fields.seeds,
                "runs" => &mut fields.runs,
                "seed" => &mut fields.seed,
                "answer_every" => &mut fields.answer_every,
                "delta" => &mut fields.delta,
                _ => {
                    reader.skip()?;
                    continue;
                }
            };
            let start = reader.offset();
            if slot.is_none() && key == "snapshot" && !check_snapshot {
                reader.skip_unchecked()?;
            } else {
                reader.skip()?;
            }
            if slot.is_none() {
                *slot = line.get(start..reader.offset());
            }
        }
    }
    reader.finish()?;
    fields.id = id.flatten();
    fields.verb = verb.flatten();
    Ok(fields)
}

/// The string a validated span holds, escapes decoded; `None` for any
/// other value.
pub(crate) fn string(span: &str) -> Option<Cow<'_, str>> {
    Reader::new(span).read_string().ok().flatten()
}

/// The routed fields of one request line, as [`scan`] reads them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame<'a> {
    /// The correlation id, read by [`Value::as_u64`]'s rule: an integral
    /// number at most 2^53 once rounded to `f64`, so `12.0` and `12e0`
    /// read as 12.
    pub id: u64,
    /// The `type` string, escapes decoded, e.g. `rid`.
    pub verb: Cow<'a, str>,
    /// Span of the `snapshot` value, when present. The only span the
    /// walk does not validate.
    pub snapshot: Option<&'a str>,
    /// The `fingerprint` string, escapes decoded, when present.
    pub fingerprint: Option<Cow<'a, str>>,
    /// Span of the `config` value, when present.
    pub config: Option<&'a str>,
    /// Span of the `detector` value, when present.
    pub detector: Option<&'a str>,
    /// Span of the `seeds` value, when present.
    pub seeds: Option<&'a str>,
}

/// Reads `line` as the io thread does. Returns `None` when the line is
/// malformed JSON outside the snapshot, or its `id`, `type` or
/// `fingerprint` is not of the kind [`Frame`] holds.
pub fn scan(line: &str) -> Option<Frame<'_>> {
    let fields = walk(line, false).ok()?;
    let fingerprint = match fields.fingerprint {
        Some(span) => Some(string(span)?),
        None => None,
    };
    Some(Frame {
        id: fields.id?,
        verb: fields.verb?,
        snapshot: fields.snapshot,
        fingerprint,
        config: fields.config,
        detector: fields.detector,
        seeds: fields.seeds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{encode_request, parse_request, RequestBody};
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
        assert_eq!(frame.fingerprint.as_deref(), Some("16045690985374418957"));
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
    fn only_lines_refused_for_their_json_or_id_do_not_frame() {
        for line in [
            "this is not json",
            "",
            "{}",
            r#"{"type": "health"}"#,                             // no id
            r#"{"id": 1.5, "type": "health"}"#,                  // non-integer id
            r#"{"id": -1, "type": "health"}"#,                   // negative id
            r#"{"id": 1, "type": "health""#,                     // truncated
            r#"{"id": 1, "type": "health"} trailing"#,           // trailing junk
            r#"{"id": 18446744073709551615, "type": "health"}"#, // u64::MAX id
            r#"{"id": 1, "type": "health", "x": nul}"#,          // malformed literal
            r#"{"id": 1, "type": "health", "x": [1,]}"#,         // trailing comma
            r#"{"id": 1, "type": "health", "x": "\q"}"#,         // unknown escape
            r#"{"id": 1, "type": "rid", "config": {"a" 1}}"#,    // malformed config
            "{\"id\": 1\u{b}, \"type\": \"health\"}",            // not JSON whitespace
        ] {
            assert_eq!(scan(line), None, "line: {line}");
            assert_eq!(
                parse_request(line).map_err(|(id, _)| id),
                Err(None),
                "{line}"
            );
        }
        // A numeric fingerprint has no string for the frame to hold, and
        // the parser refuses it.
        let line = r#"{"id": 1, "type": "rid", "fingerprint": 42}"#;
        assert_eq!(scan(line), None);
        assert!(parse_request(line).is_err());

        // The rest read as the parser reads them: escapes decoded, the
        // first occurrence of a key kept, ids rounded as by its `f64`.
        let frame = scan(r#"{"id": 1, "type": "heal\th"}"#).expect("escaped verb");
        assert_eq!(frame.verb, "heal\th");
        let frame = scan(r#"{"id": 1, "id": 2, "type": "health"}"#).expect("duplicate key");
        assert_eq!(frame.id, 1);
        let line = r#"{"id": 1, "type": "rid", "snap\u0073hot": {}, "snapshot": {}}"#;
        let snapshot = scan(line).expect("escaped key").snapshot.expect("a span");
        let offset = snapshot.as_ptr() as usize - line.as_ptr() as usize;
        assert_eq!(offset, line.find("{}").unwrap(), "the escaped key's value");
        let line = r#"{"id": 9007199254740993, "type": "health"}"#;
        assert_eq!(scan(line).expect("id above 2^53").id, 1 << 53);
        for id in ["5.0", "5e0", "50e-1"] {
            let line = format!(r#"{{"id": {id}, "type": "health"}}"#);
            assert_eq!(scan(&line).map(|f| f.id), Some(5), "{line}");
        }
        let line = r#"{"id": 2, "type": "rid", "fingerprint": "\u0034\u0032"}"#;
        assert_eq!(scan(line).unwrap().fingerprint.as_deref(), Some("42"));
    }

    #[test]
    fn ids_up_to_two_to_the_53_are_exact() {
        let line = r#"{"id": 9007199254740992, "type": "health"}"#;
        assert_eq!(scan(line).map(|f| f.id), Some(1 << 53));
    }

    #[test]
    fn the_snapshot_span_is_left_to_the_worker() {
        // Malformed inside, but bracket-balanced: the walk passes it on,
        // and the worker's decoder refuses it.
        let line = r#"{"id": 2, "type": "rid", "snapshot": {"graph": [1,], "x": nul}}"#;
        let frame = scan(line).expect("scans");
        assert_eq!(frame.snapshot, Some(r#"{"graph": [1,], "x": nul}"#));
        assert!(walk(line, true).is_err());
        assert_eq!(
            scan(r#"{"id": 2, "type": "rid", "snapshot": {"a": [}"#),
            None
        );
        // A second snapshot is validated like any other value.
        assert_eq!(
            scan(r#"{"id": 2, "type": "rid", "snapshot": {}, "snapshot": [1,]}"#),
            None
        );
    }

    #[test]
    fn untracked_duplicate_keys_are_tolerated() {
        let line = r#"{"id": 1, "extra": 1, "extra": 2, "type": "stats"}"#;
        assert!(scan(line).is_some());
    }
}
