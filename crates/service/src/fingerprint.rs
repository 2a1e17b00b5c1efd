//! Snapshot fingerprinting: the one key of a `rid` request.
//!
//! Keys must be (a) cheap relative to forest extraction, (b) a pure
//! function of snapshot *content* so equal snapshots collide on
//! purpose, and (c) stable across processes so measured hit rates mean
//! something. The canonical JSON encoding of [`InfectedNetwork`]
//! already round-trips every field bit-exactly, so hashing those bytes
//! with FNV-1a gives all three without a new serialization path.
//!
//! The server computes each `rid` request's key once, on the io
//! thread: [`fingerprint_bytes`] over the raw snapshot span (a
//! canonical client's span *is* the canonical encoding). That key
//! routes the request and keys the shard's artifact and result caches.
//! [`snapshot_fingerprint`] is the same key for callers that hold a
//! decoded snapshot and no request bytes: library callers of the
//! engine (`RidEngine::rid`, and `RidEngine::adopt_artifacts`, which
//! hashes the snapshot it adopts) and clients that ask by fingerprint.
//! The daemon never calls it: it adopts no artifacts (DESIGN.md §10).

use isomit_diffusion::InfectedNetwork;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a hash of `bytes`.
pub fn fingerprint_bytes(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Content fingerprint of a snapshot: FNV-1a over its canonical JSON
/// encoding. Equal snapshots (graph, states, mapping, weights bit-exact)
/// always produce equal fingerprints.
pub fn snapshot_fingerprint(snapshot: &InfectedNetwork) -> u64 {
    fingerprint_bytes(snapshot.to_json_string().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use isomit_graph::{Edge, NodeId, NodeState, Sign, SignedDigraph};

    fn snapshot(weight: f64) -> InfectedNetwork {
        let g =
            SignedDigraph::from_edges(2, [Edge::new(NodeId(0), NodeId(1), Sign::Positive, weight)])
                .unwrap();
        InfectedNetwork::from_parts(g, vec![NodeState::Positive, NodeState::Positive])
    }

    #[test]
    fn equal_snapshots_equal_fingerprints() {
        assert_eq!(
            snapshot_fingerprint(&snapshot(0.5)),
            snapshot_fingerprint(&snapshot(0.5))
        );
    }

    #[test]
    fn weight_bits_change_the_fingerprint() {
        assert_ne!(
            snapshot_fingerprint(&snapshot(0.5)),
            snapshot_fingerprint(&snapshot(0.5 + f64::EPSILON))
        );
    }

    #[test]
    fn fnv_vector() {
        // Known FNV-1a test vector.
        assert_eq!(fingerprint_bytes(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fingerprint_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
