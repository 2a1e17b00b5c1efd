//! The streaming JSON decoders against the `Value`-tree decoders they
//! replaced, kept here as oracles: `InfectedNetwork::from_json_str` and
//! `SignedDigraph::from_json_str` must accept exactly the documents the
//! oracles accept, build the same networks, and reject the rest with
//! the same message.
//!
//! The oracles check a snapshot's node count before building its graph,
//! as the decoder does: a mutated document can name billions of nodes,
//! and neither side may allocate for them.

use isomit_diffusion::InfectedNetwork;
use isomit_graph::json::{GraphDoc, JsonError, Reader, Value};
use isomit_graph::{Edge, GraphError, NodeId, NodeState, Sign, SignedDigraph};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The graph half of the oracle: the schema of the old
/// `SignedDigraph::from_json_value`, then `from_edges`' checks in edge
/// order, returning the node count instead of building.
fn oracle_graph_parts(value: &Value) -> Result<(usize, Vec<Edge>), JsonError> {
    let nodes = value
        .require("nodes")?
        .as_usize()
        .ok_or_else(|| JsonError::new("`nodes` must be a non-negative integer"))?;
    let raw_edges = value
        .require("edges")?
        .as_array()
        .ok_or_else(|| JsonError::new("`edges` must be an array"))?;
    let mut edges = Vec::with_capacity(raw_edges.len());
    for e in raw_edges {
        let parts = e
            .as_array()
            .ok_or_else(|| JsonError::new("each edge must be [src, dst, sign, weight]"))?;
        let [src_v, dst_v, sign_v, weight_v] = parts else {
            return Err(JsonError::new("each edge must be [src, dst, sign, weight]"));
        };
        let src = src_v
            .as_usize()
            .ok_or_else(|| JsonError::new("edge src must be a node id"))?;
        let dst = dst_v
            .as_usize()
            .ok_or_else(|| JsonError::new("edge dst must be a node id"))?;
        let sign = if sign_v.as_f64() == Some(1.0) {
            Sign::Positive
        } else if sign_v.as_f64() == Some(-1.0) {
            Sign::Negative
        } else {
            return Err(JsonError::new("edge sign must be 1 or -1"));
        };
        let weight = weight_v
            .as_f64()
            .ok_or_else(|| JsonError::new("edge weight must be a number"))?;
        edges.push(Edge::new(
            NodeId::from_index(src),
            NodeId::from_index(dst),
            sign,
            weight,
        ));
    }
    let invalid = |e: GraphError| JsonError::new(format!("invalid graph: {e}"));
    let mut node_count = nodes;
    for e in &edges {
        if !e.weight.is_finite() || !(0.0..=1.0).contains(&e.weight) {
            return Err(invalid(GraphError::InvalidWeight {
                src: e.src,
                dst: e.dst,
                weight: e.weight,
            }));
        }
        if e.src == e.dst {
            return Err(invalid(GraphError::SelfLoop(e.src)));
        }
        node_count = node_count.max(e.src.index() + 1).max(e.dst.index() + 1);
    }
    Ok((node_count, edges))
}

/// The old `SignedDigraph::from_json_str`.
fn oracle_graph(input: &str) -> Result<SignedDigraph, JsonError> {
    let (node_count, edges) = oracle_graph_parts(&Value::parse(input)?)?;
    Ok(SignedDigraph::from_edges(node_count, edges).expect("edges were checked"))
}

/// The old `InfectedNetwork::from_json_str`, with the node count checked
/// before the graph is built.
fn oracle_snapshot(input: &str) -> Result<InfectedNetwork, JsonError> {
    let doc = Value::parse(input)?;
    let (node_count, edges) = oracle_graph_parts(doc.require("graph")?)?;
    let states = doc
        .require("states")?
        .as_array()
        .ok_or_else(|| JsonError::new("`states` must be an array"))?
        .iter()
        .map(|v| {
            v.as_str()
                .ok_or_else(|| JsonError::new("each state must be a string"))
                .and_then(NodeState::from_symbol)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let original_ids = doc
        .require("mapping")?
        .as_array()
        .ok_or_else(|| JsonError::new("`mapping` must be an array"))?
        .iter()
        .map(|v| {
            v.as_usize()
                .map(NodeId::from_index)
                .ok_or_else(|| JsonError::new("each mapping entry must be a node id"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    if states.len() != node_count || original_ids.len() != node_count {
        return Err(JsonError::new(
            "graph, states and mapping disagree on node count",
        ));
    }
    if states.contains(&NodeState::Inactive) {
        return Err(JsonError::new(
            "inactive nodes cannot appear in an infected network",
        ));
    }
    let graph = SignedDigraph::from_edges(node_count, edges).expect("edges were checked");
    InfectedNetwork::from_subgraph_parts(graph, states, original_ids)
        .map_err(|e| JsonError::new(e.to_string()))
}

fn assert_snapshot_decoders_agree(input: &str) -> bool {
    let expected = oracle_snapshot(input);
    let decoded = InfectedNetwork::from_json_str(input);
    match (&expected, &decoded) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a, b, "{input}");
            assert_eq!(a.to_json_string(), b.to_json_string(), "{input}");
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "{input}"),
        _ => panic!("decoders disagree on {input}: oracle {expected:?}, decoder {decoded:?}"),
    }
    decoded.is_ok()
}

/// Graphs above this many nodes are compared by their node count only:
/// a graph document is trusted input, and both decoders size their
/// arrays by it.
const GRAPH_BUILD_LIMIT: usize = 1 << 16;

fn assert_graph_decoders_agree(input: &str) -> bool {
    let expected = Value::parse(input).and_then(|doc| oracle_graph_parts(&doc));
    let mut reader = Reader::new(input);
    let read = GraphDoc::read(&mut reader).and_then(|doc| {
        reader.finish()?;
        doc
    });
    match (&expected, &read) {
        (Ok((nodes, _)), Ok(doc)) => {
            assert_eq!(*nodes, doc.node_count(), "{input}");
            if *nodes <= GRAPH_BUILD_LIMIT {
                let graph = SignedDigraph::from_json_str(input).expect("the read succeeded");
                assert_eq!(graph, oracle_graph(input).expect("the parts succeeded"));
                assert_eq!(graph, doc.clone().build(), "{input}");
            }
        }
        (Err(a), Err(b)) => {
            assert_eq!(a, b, "{input}");
            assert_eq!(&SignedDigraph::from_json_str(input).unwrap_err(), b);
        }
        _ => panic!("decoders disagree on {input}: oracle {expected:?}, decoder {read:?}"),
    }
    read.is_ok()
}

fn sign(positive: bool) -> Sign {
    if positive {
        Sign::Positive
    } else {
        Sign::Negative
    }
}

/// Builds a snapshot: edges `(src, dst, positive, weight)` (self-loops
/// dropped), observed states by `code % 3` and original ids `ids`.
fn build(ids: Vec<NodeId>, edges: Vec<(u32, u32, bool, f64)>, codes: &[u8]) -> InfectedNetwork {
    let edges = edges
        .into_iter()
        .filter(|(a, b, _, _)| a != b)
        .map(|(a, b, positive, w)| Edge::new(NodeId(a), NodeId(b), sign(positive), w));
    let graph = SignedDigraph::from_edges(ids.len(), edges).unwrap();
    let states = codes
        .iter()
        .map(|code| match code % 3 {
            0 => NodeState::Positive,
            1 => NodeState::Negative,
            _ => NodeState::Unknown,
        })
        .collect();
    InfectedNetwork::from_subgraph_parts(graph, states, ids).unwrap()
}

fn snapshot(nodes: u32, seed: u64) -> InfectedNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let edges = (0..nodes * 2)
        .map(|_| {
            let (a, b) = (rng.gen_range(0..nodes), rng.gen_range(0..nodes));
            (a, b, rng.gen_bool(0.5), rng.gen_range(0.0..1.0))
        })
        .collect();
    let ids = (0..nodes).map(|i| NodeId(i * 7 + 3)).collect();
    let codes: Vec<u8> = (0..nodes as u8).collect();
    build(ids, edges, &codes)
}

/// Documents the mutation loop starts from: canonical encodings, and
/// one with whitespace, reordered, unknown and duplicated keys.
fn base_documents() -> Vec<String> {
    let mut docs: Vec<String> = [(1, 1), (4, 2), (9, 3)]
        .into_iter()
        .map(|(nodes, seed)| snapshot(nodes, seed).to_json_string())
        .collect();
    docs.push(
        r#" { "mapping" : [ 12, 5 , 0 ], "x": {"y": [1, "z\n", null]},
            "states": ["+", "?", "-"], "graph": { "edges": [[0, 1, 1, 0.5],
            [2, 0, -1, 1e-3]], "nodes": 3, "nodes": 9 }, "graph": 5, "states": 0 } "#
            .to_owned(),
    );
    docs
}

/// Bytes the mutations draw from: JSON structure, number and literal
/// characters, state symbols, an escape and a multi-byte character.
const ALPHABET: &[char] = &[
    '{', '}', '[', ']', ',', ':', '"', ' ', '\\', '0', '1', '2', '9', '-', '+', '.', 'e', 'E', 't',
    'r', 'u', 'f', 'a', 'l', 's', 'n', '?', 'é',
];

/// `input` after one to three random one-character edits: replace,
/// insert or delete.
fn mutate(input: &str, rng: &mut StdRng) -> String {
    let mut chars: Vec<char> = input.chars().collect();
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

/// A fixed case count, independent of `PROPTEST_CASES`: most mutations
/// only break the syntax, so the interesting ones are rare.
const MUTATIONS: usize = 20_000;

#[test]
fn snapshot_decoder_matches_the_oracle_on_byte_mutations() {
    let mut rng = StdRng::seed_from_u64(16);
    let bases = base_documents();
    for base in &bases {
        assert!(assert_snapshot_decoders_agree(base), "{base}");
    }
    let mut accepted = 0;
    for case in 0..MUTATIONS {
        let input = mutate(&bases[case % bases.len()], &mut rng);
        accepted += usize::from(assert_snapshot_decoders_agree(&input));
    }
    // Both outcomes must be exercised, or the loop proves little.
    assert!(
        accepted > MUTATIONS / 50 && accepted < MUTATIONS / 2,
        "{accepted} of {MUTATIONS} mutations accepted"
    );
}

#[test]
fn graph_decoder_matches_the_oracle_on_byte_mutations() {
    let mut rng = StdRng::seed_from_u64(61);
    let bases: Vec<String> = [(3, 4), (8, 5)]
        .into_iter()
        .map(|(nodes, seed)| snapshot(nodes, seed).graph().to_json_string())
        .chain([r#"{"edges": [[0, 2, -1, 0.25]], "x": [true], "nodes": 2, "edges": 1}"#.into()])
        .collect();
    let mut accepted = 0;
    for case in 0..MUTATIONS {
        let input = mutate(&bases[case % bases.len()], &mut rng);
        accepted += usize::from(assert_graph_decoders_agree(&input));
    }
    assert!(
        accepted > MUTATIONS / 50 && accepted < MUTATIONS / 2,
        "{accepted} of {MUTATIONS} mutations accepted"
    );
}

fn arb_snapshot() -> impl Strategy<Value = InfectedNetwork> {
    proptest::collection::btree_map(0u32..100_000, 0u8..3, 1..24).prop_flat_map(|nodes| {
        let n = nodes.len() as u32;
        let edge = (0..n, 0..n, any::<bool>(), 0.0f64..=1.0);
        (proptest::collection::vec(edge, 0..60), any::<usize>()).prop_map(
            move |(edges, rotation)| {
                // Original ids in a rotated order, so the mapping is not
                // monotone.
                let mut ids: Vec<NodeId> = nodes.keys().map(|&id| NodeId(id)).collect();
                ids.rotate_left(rotation % nodes.len());
                let codes: Vec<u8> = nodes.values().copied().collect();
                build(ids, edges, &codes)
            },
        )
    })
}

proptest! {
    #[test]
    fn random_snapshots_decode_identically(snapshot in arb_snapshot()) {
        let text = snapshot.to_json_string();
        prop_assert!(assert_snapshot_decoders_agree(&text));
        prop_assert_eq!(&InfectedNetwork::from_json_str(&text).unwrap(), &snapshot);
        prop_assert!(assert_graph_decoders_agree(&snapshot.graph().to_json_string()));
    }
}
