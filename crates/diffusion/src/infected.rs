//! The infected network `G_I` handed to detection, and its JSON codec.
//!
//! [`InfectedNetwork::from_json_str`] is the one snapshot decoder: it
//! reads with the pull [`Reader`] straight into an edge list, states
//! and mapping, checks that they agree on the node count, and only then
//! builds the CSR graph, so a few hostile bytes cannot make it allocate
//! for billions of nodes. It builds no [`Value`] tree.

use crate::model::gen_unit;
use crate::Cascade;
use isomit_graph::json::{GraphDoc, JsonError, Reader, Value};
use isomit_graph::{
    GraphError, NodeId, NodeMapping, NodeState, SignedDigraph, SignedDigraphBuilder,
};
use rand::RngCore;

/// The snapshot handed to the detection side of the paper: the infected
/// diffusion network `G_I` (Definition 3) together with the observed node
/// states.
///
/// Nodes are renumbered densely (`0..node_count` in the subgraph);
/// [`mapping`](InfectedNetwork::mapping) translates back to the original
/// network. States are indexed by subgraph id and are
/// [`NodeState::Positive`], [`NodeState::Negative`] or — after
/// [`with_masked_states`](InfectedNetwork::with_masked_states) —
/// [`NodeState::Unknown`]. `Inactive` never appears: inactive nodes are
/// by definition outside `G_I`.
#[derive(Debug, Clone, PartialEq)]
pub struct InfectedNetwork {
    graph: SignedDigraph,
    states: Vec<NodeState>,
    mapping: NodeMapping,
}

impl InfectedNetwork {
    /// Extracts the infected network from a finished simulation: the
    /// subgraph of `diffusion` induced by the opinion-holding nodes, with
    /// their final states.
    ///
    /// # Panics
    ///
    /// Panics if `cascade` was produced on a different graph (node-count
    /// mismatch).
    pub fn from_cascade(diffusion: &SignedDigraph, cascade: &Cascade) -> Self {
        assert_eq!(
            diffusion.node_count(),
            cascade.states().len(),
            "cascade and diffusion network node counts differ"
        );
        Self::from_states(diffusion, cascade.states())
    }

    /// Extracts the infected network from full-graph final states — the
    /// state-only form of [`from_cascade`](InfectedNetwork::from_cascade),
    /// for producers (like the wide Monte-Carlo engine's batch lanes)
    /// that track states without an event log.
    ///
    /// # Panics
    ///
    /// Panics if `states.len() != diffusion.node_count()`.
    pub fn from_states(diffusion: &SignedDigraph, states: &[NodeState]) -> Self {
        assert_eq!(
            diffusion.node_count(),
            states.len(),
            "one state per diffusion-network node required"
        );
        let infected: Vec<NodeId> = diffusion
            .nodes()
            .filter(|v| states[v.index()].is_active())
            .collect();
        let (graph, mapping) = diffusion.induced_subgraph(infected);
        let states = mapping
            .original_ids()
            .iter()
            .map(|&orig| states[orig.index()])
            .collect();
        let snapshot = InfectedNetwork {
            graph,
            states,
            mapping,
        };
        debug_assert!(
            snapshot.validate().is_ok(),
            "from_states produced a corrupt snapshot: {:?}",
            snapshot.validate()
        );
        snapshot
    }

    /// Builds an infected network directly from a subgraph and observed
    /// states, with an identity node mapping — convenient for hand-built
    /// detection inputs and tests.
    ///
    /// # Panics
    ///
    /// Panics if `states.len() != graph.node_count()` or any state is
    /// [`NodeState::Inactive`] (inactive nodes cannot be in `G_I`).
    pub fn from_parts(graph: SignedDigraph, states: Vec<NodeState>) -> Self {
        assert_eq!(
            states.len(),
            graph.node_count(),
            "one state per node required"
        );
        assert!(
            states.iter().all(|s| *s != NodeState::Inactive),
            "inactive nodes cannot appear in an infected network"
        );
        let ids: Vec<NodeId> = graph.nodes().collect();
        let mapping = crate::infected::identity_mapping(&ids);
        let snapshot = InfectedNetwork {
            graph,
            states,
            mapping,
        };
        debug_assert!(
            snapshot.validate().is_ok(),
            "from_parts produced a corrupt snapshot: {:?}",
            snapshot.validate()
        );
        snapshot
    }

    /// Builds an infected network from a subgraph, observed states, and an
    /// explicit original-id mapping (`original_ids[sub]` is the original
    /// network id of subgraph node `sub`) — the constructor for producers
    /// that materialize `G_I` themselves, like the incremental RID session
    /// turning its accumulated deltas into a snapshot.
    ///
    /// The snapshot is always validated (see
    /// [`validate`](InfectedNetwork::validate)): callers assembling
    /// subgraphs by hand are exactly the ones that benefit from the
    /// invariant check.
    ///
    /// ```
    /// use isomit_diffusion::InfectedNetwork;
    /// use isomit_graph::{Edge, NodeId, NodeState, Sign, SignedDigraph};
    ///
    /// # fn main() -> Result<(), isomit_graph::GraphError> {
    /// let g =
    ///     SignedDigraph::from_edges(2, [Edge::new(NodeId(0), NodeId(1), Sign::Positive, 0.5)])?;
    /// let snapshot = InfectedNetwork::from_subgraph_parts(
    ///     g,
    ///     vec![NodeState::Positive, NodeState::Negative],
    ///     vec![NodeId(7), NodeId(42)],
    /// )?;
    /// assert_eq!(snapshot.mapping().to_original(NodeId(1)), Some(NodeId(42)));
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Invariant`] (or the underlying mapping error)
    /// if lengths disagree, a state is [`NodeState::Inactive`], or
    /// `original_ids` contains duplicates.
    pub fn from_subgraph_parts(
        graph: SignedDigraph,
        states: Vec<NodeState>,
        original_ids: Vec<NodeId>,
    ) -> Result<Self, GraphError> {
        let mapping = NodeMapping::from_original_ids(original_ids)?;
        let snapshot = InfectedNetwork {
            graph,
            states,
            mapping,
        };
        snapshot.validate()?;
        Ok(snapshot)
    }

    /// The infected diffusion subgraph (dense subgraph ids).
    pub fn graph(&self) -> &SignedDigraph {
        &self.graph
    }

    /// Observed state of every subgraph node.
    pub fn states(&self) -> &[NodeState] {
        &self.states
    }

    /// Observed state of one subgraph node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn state(&self, node: NodeId) -> NodeState {
        self.states[node.index()]
    }

    /// Mapping between subgraph ids and original network ids.
    pub fn mapping(&self) -> &NodeMapping {
        &self.mapping
    }

    /// Number of infected nodes.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Number of nodes whose state is observed (not `Unknown`).
    pub fn observed_count(&self) -> usize {
        self.states.iter().filter(|s| !s.is_unknown()).count()
    }

    /// Encodes the snapshot as a JSON [`Value`]:
    /// `{"graph": <SignedDigraph>, "states": ["+", "-", ...],
    /// "mapping": [orig_id, ...]}` — see `isomit_graph::json` for the
    /// graph schema. Weights survive the round trip bit-exactly.
    pub fn to_json_value(&self) -> Value {
        let states = self
            .states
            .iter()
            .map(|s| Value::String(s.as_symbol().to_owned()))
            .collect();
        let mapping = self
            .mapping
            .original_ids()
            .iter()
            .map(|id| Value::Number(id.0 as f64))
            .collect();
        Value::Object(vec![
            ("graph".into(), self.graph.to_json_value()),
            ("states".into(), Value::Array(states)),
            ("mapping".into(), Value::Array(mapping)),
        ])
    }

    /// Encodes the snapshot as compact JSON text (see
    /// [`to_json_value`](InfectedNetwork::to_json_value) for the schema).
    pub fn to_json_string(&self) -> String {
        self.to_json_value().to_json()
    }

    /// Decodes a snapshot produced by
    /// [`to_json_string`](InfectedNetwork::to_json_string) in one pass,
    /// straight into an edge list, states and mapping, then the CSR
    /// arrays. No [`Value`] tree is built.
    ///
    /// A duplicated key keeps its first value, as [`Value::get`] does;
    /// other keys are validated and ignored. The node count must match
    /// the number of states before anything is allocated for the nodes,
    /// so every allocation is bounded by the input. The snapshot is
    /// always [`validate`](InfectedNetwork::validate)d: it is external
    /// input.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on malformed JSON or trailing input, then
    /// on the first schema violation in the order `graph`, `states`,
    /// `mapping`, then on inconsistent lengths between graph, states and
    /// mapping, or a failed invariant.
    pub fn from_json_str(input: &str) -> Result<Self, JsonError> {
        let mut reader = Reader::new(input);
        let (mut graph, mut states, mut mapping) = (None, None, None);
        if let Some(mut fields) = reader.read_object()? {
            while let Some(key) = fields.next_key(&mut reader)? {
                match &*key {
                    "graph" if graph.is_none() => graph = Some(GraphDoc::read(&mut reader)?),
                    "states" if states.is_none() => {
                        states = Some(reader.read_vec("states", |r| {
                            Ok(r.read_string()?
                                .ok_or_else(|| JsonError::new("each state must be a string"))
                                .and_then(|symbol| NodeState::from_symbol(&symbol)))
                        })?);
                    }
                    "mapping" if mapping.is_none() => {
                        mapping = Some(reader.read_vec("mapping", |r| {
                            Ok(r.read_index()?.map(NodeId::from_index).ok_or_else(|| {
                                JsonError::new("each mapping entry must be a node id")
                            }))
                        })?);
                    }
                    _ => reader.skip()?,
                }
            }
        }
        reader.finish()?;
        let graph = graph.ok_or_else(|| JsonError::missing("graph"))??;
        let states = states.ok_or_else(|| JsonError::missing("states"))??;
        let original_ids = mapping.ok_or_else(|| JsonError::missing("mapping"))??;
        if graph.node_count() != states.len() || original_ids.len() != states.len() {
            return Err(JsonError::new(
                "graph, states and mapping disagree on node count",
            ));
        }
        if states.contains(&NodeState::Inactive) {
            return Err(JsonError::new(
                "inactive nodes cannot appear in an infected network",
            ));
        }
        let mapping = NodeMapping::from_original_ids(original_ids)
            .map_err(|e| JsonError::new(e.to_string()))?;
        let snapshot = InfectedNetwork {
            graph: graph.build(),
            states,
            mapping,
        };
        snapshot
            .validate()
            .map_err(|e| JsonError::new(e.to_string()))?;
        Ok(snapshot)
    }

    /// Checks every structural invariant of the snapshot.
    ///
    /// Verified invariants:
    ///
    /// * the underlying subgraph passes [`SignedDigraph::validate`];
    /// * there is exactly one state per subgraph node and none of them is
    ///   [`NodeState::Inactive`] (inactive nodes are by definition outside
    ///   `G_I`);
    /// * the node mapping covers exactly the subgraph ids and original
    ///   ids are unique (the mapping is a bijection onto its image).
    ///
    /// The checked constructors uphold these and re-assert them in debug
    /// builds; call this at ingest time on snapshots arriving through
    /// other channels, not per-query.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Invariant`] naming the first violated
    /// invariant.
    pub fn validate(&self) -> Result<(), GraphError> {
        self.graph.validate()?;
        let n = self.graph.node_count();
        if self.states.len() != n {
            return Err(GraphError::Invariant(format!(
                "snapshot has {} states for {n} nodes",
                self.states.len()
            )));
        }
        if let Some(i) = self.states.iter().position(|s| *s == NodeState::Inactive) {
            return Err(GraphError::Invariant(format!(
                "node n{i} is inactive; inactive nodes cannot appear in an infected network"
            )));
        }
        let originals = self.mapping.original_ids();
        if originals.len() != n {
            return Err(GraphError::Invariant(format!(
                "mapping covers {} nodes, subgraph has {n}",
                originals.len()
            )));
        }
        // The round trip alone proves the bijection: two subgraph nodes
        // sharing an original id map back to at most one of them.
        for (sub, &orig) in originals.iter().enumerate() {
            let round_trip = self.mapping.to_subgraph(orig);
            if round_trip != Some(NodeId::from_index(sub)) {
                return Err(GraphError::Invariant(format!(
                    "mapping round trip failed: n{sub} -> {orig} -> {round_trip:?}"
                )));
            }
        }
        Ok(())
    }

    /// Returns a copy with each node's state independently replaced by
    /// [`NodeState::Unknown`] with probability `fraction` — the paper's
    /// setting where "the states of many nodes in large-scale networks
    /// are often unknown".
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    pub fn with_masked_states(&self, fraction: f64, rng: &mut dyn RngCore) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction {fraction} must lie in [0, 1]"
        );
        let states = self
            .states
            .iter()
            .map(|&s| {
                if gen_unit(rng) < fraction {
                    NodeState::Unknown
                } else {
                    s
                }
            })
            .collect();
        InfectedNetwork {
            graph: self.graph.clone(),
            states,
            mapping: self.mapping.clone(),
        }
    }
}

/// Builds an identity [`NodeMapping`] over the given ids by round-tripping
/// through `induced_subgraph` on a trivial graph — kept private to avoid
/// widening `isomit-graph`'s API surface.
fn identity_mapping(ids: &[NodeId]) -> NodeMapping {
    let g = SignedDigraphBuilder::with_nodes(ids.len()).build();
    let (_, mapping) = g.induced_subgraph(ids.iter().copied());
    mapping
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiffusionModel, Mfc, SeedSet};
    use isomit_graph::{Edge, Sign};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (SignedDigraph, Cascade) {
        // 0 -> 1 -> 2 deterministic; node 3 unreachable.
        let g = SignedDigraph::from_edges(
            4,
            [
                Edge::new(NodeId(0), NodeId(1), Sign::Positive, 1.0),
                Edge::new(NodeId(1), NodeId(2), Sign::Negative, 1.0),
                Edge::new(NodeId(3), NodeId(0), Sign::Positive, 0.0),
            ],
        )
        .unwrap();
        let seeds = SeedSet::single(NodeId(0), Sign::Positive);
        let c = Mfc::new(2.0)
            .unwrap()
            .simulate(&g, &seeds, &mut StdRng::seed_from_u64(0))
            .unwrap();
        (g, c)
    }

    #[test]
    fn from_cascade_keeps_only_infected() {
        let (g, c) = setup();
        let inf = InfectedNetwork::from_cascade(&g, &c);
        assert_eq!(inf.node_count(), 3);
        // Node 3 (inactive) must be excluded.
        assert!(inf.mapping().to_subgraph(NodeId(3)).is_none());
        // States carried over in subgraph order 0, 1, 2.
        assert_eq!(
            inf.states(),
            &[
                NodeState::Positive,
                NodeState::Positive,
                NodeState::Negative
            ]
        );
        // Edges among infected survive; edge from node 3 does not.
        assert_eq!(inf.graph().edge_count(), 2);
    }

    #[test]
    fn from_parts_identity_mapping() {
        let g =
            SignedDigraph::from_edges(2, [Edge::new(NodeId(0), NodeId(1), Sign::Positive, 0.5)])
                .unwrap();
        let inf = InfectedNetwork::from_parts(g, vec![NodeState::Positive, NodeState::Negative]);
        assert_eq!(inf.mapping().to_original(NodeId(1)), Some(NodeId(1)));
        assert_eq!(inf.state(NodeId(1)), NodeState::Negative);
        assert_eq!(inf.observed_count(), 2);
    }

    #[test]
    #[should_panic(expected = "one state per node")]
    fn from_parts_length_mismatch_panics() {
        let g = SignedDigraph::from_edges(2, []).unwrap();
        InfectedNetwork::from_parts(g, vec![NodeState::Positive]);
    }

    #[test]
    #[should_panic(expected = "inactive nodes cannot appear")]
    fn from_parts_rejects_inactive() {
        let g = SignedDigraph::from_edges(1, []).unwrap();
        InfectedNetwork::from_parts(g, vec![NodeState::Inactive]);
    }

    #[test]
    fn validate_accepts_constructed_snapshots() {
        let (g, c) = setup();
        InfectedNetwork::from_cascade(&g, &c).validate().unwrap();
    }

    #[test]
    fn validate_catches_duplicate_mapping_entries() {
        let (g, c) = setup();
        let inf = InfectedNetwork::from_cascade(&g, &c);
        let json = inf.to_json_string();
        // Corrupt the mapping to contain a duplicate original id.
        let corrupt = json.replace("\"mapping\":[0,1,2]", "\"mapping\":[0,1,1]");
        assert_ne!(json, corrupt, "fixture mapping changed; update the test");
        let err = InfectedNetwork::from_json_str(&corrupt).unwrap_err();
        assert!(err.to_string().contains("duplicate original ids"), "{err}");
    }

    #[test]
    fn node_counts_that_disagree_are_refused_before_the_graph_is_built() {
        // Each names up to 2^32 - 1 nodes in a few bytes; sizing the CSR
        // arrays first would ask for tens of gigabytes.
        for input in [
            r#"{"graph":{"nodes":4294967295,"edges":[]},"states":[],"mapping":[]}"#,
            r#"{"graph":{"nodes":1,"edges":[[0,4294967294,1,0.5]]},"states":["+"],"mapping":[0]}"#,
            r#"{"graph":{"nodes":100000000,"edges":[]},"states":["+"],"mapping":[0]}"#,
            r#"{"graph":{"nodes":1,"edges":[]},"states":["+"],"mapping":[0,1]}"#,
        ] {
            let err = InfectedNetwork::from_json_str(input).unwrap_err();
            assert!(
                err.to_string().contains("disagree on node count"),
                "{input}: {err}"
            );
        }
    }

    #[test]
    fn json_decoding_keeps_first_duplicates_and_ignores_unknown_keys() {
        let input = r#"{"x": [1, {"y": null}], "graph": {"edges": [[1, 0, -1, 0.5]],
            "nodes": 2, "nodes": 7}, "states": ["+", "?"], "graph": 3,
            "mapping": [9, 4], "states": "ignored"}"#;
        let snapshot = InfectedNetwork::from_json_str(input).unwrap();
        assert_eq!(snapshot.node_count(), 2);
        assert_eq!(
            snapshot.states(),
            &[NodeState::Positive, NodeState::Unknown]
        );
        assert_eq!(snapshot.mapping().to_original(NodeId(1)), Some(NodeId(4)));
        // Malformed JSON in an ignored key is still an error.
        let bad = input.replace("null", "nul");
        assert!(InfectedNetwork::from_json_str(&bad).is_err());
    }

    #[test]
    fn masking_hides_roughly_the_requested_fraction() {
        let (g, c) = setup();
        let inf = InfectedNetwork::from_cascade(&g, &c);
        let mut rng = StdRng::seed_from_u64(1);
        let all_hidden = inf.with_masked_states(1.0, &mut rng);
        assert_eq!(all_hidden.observed_count(), 0);
        let none_hidden = inf.with_masked_states(0.0, &mut rng);
        assert_eq!(none_hidden.observed_count(), inf.node_count());
        // Graph structure untouched.
        assert_eq!(all_hidden.graph(), inf.graph());
    }

    #[test]
    fn mask_fraction_statistics() {
        let g = SignedDigraph::from_edges(1000, []).unwrap();
        let inf = InfectedNetwork::from_parts(g, vec![NodeState::Positive; 1000]);
        let mut rng = StdRng::seed_from_u64(5);
        let masked = inf.with_masked_states(0.3, &mut rng);
        let hidden = 1000 - masked.observed_count();
        assert!(
            (250..=350).contains(&hidden),
            "hidden {hidden} far from 300"
        );
    }
}
