use crate::{Edge, GraphError, NodeId, SignedDigraph};
use std::collections::BTreeSet;

/// Bidirectional mapping between node ids of an original graph and the
/// dense ids of a subgraph extracted from it.
///
/// Produced by [`SignedDigraph::induced_subgraph`]; used to translate
/// detection results computed on the subgraph back to the original
/// network. The inverse direction is a sorted table probed by binary
/// search, so lookups are `O(log n)` and iteration order is
/// deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeMapping {
    /// `sub_to_orig[i]` is the original id of subgraph node `i`.
    sub_to_orig: Vec<NodeId>,
    /// Inverse map: `(original, subgraph)` pairs sorted by original id.
    orig_to_sub: Vec<(NodeId, NodeId)>,
}

impl NodeMapping {
    /// Builds a mapping directly from the subgraph→original id table —
    /// the inverse map is derived. Used when reconstructing a snapshot
    /// from its serialized form.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Invariant`] if `sub_to_orig` contains
    /// duplicate original ids (the mapping must be injective).
    pub fn from_original_ids(sub_to_orig: Vec<NodeId>) -> Result<Self, GraphError> {
        let mapping = NodeMapping::new(sub_to_orig);
        if mapping.orig_to_sub.len() != mapping.sub_to_orig.len() {
            return Err(GraphError::Invariant(
                "duplicate original ids in node mapping".to_owned(),
            ));
        }
        Ok(mapping)
    }

    pub(crate) fn new(sub_to_orig: Vec<NodeId>) -> Self {
        let mut orig_to_sub: Vec<(NodeId, NodeId)> = sub_to_orig
            .iter()
            .enumerate()
            .map(|(i, &orig)| (orig, NodeId::from_index(i)))
            .collect();
        orig_to_sub.sort_unstable_by_key(|&(orig, _)| orig);
        orig_to_sub.dedup_by_key(|&mut (orig, _)| orig);
        NodeMapping {
            sub_to_orig,
            orig_to_sub,
        }
    }

    /// Number of nodes in the subgraph.
    pub fn len(&self) -> usize {
        self.sub_to_orig.len()
    }

    /// `true` if the subgraph is empty.
    pub fn is_empty(&self) -> bool {
        self.sub_to_orig.is_empty()
    }

    /// Maps a subgraph node id back to the original graph.
    ///
    /// Returns `None` if `sub` is out of bounds for the subgraph.
    pub fn to_original(&self, sub: NodeId) -> Option<NodeId> {
        self.sub_to_orig.get(sub.index()).copied()
    }

    /// Maps an original node id to its subgraph id, if the node was kept.
    pub fn to_subgraph(&self, orig: NodeId) -> Option<NodeId> {
        self.orig_to_sub
            .binary_search_by_key(&orig, |&(o, _)| o)
            .ok()
            .and_then(|i| self.orig_to_sub.get(i))
            .map(|&(_, sub)| sub)
    }

    /// The original ids of all subgraph nodes, indexed by subgraph id.
    pub fn original_ids(&self) -> &[NodeId] {
        &self.sub_to_orig
    }
}

impl SignedDigraph {
    /// Extracts the subgraph induced by `nodes`: the kept nodes are
    /// renumbered densely (in the order given, duplicates ignored) and
    /// every edge whose endpoints are both kept is preserved with its sign
    /// and weight.
    ///
    /// Out-of-bounds ids are ignored rather than rejected, so callers can
    /// pass a candidate set computed against a larger network.
    ///
    /// ```
    /// use isomit_graph::{Edge, NodeId, Sign, SignedDigraph};
    /// # fn main() -> Result<(), isomit_graph::GraphError> {
    /// let g = SignedDigraph::from_edges(
    ///     3,
    ///     [
    ///         Edge::new(NodeId(0), NodeId(1), Sign::Positive, 0.5),
    ///         Edge::new(NodeId(1), NodeId(2), Sign::Negative, 0.5),
    ///     ],
    /// )?;
    /// let (sub, map) = g.induced_subgraph([NodeId(1), NodeId(2)]);
    /// assert_eq!(sub.node_count(), 2);
    /// assert_eq!(sub.edge_count(), 1); // only (1, 2) survives
    /// assert_eq!(map.to_original(NodeId(0)), Some(NodeId(1)));
    /// # Ok(())
    /// # }
    /// ```
    pub fn induced_subgraph<I>(&self, nodes: I) -> (SignedDigraph, NodeMapping)
    where
        I: IntoIterator<Item = NodeId>,
    {
        let mut kept: Vec<NodeId> = Vec::new();
        let mut seen: BTreeSet<NodeId> = BTreeSet::new();
        for n in nodes {
            if self.contains(n) && seen.insert(n) {
                kept.push(n);
            }
        }
        let mapping = NodeMapping::new(kept);
        // Edge attributes come from an already-validated graph and the
        // mapping is injective, so the kept edges are valid by
        // construction; build through the internal constructor instead of
        // re-threading an impossible error.
        let mut edges: Vec<Edge> = Vec::new();
        for (sub_idx, &orig) in mapping.original_ids().iter().enumerate() {
            let sub_src = NodeId::from_index(sub_idx);
            for e in self.out_edges(orig) {
                if let Some(sub_dst) = mapping.to_subgraph(e.dst) {
                    edges.push(Edge::new(sub_src, sub_dst, e.sign, e.weight));
                }
            }
        }
        let sub = SignedDigraph::from_validated_edges(mapping.len(), edges);
        (sub, mapping)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Edge, Sign};

    fn chain() -> SignedDigraph {
        SignedDigraph::from_edges(
            5,
            (0..4).map(|i| {
                Edge::new(
                    NodeId(i),
                    NodeId(i + 1),
                    if i % 2 == 0 {
                        Sign::Positive
                    } else {
                        Sign::Negative
                    },
                    0.1 * (i + 1) as f64,
                )
            }),
        )
        .unwrap()
    }

    #[test]
    fn keeps_internal_edges_only() {
        let g = chain();
        let (sub, map) = g.induced_subgraph([NodeId(1), NodeId(2), NodeId(4)]);
        assert_eq!(sub.node_count(), 3);
        // Only edge (1, 2) has both endpoints kept.
        assert_eq!(sub.edge_count(), 1);
        let e = sub.edge(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(e.sign, Sign::Negative);
        assert!((e.weight - 0.2).abs() < 1e-12);
        assert_eq!(map.to_original(NodeId(2)), Some(NodeId(4)));
        assert_eq!(map.to_subgraph(NodeId(4)), Some(NodeId(2)));
        assert_eq!(map.to_subgraph(NodeId(0)), None);
    }

    #[test]
    fn duplicates_and_out_of_bounds_ignored() {
        let g = chain();
        let (sub, map) = g.induced_subgraph([NodeId(2), NodeId(2), NodeId(99), NodeId(3)]);
        assert_eq!(sub.node_count(), 2);
        assert_eq!(map.len(), 2);
        assert_eq!(map.to_original(NodeId(0)), Some(NodeId(2)));
        assert_eq!(map.to_original(NodeId(5)), None);
    }

    #[test]
    fn empty_selection() {
        let g = chain();
        let (sub, map) = g.induced_subgraph([]);
        assert_eq!(sub.node_count(), 0);
        assert!(map.is_empty());
    }

    #[test]
    fn full_selection_preserves_graph_modulo_renumbering() {
        let g = chain();
        let (sub, _map) = g.induced_subgraph(g.nodes().collect::<Vec<_>>());
        assert_eq!(sub, g);
    }

    #[test]
    fn renumbering_follows_input_order() {
        let g = chain();
        let (_, map) = g.induced_subgraph([NodeId(3), NodeId(0)]);
        assert_eq!(map.original_ids(), &[NodeId(3), NodeId(0)]);
    }
}
