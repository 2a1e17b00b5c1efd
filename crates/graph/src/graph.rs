// lint:allow-file(indexing) CSR adjacency access: offsets are validated monotone and in-bounds by `validate()`, and node indices come from `NodeId`s bounded by `node_count`
use crate::{Edge, EdgeRef, GraphError, NodeId, Sign, SignedDigraphBuilder};

/// An immutable weighted signed directed graph in compressed-sparse-row
/// form.
///
/// Nodes are the dense range `0..node_count`. Both out- and in-adjacency
/// are stored, each sorted by neighbour id, so that
/// [`edge`](SignedDigraph::edge) lookups are `O(log degree)` and both
/// diffusion (out-edges) and initiator inference (in-edges) iterate in
/// cache-friendly order.
///
/// Construct one through [`SignedDigraphBuilder`] or
/// [`SignedDigraph::from_edges`].
#[derive(Debug, Clone, PartialEq)]
pub struct SignedDigraph {
    node_count: usize,
    // Out-adjacency CSR: edges leaving node u live at
    // out_dst[out_offsets[u]..out_offsets[u + 1]], sorted by destination.
    out_offsets: Vec<usize>,
    out_dst: Vec<NodeId>,
    out_sign: Vec<Sign>,
    out_weight: Vec<f64>,
    // In-adjacency CSR, mirror of the above sorted by source.
    in_offsets: Vec<usize>,
    in_src: Vec<NodeId>,
    in_sign: Vec<Sign>,
    in_weight: Vec<f64>,
}

impl SignedDigraph {
    /// Builds a graph from an iterator of edges, sizing the node set to the
    /// largest id seen (or `min_nodes`, whichever is larger).
    ///
    /// Later duplicates of the same `(src, dst)` pair replace earlier ones.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidWeight`] for weights outside `[0, 1]`
    /// and [`GraphError::SelfLoop`] for self-loops.
    ///
    /// ```
    /// use isomit_graph::{Edge, NodeId, Sign, SignedDigraph};
    /// # fn main() -> Result<(), isomit_graph::GraphError> {
    /// let g = SignedDigraph::from_edges(
    ///     4,
    ///     [Edge::new(NodeId(0), NodeId(1), Sign::Positive, 0.5)],
    /// )?;
    /// assert_eq!(g.node_count(), 4);
    /// assert_eq!(g.edge_count(), 1);
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_edges<I>(min_nodes: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = Edge>,
    {
        let mut builder = SignedDigraphBuilder::with_nodes(min_nodes);
        for e in edges {
            builder.add_edge(e.src, e.dst, e.sign, e.weight)?;
        }
        Ok(builder.build())
    }

    /// Builds a graph from an already-collected edge list, going straight
    /// to the CSR representation without the per-edge builder round trip.
    ///
    /// This is the bulk-ingestion entry point used by the SNAP-scale
    /// loader: validation happens in one pass over the slice, the vector
    /// is consumed in place, and duplicates follow the same last-wins rule
    /// as [`SignedDigraphBuilder`]. Semantically equivalent to
    /// [`from_edges`](SignedDigraph::from_edges); prefer it when the edges
    /// are already materialized in a `Vec` (hundreds of thousands of edges
    /// and up), and the builder when edges trickle in one at a time.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidWeight`] for weights outside `[0, 1]`
    /// and [`GraphError::SelfLoop`] for self-loops, matching
    /// [`SignedDigraphBuilder::add_edge`].
    ///
    /// # Examples
    ///
    /// ```
    /// use isomit_graph::{Edge, NodeId, Sign, SignedDigraph};
    /// # fn main() -> Result<(), isomit_graph::GraphError> {
    /// let edges = vec![
    ///     Edge::new(NodeId(0), NodeId(1), Sign::Positive, 0.5),
    ///     Edge::new(NodeId(2), NodeId(0), Sign::Negative, 1.0),
    /// ];
    /// let g = SignedDigraph::from_edge_vec(0, edges)?;
    /// assert_eq!(g.node_count(), 3);
    /// assert_eq!(g.edge_count(), 2);
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_edge_vec(min_nodes: usize, edges: Vec<Edge>) -> Result<Self, GraphError> {
        let node_count = Self::checked_node_count(min_nodes, &edges)?;
        Ok(Self::from_validated_edges(node_count, edges))
    }

    /// [`from_edge_vec`](SignedDigraph::from_edge_vec)'s checks, in edge
    /// order, without building: the node count the edges span.
    pub(crate) fn checked_node_count(
        min_nodes: usize,
        edges: &[Edge],
    ) -> Result<usize, GraphError> {
        let mut node_count = min_nodes;
        for e in edges {
            if !e.weight.is_finite() || !(0.0..=1.0).contains(&e.weight) {
                return Err(GraphError::InvalidWeight {
                    src: e.src,
                    dst: e.dst,
                    weight: e.weight,
                });
            }
            if e.src == e.dst {
                return Err(GraphError::SelfLoop(e.src));
            }
            node_count = node_count.max(e.src.index() + 1).max(e.dst.index() + 1);
        }
        Ok(node_count)
    }

    /// Internal constructor used by the builder. `edges` must already be
    /// validated; duplicates are resolved here (last wins).
    pub(crate) fn from_validated_edges(node_count: usize, mut edges: Vec<Edge>) -> Self {
        // Stable sort keyed on (src, dst); stability preserves insertion
        // order within a duplicate group so "last wins" is the final
        // element of each group.
        edges.sort_by_key(|e| (e.src, e.dst));
        edges.dedup_by(|next, prev| {
            // dedup_by visits (prev, next) adjacent pairs with `next` being
            // removed on true; copy the later edge's payload into `prev` so
            // the survivor carries the last-inserted attributes.
            if next.src == prev.src && next.dst == prev.dst {
                *prev = *next;
                true
            } else {
                false
            }
        });

        let m = edges.len();
        let mut out_offsets = vec![0usize; node_count + 1];
        for e in &edges {
            out_offsets[e.src.index() + 1] += 1;
        }
        for i in 0..node_count {
            out_offsets[i + 1] += out_offsets[i];
        }
        let mut out_dst = Vec::with_capacity(m);
        let mut out_sign = Vec::with_capacity(m);
        let mut out_weight = Vec::with_capacity(m);
        for e in &edges {
            out_dst.push(e.dst);
            out_sign.push(e.sign);
            out_weight.push(e.weight);
        }

        // In-adjacency: counting sort by destination, then sort each bucket
        // by source for binary-searchable lookups.
        let mut in_offsets = vec![0usize; node_count + 1];
        for e in &edges {
            in_offsets[e.dst.index() + 1] += 1;
        }
        for i in 0..node_count {
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut cursor = in_offsets[..node_count].to_vec();
        let mut in_src = vec![NodeId(0); m];
        let mut in_sign = vec![Sign::Positive; m];
        let mut in_weight = vec![0.0f64; m];
        for e in &edges {
            let slot = cursor[e.dst.index()];
            cursor[e.dst.index()] += 1;
            in_src[slot] = e.src;
            in_sign[slot] = e.sign;
            in_weight[slot] = e.weight;
        }
        // Buckets were filled in src-sorted order already (edges sorted by
        // (src, dst)), so in_src within each bucket is sorted by source.
        let graph = SignedDigraph {
            node_count,
            out_offsets,
            out_dst,
            out_sign,
            out_weight,
            in_offsets,
            in_src,
            in_sign,
            in_weight,
        };
        #[cfg(debug_assertions)]
        if let Err(e) = graph.validate() {
            panic!("constructor produced a corrupt graph: {e}"); // lint:allow(panic) debug-only self-check; release builds skip it
        }
        graph
    }

    /// Number of nodes (`|V|`).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of directed edges (`|E|`).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.out_dst.len()
    }

    /// Iterator over all node ids, `0..node_count`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count).map(NodeId::from_index)
    }

    /// `true` if `node` is inside the graph.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        node.index() < self.node_count
    }

    #[inline]
    fn out_range(&self, u: NodeId) -> std::ops::Range<usize> {
        debug_assert!(self.contains(u), "node {u} out of bounds");
        self.out_offsets[u.index()]..self.out_offsets[u.index() + 1]
    }

    #[inline]
    fn in_range(&self, u: NodeId) -> std::ops::Range<usize> {
        debug_assert!(self.contains(u), "node {u} out of bounds");
        self.in_offsets[u.index()]..self.in_offsets[u.index() + 1]
    }

    /// Out-degree of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of bounds.
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.out_range(u).len()
    }

    /// In-degree of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of bounds.
    #[inline]
    pub fn in_degree(&self, u: NodeId) -> usize {
        self.in_range(u).len()
    }

    /// Edges leaving `u`, sorted by destination.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of bounds.
    pub fn out_edges(&self, u: NodeId) -> impl Iterator<Item = EdgeRef> + '_ {
        self.out_range(u).map(move |i| EdgeRef {
            src: u,
            dst: self.out_dst[i],
            sign: self.out_sign[i],
            weight: self.out_weight[i],
        })
    }

    /// `u`'s out-edges as columns `(first, dst, sign, weight)`, sorted by
    /// destination: edge `j` goes to `dst[j]` and is edge `first + j` of
    /// [`edges`](SignedDigraph::edges). Panics if `u` is out of bounds.
    ///
    /// ```
    /// use isomit_graph::{Edge, NodeId, Sign, SignedDigraph};
    /// let (a, b) = (NodeId(0), NodeId(1));
    /// let g = SignedDigraph::from_edges(0, [
    ///     Edge::new(a, b, Sign::Positive, 0.5),
    ///     Edge::new(b, a, Sign::Negative, 1.0),
    /// ]).unwrap();
    /// assert_eq!(g.out_columns(b), (1, &[a][..], &[Sign::Negative][..], &[1.0][..]));
    /// ```
    pub fn out_columns(&self, u: NodeId) -> (usize, &[NodeId], &[Sign], &[f64]) {
        let r = self.out_range(u);
        let (dst, sign) = (&self.out_dst[r.clone()], &self.out_sign[r.clone()]);
        (r.start, dst, sign, &self.out_weight[r])
    }

    /// Edges entering `u`, sorted by source.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of bounds.
    pub fn in_edges(&self, u: NodeId) -> impl Iterator<Item = EdgeRef> + '_ {
        self.in_range(u).map(move |i| EdgeRef {
            src: self.in_src[i],
            dst: u,
            sign: self.in_sign[i],
            weight: self.in_weight[i],
        })
    }

    /// All edges of the graph in `(src, dst)` order.
    pub fn edges(&self) -> impl Iterator<Item = EdgeRef> + '_ {
        self.nodes().flat_map(move |u| self.out_edges(u))
    }

    /// Looks up the edge `(u, v)`, if present, in `O(log out_degree(u))`.
    ///
    /// Returns `None` when either endpoint is out of bounds.
    pub fn edge(&self, u: NodeId, v: NodeId) -> Option<EdgeRef> {
        if !self.contains(u) || !self.contains(v) {
            return None;
        }
        let range = self.out_offsets[u.index()]..self.out_offsets[u.index() + 1];
        let bucket = &self.out_dst[range.clone()];
        let pos = bucket.binary_search(&v).ok()?;
        let i = range.start + pos;
        Some(EdgeRef {
            src: u,
            dst: v,
            sign: self.out_sign[i],
            weight: self.out_weight[i],
        })
    }

    /// `true` if the directed edge `(u, v)` exists.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge(u, v).is_some()
    }

    /// Out-neighbours of `u` (destinations only), sorted.
    pub fn out_neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.out_dst[self.out_range(u)]
    }

    /// In-neighbours of `u` (sources only), sorted.
    pub fn in_neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.in_src[self.in_range(u)]
    }

    /// Returns the reversed graph: every edge `(u, v)` becomes `(v, u)`
    /// with the same sign and weight.
    ///
    /// This is Definition 2 of the paper: the diffusion network `G_D` is
    /// the reversal of the social network `G` ("if B trusts A, information
    /// flows from A to B"). Reversal is an involution:
    /// `g.reversed().reversed() == g`.
    pub fn reversed(&self) -> Self {
        let edges: Vec<Edge> = self.edges().map(|e| e.to_edge().reversed()).collect();
        SignedDigraph::from_validated_edges(self.node_count, edges)
    }

    /// Rebuilds the graph with every edge weight replaced by
    /// `f(edge)`.
    ///
    /// # Panics
    ///
    /// Panics if `f` produces a weight outside `[0, 1]` or a non-finite
    /// value — weight invariants are part of the type's contract.
    pub fn map_weights<F>(&self, mut f: F) -> Self
    where
        F: FnMut(EdgeRef) -> f64,
    {
        let edges: Vec<Edge> = self
            .edges()
            .map(|e| {
                let w = f(e);
                assert!(
                    w.is_finite() && (0.0..=1.0).contains(&w),
                    "map_weights produced invalid weight {w} for edge ({}, {})",
                    e.src,
                    e.dst
                );
                Edge::new(e.src, e.dst, e.sign, w)
            })
            .collect();
        SignedDigraph::from_validated_edges(self.node_count, edges)
    }

    /// Checks every structural invariant of the CSR representation.
    ///
    /// Verified invariants:
    ///
    /// * both offset arrays have `node_count + 1` entries, start at `0`,
    ///   end at `edge_count`, and are monotone non-decreasing;
    /// * all parallel arrays (`dst`/`sign`/`weight`, `src`/`sign`/`weight`)
    ///   have matching lengths;
    /// * every neighbor list is strictly sorted (sorted and deduped) with
    ///   ids inside `0..node_count` and no self-loops;
    /// * every weight is finite and in `[0, 1]` (signs are `{+1, -1}` by
    ///   construction of the [`Sign`] type);
    /// * the in-adjacency is an exact mirror of the out-adjacency: both
    ///   describe the same multiset of `(src, dst, sign, weight)` tuples.
    ///
    /// The checked constructors ([`SignedDigraphBuilder`],
    /// [`SignedDigraph::from_edges`], the SNAP/JSON loaders) uphold these
    /// by construction and re-assert them in debug builds; call this at
    /// ingest time on graphs arriving through other channels, not
    /// per-query.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Invariant`] naming the first violated
    /// invariant.
    pub fn validate(&self) -> Result<(), GraphError> {
        let n = self.node_count;
        let m = self.out_dst.len();
        let fail = |msg: String| Err(GraphError::Invariant(msg));

        // Offset-array shape.
        for (name, offsets) in [("out", &self.out_offsets), ("in", &self.in_offsets)] {
            if offsets.len() != n + 1 {
                return fail(format!(
                    "{name}_offsets has {} entries, expected node_count + 1 = {}",
                    offsets.len(),
                    n + 1
                ));
            }
            if offsets.first() != Some(&0) {
                return fail(format!("{name}_offsets does not start at 0"));
            }
            let mut adjacent = offsets.iter().zip(offsets.iter().skip(1));
            if let Some((a, b)) = adjacent.find(|(a, b)| b < a) {
                return fail(format!(
                    "{name}_offsets is not monotone: {a} followed by {b}"
                ));
            }
            if offsets.last() != Some(&m) {
                return fail(format!(
                    "{name}_offsets ends at {:?}, expected edge_count {m}",
                    offsets.last()
                ));
            }
        }

        // Parallel-array lengths.
        for (name, len) in [
            ("out_sign", self.out_sign.len()),
            ("out_weight", self.out_weight.len()),
            ("in_src", self.in_src.len()),
            ("in_sign", self.in_sign.len()),
            ("in_weight", self.in_weight.len()),
        ] {
            if len != m {
                return fail(format!("{name} has {len} entries, expected edge_count {m}"));
            }
        }

        // Per-node neighbor lists: in-bounds, strictly sorted, loop-free.
        for (name, offsets, ids) in [
            ("out", &self.out_offsets, &self.out_dst),
            ("in", &self.in_offsets, &self.in_src),
        ] {
            for u in 0..n {
                let (Some(&lo), Some(&hi)) = (offsets.get(u), offsets.get(u + 1)) else {
                    return fail(format!("{name}_offsets truncated at node {u}"));
                };
                let Some(bucket) = ids.get(lo..hi) else {
                    return fail(format!(
                        "{name} bucket {lo}..{hi} of node n{u} exceeds the edge arrays"
                    ));
                };
                for (a, b) in bucket.iter().zip(bucket.iter().skip(1)) {
                    if b <= a {
                        return fail(format!(
                            "{name} neighbor list of n{u} is not strictly sorted: {a} then {b}"
                        ));
                    }
                }
                for &v in bucket {
                    if v.index() >= n {
                        return fail(format!(
                            "{name} neighbor {v} of n{u} is out of bounds for {n} nodes"
                        ));
                    }
                    if v.index() == u {
                        return fail(format!("{name} adjacency of n{u} contains a self-loop"));
                    }
                }
            }
        }

        // Weights.
        for (name, weights) in [("out", &self.out_weight), ("in", &self.in_weight)] {
            if let Some(w) = weights
                .iter()
                .find(|w| !w.is_finite() || !(0.0..=1.0).contains(*w))
            {
                return fail(format!(
                    "{name}_weight contains {w}, expected a finite value in [0, 1]"
                ));
            }
        }

        // Mirror consistency: both CSRs must describe the same edge set,
        // attribute for attribute. Walking the out-CSR in ascending
        // source order meets the edges into each node in ascending source
        // order, which is the order of that node's (strictly sorted)
        // in-list, so each out-edge must equal the next unread entry of
        // its destination's in-list. Both sides hold `edge_count` edges,
        // so once every out-edge matched, every in-entry was read.
        // Weights compare bitwise: the mirror is built by copying, so
        // even NaN payloads would have to match.
        let key = |e: EdgeRef| (e.src, e.dst, e.sign, e.weight.to_bits());
        let show =
            |e: EdgeRef| format!("({}, {}, {:+}, {})", e.src, e.dst, e.sign.value(), e.weight);
        let mut in_lists: Vec<_> = self.nodes().map(|v| self.in_edges(v)).collect();
        for out in self.edges() {
            let mirror = in_lists.get_mut(out.dst.index()).and_then(Iterator::next);
            if mirror.map(key) != Some(key(out)) {
                let found = mirror.map_or_else(|| "no entry left".to_owned(), show);
                return fail(format!(
                    "in/out mirror mismatch: out has {}, in has {found}",
                    show(out)
                ));
            }
        }
        Ok(())
    }

    /// Total number of positive edges.
    pub fn positive_edge_count(&self) -> usize {
        self.out_sign.iter().filter(|s| s.is_positive()).count()
    }

    /// Fraction of edges that are positive; `0.0` on an empty edge set.
    pub fn positive_edge_fraction(&self) -> f64 {
        if self.edge_count() == 0 {
            0.0
        } else {
            self.positive_edge_count() as f64 / self.edge_count() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn diamond() -> SignedDigraph {
        // 0 -> 1 (+.9), 0 -> 2 (-.4), 1 -> 3 (+.7), 2 -> 3 (-.2)
        SignedDigraph::from_edges(
            4,
            [
                Edge::new(NodeId(0), NodeId(1), Sign::Positive, 0.9),
                Edge::new(NodeId(0), NodeId(2), Sign::Negative, 0.4),
                Edge::new(NodeId(1), NodeId(3), Sign::Positive, 0.7),
                Edge::new(NodeId(2), NodeId(3), Sign::Negative, 0.2),
            ],
        )
        .unwrap()
    }

    #[test]
    fn counts_and_degrees() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.out_degree(NodeId(0)), 2);
        assert_eq!(g.in_degree(NodeId(3)), 2);
        assert_eq!(g.out_degree(NodeId(3)), 0);
        assert_eq!(g.in_degree(NodeId(0)), 0);
    }

    #[test]
    fn edge_lookup() {
        let g = diamond();
        let e = g.edge(NodeId(0), NodeId(2)).unwrap();
        assert_eq!(e.sign, Sign::Negative);
        assert!((e.weight - 0.4).abs() < 1e-12);
        assert!(g.edge(NodeId(2), NodeId(0)).is_none());
        assert!(g.edge(NodeId(0), NodeId(99)).is_none());
        assert!(g.has_edge(NodeId(1), NodeId(3)));
    }

    #[test]
    fn neighbors_sorted() {
        let g = diamond();
        assert_eq!(g.out_neighbors(NodeId(0)), &[NodeId(1), NodeId(2)]);
        assert_eq!(g.in_neighbors(NodeId(3)), &[NodeId(1), NodeId(2)]);
    }

    #[test]
    fn reversal_is_involution() {
        let g = diamond();
        assert_eq!(g.reversed().reversed(), g);
        let r = g.reversed();
        let e = r.edge(NodeId(3), NodeId(1)).unwrap();
        assert_eq!(e.sign, Sign::Positive);
        assert!((e.weight - 0.7).abs() < 1e-12);
    }

    #[test]
    fn duplicate_edges_last_wins() {
        let g = SignedDigraph::from_edges(
            2,
            [
                Edge::new(NodeId(0), NodeId(1), Sign::Positive, 0.1),
                Edge::new(NodeId(0), NodeId(1), Sign::Negative, 0.6),
            ],
        )
        .unwrap();
        assert_eq!(g.edge_count(), 1);
        let e = g.edge(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(e.sign, Sign::Negative);
        assert!((e.weight - 0.6).abs() < 1e-12);
    }

    #[test]
    fn invalid_weight_rejected() {
        let err =
            SignedDigraph::from_edges(2, [Edge::new(NodeId(0), NodeId(1), Sign::Positive, 1.5)])
                .unwrap_err();
        assert!(matches!(err, GraphError::InvalidWeight { .. }));
        let err = SignedDigraph::from_edges(
            2,
            [Edge::new(NodeId(0), NodeId(1), Sign::Positive, f64::NAN)],
        )
        .unwrap_err();
        assert!(matches!(err, GraphError::InvalidWeight { .. }));
    }

    #[test]
    fn self_loop_rejected() {
        let err =
            SignedDigraph::from_edges(2, [Edge::new(NodeId(1), NodeId(1), Sign::Positive, 0.5)])
                .unwrap_err();
        assert_eq!(err, GraphError::SelfLoop(NodeId(1)));
    }

    #[test]
    fn empty_graph() {
        let g = SignedDigraph::from_edges(0, []).unwrap();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.nodes().count(), 0);
        assert_eq!(g.positive_edge_fraction(), 0.0);
    }

    #[test]
    fn isolated_nodes_allowed() {
        let g =
            SignedDigraph::from_edges(10, [Edge::new(NodeId(0), NodeId(1), Sign::Positive, 0.5)])
                .unwrap();
        assert_eq!(g.node_count(), 10);
        assert_eq!(g.out_degree(NodeId(7)), 0);
        assert_eq!(g.in_degree(NodeId(7)), 0);
    }

    #[test]
    fn map_weights_rebuilds() {
        let g = diamond();
        let h = g.map_weights(|e| e.weight / 2.0);
        assert_eq!(h.edge_count(), g.edge_count());
        let e = h.edge(NodeId(0), NodeId(1)).unwrap();
        assert!((e.weight - 0.45).abs() < 1e-12);
        // Signs untouched.
        assert_eq!(h.edge(NodeId(2), NodeId(3)).unwrap().sign, Sign::Negative);
    }

    #[test]
    #[should_panic(expected = "invalid weight")]
    fn map_weights_panics_on_bad_weight() {
        diamond().map_weights(|_| 2.0);
    }

    #[test]
    fn positive_fraction() {
        let g = diamond();
        assert_eq!(g.positive_edge_count(), 2);
        assert!((g.positive_edge_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn edges_iterates_in_src_dst_order() {
        let g = diamond();
        let all: Vec<_> = g.edges().map(|e| (e.src.0, e.dst.0)).collect();
        assert_eq!(all, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn validate_accepts_checked_constructions() {
        diamond().validate().unwrap();
        diamond().reversed().validate().unwrap();
        SignedDigraph::from_edges(0, [])
            .unwrap()
            .validate()
            .unwrap();
    }

    fn expect_invariant(g: &SignedDigraph, needle: &str) {
        match g.validate() {
            Err(GraphError::Invariant(msg)) => {
                assert!(msg.contains(needle), "message {msg:?} lacks {needle:?}")
            }
            other => panic!("expected Invariant error containing {needle:?}, got {other:?}"),
        }
    }

    #[test]
    fn validate_catches_non_monotone_offsets() {
        let mut g = diamond();
        g.out_offsets[1] = 3;
        g.out_offsets[2] = 2;
        expect_invariant(&g, "not monotone");
    }

    #[test]
    fn validate_catches_out_of_range_weight() {
        let mut g = diamond();
        g.out_weight[0] = 1.5;
        expect_invariant(&g, "[0, 1]");
        let mut g = diamond();
        g.in_weight[2] = f64::NAN;
        expect_invariant(&g, "[0, 1]");
    }

    #[test]
    fn validate_catches_unsorted_neighbor_list() {
        let mut g = diamond();
        g.out_dst.swap(0, 1); // node 0's list becomes [2, 1]
        expect_invariant(&g, "not strictly sorted");
    }

    #[test]
    fn validate_catches_in_out_mirror_mismatch() {
        let mut g = diamond();
        g.in_sign[0] = Sign::Negative; // out copy still Positive
        expect_invariant(&g, "mirror mismatch");
        let mut g = diamond();
        g.in_weight[0] = 0.25;
        expect_invariant(&g, "mirror mismatch");
    }

    /// The reference mirror check: both CSRs flattened to
    /// `(src, dst, sign, weight bits)` tuples and sorted must agree.
    fn sorted_mirror_oracle(g: &SignedDigraph) -> Result<(), String> {
        let tuples = |edges: Vec<EdgeRef>| {
            let mut tuples: Vec<(NodeId, NodeId, i8, u64)> = edges
                .iter()
                .map(|e| (e.src, e.dst, e.sign.value(), e.weight.to_bits()))
                .collect();
            tuples.sort_unstable();
            tuples
        };
        let out_edges = tuples(g.nodes().flat_map(|u| g.out_edges(u)).collect());
        let in_edges = tuples(g.nodes().flat_map(|u| g.in_edges(u)).collect());
        match out_edges.iter().zip(&in_edges).find(|(o, i)| o != i) {
            Some((o, i)) => Err(format!("out has {o:?}, in has {i:?}")),
            None if out_edges.len() != in_edges.len() => Err("edge counts differ".into()),
            None => Ok(()),
        }
    }

    /// Applies one corruption of the in-CSR, chosen by `kind`, to the
    /// in-entry `pick` (modulo the edge count), leaving the out-CSR as
    /// built. Some draws leave the graph as it was.
    fn corrupt_in_csr(g: &mut SignedDigraph, kind: usize, pick: usize, to: usize) {
        let (n, m) = (g.node_count(), g.edge_count());
        if m == 0 {
            return;
        }
        let i = pick % m;
        // The node whose in-list holds entry `i`.
        let v = g.in_offsets.partition_point(|&offset| offset <= i) - 1;
        let (start, end) = (g.in_offsets[v], g.in_offsets[v + 1]);
        match kind {
            0 => {
                // Rewrite the source within the gap its neighbours leave,
                // so the list stays sorted (the draw may keep the value).
                let lo = if i > start {
                    g.in_src[i - 1].index() + 1
                } else {
                    0
                };
                let hi = if i + 1 < end {
                    g.in_src[i + 1].index()
                } else {
                    n
                };
                g.in_src[i] = NodeId::from_index(lo + to % (hi - lo));
            }
            1 => g.in_sign[i] = -g.in_sign[i],
            2 => g.in_weight[i] = f64::from_bits(g.in_weight[i].to_bits() ^ 1),
            3 => {
                // Move the entry into the in-list of node `w`, at its
                // sorted position, and shift the offsets in between.
                let w = to % n;
                let (src, sign, weight) = (
                    g.in_src.remove(i),
                    g.in_sign.remove(i),
                    g.in_weight.remove(i),
                );
                for offset in &mut g.in_offsets[v + 1..] {
                    *offset -= 1;
                }
                let (lo, hi) = (g.in_offsets[w], g.in_offsets[w + 1]);
                let at = lo + g.in_src[lo..hi].partition_point(|&s| s < src);
                g.in_src.insert(at, src);
                g.in_sign.insert(at, sign);
                g.in_weight.insert(at, weight);
                for offset in &mut g.in_offsets[w + 1..] {
                    *offset += 1;
                }
            }
            _ => {}
        }
    }

    proptest! {
        #[test]
        fn linear_mirror_check_rejects_exactly_what_the_sorted_oracle_rejects(
            (n, edges) in (2..=8usize).prop_flat_map(|n| {
                let edge = (0..n, 0..n, any::<bool>(), 0.0f64..=1.0);
                (Just(n), collection::vec(edge, 0..24))
            }),
            kind in 0..5usize,
            pick in any::<usize>(),
            to in any::<usize>(),
        ) {
            let edges = edges.into_iter().filter(|&(a, b, _, _)| a != b).map(|(a, b, positive, w)| {
                let sign = if positive { Sign::Positive } else { Sign::Negative };
                Edge::new(NodeId::from_index(a), NodeId::from_index(b), sign, w)
            });
            let mut g = SignedDigraph::from_edges(n, edges).unwrap();
            prop_assert!(g.validate().is_ok());
            corrupt_in_csr(&mut g, kind, pick, to);
            let linear = g.validate();
            let oracle = sorted_mirror_oracle(&g);
            prop_assert_eq!(linear.is_err(), oracle.is_err(), "{:?} vs {:?}", linear, oracle);
        }
    }

    #[test]
    fn validate_catches_shape_violations() {
        let mut g = diamond();
        g.out_offsets.pop();
        expect_invariant(&g, "entries");
        let mut g = diamond();
        g.out_sign.pop();
        expect_invariant(&g, "out_sign");
        let mut g = diamond();
        g.out_dst[1] = NodeId(99); // node 0's list stays sorted: [1, 99]
        expect_invariant(&g, "out of bounds");
        let mut g = diamond();
        g.out_dst[0] = NodeId(0); // self-loop at node 0
        expect_invariant(&g, "self-loop");
    }

    #[test]
    fn json_round_trip() {
        let g = diamond();
        let json = g.to_json_string();
        let back = SignedDigraph::from_json_str(&json).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn from_edge_vec_matches_from_edges() {
        let edges = vec![
            Edge::new(NodeId(0), NodeId(1), Sign::Positive, 0.5),
            Edge::new(NodeId(3), NodeId(1), Sign::Negative, 0.2),
            Edge::new(NodeId(0), NodeId(1), Sign::Negative, 0.9), // duplicate, wins
        ];
        let bulk = SignedDigraph::from_edge_vec(6, edges.clone()).unwrap();
        let incremental = SignedDigraph::from_edges(6, edges).unwrap();
        assert_eq!(bulk, incremental);
        assert_eq!(bulk.node_count(), 6);
        assert_eq!(bulk.edge_count(), 2);
        let e = bulk.edge(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(e.sign, Sign::Negative);
        assert!((e.weight - 0.9).abs() < 1e-12);
    }

    #[test]
    fn from_edge_vec_rejects_invalid_edges() {
        let self_loop = vec![Edge::new(NodeId(2), NodeId(2), Sign::Positive, 0.5)];
        assert!(matches!(
            SignedDigraph::from_edge_vec(0, self_loop),
            Err(GraphError::SelfLoop(NodeId(2)))
        ));
        let bad_weight = vec![Edge::new(NodeId(0), NodeId(1), Sign::Positive, 1.5)];
        assert!(matches!(
            SignedDigraph::from_edge_vec(0, bad_weight),
            Err(GraphError::InvalidWeight { .. })
        ));
    }
}
