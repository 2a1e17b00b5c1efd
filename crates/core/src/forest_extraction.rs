// lint:allow-file(indexing) per-tree arrays are allocated with the tree's node count and the support pass's arrays with the snapshot's, which snapshot ids index; CascadeTree::validate() re-checks the parent structure
use crate::likelihood::g_factor_discounted;
use isomit_diffusion::InfectedNetwork;
use isomit_forest::{
    maximum_branching, maximum_branching_components, weakly_connected_components, Branching,
    BranchingArena, WeightedArc,
};
use isomit_graph::{GraphError, NodeId, NodeState, Sign};
use std::cell::{Cell, RefCell};

thread_local! {
    /// Per-thread invocation counter of [`extract_cascade_forest`]; see
    /// [`extraction_run_count`].
    static EXTRACTION_RUNS: Cell<u64> = const { Cell::new(0) };

    /// Per-thread pooled scratch space for the component-wise
    /// Chu-Liu/Edmonds driver: repeated extractions on one thread (the
    /// serving engine, batch evaluation) reuse the same buffers instead
    /// of re-allocating per component and per snapshot.
    pub(crate) static BRANCHING_ARENA: RefCell<BranchingArena> =
        RefCell::new(BranchingArena::default());
}

/// Number of times [`extract_cascade_forest`] has run **on the calling
/// thread** since it started.
///
/// Extraction is the expensive per-snapshot stage of the RID pipeline
/// (components + Chu-Liu/Edmonds + tree materialization), so callers
/// that answer many queries against one snapshot — the §III-E3 model
/// selection sweep, the serving engine's cache — must run it exactly
/// once per snapshot. This counter exists so regression tests can assert
/// that property; it is thread-local (extraction runs entirely on the
/// calling thread), monotone, and never reset.
///
/// # Examples
///
/// ```
/// use isomit_core::{extract_cascade_forest, extraction_run_count};
/// use isomit_diffusion::InfectedNetwork;
/// use isomit_graph::{NodeState, SignedDigraph};
///
/// let snapshot = InfectedNetwork::from_parts(
///     SignedDigraph::from_edges(1, [])?,
///     vec![NodeState::Positive],
/// );
/// let before = extraction_run_count();
/// extract_cascade_forest(&snapshot, 2.0);
/// assert_eq!(extraction_run_count(), before + 1);
/// # Ok::<(), isomit_graph::GraphError>(())
/// ```
pub fn extraction_run_count() -> u64 {
    EXTRACTION_RUNS.with(|c| c.get())
}

/// One extracted cascade tree (Definition 7): a maximum-likelihood guess
/// at "who activated whom" within part of an infected component.
///
/// Node identity is layered: a tree stores *snapshot ids* (ids within the
/// [`InfectedNetwork`]'s subgraph) and additionally numbers its own nodes
/// with dense *local ids* `0..len` used by the dynamic program.
///
/// Local ids are a DFS pre-order from the root, so parents come first:
/// the root is 0, every other node's parent has a smaller id, and the
/// subtree of `x` is exactly the ids `x..x + subtree_len(x)`. An
/// ascending loop over local ids therefore visits parents before
/// children, a descending loop children before parents, and "is `u`
/// below `x`" is a range check.
#[derive(Debug, Clone, PartialEq)]
pub struct CascadeTree {
    /// Local id → snapshot id.
    nodes: Vec<NodeId>,
    /// Local id of each node's parent; `None` for the root.
    parent: Vec<Option<usize>>,
    /// Number of nodes in each node's subtree, itself included.
    subtree_len: Vec<usize>,
    /// Attributes (sign, raw weight) of the activation edge entering each
    /// local node; `None` for the root.
    parent_edge: Vec<Option<(Sign, f64)>>,
    /// Observed state of each local node.
    states: Vec<NodeState>,
}

impl CascadeTree {
    /// Number of nodes in the tree.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the tree is empty (never produced by
    /// [`extract_cascade_forest`]).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Local id of the root: always 0, the first node of the pre-order.
    pub fn root(&self) -> usize {
        0
    }

    /// Snapshot id of a local node.
    ///
    /// # Panics
    ///
    /// Panics if `local` is out of bounds.
    pub fn snapshot_id(&self, local: usize) -> NodeId {
        self.nodes[local]
    }

    /// Local id of a node's parent (always smaller than `local`), `None`
    /// for the root.
    ///
    /// # Panics
    ///
    /// Panics if `local` is out of bounds.
    pub fn parent(&self, local: usize) -> Option<usize> {
        self.parent[local]
    }

    /// Children (local ids) of a local node, ascending: the first child
    /// follows `local` in the pre-order, and each next one follows the
    /// subtree of the one before.
    ///
    /// # Panics
    ///
    /// Panics if `local` is out of bounds.
    pub fn children(&self, local: usize) -> impl Iterator<Item = usize> + '_ {
        let end = local + self.subtree_len[local];
        let mut next = local + 1;
        std::iter::from_fn(move || {
            let child = (next < end).then_some(next)?;
            next += self.subtree_len[child];
            Some(child)
        })
    }

    /// Owned children lists for all local nodes, indexed by local id —
    /// the input shape of [`isomit_forest::binarize`].
    pub fn children_lists(&self) -> Vec<Vec<usize>> {
        (0..self.len())
            .map(|x| self.children(x).collect())
            .collect()
    }

    /// Activation-edge attributes `(sign, raw weight)` of a local node,
    /// `None` for the root.
    ///
    /// # Panics
    ///
    /// Panics if `local` is out of bounds.
    pub fn parent_edge(&self, local: usize) -> Option<(Sign, f64)> {
        self.parent_edge[local]
    }

    /// Observed snapshot state of a local node.
    ///
    /// # Panics
    ///
    /// Panics if `local` is out of bounds.
    pub fn state(&self, local: usize) -> NodeState {
        self.states[local]
    }

    /// Checks every structural invariant of the tree against the snapshot
    /// it was extracted from.
    ///
    /// Verified invariants:
    ///
    /// * all parallel arrays (`nodes`, `parent`, `subtree_len`,
    ///   `parent_edge`, `states`) have equal length;
    /// * the numbering is a pre-order: only node 0 lacks a parent, every
    ///   other node's parent has a smaller id, and the node's range
    ///   `x..x + subtree_len(x)` lies inside its parent's range;
    /// * every subtree length equals the count the parents imply;
    /// * exactly the root has no parent edge;
    /// * every snapshot id is distinct, exists in `snapshot`, and carries
    ///   the snapshot's state;
    /// * every parent edge exists in the snapshot graph with the recorded
    ///   sign and weight.
    ///
    /// [`extract_cascade_forest`] upholds these by construction and
    /// re-asserts them in debug builds; call this on trees arriving
    /// through other channels, not per-query.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Invariant`] naming the first violated
    /// invariant.
    ///
    /// [`GraphError::Invariant`]: isomit_graph::GraphError
    pub fn validate(&self, snapshot: &InfectedNetwork) -> Result<(), GraphError> {
        let n = self.nodes.len();
        let fail = |msg: String| Err(GraphError::Invariant(msg));
        for (name, len) in [
            ("parent", self.parent.len()),
            ("subtree_len", self.subtree_len.len()),
            ("parent_edge", self.parent_edge.len()),
            ("states", self.states.len()),
        ] {
            if len != n {
                return fail(format!("{name} has {len} entries for {n} nodes"));
            }
        }
        // Tree shape: parents first, each subtree's range nested in its
        // parent's. The range holds every descendant, so equal counts
        // make the range exactly the subtree.
        let range_end = |x: usize| x.saturating_add(self.subtree_len[x]);
        let mut implied = vec![1usize; n];
        for x in (0..n).rev() {
            match (x, self.parent[x]) {
                (0, None) => {}
                (0, Some(p)) => return fail(format!("root 0 has parent {p}")),
                (_, None) => return fail(format!("node {x} has no parent")),
                (_, Some(p)) if p >= x => {
                    return fail(format!("parent {p} of node {x} comes after it"))
                }
                (_, Some(p)) if range_end(x) > range_end(p) => {
                    return fail(format!(
                        "node {x}'s subtree ends past its parent {p}'s range"
                    ))
                }
                (_, Some(p)) => implied[p] += implied[x],
            }
        }
        for (x, (&len, &count)) in self.subtree_len.iter().zip(&implied).enumerate() {
            if len != count {
                return fail(format!(
                    "node {x} records subtree length {len}, its descendants make {count}"
                ));
            }
        }
        // Snapshot consistency.
        let mut seen: std::collections::BTreeSet<NodeId> = std::collections::BTreeSet::new();
        for (local, &sub_id) in self.nodes.iter().enumerate() {
            if self.parent[local].is_some() != self.parent_edge[local].is_some() {
                return fail(format!(
                    "node {local}: parent and parent_edge disagree on rootness"
                ));
            }
            if !seen.insert(sub_id) {
                return fail(format!("snapshot id {sub_id} appears twice"));
            }
            if sub_id.index() >= snapshot.node_count() {
                return fail(format!(
                    "snapshot id {sub_id} out of bounds for {} snapshot nodes",
                    snapshot.node_count()
                ));
            }
            if snapshot.state(sub_id) != self.states[local] {
                return fail(format!(
                    "node {local} records state {:?}, snapshot has {:?}",
                    self.states[local],
                    snapshot.state(sub_id)
                ));
            }
            if let (Some(p), Some((sign, weight))) = (self.parent[local], self.parent_edge[local]) {
                let parent_sub = self.nodes[p];
                let Some(e) = snapshot.graph().edge(parent_sub, sub_id) else {
                    return fail(format!(
                        "activation edge ({parent_sub}, {sub_id}) missing from the snapshot graph"
                    ));
                };
                if sign != e.sign || weight.to_bits() != e.weight.to_bits() {
                    return fail(format!(
                        "activation edge ({parent_sub}, {sub_id}) records ({sign:?}, {weight}), snapshot has ({:?}, {})",
                        e.sign, e.weight
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Builds the candidate activation arcs of an infected snapshot: **every**
/// diffusion link of `G_I` (the paper's Algorithm 2 considers all
/// in-links), weighted by the flip-discounted MFC activation likelihood
/// [`g_factor_discounted`] — the boosted probability
/// `w̄ = min(1, α·w)` / `w` on sign-consistent links
/// ([`NodeState::Unknown`] endpoints are wildcards), and
/// `FLIP_DISCOUNT · w̄` on inconsistent links (explainable only via a
/// later flip).
///
/// Arc endpoints are snapshot-subgraph indices, ready for
/// [`maximum_branching`].
///
/// [`FLIP_DISCOUNT`]: crate::likelihood::FLIP_DISCOUNT
///
/// # Panics
///
/// Panics (debug) if `alpha < 1`.
///
/// # Examples
///
/// ```
/// use isomit_core::usable_arcs;
/// use isomit_diffusion::InfectedNetwork;
/// use isomit_graph::{Edge, NodeId, NodeState, Sign, SignedDigraph};
///
/// // A consistent positive link is boosted: g = min(1, 2 · 0.25) = 0.5.
/// let g = SignedDigraph::from_edges(
///     2,
///     [Edge::new(NodeId(0), NodeId(1), Sign::Positive, 0.25)],
/// )?;
/// let snapshot = InfectedNetwork::from_parts(g, vec![NodeState::Positive; 2]);
/// let arcs = usable_arcs(&snapshot, 2.0);
/// assert_eq!((arcs[0].src, arcs[0].dst, arcs[0].weight), (0, 1, 0.5));
/// # Ok::<(), isomit_graph::GraphError>(())
/// ```
pub fn usable_arcs(snapshot: &InfectedNetwork, alpha: f64) -> Vec<WeightedArc> {
    snapshot
        .graph()
        .edges()
        .map(|e| WeightedArc {
            src: e.src.index(),
            dst: e.dst.index(),
            weight: g_factor_discounted(
                alpha,
                snapshot.state(e.src),
                e.sign,
                snapshot.state(e.dst),
                e.weight,
            ),
        })
        .collect()
}

/// Extracts the maximum-likelihood signed infected cascade forest of a
/// snapshot (the paper's Algorithms 2–4 pipeline):
///
/// 1. weight every arc with its flip-discounted activation likelihood,
/// 2. run Chu-Liu/Edmonds per weakly-connected infected component
///    ([`maximum_branching_components`]) against a thread-local pooled
///    [`BranchingArena`] — since usable arcs never cross components, the
///    per-component runs select exactly the arcs a single global run
///    would, but without per-component allocation churn and with
///    singleton components short-circuited to roots,
/// 3. split the branching into its trees.
///
/// Returns the trees (ordered by root snapshot id) and the number of
/// weakly-connected infected components. The whole pipeline runs on the
/// calling thread; a server gets its parallelism from answering several
/// snapshots at once, not from splitting one.
///
/// The output is **bit-identical** to
/// [`extract_cascade_forest_reference`], the retained single-run
/// baseline; the determinism suite and golden fixtures pin that
/// equivalence.
///
/// # Examples
///
/// ```
/// use isomit_core::extract_cascade_forest;
/// use isomit_diffusion::InfectedNetwork;
/// use isomit_graph::{Edge, NodeId, NodeState, Sign, SignedDigraph};
///
/// // Chain 0 -> 1 plus the isolated node 2: two components, two trees,
/// // ordered by root snapshot id.
/// let g = SignedDigraph::from_edges(
///     3,
///     [Edge::new(NodeId(0), NodeId(1), Sign::Positive, 0.5)],
/// )?;
/// let snapshot = InfectedNetwork::from_parts(g, vec![NodeState::Positive; 3]);
/// let (trees, components) = extract_cascade_forest(&snapshot, 2.0);
/// assert_eq!(components, 2);
/// assert_eq!(trees.len(), 2);
/// assert_eq!(trees[0].snapshot_id(trees[0].root()), NodeId(0));
/// assert_eq!(trees[1].snapshot_id(trees[1].root()), NodeId(2));
/// # Ok::<(), isomit_graph::GraphError>(())
/// ```
pub fn extract_cascade_forest(snapshot: &InfectedNetwork, alpha: f64) -> (Vec<CascadeTree>, usize) {
    EXTRACTION_RUNS.with(|c| c.set(c.get() + 1));
    let components = weakly_connected_components(snapshot.graph());
    let component_count = components.len();
    let n = snapshot.node_count();
    let arcs = usable_arcs(snapshot, alpha);
    let branching = BRANCHING_ARENA
        .with(|arena| maximum_branching_components(n, &arcs, &components, &mut arena.borrow_mut()));
    let trees = materialize_forest(snapshot, &branching);
    (trees, component_count)
}

/// Single-run baseline of [`extract_cascade_forest`]: one global
/// Chu-Liu/Edmonds [`maximum_branching`] over the whole snapshot instead
/// of the arena-backed per-component driver.
///
/// Kept public so benchmarks (`batch_eval`, unless `--no-baseline`) can
/// measure the optimized path against it and so equivalence tests can
/// pin the bit-identity contract; production callers should use
/// [`extract_cascade_forest`].
///
/// # Examples
///
/// ```
/// use isomit_core::{extract_cascade_forest, extract_cascade_forest_reference};
/// use isomit_diffusion::InfectedNetwork;
/// use isomit_graph::{Edge, NodeId, NodeState, Sign, SignedDigraph};
///
/// let g = SignedDigraph::from_edges(
///     3,
///     [
///         Edge::new(NodeId(0), NodeId(1), Sign::Positive, 0.5),
///         Edge::new(NodeId(1), NodeId(2), Sign::Negative, 0.5),
///     ],
/// )
/// .unwrap();
/// let states = vec![NodeState::Positive, NodeState::Positive, NodeState::Negative];
/// let snapshot = InfectedNetwork::from_parts(g, states);
/// // The optimized and reference extractions agree exactly.
/// assert_eq!(
///     extract_cascade_forest(&snapshot, 2.0),
///     extract_cascade_forest_reference(&snapshot, 2.0),
/// );
/// ```
pub fn extract_cascade_forest_reference(
    snapshot: &InfectedNetwork,
    alpha: f64,
) -> (Vec<CascadeTree>, usize) {
    EXTRACTION_RUNS.with(|c| c.set(c.get() + 1));
    let component_count = weakly_connected_components(snapshot.graph()).len();
    let n = snapshot.node_count();
    let arcs = usable_arcs(snapshot, alpha);
    let branching = maximum_branching(n, &arcs);
    let trees = materialize_forest(snapshot, &branching);
    (trees, component_count)
}

/// Shared tail of both extraction paths: splits a branching into cascade
/// trees, one per root. [`Branching::roots`] ascends and a tree's root
/// keeps its snapshot id, so the trees come out ordered by root snapshot
/// id.
fn materialize_forest(snapshot: &InfectedNetwork, branching: &Branching) -> Vec<CascadeTree> {
    let children = branching.children();
    let trees: Vec<CascadeTree> = branching
        .roots()
        .into_iter()
        .map(|root| build_tree(snapshot, &children, root))
        .collect();
    debug_assert!(
        trees.iter().all(|t| t.validate(snapshot).is_ok()),
        "extract_cascade_forest produced an invalid tree: {:?}",
        trees.iter().find_map(|t| t.validate(snapshot).err())
    );
    trees
}

/// Materializes the cascade tree rooted at `root` (a snapshot-subgraph
/// index) from the branching's children lists, numbering nodes by DFS
/// pre-order from the root.
fn build_tree(snapshot: &InfectedNetwork, children: &[Vec<usize>], root: usize) -> CascadeTree {
    let mut nodes = Vec::new();
    let mut parent = Vec::new();
    let mut parent_edge = Vec::new();
    let mut states = Vec::new();
    let mut stack: Vec<(usize, Option<usize>)> = vec![(root, None)];
    while let Some((sub_idx, parent_local)) = stack.pop() {
        let local = nodes.len();
        let sub_id = NodeId::from_index(sub_idx);
        parent_edge.push(parent_local.map(|pl| {
            let e = snapshot
                .graph()
                .edge(nodes[pl], sub_id)
                .expect("branching arc exists in snapshot graph");
            (e.sign, e.weight)
        }));
        parent.push(parent_local);
        nodes.push(sub_id);
        states.push(snapshot.state(sub_id));
        for &c in &children[sub_idx] {
            stack.push((c, Some(local)));
        }
    }
    // Every node follows its parent, so one descending pass has each
    // subtree complete before it is added to its parent's.
    let mut subtree_len = vec![1; nodes.len()];
    for x in (0..nodes.len()).rev() {
        if let Some(p) = parent[x] {
            subtree_len[p] += subtree_len[x];
        }
    }
    CascadeTree {
        nodes,
        parent,
        subtree_len,
        parent_edge,
        states,
    }
}

/// Computes the **external support** of every node of a forest: the
/// noisy-or probability that it could be activated by some *plausible
/// alternative activator* in `G_I`,
/// `s_v = 1 − Π_u (1 − g̃(u, v))`,
/// where `g̃` is the flip-discounted activation likelihood and `u`
/// ranges over the in-neighbours of `v` that are **neither its tree
/// parent nor one of its tree descendants** — activation strictly
/// precedes in a cascade, so a node's activator can never be its own
/// descendant (counting descendants would let a rumor initiator look
/// "explained" by the very nodes it infected, e.g. over reciprocal
/// trust links).
///
/// This recovers the §III-B noisy-or over all paths that the
/// single-tree-path product loses: a node with many plausible activators
/// is well explained even when its tree path is weak, so RID's
/// probability-sum objective will not waste an initiator on it — splits
/// concentrate where explanations are genuinely missing.
///
/// `trees` must partition the snapshot, as the output of
/// [`extract_cascade_forest`] does. `supports[i][local]` is the support
/// of tree `i`'s local node `local`; see
/// [`TreeDp::solve_probability_sum_with_support`](crate::TreeDp::solve_probability_sum_with_support).
///
/// # Panics
///
/// Panics if the trees hold more or fewer nodes than the snapshot.
///
/// # Examples
///
/// ```
/// use isomit_core::{external_support, extract_cascade_forest};
/// use isomit_diffusion::InfectedNetwork;
/// use isomit_graph::{Edge, NodeId, NodeState, Sign, SignedDigraph};
///
/// // 0 -> 2 wins the branching; the non-tree in-edge 1 -> 2 remains a
/// // plausible alternative activator of node 2 with g = min(1, 2 · 0.25).
/// let g = SignedDigraph::from_edges(
///     3,
///     [
///         Edge::new(NodeId(0), NodeId(2), Sign::Positive, 0.5),
///         Edge::new(NodeId(1), NodeId(2), Sign::Positive, 0.25),
///     ],
/// )?;
/// let snapshot = InfectedNetwork::from_parts(g, vec![NodeState::Positive; 3]);
/// let (trees, _) = extract_cascade_forest(&snapshot, 2.0);
/// // trees[0] is rooted at node 0 and contains node 2; trees[1] is node 1.
/// let supports = external_support(&snapshot, &trees, 2.0);
/// assert_eq!(supports, vec![vec![0.0, 0.5], vec![0.0]]);
/// # Ok::<(), isomit_graph::GraphError>(())
/// ```
pub fn external_support(
    snapshot: &InfectedNetwork,
    trees: &[CascadeTree],
    alpha: f64,
) -> Vec<Vec<f64>> {
    // The trees' pre-orders laid end to end give every snapshot node one
    // position. The trees partition the snapshot, so every position is
    // used once, and `u` is a descendant of `v` exactly when `u`'s
    // position lies in `v`'s subtree range, with no lookup of which tree
    // `u` is in.
    let n = snapshot.node_count();
    let mut position = vec![0usize; n];
    let mut start = 0;
    for tree in trees {
        for local in 0..tree.len() {
            position[tree.snapshot_id(local).index()] = start + local;
        }
        start += tree.len();
    }
    assert_eq!(start, n, "the trees must partition the snapshot");

    trees
        .iter()
        .map(|tree| {
            (0..tree.len())
                .map(|local| {
                    let v = tree.snapshot_id(local);
                    let parent = tree.parent(local).map(|p| tree.snapshot_id(p));
                    let at = position[v.index()];
                    let below = at..at + tree.subtree_len[local];
                    let mut miss = 1.0;
                    for e in snapshot.graph().in_edges(v) {
                        if Some(e.src) == parent || below.contains(&position[e.src.index()]) {
                            continue;
                        }
                        // Strict factor: an inconsistent in-edge is not a
                        // plausible *alternative* activator on its own (the
                        // flip explanation needs a second, consistent edge).
                        let g = crate::likelihood::g_factor(
                            alpha,
                            snapshot.state(e.src),
                            e.sign,
                            snapshot.state(e.dst),
                            e.weight,
                        );
                        miss *= 1.0 - g;
                    }
                    1.0 - miss
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use isomit_graph::{Edge, SignedDigraph};
    use NodeState::{Negative as N, Positive as P, Unknown as U};

    fn snapshot(edges: &[(u32, u32, Sign, f64)], states: &[NodeState]) -> InfectedNetwork {
        let g = SignedDigraph::from_edges(
            states.len(),
            edges
                .iter()
                .map(|&(a, b, s, w)| Edge::new(NodeId(a), NodeId(b), s, w)),
        )
        .unwrap();
        InfectedNetwork::from_parts(g, states.to_vec())
    }

    #[test]
    fn usable_arcs_discount_inconsistent() {
        let s = snapshot(
            &[
                (0, 1, Sign::Positive, 0.4), // consistent P -> P
                (0, 2, Sign::Positive, 0.4), // inconsistent P -> N
                (0, 3, Sign::Negative, 0.4), // consistent P -> N via -
            ],
            &[P, P, N, N],
        );
        let arcs = usable_arcs(&s, 2.0);
        // Every edge is a candidate (Algorithm 2 keeps all in-links)...
        assert_eq!(arcs.len(), 3);
        let w: Vec<f64> = arcs.iter().map(|a| a.weight).collect();
        // ...consistent positive is boosted (0.8), consistent negative
        // keeps its raw weight (0.4), inconsistent is flip-discounted.
        assert!(w.contains(&0.8));
        assert!(w.contains(&0.4));
        assert!(w.contains(&(crate::likelihood::FLIP_DISCOUNT * 0.8)));
    }

    #[test]
    fn unknown_states_keep_arcs_usable() {
        let s = snapshot(&[(0, 1, Sign::Positive, 0.3)], &[U, N]);
        assert_eq!(usable_arcs(&s, 2.0).len(), 1);
    }

    #[test]
    fn chain_yields_single_tree() {
        let s = snapshot(
            &[(0, 1, Sign::Positive, 0.5), (1, 2, Sign::Negative, 0.5)],
            &[P, P, N],
        );
        let (trees, components) = extract_cascade_forest(&s, 2.0);
        assert_eq!(components, 1);
        assert_eq!(trees.len(), 1);
        let t = &trees[0];
        assert_eq!(t.len(), 3);
        assert_eq!(t.snapshot_id(t.root()), NodeId(0));
        assert_eq!(t.parent_edge(t.root()), None);
        // Non-root nodes carry their activation edge's raw attributes.
        for local in 0..t.len() {
            if local != t.root() {
                let (sign, w) = t.parent_edge(local).unwrap();
                assert!((w - 0.5).abs() < 1e-12);
                let _ = sign;
            }
        }
    }

    #[test]
    fn inconsistent_edge_kept_with_discount() {
        // 0 -(+)-> 1 but 1 is negative: the edge stays a candidate (a
        // flip could explain it), so the forest is one tree; the DP
        // decides later whether node 1 is cheaper as an initiator.
        let s = snapshot(&[(0, 1, Sign::Positive, 0.9)], &[P, N]);
        let (trees, components) = extract_cascade_forest(&s, 2.0);
        assert_eq!(components, 1);
        assert_eq!(trees.len(), 1);
        assert_eq!(trees[0].len(), 2);
    }

    #[test]
    fn heaviest_parent_is_selected() {
        // Node 2 could be activated by 0 (boosted 0.9·2 → 1.0 capped) or
        // 1 (negative, 0.95). The boosted positive wins.
        let s = snapshot(
            &[(0, 2, Sign::Positive, 0.9), (1, 2, Sign::Negative, 0.95)],
            &[P, N, P],
        );
        let (trees, _) = extract_cascade_forest(&s, 2.0);
        // Roots: 0 and 1; node 2 hangs under 0.
        assert_eq!(trees.len(), 2);
        let t0 = trees
            .iter()
            .find(|t| t.snapshot_id(t.root()) == NodeId(0))
            .unwrap();
        assert_eq!(t0.len(), 2);
        let t1 = trees
            .iter()
            .find(|t| t.snapshot_id(t.root()) == NodeId(1))
            .unwrap();
        assert_eq!(t1.len(), 1);
    }

    #[test]
    fn multiple_components_multiple_trees() {
        let s = snapshot(
            &[(0, 1, Sign::Positive, 0.5), (2, 3, Sign::Positive, 0.5)],
            &[P, P, N, N],
        );
        let (trees, components) = extract_cascade_forest(&s, 2.0);
        assert_eq!(components, 2);
        assert_eq!(trees.len(), 2);
        // Trees sorted by root id.
        assert_eq!(trees[0].snapshot_id(trees[0].root()), NodeId(0));
        assert_eq!(trees[1].snapshot_id(trees[1].root()), NodeId(2));
    }

    #[test]
    fn forest_covers_every_infected_node_exactly_once() {
        let s = snapshot(
            &[
                (0, 1, Sign::Positive, 0.5),
                (1, 2, Sign::Positive, 0.5),
                (2, 0, Sign::Positive, 0.5), // cycle, broken by Edmonds
                (3, 2, Sign::Negative, 0.7),
            ],
            &[P, P, P, N],
        );
        let (trees, _) = extract_cascade_forest(&s, 2.0);
        let mut all: Vec<NodeId> = trees
            .iter()
            .flat_map(|t| (0..t.len()).map(|l| t.snapshot_id(l)))
            .collect();
        all.sort_unstable();
        assert_eq!(all, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn empty_snapshot() {
        let s = snapshot(&[], &[]);
        let (trees, components) = extract_cascade_forest(&s, 2.0);
        assert!(trees.is_empty());
        assert_eq!(components, 0);
    }

    #[test]
    fn external_support_counts_non_parent_in_edges() {
        // Node 2 has two in-edges: from 0 (its tree parent, the heavier)
        // and from 1. Support must count only the edge from 1.
        let s = snapshot(
            &[
                (0, 2, Sign::Positive, 0.4), // boosted to 0.8, tree parent
                (1, 2, Sign::Positive, 0.2), // boosted to 0.4, support
                (0, 1, Sign::Positive, 0.3),
            ],
            &[P, P, P],
        );
        let (trees, _) = extract_cascade_forest(&s, 2.0);
        assert_eq!(trees.len(), 1);
        let t = &trees[0];
        let support = &external_support(&s, &trees, 2.0)[0];
        let local2 = (0..t.len())
            .find(|&l| t.snapshot_id(l) == NodeId(2))
            .unwrap();
        assert!((support[local2] - 0.4).abs() < 1e-12);
        // The root has no parent, so every in-edge counts (it has none).
        assert_eq!(support[t.root()], 0.0);
    }

    #[test]
    fn external_support_crosses_trees_but_never_counts_descendants() {
        // Two trees, 0 -> 1 and 2 -> 3 -> 4 (each closes a cycle, 1 -> 0
        // and 4 -> 2, that Edmonds breaks at the light arc). Node 1 is a
        // descendant in its own tree and a non-parent in-neighbour of 3
        // and 4 in the later tree; node 3 feeds 1 the other way. Every
        // arc is consistent and positive, so g = min(1, 2w) exactly.
        let s = snapshot(
            &[
                (0, 1, Sign::Positive, 0.4),
                (1, 0, Sign::Positive, 0.1), // from a descendant: ignored
                (2, 3, Sign::Positive, 0.45),
                (1, 3, Sign::Positive, 0.25), // other tree: g = 0.5
                (3, 4, Sign::Positive, 0.4),
                (4, 2, Sign::Positive, 0.125), // from a descendant: ignored
                (1, 4, Sign::Positive, 0.0625), // other tree: g = 0.125
                (3, 1, Sign::Positive, 0.125), // other tree: g = 0.25
            ],
            &[P; 5],
        );
        let (trees, _) = extract_cascade_forest(&s, 2.0);
        let members: Vec<Vec<NodeId>> = trees
            .iter()
            .map(|t| (0..t.len()).map(|l| t.snapshot_id(l)).collect())
            .collect();
        assert_eq!(
            members,
            vec![
                vec![NodeId(0), NodeId(1)],
                vec![NodeId(2), NodeId(3), NodeId(4)]
            ]
        );
        assert_eq!(
            external_support(&s, &trees, 2.0),
            [vec![0.0, 0.25], vec![0.0, 0.5, 0.125]]
        );
    }

    #[test]
    fn trees_are_numbered_parents_first() {
        // Snapshot 0 activates 1 and 2, and 1 activates 3. The stack DFS
        // takes 0's last child first: locals 0, 1, 2, 3 are snapshot
        // nodes 0, 2, 1, 3.
        let s = snapshot(
            &[
                (0, 1, Sign::Positive, 0.5),
                (0, 2, Sign::Positive, 0.5),
                (1, 3, Sign::Positive, 0.5),
            ],
            &[P, P, N, N],
        );
        let (trees, _) = extract_cascade_forest(&s, 2.0);
        let t = &trees[0];
        let ids: Vec<u32> = (0..t.len()).map(|l| t.snapshot_id(l).0).collect();
        assert_eq!(ids, [0, 2, 1, 3]);
        let parents: Vec<Option<usize>> = (0..t.len()).map(|l| t.parent(l)).collect();
        assert_eq!(parents, [None, Some(0), Some(0), Some(2)]);
        assert_eq!(t.subtree_len, [4, 1, 2, 1]);
        let children: Vec<Vec<usize>> = (0..t.len()).map(|l| t.children(l).collect()).collect();
        assert_eq!(children, [vec![1, 2], vec![], vec![3], vec![]]);
        assert_eq!(t.children_lists(), children);
    }

    #[test]
    fn validate_accepts_extracted_trees_and_catches_corruption() {
        // The tree of `trees_are_numbered_parents_first`: parents
        // [None, 0, 0, 2], subtree lengths [4, 1, 2, 1].
        let s = snapshot(
            &[
                (0, 1, Sign::Positive, 0.5),
                (0, 2, Sign::Positive, 0.5),
                (1, 3, Sign::Positive, 0.5),
            ],
            &[P, P, N, N],
        );
        let (trees, _) = extract_cascade_forest(&s, 2.0);
        let good = trees[0].clone();
        good.validate(&s).unwrap();

        fn expect_invariant(t: &CascadeTree, s: &InfectedNetwork, needle: &str) {
            match t.validate(s) {
                Err(GraphError::Invariant(msg)) => {
                    assert!(msg.contains(needle), "message {msg:?} lacks {needle:?}")
                }
                other => panic!("expected Invariant containing {needle:?}, got {other:?}"),
            }
        }

        let mut t = good.clone();
        t.parent[2] = None; // a non-root node without a parent
        expect_invariant(&t, &s, "has no parent");

        let mut t = good.clone();
        t.parent[1] = Some(2); // a parent after its child
        expect_invariant(&t, &s, "comes after it");

        let mut t = good.clone();
        t.parent[3] = Some(1); // node 3 lies outside node 1's range 1..2
        expect_invariant(&t, &s, "past its parent");

        let mut t = good.clone();
        t.subtree_len[1] = 2; // nested in range, but node 1 is a leaf
        expect_invariant(&t, &s, "subtree length");

        let mut t = good.clone();
        t.parent_edge[0] = Some((Sign::Positive, 0.5)); // root with an edge
        expect_invariant(&t, &s, "disagree on rootness");

        let mut t = good.clone();
        t.nodes[1] = t.nodes[0]; // duplicate snapshot id
        expect_invariant(&t, &s, "appears twice");

        let mut t = good.clone();
        t.states.swap(0, 1); // snapshot nodes 0 and 2 hold P and N
        expect_invariant(&t, &s, "records state");

        let mut t = good.clone();
        if let Some((_, w)) = &mut t.parent_edge[1] {
            *w = 0.9; // snapshot edge weight is 0.5
        }
        expect_invariant(&t, &s, "snapshot has");
    }

    #[test]
    fn optimized_extraction_matches_reference() {
        // Multi-component snapshot with a cycle, an inconsistent edge, a
        // chain and isolated singletons: the arena-backed per-component
        // path must reproduce the single-run reference exactly.
        let s = snapshot(
            &[
                (0, 1, Sign::Positive, 0.5),
                (1, 2, Sign::Positive, 0.5),
                (2, 0, Sign::Positive, 0.5), // cycle
                (3, 2, Sign::Negative, 0.7),
                (4, 5, Sign::Positive, 0.9), // separate chain
                (5, 4, Sign::Negative, 0.9), // reciprocal, inconsistent
            ],
            &[P, P, P, N, P, P, U],
        );
        for alpha in [1.0, 2.0, 3.5] {
            let fast = extract_cascade_forest(&s, alpha);
            let reference = extract_cascade_forest_reference(&s, alpha);
            assert_eq!(fast, reference, "alpha={alpha}");
        }
        // Both paths count as extraction runs.
        let before = extraction_run_count();
        let _ = extract_cascade_forest(&s, 2.0);
        let _ = extract_cascade_forest_reference(&s, 2.0);
        assert_eq!(extraction_run_count(), before + 2);
    }

    #[test]
    fn tree_states_match_snapshot() {
        let s = snapshot(&[(0, 1, Sign::Negative, 0.5)], &[P, N]);
        let (trees, _) = extract_cascade_forest(&s, 2.0);
        let t = &trees[0];
        for local in 0..t.len() {
            assert_eq!(t.state(local), s.state(t.snapshot_id(local)));
        }
    }
}
