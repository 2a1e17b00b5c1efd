// lint:allow-file(indexing) lazy Chu-Liu/Edmonds indexes per-node arrays sized to the component's nodes plus its super-nodes, and per-edge arrays sized to its level-0 edges; Branching::validate() re-checks the parent structure in debug builds
//! Component-wise maximum branching: a lazy Chu-Liu/Edmonds run per
//! component against reusable scratch arenas.
//!
//! [`maximum_branching`](crate::maximum_branching), the oracle, solves the
//! whole node range level by level: each level picks every node's best
//! in-edge, contracts all of its cycles at once, and copies the surviving
//! edges, re-weighted, into the next level. [`maximum_branching_components`]
//! computes the **bit-identical** branching one component at a time
//! against a [`BranchingArena`], and contracts lazily:
//!
//! * each node's in-list is built once from the level-0 edges (the
//!   component's arcs in input order, then one 0-weight virtual-root edge
//!   per node), and its best in-edge is picked as the list is built;
//! * a walk follows best in-edges from each node in ascending order. When
//!   it reaches a node already on its path, that cycle becomes a new
//!   super-node at once: each member's in-edges from outside the cycle
//!   lose the weight of the member's best in-edge and are relinked into
//!   the super-node's in-list, edges inside the cycle are dropped, and the
//!   walk goes on from the super-node's best in-edge;
//! * expansion runs down the contraction tree: a super-node's chosen edge
//!   goes to the member holding its head, and every other member keeps
//!   its own best in-edge.
//!
//! So an edge is read once to be picked and once per cycle that contracts
//! around its head, where the oracle reads every surviving edge twice
//! per level. Three facts make the result the oracle's, bit for bit:
//!
//! * the oracle's tie rule (heavier first, a real arc before the virtual
//!   root, then the earlier edge) is, on the level-0 order where every
//!   real arc precedes every root edge, "heavier first, then the lower
//!   level-0 index": a strict total order, so scan order does not matter;
//! * a node outside every cycle keeps its in-edges, their weights and its
//!   best in-edge, so every new cycle passes through a new super-node,
//!   and contracting cycles one at a time yields the same nested cycles
//!   as contracting a whole level at once;
//! * every edge gets the same subtractions in the same inner-to-outer
//!   order, so every weight is bit-equal. (Tarjan's lazy offsets would sum
//!   the subtractions in another order, and the floats would differ.)
//!
//! `total_weight` is re-accumulated in one global ascending-node pass, the
//! oracle's summation order. Singleton and arc-free components exit early
//! as roots. The unit tests below and the forest property tests pin equal
//! `parent`/`parent_arc` and a bit-equal `total_weight`.

use crate::branching::{Branching, WeightedArc};
use crate::components::UnionFind;
use isomit_graph::NodeId;

/// Sentinel for "no edge / no node" in the arena's index vectors (plain
/// `usize` instead of `Option<usize>` keeps them `memset`-cheap).
const NONE: usize = usize::MAX;

/// Walk states: not reached yet, on the current walk, or done (its best
/// in-edges lead to the virtual root, and they never change again).
const NEW: u8 = 0;
const ON_PATH: u8 = 1;
const DONE: u8 = 2;

/// A level-0 edge of a component run. Its weight is re-weighted in place
/// each time a cycle contracts around its head, and it sits in exactly
/// one in-list at a time.
#[derive(Debug, Clone, Copy)]
struct InEdge {
    /// Local tail, or the virtual root; the node it now belongs to is
    /// [`BranchingArena::current`] of it.
    src: usize,
    /// Local head.
    dst: usize,
    weight: f64,
    /// Next edge of the same in-list, `NONE` at its end.
    next: usize,
}

/// Reusable scratch space for [`maximum_branching_components`].
///
/// Holds every buffer the component-wise Chu-Liu/Edmonds driver needs —
/// the arc grouping, the level-0 edges with their in-list links, the
/// per-node best in-edges, walk states and contraction tree, and the
/// union-find of super-node membership — so that running the branching
/// over many components (or many snapshots) performs no per-component
/// allocation after warm-up. Construct once with [`Default`] and pass
/// `&mut` to each call; buffers grow to the high-water mark and are then
/// reused.
///
/// An arena is cheap to create, so per-thread ownership (e.g. a
/// `thread_local!`) is the intended sharing model; the type is
/// deliberately not `Sync`-shareable state.
///
/// # Examples
///
/// ```
/// use isomit_forest::{maximum_branching_components, BranchingArena, WeightedArc};
/// use isomit_graph::NodeId;
///
/// let arcs = vec![
///     WeightedArc { src: 0, dst: 1, weight: 0.9 },
///     WeightedArc { src: 2, dst: 3, weight: 0.4 },
/// ];
/// let components = vec![
///     vec![NodeId(0), NodeId(1)],
///     vec![NodeId(2), NodeId(3)],
///     vec![NodeId(4)], // singleton: early-exits as a root
/// ];
/// let mut arena = BranchingArena::default();
/// let b = maximum_branching_components(5, &arcs, &components, &mut arena);
/// assert_eq!(b.parent(1), Some(0));
/// assert_eq!(b.parent(3), Some(2));
/// assert_eq!(b.roots(), vec![0, 2, 4]);
/// // The arena can be reused for the next call at zero allocation cost.
/// let again = maximum_branching_components(5, &arcs, &components, &mut arena);
/// assert_eq!(again, b);
/// ```
#[derive(Debug, Default)]
pub struct BranchingArena {
    // -- driver scratch --------------------------------------------------
    /// Component id per global node.
    comp_of: Vec<usize>,
    /// Local (component-relative) id per global node; written before read
    /// for every node of the component being solved, so it never needs
    /// resetting between components.
    local_of: Vec<usize>,
    /// Arc indices grouped by component, input order preserved per group.
    comp_arc_ids: Vec<usize>,
    /// Per-component offsets into `comp_arc_ids` (length `components + 1`).
    comp_arc_start: Vec<usize>,
    /// Write cursors for the driver's arc-grouping counting sort.
    cursor: Vec<usize>,
    // -- per-component Edmonds scratch -----------------------------------
    /// Level-0 edges: the component's arcs in input order, then one
    /// virtual-root edge per node. An index into it is a level-0 index.
    edges: Vec<InEdge>,
    // Per node, indexed by local id, then the virtual root (`len`), then
    // the super-nodes in creation order, so an enclosing super-node has a
    // larger id than its members:
    /// First edge of the node's in-list.
    in_head: Vec<usize>,
    /// Best in-edge; `NONE` for the virtual root.
    best: Vec<usize>,
    /// The super-node that contracted the node, `NONE` while it is current.
    outer: Vec<usize>,
    /// Walk state (`NEW`, `ON_PATH`, `DONE`).
    state: Vec<u8>,
    /// Expansion: the edge an enclosing super-node's choice enters the
    /// node by, `NONE` if it keeps its own best in-edge.
    entered: Vec<usize>,
    /// Super-node membership: original nodes and super-nodes are
    /// elements, and a contracted node is merged into its super-node.
    sets: UnionFind,
    /// Union-find representative → the current (outermost) node of its set.
    rep_node: Vec<usize>,
    /// The current walk.
    path: Vec<usize>,
}

/// Computes the same maximum-weight spanning branching as
/// [`maximum_branching`](crate::maximum_branching), but component by
/// component against a reusable [`BranchingArena`].
///
/// `components` must partition `0..n` (e.g. the output of
/// [`weakly_connected_components`](crate::weakly_connected_components) on
/// the snapshot graph), and every arc must stay inside a single component
/// — which holds by construction for weakly-connected components, since an
/// arc weakly connects its endpoints.
///
/// The result is **bit-identical** to the single-run reference: the same
/// arcs are selected (the deterministic tie-break is a strict total order
/// on each component's level-0 edges, which keep the input order) and
/// `total_weight` is accumulated in the same ascending-node order.
/// Singleton components and components without usable arcs short-circuit
/// to roots without touching the Edmonds machinery.
///
/// # Panics
///
/// Panics if an arc references a node `>= n`, is a self-loop, carries a
/// negative / non-finite weight, crosses two components, or references a
/// node missing from `components`.
///
/// # Examples
///
/// ```
/// use isomit_forest::{
///     maximum_branching, maximum_branching_components, BranchingArena, WeightedArc,
/// };
/// use isomit_graph::NodeId;
///
/// // A 2-cycle component plus an external entry, and a separate chain.
/// let arcs = vec![
///     WeightedArc { src: 0, dst: 1, weight: 0.8 },
///     WeightedArc { src: 1, dst: 0, weight: 0.7 },
///     WeightedArc { src: 2, dst: 0, weight: 0.5 },
///     WeightedArc { src: 3, dst: 4, weight: 0.6 },
/// ];
/// let components = vec![
///     vec![NodeId(0), NodeId(1), NodeId(2)],
///     vec![NodeId(3), NodeId(4)],
/// ];
/// let mut arena = BranchingArena::default();
/// let fast = maximum_branching_components(5, &arcs, &components, &mut arena);
/// let reference = maximum_branching(5, &arcs);
/// assert_eq!(fast, reference);
/// assert_eq!(fast.total_weight().to_bits(), reference.total_weight().to_bits());
/// ```
pub fn maximum_branching_components(
    n: usize,
    arcs: &[WeightedArc],
    components: &[Vec<NodeId>],
    arena: &mut BranchingArena,
) -> Branching {
    for (i, a) in arcs.iter().enumerate() {
        assert!(
            a.src < n && a.dst < n,
            "arc {i} ({}, {}) out of bounds for {n} nodes",
            a.src,
            a.dst
        );
        assert!(a.src != a.dst, "arc {i} is a self-loop on {}", a.src);
        assert!(
            a.weight.is_finite() && a.weight >= 0.0,
            "arc {i} has invalid weight {}",
            a.weight
        );
    }
    if n == 0 {
        return Branching::from_parts(Vec::new(), Vec::new(), 0.0);
    }

    // Component id per node; doubles as the partition check.
    arena.comp_of.clear();
    arena.comp_of.resize(n, NONE);
    for (cid, comp) in components.iter().enumerate() {
        for &v in comp {
            assert!(
                v.index() < n && arena.comp_of[v.index()] == NONE,
                "components must partition 0..{n}: node {v} repeated or out of bounds"
            );
            arena.comp_of[v.index()] = cid;
        }
    }

    // Group arc indices by component with a counting sort, preserving the
    // input order inside each group so every sub-run sees its candidate
    // arcs in the same relative order as the global reference run.
    let comp_count = components.len();
    arena.comp_arc_start.clear();
    arena.comp_arc_start.resize(comp_count + 1, 0);
    for (i, a) in arcs.iter().enumerate() {
        let cid = arena.comp_of[a.src];
        assert!(
            cid != NONE && cid == arena.comp_of[a.dst],
            "arc {i} ({}, {}) crosses components or references an uncovered node",
            a.src,
            a.dst
        );
        arena.comp_arc_start[cid + 1] += 1;
    }
    for cid in 0..comp_count {
        arena.comp_arc_start[cid + 1] += arena.comp_arc_start[cid];
    }
    arena.cursor.clear();
    arena
        .cursor
        .extend_from_slice(&arena.comp_arc_start[..comp_count]);
    arena.comp_arc_ids.clear();
    arena.comp_arc_ids.resize(arcs.len(), 0);
    for (i, a) in arcs.iter().enumerate() {
        let cid = arena.comp_of[a.src];
        arena.comp_arc_ids[arena.cursor[cid]] = i;
        arena.cursor[cid] += 1;
    }

    arena.local_of.clear();
    arena.local_of.resize(n, NONE);

    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut parent_arc: Vec<Option<usize>> = vec![None; n];

    for (cid, comp) in components.iter().enumerate() {
        let arc_lo = arena.comp_arc_start[cid];
        let arc_hi = arena.comp_arc_start[cid + 1];
        // Early exit: a singleton can never take an in-arc, and a
        // component without usable arcs is all roots. Either way the
        // `None` defaults already say the right thing.
        if comp.len() < 2 || arc_lo == arc_hi {
            continue;
        }
        for (local, &v) in comp.iter().enumerate() {
            arena.local_of[v.index()] = local;
        }
        arena.solve_component(comp, arc_lo, arc_hi, arcs, &mut parent, &mut parent_arc);
    }

    // Re-accumulate the total in one global ascending-node pass — the
    // exact floating-point summation order of the reference's level-0
    // read-off, so the sum is bit-identical, not merely close.
    let mut total_weight = 0.0;
    for arc in parent_arc.iter().flatten() {
        total_weight += arcs[*arc].weight;
    }
    let branching = Branching::from_parts(parent, parent_arc, total_weight);
    debug_assert!(
        branching.validate(arcs).is_ok(),
        "maximum_branching_components produced an invalid branching: {:?}",
        branching.validate(arcs)
    );
    branching
}

impl BranchingArena {
    /// Runs the lazy Chu-Liu/Edmonds on one component and writes the
    /// selected arcs into the global `parent`/`parent_arc` arrays.
    ///
    /// `local_of` must already map this component's nodes to `0..len`;
    /// `comp_arc_ids[arc_lo..arc_hi]` lists the component's arc indices in
    /// input order.
    fn solve_component(
        &mut self,
        comp: &[NodeId],
        arc_lo: usize,
        arc_hi: usize,
        arcs: &[WeightedArc],
        parent: &mut [Option<usize>],
        parent_arc: &mut [Option<usize>],
    ) {
        let len = comp.len();
        let root = len;

        // 1. In-lists and best in-edges, from the level-0 edges: the
        // component's arcs in input order, then the virtual-root edges.
        self.edges.clear();
        self.in_head.clear();
        self.in_head.resize(len + 1, NONE);
        self.best.clear();
        self.best.resize(len + 1, NONE);
        for k in arc_lo..arc_hi {
            let a = &arcs[self.comp_arc_ids[k]];
            self.add_edge(self.local_of[a.src], self.local_of[a.dst], a.weight);
        }
        for v in 0..len {
            self.add_edge(root, v, 0.0);
        }

        // 2. Walk best in-edges from each node; contract each cycle as
        // soon as the walk closes it, and go on from its super-node.
        self.outer.clear();
        self.outer.resize(len + 1, NONE);
        self.state.clear();
        self.state.resize(len + 1, NEW);
        self.state[root] = DONE;
        self.sets.clear();
        self.rep_node.clear();
        for v in 0..=len {
            self.sets.push();
            self.rep_node.push(v);
        }
        for start in 0..len {
            if self.state[start] != NEW {
                continue;
            }
            self.path.clear();
            let mut v = start;
            loop {
                match self.state[v] {
                    NEW => {
                        self.state[v] = ON_PATH;
                        self.path.push(v);
                        v = self.current(self.edges[self.best[v]].src);
                    }
                    ON_PATH => v = self.contract(v),
                    _ => break,
                }
            }
            for &x in &self.path {
                self.state[x] = DONE;
            }
        }

        // 3. Expand, outermost super-node first. One that no enclosing
        // choice entered takes its own best in-edge, which enters every
        // node from the edge's head up to it; every other node keeps its
        // own best in-edge.
        let nodes = self.best.len();
        self.entered.clear();
        self.entered.resize(nodes, NONE);
        for s in (len + 1..nodes).rev() {
            if self.entered[s] != NONE {
                continue;
            }
            let e = self.best[s];
            let mut x = self.edges[e].dst;
            while x != s {
                self.entered[x] = e;
                x = self.outer[x];
            }
        }

        // 4. Read off: an edge below the arc count is the component's
        // `e`-th arc; the rest are virtual-root edges, leaving a root.
        for (v, node) in comp.iter().enumerate() {
            let e = match self.entered[v] {
                NONE => self.best[v],
                e => e,
            };
            if e < arc_hi - arc_lo {
                let ga = self.comp_arc_ids[arc_lo + e];
                parent[node.index()] = Some(arcs[ga].src);
                parent_arc[node.index()] = Some(ga);
            }
        }
    }

    /// Appends a level-0 edge to its head's in-list and keeps the head's
    /// best in-edge.
    fn add_edge(&mut self, src: usize, dst: usize, weight: f64) {
        let e = self.edges.len();
        self.edges.push(InEdge {
            src,
            dst,
            weight,
            next: self.in_head[dst],
        });
        self.in_head[dst] = e;
        self.offer(dst, e);
    }

    /// Makes `e` the best in-edge of `node` if it beats the incumbent:
    /// heavier first, then the lower level-0 index.
    #[inline]
    fn offer(&mut self, node: usize, e: usize) {
        let b = self.best[node];
        let better = b == NONE || {
            let (w, bw) = (self.edges[e].weight, self.edges[b].weight);
            w > bw || (w == bw && e < b)
        };
        if better {
            self.best[node] = e;
        }
    }

    /// The current (outermost) node that contains node `x`.
    #[inline]
    fn current(&mut self, x: usize) -> usize {
        self.rep_node[self.sets.find(x)]
    }

    /// Contracts the cycle the walk closed at `v` — the suffix of `path`
    /// from `v` — into a new super-node, and returns it.
    fn contract(&mut self, v: usize) -> usize {
        let pos = self
            .path
            .iter()
            .rposition(|&x| x == v)
            .expect("v is on the walk");
        let s = self.sets.push();
        debug_assert_eq!(s, self.best.len(), "one element per node");
        self.rep_node.push(s);
        self.in_head.push(NONE);
        self.best.push(NONE);
        self.outer.push(NONE);
        self.state.push(NEW);
        for &c in &self.path[pos..] {
            self.sets.union(c, s);
            self.outer[c] = s;
        }
        let rep = self.sets.find(s);
        self.rep_node[rep] = s;

        // Each member's in-edges from outside the cycle lose the weight of
        // the member's best in-edge and move to the super-node; edges
        // from inside the cycle are dropped.
        for i in pos..self.path.len() {
            let c = self.path[i];
            let base = self.edges[self.best[c]].weight;
            let mut e = self.in_head[c];
            while e != NONE {
                let next = self.edges[e].next;
                if self.current(self.edges[e].src) != s {
                    self.edges[e].weight -= base;
                    self.edges[e].next = self.in_head[s];
                    self.in_head[s] = e;
                    self.offer(s, e);
                }
                e = next;
            }
        }
        self.path.truncate(pos);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branching::maximum_branching;

    fn arcs(list: &[(usize, usize, f64)]) -> Vec<WeightedArc> {
        list.iter()
            .map(|&(src, dst, weight)| WeightedArc { src, dst, weight })
            .collect()
    }

    /// Weak components of `(0..n, arcs)` in the same deterministic shape
    /// as `weakly_connected_components`: ascending by smallest member,
    /// nodes ascending within.
    fn component_sets(n: usize, arcs: &[WeightedArc]) -> Vec<Vec<NodeId>> {
        let mut uf = UnionFind::new(n);
        for a in arcs {
            uf.union(a.src, a.dst);
        }
        let mut by_root: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for v in 0..n {
            let r = uf.find(v);
            by_root[r].push(NodeId::from_index(v));
        }
        by_root.retain(|c| !c.is_empty());
        by_root
    }

    /// Asserts bit-identical agreement between the component driver and
    /// the single-run reference.
    fn assert_matches_reference(n: usize, arcs: &[WeightedArc]) {
        let reference = maximum_branching(n, arcs);
        let components = component_sets(n, arcs);
        let mut arena = BranchingArena::default();
        let fast = maximum_branching_components(n, arcs, &components, &mut arena);
        for v in 0..n {
            assert_eq!(fast.parent(v), reference.parent(v), "parent of {v}");
            assert_eq!(fast.parent_arc(v), reference.parent_arc(v), "arc of {v}");
        }
        assert_eq!(
            fast.total_weight().to_bits(),
            reference.total_weight().to_bits(),
            "total_weight must be bit-identical"
        );
        // And again through the same arena: reuse must not change results.
        let again = maximum_branching_components(n, arcs, &components, &mut arena);
        assert_eq!(again, fast);
    }

    #[test]
    fn empty_graph() {
        let b = maximum_branching_components(0, &[], &[], &mut BranchingArena::default());
        assert!(b.is_empty());
    }

    #[test]
    fn all_singletons_are_roots() {
        let components: Vec<Vec<NodeId>> = (0..4).map(|v| vec![NodeId(v)]).collect();
        let b = maximum_branching_components(4, &[], &components, &mut BranchingArena::default());
        assert_eq!(b.roots(), vec![0, 1, 2, 3]);
        assert_eq!(b.total_weight(), 0.0);
    }

    #[test]
    fn matches_reference_on_two_chains() {
        let a = arcs(&[(0, 1, 0.5), (1, 2, 0.4), (3, 4, 0.9)]);
        assert_matches_reference(5, &a);
    }

    #[test]
    fn matches_reference_on_cycles_per_component() {
        // Component {0,1,2}: 2-cycle plus external entry; component
        // {3,4,5}: pure 3-cycle (the lightest arc must be dropped).
        let a = arcs(&[
            (0, 1, 0.8),
            (1, 0, 0.7),
            (2, 0, 0.5),
            (3, 4, 0.9),
            (4, 5, 0.8),
            (5, 3, 0.3),
        ]);
        assert_matches_reference(6, &a);
    }

    #[test]
    fn matches_reference_on_nested_contraction() {
        // Interlocking cycles force two contraction rounds, next to an
        // untouched singleton and a parallel-arc component.
        let a = arcs(&[
            (0, 1, 1.0),
            (1, 0, 1.0),
            (1, 2, 1.0),
            (2, 1, 1.0),
            (3, 0, 0.5),
            (5, 6, 0.3),
            (5, 6, 0.7),
        ]);
        assert_matches_reference(7, &a);
    }

    #[test]
    fn matches_reference_on_equal_weight_ties() {
        // All-equal weights make every selection a tie-break decision;
        // input order must decide identically in both drivers.
        let a = arcs(&[
            (0, 1, 0.5),
            (2, 1, 0.5),
            (1, 0, 0.5),
            (3, 4, 0.5),
            (4, 3, 0.5),
            (3, 4, 0.5),
        ]);
        assert_matches_reference(5, &a);
    }

    #[test]
    fn matches_reference_on_dense_multi_component_graphs() {
        // Deterministic pseudo-random weights over K5 ⊔ K4 ⊔ chain ⊔
        // singletons, several seeds.
        for seed in 0..8 {
            let mut w = 0.13f64 + 0.07 * seed as f64;
            let mut all = Vec::new();
            let mut push_clique = |all: &mut Vec<WeightedArc>, lo: usize, hi: usize| {
                for s in lo..hi {
                    for d in lo..hi {
                        if s != d {
                            all.push(WeightedArc {
                                src: s,
                                dst: d,
                                weight: w,
                            });
                            w = (w * 31.7 + 0.11) % 1.0;
                        }
                    }
                }
            };
            push_clique(&mut all, 0, 5);
            push_clique(&mut all, 5, 9);
            all.push(WeightedArc {
                src: 9,
                dst: 10,
                weight: 0.25,
            });
            // Nodes 11, 12 stay isolated singletons.
            assert_matches_reference(13, &all);
        }
    }

    #[test]
    fn arena_reuse_shrinks_then_grows() {
        // Solve a large component, then a small one, then large again:
        // pooled buffers must resize correctly in both directions.
        let mut arena = BranchingArena::default();
        let big = arcs(&[(0, 1, 0.9), (1, 2, 0.8), (2, 0, 0.7), (3, 2, 0.6)]);
        let big_components = component_sets(4, &big);
        let b1 = maximum_branching_components(4, &big, &big_components, &mut arena);
        let small = arcs(&[(0, 1, 0.4)]);
        let small_components = component_sets(2, &small);
        let s = maximum_branching_components(2, &small, &small_components, &mut arena);
        assert_eq!(s.parent(1), Some(0));
        let b2 = maximum_branching_components(4, &big, &big_components, &mut arena);
        assert_eq!(b1, b2);
    }

    #[test]
    #[should_panic(expected = "crosses components")]
    fn cross_component_arc_panics() {
        let a = arcs(&[(0, 1, 0.5)]);
        let components = vec![vec![NodeId(0)], vec![NodeId(1)]];
        maximum_branching_components(2, &a, &components, &mut BranchingArena::default());
    }

    #[test]
    #[should_panic(expected = "partition")]
    fn repeated_node_in_components_panics() {
        let components = vec![vec![NodeId(0), NodeId(0)]];
        maximum_branching_components(1, &[], &components, &mut BranchingArena::default());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_arc_panics() {
        maximum_branching_components(
            2,
            &arcs(&[(0, 5, 0.5)]),
            &[],
            &mut BranchingArena::default(),
        );
    }
}
