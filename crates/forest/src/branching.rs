// lint:allow-file(indexing) Chu-Liu/Edmonds indexes per-node scratch arrays (state, best_in, cycle_of) allocated with the contracted graph's node count; Branching::validate() checks the parent structure
use isomit_graph::GraphError;

/// A directed weighted arc, input to [`maximum_branching`].
///
/// Indices are plain `usize` (not [`isomit_graph::NodeId`]) because the
/// branching is computed on pruned per-component edge sets whose node
/// numbering is local to the caller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightedArc {
    /// Source node, `< n`.
    pub src: usize,
    /// Destination node, `< n`.
    pub dst: usize,
    /// Non-negative finite weight.
    pub weight: f64,
}

/// The result of [`maximum_branching`]: a spanning branching (forest of
/// arborescences) in parent-pointer form.
#[derive(Debug, Clone, PartialEq)]
pub struct Branching {
    parent: Vec<Option<usize>>,
    parent_arc: Vec<Option<usize>>,
    total_weight: f64,
}

impl Branching {
    /// Internal constructor for the component-wise driver; callers must
    /// uphold the invariants checked by [`Branching::validate`].
    pub(crate) fn from_parts(
        parent: Vec<Option<usize>>,
        parent_arc: Vec<Option<usize>>,
        total_weight: f64,
    ) -> Self {
        Branching {
            parent,
            parent_arc,
            total_weight,
        }
    }

    /// Parent of `v` in the branching, `None` if `v` is a root.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    pub fn parent(&self, v: usize) -> Option<usize> {
        self.parent[v]
    }

    /// Index (into the input arc slice) of the arc selected as `v`'s
    /// in-edge, `None` if `v` is a root.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    pub fn parent_arc(&self, v: usize) -> Option<usize> {
        self.parent_arc[v]
    }

    /// `true` if `v` has no parent.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    pub fn is_root(&self, v: usize) -> bool {
        self.parent[v].is_none()
    }

    /// All roots in ascending order.
    pub fn roots(&self) -> Vec<usize> {
        (0..self.parent.len())
            .filter(|&v| self.parent[v].is_none())
            .collect()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// `true` for the empty branching.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Sum of the selected arcs' weights.
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// Checks every structural invariant of the branching against the
    /// arcs it was computed from.
    ///
    /// Verified invariants:
    ///
    /// * `parent` and `parent_arc` have equal length and agree on which
    ///   nodes are roots;
    /// * every selected arc index is in bounds and the arc really runs
    ///   from the recorded parent to the node;
    /// * the parent pointers are acyclic (walking up from any node
    ///   reaches a root);
    /// * `total_weight` equals the sum of the selected arcs' weights.
    ///
    /// [`maximum_branching`] upholds these by construction and re-asserts
    /// them in debug builds; call this on branchings arriving through
    /// other channels, not per-query.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Invariant`] naming the first violated
    /// invariant.
    pub fn validate(&self, arcs: &[WeightedArc]) -> Result<(), GraphError> {
        let n = self.parent.len();
        let fail = |msg: String| Err(GraphError::Invariant(msg));
        if self.parent_arc.len() != n {
            return fail(format!(
                "parent has {n} entries but parent_arc has {}",
                self.parent_arc.len()
            ));
        }
        let mut weight = 0.0;
        for (v, (p, a)) in self.parent.iter().zip(self.parent_arc.iter()).enumerate() {
            match (p, a) {
                (None, None) => {}
                (Some(p), Some(a)) => {
                    let Some(arc) = arcs.get(*a) else {
                        return fail(format!(
                            "node {v} selects arc {a}, but only {} arcs exist",
                            arcs.len()
                        ));
                    };
                    if arc.src != *p || arc.dst != v {
                        return fail(format!(
                            "node {v} records parent {p} via arc {a}, but that arc is ({}, {})",
                            arc.src, arc.dst
                        ));
                    }
                    weight += arc.weight;
                }
                _ => {
                    return fail(format!(
                        "node {v}: parent and parent_arc disagree on rootness"
                    ))
                }
            }
        }
        if (weight - self.total_weight).abs() > 1e-9 * weight.abs().max(1.0) {
            return fail(format!(
                "total_weight {} does not match the selected arcs' sum {weight}",
                self.total_weight
            ));
        }
        // Acyclicity: walking up from any node terminates within n steps.
        for v in 0..n {
            let mut cur = v;
            let mut steps = 0usize;
            while let Some(p) = self.parent.get(cur).copied().flatten() {
                cur = p;
                steps += 1;
                if steps > n {
                    return fail(format!("parent pointers cycle through node {v}"));
                }
            }
        }
        Ok(())
    }

    /// Children lists, derived from the parent pointers.
    pub fn children(&self) -> Vec<Vec<usize>> {
        let mut children = vec![Vec::new(); self.parent.len()];
        for (v, p) in self.parent.iter().enumerate() {
            if let Some(p) = p {
                children[*p].push(v);
            }
        }
        children
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct WorkEdge {
    pub(crate) src: usize,
    pub(crate) dst: usize,
    pub(crate) weight: f64,
    /// Index of the edge this one descends from, one level down
    /// (at level 0: the input arc index, or `usize::MAX` for virtual-root
    /// edges).
    pub(crate) parent_edge: usize,
    /// `true` if the edge descends from a virtual-root edge.
    pub(crate) root_edge: bool,
}

#[derive(Debug)]
struct LevelRecord {
    node_count: usize,
    edges: Vec<WorkEdge>,
    best_in: Vec<Option<usize>>,
    /// Cycle membership per node at this level.
    cycle_of: Vec<Option<usize>>,
    cycles: Vec<Vec<usize>>,
}

pub(crate) const ROOT_ARC: usize = usize::MAX;

/// Computes a **maximum-weight spanning branching** of the directed graph
/// `(0..n, arcs)` with the Chu-Liu/Edmonds algorithm.
///
/// Every node selects at most one incoming arc; the selected arcs are
/// acyclic and their total weight is maximal. This realizes the paper's
/// Algorithms 2–4 (MWSG + Contract Circles + cascade-tree extraction):
/// per weakly-connected infected component, the maximum branching *is*
/// the maximum-likelihood cascade forest, because maximizing
/// `Σ log w(u, v)` equals maximizing `Π w(u, v)`.
///
/// Tie-breaking is deterministic: higher weight wins; at equal weight a
/// real arc beats remaining a root, and the earliest arc in input order
/// wins. Nodes with no incoming arcs (and nodes whose best alternative is
/// to start a new tree) become roots.
///
/// Runs in `O(m · c)` where `c ≤ n` is the number of contraction rounds
/// (small in practice).
///
/// # Panics
///
/// Panics if an arc references a node `>= n`, is a self-loop, or carries
/// a negative / non-finite weight.
pub fn maximum_branching(n: usize, arcs: &[WeightedArc]) -> Branching {
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
        return Branching {
            parent: Vec::new(),
            parent_arc: Vec::new(),
            total_weight: 0.0,
        };
    }

    // Virtual root r = n turns the branching problem into a spanning
    // arborescence problem: an `(r, v)` edge of weight 0 selected for `v`
    // means "v is a root".
    let root = n;
    let mut edges: Vec<WorkEdge> = arcs
        .iter()
        .enumerate()
        .map(|(i, a)| WorkEdge {
            src: a.src,
            dst: a.dst,
            weight: a.weight,
            parent_edge: i,
            root_edge: false,
        })
        .collect();
    edges.extend((0..n).map(|v| WorkEdge {
        src: root,
        dst: v,
        weight: 0.0,
        parent_edge: ROOT_ARC,
        root_edge: true,
    }));

    let mut node_count = n + 1;
    let mut root_label = root;
    let mut levels: Vec<LevelRecord> = Vec::new();

    loop {
        // 1. Best incoming edge per node (the root never takes one).
        let mut best_in: Vec<Option<usize>> = vec![None; node_count];
        for (idx, e) in edges.iter().enumerate() {
            if e.dst == root_label {
                continue;
            }
            let better = match best_in[e.dst] {
                None => true,
                Some(cur) => {
                    let c = &edges[cur];
                    e.weight > c.weight || (e.weight == c.weight && c.root_edge && !e.root_edge)
                }
            };
            if better {
                best_in[e.dst] = Some(idx);
            }
        }

        // 2. Cycle detection in the parent functional graph.
        let mut state = vec![0u8; node_count]; // 0 new, 1 on path, 2 done
        let mut cycle_of: Vec<Option<usize>> = vec![None; node_count];
        let mut cycles: Vec<Vec<usize>> = Vec::new();
        for start in 0..node_count {
            if state[start] != 0 {
                continue;
            }
            let mut path = Vec::new();
            let mut v = start;
            loop {
                if state[v] == 1 {
                    // Found a cycle: the suffix of `path` starting at `v`.
                    let pos = path.iter().position(|&x| x == v).expect("v is on path");
                    let cycle: Vec<usize> = path[pos..].to_vec();
                    let id = cycles.len();
                    for &x in &cycle {
                        cycle_of[x] = Some(id);
                    }
                    cycles.push(cycle);
                    break;
                }
                if state[v] == 2 {
                    break;
                }
                state[v] = 1;
                path.push(v);
                match best_in[v] {
                    Some(e) => v = edges[e].src,
                    None => break,
                }
            }
            for &x in &path {
                state[x] = 2;
            }
        }

        let acyclic = cycles.is_empty();
        let record = LevelRecord {
            node_count,
            edges: std::mem::take(&mut edges),
            best_in,
            cycle_of,
            cycles,
        };

        if acyclic {
            levels.push(record);
            break;
        }

        // 3. Contract every cycle into a fresh super-node.
        let mut label = vec![usize::MAX; node_count];
        let mut next_id = 0usize;
        for (v, slot) in label.iter_mut().enumerate() {
            if record.cycle_of[v].is_none() {
                *slot = next_id;
                next_id += 1;
            }
        }
        let cycle_base = next_id;
        for (cid, cycle) in record.cycles.iter().enumerate() {
            for &v in cycle {
                label[v] = cycle_base + cid;
            }
        }
        let new_count = cycle_base + record.cycles.len();
        let new_root = label[root_label];

        let mut new_edges = Vec::with_capacity(record.edges.len());
        for (idx, e) in record.edges.iter().enumerate() {
            let (lu, lv) = (label[e.src], label[e.dst]);
            if lu == lv {
                continue;
            }
            let weight = if record.cycle_of[e.dst].is_some() {
                let chosen = record.best_in[e.dst].expect("cycle node has a parent");
                e.weight - record.edges[chosen].weight
            } else {
                e.weight
            };
            new_edges.push(WorkEdge {
                src: lu,
                dst: lv,
                weight,
                parent_edge: idx,
                root_edge: e.root_edge,
            });
        }

        levels.push(record);
        edges = new_edges;
        node_count = new_count;
        root_label = new_root;
    }

    // 4. Expand level by level. `selected` holds, per node of the current
    // level, the chosen in-edge index at that level.
    let top = levels.len() - 1;
    let mut selected: Vec<Option<usize>> = levels[top].best_in.clone();
    for k in (0..top).rev() {
        let upper = &levels[k + 1];
        let lower = &levels[k];
        let mut lower_selected: Vec<Option<usize>> = vec![None; lower.node_count];
        // Map each chosen upper-level edge to the lower-level edge it
        // descends from; its dst is the entry point into a cycle or a
        // plain node.
        let mut entered: Vec<Option<usize>> = vec![None; lower.node_count];
        for chosen in selected.iter().flatten() {
            let lower_edge = upper.edges[*chosen].parent_edge;
            entered[lower.edges[lower_edge].dst] = Some(lower_edge);
        }
        for (v, slot) in lower_selected.iter_mut().enumerate() {
            *slot = match (lower.cycle_of[v], entered[v]) {
                (None, e) => e,
                // The cycle was entered at v: the external edge replaces
                // v's cycle parent.
                (Some(_), Some(e)) => Some(e),
                // Other cycle members keep their in-cycle parent.
                (Some(_), None) => lower.best_in[v],
            };
        }
        selected = lower_selected;
    }

    // 5. Read off the answer at level 0.
    let base = &levels[0];
    let mut parent = vec![None; n];
    let mut parent_arc = vec![None; n];
    let mut total_weight = 0.0;
    for v in 0..n {
        if let Some(e) = selected[v] {
            let edge = &base.edges[e];
            debug_assert_eq!(edge.dst, v);
            if edge.parent_edge != ROOT_ARC {
                parent[v] = Some(edge.src);
                parent_arc[v] = Some(edge.parent_edge);
                total_weight += arcs[edge.parent_edge].weight;
            }
        }
    }
    let branching = Branching {
        parent,
        parent_arc,
        total_weight,
    };
    debug_assert!(
        branching.validate(arcs).is_ok(),
        "maximum_branching produced an invalid branching: {:?}",
        branching.validate(arcs)
    );
    branching
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arcs(list: &[(usize, usize, f64)]) -> Vec<WeightedArc> {
        list.iter()
            .map(|&(src, dst, weight)| WeightedArc { src, dst, weight })
            .collect()
    }

    /// Checks structural validity via the public validator.
    fn validate(n: usize, arcs: &[WeightedArc], b: &Branching) {
        assert_eq!(b.len(), n);
        b.validate(arcs).unwrap();
    }

    fn expect_invariant(b: &Branching, arcs: &[WeightedArc], needle: &str) {
        match b.validate(arcs) {
            Err(isomit_graph::GraphError::Invariant(msg)) => {
                assert!(msg.contains(needle), "message {msg:?} lacks {needle:?}")
            }
            other => panic!("expected Invariant error containing {needle:?}, got {other:?}"),
        }
    }

    #[test]
    fn validate_catches_corruption() {
        let a = arcs(&[(0, 1, 0.5), (1, 2, 0.5)]);
        let good = maximum_branching(3, &a);
        good.validate(&a).unwrap();

        let mut b = good.clone();
        b.parent[2] = Some(0); // arc 1 runs (1, 2), not (0, 2)
        expect_invariant(&b, &a, "that arc is");

        let mut b = good.clone();
        b.parent_arc[2] = Some(9);
        expect_invariant(&b, &a, "arcs exist");

        let mut b = good.clone();
        b.parent[2] = None; // parent_arc still Some
        expect_invariant(&b, &a, "disagree on rootness");

        let mut b = good.clone();
        b.total_weight = 9.0;
        expect_invariant(&b, &a, "does not match");

        let mut b = good.clone();
        // 1 -> 2 -> 1 cycle: point 1's parent at 2 via a fabricated arc.
        let cyclic = arcs(&[(0, 1, 0.5), (1, 2, 0.5), (2, 1, 0.5)]);
        b.parent[1] = Some(2);
        b.parent_arc[1] = Some(2);
        expect_invariant(&b, &cyclic, "cycle");
    }

    #[test]
    fn empty_graph() {
        let b = maximum_branching(0, &[]);
        assert!(b.is_empty());
        assert_eq!(b.total_weight(), 0.0);
    }

    #[test]
    fn no_arcs_all_roots() {
        let b = maximum_branching(3, &[]);
        assert_eq!(b.roots(), vec![0, 1, 2]);
    }

    #[test]
    fn picks_heaviest_parent() {
        let a = arcs(&[(0, 2, 0.9), (1, 2, 0.4)]);
        let b = maximum_branching(3, &a);
        validate(3, &a, &b);
        assert_eq!(b.parent(2), Some(0));
        assert_eq!(b.parent_arc(2), Some(0));
        assert!((b.total_weight() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn simple_cycle_is_broken_optimally() {
        // 0 <-> 1 cycle plus external edge into 0.
        let a = arcs(&[(0, 1, 0.8), (1, 0, 0.7), (2, 0, 0.5)]);
        let b = maximum_branching(3, &a);
        validate(3, &a, &b);
        // Best: keep (0,1)=0.8 and take (2,0)=0.5 → 1.3, dropping (1,0).
        assert_eq!(b.parent(1), Some(0));
        assert_eq!(b.parent(0), Some(2));
        assert!((b.total_weight() - 1.3).abs() < 1e-12);
    }

    #[test]
    fn isolated_cycle_drops_lightest_edge() {
        // Pure 3-cycle, no external entry: drop the lightest arc.
        let a = arcs(&[(0, 1, 0.9), (1, 2, 0.8), (2, 0, 0.3)]);
        let b = maximum_branching(3, &a);
        validate(3, &a, &b);
        assert!(b.is_root(0));
        assert_eq!(b.parent(1), Some(0));
        assert_eq!(b.parent(2), Some(1));
        assert!((b.total_weight() - 1.7).abs() < 1e-12);
    }

    #[test]
    fn cycle_entry_point_chosen_to_maximize_total() {
        // Cycle 0 -> 1 -> 0; entering at 1 costs dropping (0, 1).
        // External options: (2, 0, 0.6) vs (2, 1, 0.65).
        // Enter at 0: keep (0,1)=0.9, add 0.6 → 1.5 (drop (1,0)=0.5).
        // Enter at 1: keep (1,0)=0.5, add 0.65 → 1.15.
        let a = arcs(&[(0, 1, 0.9), (1, 0, 0.5), (2, 0, 0.6), (2, 1, 0.65)]);
        let b = maximum_branching(3, &a);
        validate(3, &a, &b);
        assert_eq!(b.parent(0), Some(2));
        assert_eq!(b.parent(1), Some(0));
        assert!((b.total_weight() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn nested_contraction() {
        // Two interlocking cycles force two contraction rounds.
        let a = arcs(&[
            (0, 1, 1.0),
            (1, 0, 1.0),
            (1, 2, 1.0),
            (2, 1, 1.0),
            (3, 0, 0.5),
        ]);
        let b = maximum_branching(4, &a);
        validate(4, &a, &b);
        // All of 0, 1, 2 reachable from 3; total 0.5 + 1.0 + 1.0 = 2.5.
        assert!((b.total_weight() - 2.5).abs() < 1e-12);
        assert!(b.is_root(3));
        assert_eq!(b.parent(0), Some(3));
    }

    #[test]
    fn parallel_arcs_pick_heavier() {
        let a = arcs(&[(0, 1, 0.3), (0, 1, 0.7)]);
        let b = maximum_branching(2, &a);
        validate(2, &a, &b);
        assert_eq!(b.parent_arc(1), Some(1));
    }

    #[test]
    fn zero_weight_arc_still_usable() {
        // Forced-parent flavour: a 0-weight arc is preferred over
        // rootless-ness... both give total 0; tie-break prefers the real
        // arc, matching the paper's MWSG which always picks an in-edge.
        let a = arcs(&[(0, 1, 0.0)]);
        let b = maximum_branching(2, &a);
        validate(2, &a, &b);
        assert_eq!(b.parent(1), Some(0));
    }

    #[test]
    fn chain_reconstruction() {
        let a = arcs(&[(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5)]);
        let b = maximum_branching(4, &a);
        validate(4, &a, &b);
        assert_eq!(b.roots(), vec![0]);
        assert_eq!(b.children()[1], vec![2]);
        assert!((b.total_weight() - 1.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_arc_panics() {
        maximum_branching(2, &arcs(&[(0, 5, 0.5)]));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        maximum_branching(2, &arcs(&[(1, 1, 0.5)]));
    }

    #[test]
    #[should_panic(expected = "invalid weight")]
    fn negative_weight_panics() {
        maximum_branching(2, &arcs(&[(0, 1, -0.5)]));
    }

    /// Exhaustive check against brute force on all small digraphs.
    #[test]
    fn matches_brute_force_on_dense_small_graphs() {
        // Deterministic pseudo-random weights over all arcs of K4.
        let mut all = Vec::new();
        let mut w = 0.13f64;
        for s in 0..4 {
            for d in 0..4 {
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
        let b = maximum_branching(4, &all);
        validate(4, &all, &b);
        assert!((b.total_weight() - brute_force(4, &all)).abs() < 1e-9);
    }

    /// Brute-force maximum branching by enumerating parent choices.
    fn brute_force(n: usize, arcs: &[WeightedArc]) -> f64 {
        let mut in_arcs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, a) in arcs.iter().enumerate() {
            in_arcs[a.dst].push(i);
        }
        fn is_acyclic(n: usize, parent: &[Option<usize>]) -> bool {
            for start in 0..n {
                let mut cur = start;
                let mut steps = 0;
                while let Some(p) = parent[cur] {
                    cur = p;
                    steps += 1;
                    if steps > n {
                        return false;
                    }
                }
            }
            true
        }
        fn rec(
            v: usize,
            n: usize,
            in_arcs: &[Vec<usize>],
            arcs: &[WeightedArc],
            parent: &mut Vec<Option<usize>>,
            weight: f64,
            best: &mut f64,
        ) {
            if v == n {
                if is_acyclic(n, parent) && weight > *best {
                    *best = weight;
                }
                return;
            }
            parent[v] = None;
            rec(v + 1, n, in_arcs, arcs, parent, weight, best);
            for &i in &in_arcs[v] {
                parent[v] = Some(arcs[i].src);
                rec(
                    v + 1,
                    n,
                    in_arcs,
                    arcs,
                    parent,
                    weight + arcs[i].weight,
                    best,
                );
            }
            parent[v] = None;
        }
        let mut best = 0.0;
        let mut parent = vec![None; n];
        rec(0, n, &in_arcs, arcs, &mut parent, 0.0, &mut best);
        best
    }
}
