// lint:allow-file(indexing) the k-ISOMIT-BT dynamic program indexes f/g/cap/choice tables allocated per binarized-tree node and context state; every subscript is a node id below bt.len() or a capacity below the table's own length
// lint:allow-file(cast-truncation) the DP packs backtracking choices and per-node budgets into u8/u32 table codes; every cast source is a capacity bounded by k (≤ 255) or a binarized-tree index already validated against u32::MAX at tree construction
//! The k-ISOMIT-BT dynamic program (§III-D) and its penalized variant
//! used by RID's model selection (§III-E3).
//!
//! Both operate on a [`CascadeTree`] after the Figure-3 binarization.
//! Every node of the binary tree is either *explained by its parent*
//! (paying the activation-edge cost `−ln g`) or an *initiator* (paying
//! nothing, but consuming initiator budget). Dummy nodes are transparent:
//! no cost, never initiators, and they forward their real ancestor's
//! state downward. Nodes with [`NodeState::Unknown`] snapshot states are
//! free variables — the DP infers the state assignment that maximizes
//! the likelihood, which is how RID recovers initiator *states*, not
//! just identities.
//!
//! [`TreeDp`] tabulates `OPT(u, k)` for every `k` (the paper's exact
//! polynomial algorithm for a known initiator budget); `solve_penalized`
//! solves `min cost + β·k` directly in `O(n)` — a Lagrangian view of the
//! same recurrence that is what the paper's "increase `k` until the
//! objective stops improving" heuristic approximates, and is exact for
//! the penalized objective.

use crate::forest_extraction::CascadeTree;
use crate::likelihood::boosted_probability;
use isomit_forest::{binarize, BinaryTree};
use isomit_graph::{NodeId, NodeState, Sign};

const POS: usize = 0;
const NEG: usize = 1;

fn sign_of(idx: usize) -> Sign {
    if idx == POS {
        Sign::Positive
    } else {
        Sign::Negative
    }
}

/// Allowed assumed-state indices for an observed snapshot state.
fn allowed_states(s: NodeState) -> &'static [usize] {
    match s {
        NodeState::Positive => &[POS],
        NodeState::Negative => &[NEG],
        NodeState::Unknown => &[POS, NEG],
        // Inactive nodes cannot appear in an infected snapshot.
        NodeState::Inactive => unreachable!("inactive node inside a cascade tree"),
    }
}

/// `−ln` of the flip-discounted activation likelihood of the edge
/// entering a real node, given assumed endpoint states: `−ln w̄` when
/// consistent, `−ln(FLIP_DISCOUNT · w̄)` when the edge can only be an
/// activation link in conjunction with a later flip
/// ([`crate::likelihood::FLIP_DISCOUNT`]); `INFINITY` when the
/// probability is zero.
fn real_edge_cost(alpha: f64, parent_state: usize, own_state: usize, edge: (Sign, f64)) -> f64 {
    let (sign, weight) = edge;
    let consistent = sign_of(parent_state) * sign == sign_of(own_state);
    let mut p = boosted_probability(alpha, sign, weight);
    if !consistent {
        p *= crate::likelihood::FLIP_DISCOUNT;
    }
    if p <= 0.0 {
        f64::INFINITY
    } else {
        -p.ln()
    }
}

/// A solved instance of the **k-ISOMIT-BT** dynamic program on one
/// cascade tree: minimum negative log-likelihood for every initiator
/// budget `k`, with traceback to the optimal initiator sets.
///
/// ```
/// use isomit_core::{extract_cascade_forest, TreeDp};
/// use isomit_diffusion::InfectedNetwork;
/// use isomit_graph::{Edge, NodeId, NodeState, Sign, SignedDigraph};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = SignedDigraph::from_edges(
///     2,
///     [Edge::new(NodeId(0), NodeId(1), Sign::Positive, 0.5)],
/// )?;
/// let snapshot =
///     InfectedNetwork::from_parts(g, vec![NodeState::Positive, NodeState::Positive]);
/// let (trees, _) = extract_cascade_forest(&snapshot, 1.0);
/// let dp = TreeDp::solve(&trees[0], 1.0, 2);
/// // k = 1: node 1 explained over the 0.5 edge → cost −ln 0.5.
/// assert!((dp.cost(1) - 0.5f64.ln().abs()).abs() < 1e-12);
/// // k = 2: both nodes initiators → cost 0.
/// assert_eq!(dp.cost(2), 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TreeDp {
    bt: BinaryTree,
    alpha: f64,
    k_max: usize,
    /// Original-tree snapshot ids and states, indexed by original local id.
    snapshot_ids: Vec<NodeId>,
    /// Traceback for the budgeted table `g[x][a_p][j]` (min cost of the
    /// subtree at binary node `x` given real-ancestor state `a_p`, using
    /// `j` initiators): chosen own state and initiator flag. Flattened as
    /// `x * 2 + a_p`, inner Vec over `j`.
    g_choice: Vec<Vec<(u8, bool)>>,
    /// Traceback for the children-merge table: initiators assigned to the
    /// left child.
    m_choice: Vec<Vec<u32>>,
    /// Root table: cost over `k`, and the root's chosen state.
    root_cost: Vec<f64>,
    root_choice: Vec<u8>,
}

/// Result of the penalized solve: the optimal initiator set for
/// `min −log L + β·k`.
#[derive(Debug, Clone, PartialEq)]
pub struct DpOutcome {
    /// Initiators as `(snapshot id, inferred initial state)`.
    pub initiators: Vec<(NodeId, Sign)>,
    /// Negative log-likelihood of the explained tree (`−OPT`).
    pub cost: f64,
    /// The paper's penalized objective `cost + (k − 1)·β`.
    pub objective: f64,
}

impl TreeDp {
    /// Runs the dynamic program on `tree` with boosting coefficient
    /// `alpha`, tabulating budgets `1..=k_max` (clamped to the tree
    /// size).
    ///
    /// Runs in `O(n · k_max²)` time and `O(n · k_max)` memory.
    ///
    /// # Panics
    ///
    /// Panics if the tree is empty, `k_max == 0`, or `alpha < 1`.
    pub fn solve(tree: &CascadeTree, alpha: f64, k_max: usize) -> Self {
        assert!(!tree.is_empty(), "cannot solve an empty tree");
        assert!(k_max > 0, "k_max must be positive");
        assert!(alpha >= 1.0, "alpha {alpha} must be >= 1");
        let k_max = k_max.min(tree.len());

        let bt = binarize(tree.root(), &tree.children_lists());
        let n = bt.len();
        let snapshot_ids: Vec<NodeId> = (0..tree.len()).map(|l| tree.snapshot_id(l)).collect();

        // Subtree real-node counts bound the useful budget per node.
        // Parents have smaller ids, so descending ids visit children first.
        let mut real_in_subtree = vec![0usize; n];
        for x in (0..n).rev() {
            let mut c = usize::from(!bt.is_dummy(x));
            for child in [bt.left(x), bt.right(x)].into_iter().flatten() {
                c += real_in_subtree[child];
            }
            real_in_subtree[x] = c;
        }
        let cap: Vec<usize> = real_in_subtree.iter().map(|&c| c.min(k_max)).collect();

        let mut g: Vec<Vec<f64>> = vec![Vec::new(); 2 * n];
        let mut g_choice: Vec<Vec<(u8, bool)>> = vec![Vec::new(); 2 * n];
        let mut m: Vec<Vec<f64>> = vec![Vec::new(); 2 * n];
        let mut m_choice: Vec<Vec<u32>> = vec![Vec::new(); 2 * n];

        for x in (0..n).rev() {
            let cx = cap[x];
            // Children merge m[x][a][j].
            for a in [POS, NEG] {
                let slot = x * 2 + a;
                let mut costs = vec![f64::INFINITY; cx + 1];
                let mut choices = vec![0u32; cx + 1];
                match (bt.left(x), bt.right(x)) {
                    (None, None) => {
                        costs[0] = 0.0;
                    }
                    (Some(c), None) | (None, Some(c)) => {
                        for j in 0..=cx.min(cap[c]) {
                            costs[j] = g[c * 2 + a][j];
                            choices[j] = j as u32;
                        }
                    }
                    (Some(l), Some(r)) => {
                        for j in 0..=cx {
                            let mut best = f64::INFINITY;
                            let mut best_j1 = 0u32;
                            let lo = j.saturating_sub(cap[r]);
                            for j1 in lo..=j.min(cap[l]) {
                                let v = g[l * 2 + a][j1] + g[r * 2 + a][j - j1];
                                if v < best {
                                    best = v;
                                    best_j1 = j1 as u32;
                                }
                            }
                            costs[j] = best;
                            choices[j] = best_j1;
                        }
                    }
                }
                m[slot] = costs;
                m_choice[slot] = choices;
            }

            // Connection cost g[x][a_p][j].
            if x == bt.root() {
                continue; // handled separately below
            }
            if bt.is_dummy(x) {
                for a_p in [POS, NEG] {
                    let slot = x * 2 + a_p;
                    g[slot] = m[slot].clone();
                    g_choice[slot] = vec![(a_p as u8, false); cx + 1];
                }
            } else {
                let orig = bt.original(x).expect("real node");
                let edge = tree
                    .parent_edge(orig)
                    .expect("non-root real node has a parent edge");
                let observed = tree.state(orig);
                for a_p in [POS, NEG] {
                    let slot = x * 2 + a_p;
                    let mut costs = vec![f64::INFINITY; cx + 1];
                    let mut choices = vec![(0u8, false); cx + 1];
                    for j in 0..=cx {
                        for &a in allowed_states(observed) {
                            // Explained by parent.
                            let ec = real_edge_cost(alpha, a_p, a, edge);
                            if ec.is_finite() {
                                let v = ec + m[x * 2 + a][j];
                                if v < costs[j] {
                                    costs[j] = v;
                                    choices[j] = (a as u8, false);
                                }
                            }
                            // Initiator.
                            if j >= 1 {
                                let v = m[x * 2 + a][j - 1];
                                if v < costs[j] {
                                    costs[j] = v;
                                    choices[j] = (a as u8, true);
                                }
                            }
                        }
                    }
                    g[slot] = costs;
                    g_choice[slot] = choices;
                }
            }
        }

        // Root: always an initiator (no incoming activation link).
        let root = bt.root();
        let observed = tree.state(bt.original(root).expect("root is real"));
        let cr = cap[root];
        let mut root_cost = vec![f64::INFINITY; cr + 1];
        let mut root_choice = vec![0u8; cr + 1];
        for k in 1..=cr {
            for &a in allowed_states(observed) {
                let v = m[root * 2 + a][k - 1];
                if v < root_cost[k] {
                    root_cost[k] = v;
                    root_choice[k] = a as u8;
                }
            }
        }

        let _ = (g, m, cap);
        TreeDp {
            bt,
            alpha,
            k_max,
            snapshot_ids,
            g_choice,
            m_choice,
            root_cost,
            root_choice,
        }
    }

    /// Largest tabulated budget (`min(k_max, tree size)`).
    pub fn k_max(&self) -> usize {
        self.k_max.min(self.root_cost.len().saturating_sub(1))
    }

    /// `−OPT(k)`: the minimum negative log-likelihood achievable with
    /// exactly `k` initiators (`f64::INFINITY` if infeasible).
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or exceeds [`k_max`](TreeDp::k_max).
    pub fn cost(&self, k: usize) -> f64 {
        assert!(k >= 1 && k <= self.k_max(), "k = {k} out of range");
        self.root_cost[k]
    }

    /// The paper's penalized objective for budget `k`:
    /// `cost(k) + (k − 1)·β`.
    ///
    /// # Panics
    ///
    /// Same as [`cost`](TreeDp::cost); also if `beta < 0`.
    pub fn objective(&self, k: usize, beta: f64) -> f64 {
        assert!(beta >= 0.0, "beta {beta} must be >= 0");
        self.cost(k) + (k as f64 - 1.0) * beta
    }

    /// Scans `k = 1..=k_max` and returns the budget minimizing the
    /// penalized objective, mirroring §III-E3's early-stopping rule:
    /// scanning stops after `patience` consecutive non-improving budgets.
    ///
    /// # Panics
    ///
    /// Panics if `beta < 0` or `patience == 0`.
    pub fn best_k(&self, beta: f64, patience: usize) -> (usize, f64) {
        assert!(patience > 0, "patience must be positive");
        let mut best_k = 1;
        let mut best_obj = self.objective(1, beta);
        let mut stale = 0;
        for k in 2..=self.k_max() {
            let obj = self.objective(k, beta);
            if obj < best_obj {
                best_obj = obj;
                best_k = k;
                stale = 0;
            } else {
                stale += 1;
                if stale >= patience {
                    break;
                }
            }
        }
        (best_k, best_obj)
    }

    /// Reconstructs the optimal initiator set for budget `k` as
    /// `(snapshot id, inferred state)` pairs, ascending by node.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range or infeasible.
    pub fn initiators(&self, k: usize) -> Vec<(NodeId, Sign)> {
        assert!(
            self.cost(k).is_finite(),
            "budget k = {k} is infeasible for this tree"
        );
        let mut out = Vec::with_capacity(k);
        let root = self.bt.root();
        let a_root = self.root_choice[k] as usize;
        out.push((self.snapshot_of(root), sign_of(a_root)));
        // Walk items: (binary node, context state at that node, budget for
        // its children merge).
        let mut stack = vec![(root, a_root, k - 1)];
        while let Some((x, a, j)) = stack.pop() {
            let j1 = self.m_choice[x * 2 + a][j] as usize;
            match (self.bt.left(x), self.bt.right(x)) {
                (None, None) => {}
                (Some(c), None) | (None, Some(c)) => self.descend(c, a, j, &mut out, &mut stack),
                (Some(l), Some(r)) => {
                    self.descend(l, a, j1, &mut out, &mut stack);
                    self.descend(r, a, j - j1, &mut out, &mut stack);
                }
            }
        }
        out.sort_by_key(|&(n, _)| n);
        out
    }

    fn descend(
        &self,
        x: usize,
        a_p: usize,
        j: usize,
        out: &mut Vec<(NodeId, Sign)>,
        stack: &mut Vec<(usize, usize, usize)>,
    ) {
        if self.bt.is_dummy(x) {
            stack.push((x, a_p, j));
            return;
        }
        let (a, initiator) = self.g_choice[x * 2 + a_p][j];
        let a = a as usize;
        if initiator {
            out.push((self.snapshot_of(x), sign_of(a)));
            stack.push((x, a, j - 1));
        } else {
            stack.push((x, a, j));
        }
    }

    fn snapshot_of(&self, bt_node: usize) -> NodeId {
        self.snapshot_ids[self.bt.original(bt_node).expect("real node")]
    }

    /// The boosting coefficient the DP was solved with.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Solves the paper's §III-D/III-E3 objective **as printed**:
    /// maximize `OPT = Σ_u P(u, s(u) | I, S)` minus the initiator
    /// penalty `(k − 1)·β`, where on a cascade tree `P(u | I, S)` is the
    /// product of flip-discounted activation probabilities along the
    /// path from `u`'s *nearest initiator ancestor* down to `u` (the
    /// only directed path to `u` inside the tree; initiators themselves
    /// have `P = 1`).
    ///
    /// Because per-node probabilities live in `[0, 1]`, the paper's
    /// penalty scale `β ∈ [0, 1]` (Figures 5–6) trades directly against
    /// per-node explanation quality — unlike the log-likelihood variants
    /// where edge costs are unbounded.
    ///
    /// The solver is an exact *ancestor-region* dynamic program: the
    /// state of a node is the distance `j` to its nearest initiator
    /// ancestor (equivalently the accumulated path product `q_j`), and
    /// children decide independently between staying in the parent's
    /// region (`j + 1`) or opening a new region (`j = 0`, paying `β`).
    /// Path products are truncated once they underflow `1e-12` — all
    /// deeper states are exactly equivalent — so it runs in
    /// `O(Σ_x min(depth(x), truncation depth))` and needs no binary
    /// transformation (without a shared `k` budget, sibling decisions
    /// are independent).
    ///
    /// Node states are taken as observed; [`NodeState::Unknown`] nodes
    /// are wildcards for the flip-discounted edge factor, and unknown
    /// *initiators* get the state agreeing with the weight-majority of
    /// their child edges.
    ///
    /// # Panics
    ///
    /// Panics if the tree is empty, `alpha < 1`, or `beta < 0`.
    pub fn solve_probability_sum(tree: &CascadeTree, alpha: f64, beta: f64) -> DpOutcome {
        Self::solve_probability_sum_with_support(tree, alpha, beta, None)
    }

    /// [`solve_probability_sum`](TreeDp::solve_probability_sum) with
    /// per-node *external support*: `support[local]` is the noisy-or
    /// probability that node `local` could be activated by some
    /// non-tree-parent in-neighbour in `G_I` (see
    /// [`crate::external_support`]). A node's explained probability
    /// becomes `P̃(v) = 1 − (1 − q_v)(1 − s_v)` — still linear in the
    /// path product `q_v`, so the ancestor-region DP stays exact.
    ///
    /// Support captures the §III-B noisy-or over **all** paths rather
    /// than the single tree path: nodes in densely infected regions are
    /// already well explained and are not worth splitting, so splits
    /// concentrate where explanations are genuinely missing — around
    /// undetected initiators.
    ///
    /// # Panics
    ///
    /// As [`solve_probability_sum`](TreeDp::solve_probability_sum);
    /// additionally if `support` is given with a length other than
    /// `tree.len()` or values outside `[0, 1]`.
    pub fn solve_probability_sum_with_support(
        tree: &CascadeTree,
        alpha: f64,
        beta: f64,
        support: Option<&[f64]>,
    ) -> DpOutcome {
        assert!(!tree.is_empty(), "cannot solve an empty tree");
        assert!(alpha >= 1.0, "alpha {alpha} must be >= 1");
        assert!(beta >= 0.0, "beta {beta} must be >= 0");
        if let Some(s) = support {
            assert_eq!(s.len(), tree.len(), "one support value per tree node");
            assert!(
                s.iter().all(|v| (0.0..=1.0).contains(v)),
                "support values must lie in [0, 1]"
            );
        }
        let support_of = |local: usize| support.map_or(0.0, |s| s[local]);
        const Q_EPS: f64 = 1e-12;
        let n = tree.len();

        // q[x][j]: path product over the last j edges ending at x
        // (q[x][0] = 1: x is the initiator), truncated at Q_EPS: the last
        // entry of a truncated vector is 0 and stands for every deeper j.
        // Ascending local ids visit parents before children.
        let mut q: Vec<Vec<f64>> = vec![Vec::new(); n];
        for x in 0..n {
            let mut qs = vec![1.0];
            if let (Some(p), Some((sign, weight))) = (tree.parent(x), tree.parent_edge(x)) {
                // Sign-inconsistent activation links get the
                // flip-discounted factor — between the paper's equation
                // convention (0) and prose convention (1); see
                // [`crate::likelihood::FLIP_DISCOUNT`].
                let edge_prob = crate::likelihood::g_factor_discounted(
                    alpha,
                    tree.state(p),
                    sign,
                    tree.state(x),
                    weight,
                );
                for &pq in &q[p] {
                    let v = edge_prob * pq;
                    if v < Q_EPS {
                        qs.push(0.0);
                        break;
                    }
                    qs.push(v);
                }
            }
            q[x] = qs;
        }

        // v[x][j]: best value of subtree(x) given nearest initiator at
        // distance j (j = 0: x is an initiator, β already charged).
        fn child_best(v: &[Vec<f64>], c: usize, j_child: usize) -> f64 {
            let vc = &v[c];
            vc[j_child.min(vc.len() - 1)].max(vc[0])
        }
        // Descending local ids visit children before parents.
        let mut v: Vec<Vec<f64>> = vec![Vec::new(); n];
        for x in (0..n).rev() {
            let qs = &q[x];
            let mut vx = Vec::with_capacity(qs.len());
            let sv = support_of(x);
            for (j, &qj) in qs.iter().enumerate() {
                // P̃(x) = 1 − (1 − q)(1 − s) = s + (1 − s)·q.
                let own = if j == 0 {
                    1.0 - beta
                } else {
                    sv + (1.0 - sv) * qj
                };
                let mut total = own;
                for c in tree.children(x) {
                    total += child_best(&v, c, j + 1);
                }
                vx.push(total);
            }
            v[x] = vx;
        }

        // Traceback from the root (always an initiator; its β is
        // refunded by the (k − 1) penalty convention).
        let mut initiators: Vec<(NodeId, Sign)> = Vec::new();
        let mut prob_sum = 0.0;
        let mut walk = vec![(tree.root(), 0usize)];
        while let Some((x, j)) = walk.pop() {
            if j == 0 {
                initiators.push((
                    tree.snapshot_id(x),
                    Self::probability_initiator_state(tree, alpha, x),
                ));
                prob_sum += 1.0;
            } else {
                let sv = support_of(x);
                let qj = q[x][j.min(q[x].len() - 1)];
                prob_sum += sv + (1.0 - sv) * qj;
            }
            for c in tree.children(x) {
                let vc = &v[c];
                let j_child = (j + 1).min(vc.len() - 1);
                if vc[j_child] >= vc[0] {
                    walk.push((c, j_child));
                } else {
                    walk.push((c, 0));
                }
            }
        }
        initiators.sort_by_key(|&(id, _)| id);
        let k = initiators.len() as f64;
        DpOutcome {
            cost: -prob_sum,
            objective: -prob_sum + (k - 1.0) * beta,
            initiators,
        }
    }

    /// Initial state reported for an initiator under the
    /// probability-sum objective: the observed state, or — for unknown
    /// observations — the sign agreeing with the boosted-weight majority
    /// of the node's child edges (positive on a tie or for a childless
    /// node).
    fn probability_initiator_state(tree: &CascadeTree, alpha: f64, x: usize) -> Sign {
        if let Some(sign) = tree.state(x).sign() {
            return sign;
        }
        let mut score = 0.0; // positive favours Sign::Positive
        for c in tree.children(x) {
            if let Some((edge_sign, weight)) = tree.parent_edge(c) {
                if let Some(child_sign) = tree.state(c).sign() {
                    let w = boosted_probability(alpha, edge_sign, weight);
                    // Assuming s(x) = +1, the edge is consistent iff
                    // edge_sign == child_sign.
                    if edge_sign * child_sign == Sign::Positive {
                        score += w;
                    } else {
                        score -= w;
                    }
                }
            }
        }
        if score >= 0.0 {
            Sign::Positive
        } else {
            Sign::Negative
        }
    }

    /// Solves the *penalized* problem `min cost + β·k` directly, without
    /// the `k` dimension — `O(n)` instead of `O(n·k²)`.
    ///
    /// This is the Lagrangian relaxation of the budgeted DP and is exact
    /// for RID's §III-E3 selection objective: the returned outcome's
    /// `objective` equals `min_k [cost(k) + (k−1)·β]`.
    ///
    /// # Panics
    ///
    /// Panics if the tree is empty, `alpha < 1`, or `beta < 0`.
    pub fn solve_penalized(tree: &CascadeTree, alpha: f64, beta: f64) -> DpOutcome {
        assert!(!tree.is_empty(), "cannot solve an empty tree");
        assert!(alpha >= 1.0, "alpha {alpha} must be >= 1");
        assert!(beta >= 0.0, "beta {beta} must be >= 0");
        let bt = binarize(tree.root(), &tree.children_lists());
        let n = bt.len();

        // f[x][a_p] = min (edge costs + beta per initiator) in subtree at
        // x, given nearest real ancestor state a_p.
        let mut f = vec![[f64::INFINITY; 2]; n];
        // choice[x][a_p] = (own state, initiator flag).
        let mut choice = vec![[(0u8, false); 2]; n];
        // merged[x][a] = children sum with context a.
        let mut merged = vec![[0.0f64; 2]; n];

        // Descending ids visit children before parents.
        for x in (0..n).rev() {
            for a in [POS, NEG] {
                let mut sum = 0.0;
                for child in [bt.left(x), bt.right(x)].into_iter().flatten() {
                    sum += f[child][a];
                }
                merged[x][a] = sum;
            }
            if x == bt.root() {
                continue;
            }
            if bt.is_dummy(x) {
                for a_p in [POS, NEG] {
                    f[x][a_p] = merged[x][a_p];
                    choice[x][a_p] = (a_p as u8, false);
                }
            } else {
                let orig = bt.original(x).expect("real node");
                let edge = tree.parent_edge(orig).expect("non-root has parent edge");
                let observed = tree.state(orig);
                for a_p in [POS, NEG] {
                    for &a in allowed_states(observed) {
                        let explained = real_edge_cost(alpha, a_p, a, edge) + merged[x][a];
                        if explained < f[x][a_p] {
                            f[x][a_p] = explained;
                            choice[x][a_p] = (a as u8, false);
                        }
                        let as_initiator = beta + merged[x][a];
                        if as_initiator < f[x][a_p] {
                            f[x][a_p] = as_initiator;
                            choice[x][a_p] = (a as u8, true);
                        }
                    }
                }
            }
        }

        let root = bt.root();
        let observed = tree.state(bt.original(root).expect("root is real"));
        let mut total = f64::INFINITY;
        let mut a_root = POS;
        for &a in allowed_states(observed) {
            let v = beta + merged[root][a];
            if v < total {
                total = v;
                a_root = a;
            }
        }

        // Traceback.
        let snapshot_of =
            |x: usize| -> NodeId { tree.snapshot_id(bt.original(x).expect("real node")) };
        let mut initiators = vec![(snapshot_of(root), sign_of(a_root))];
        let mut stack: Vec<(usize, usize)> = Vec::new(); // (node, context state)
        for child in [bt.left(root), bt.right(root)].into_iter().flatten() {
            stack.push((child, a_root));
        }
        while let Some((x, a_p)) = stack.pop() {
            let (a, initiator) = if bt.is_dummy(x) {
                (a_p, false)
            } else {
                let (a, init) = choice[x][a_p];
                (a as usize, init)
            };
            if initiator {
                initiators.push((snapshot_of(x), sign_of(a)));
            }
            for child in [bt.left(x), bt.right(x)].into_iter().flatten() {
                stack.push((child, a));
            }
        }
        initiators.sort_by_key(|&(n, _)| n);

        let k = initiators.len();
        let cost = total - beta * k as f64;
        DpOutcome {
            initiators,
            cost,
            objective: cost + (k as f64 - 1.0) * beta,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest_extraction::extract_cascade_forest;
    use isomit_diffusion::InfectedNetwork;
    use isomit_graph::{Edge, SignedDigraph};
    use NodeState::{Negative as N, Positive as P, Unknown as U};

    fn tree_from(edges: &[(u32, u32, Sign, f64)], states: &[NodeState]) -> CascadeTree {
        let g = SignedDigraph::from_edges(
            states.len(),
            edges
                .iter()
                .map(|&(a, b, s, w)| Edge::new(NodeId(a), NodeId(b), s, w)),
        )
        .unwrap();
        let snapshot = InfectedNetwork::from_parts(g, states.to_vec());
        let (mut trees, _) = extract_cascade_forest(&snapshot, 2.0);
        assert_eq!(trees.len(), 1, "expected a single cascade tree");
        trees.remove(0)
    }

    #[test]
    fn single_node_tree_costs_zero() {
        let t = tree_from(&[], &[P]);
        let dp = TreeDp::solve(&t, 2.0, 3);
        assert_eq!(dp.k_max(), 1);
        assert_eq!(dp.cost(1), 0.0);
        assert_eq!(dp.initiators(1), vec![(NodeId(0), Sign::Positive)]);
    }

    #[test]
    fn chain_costs_decrease_with_k() {
        // 0 -(+0.5)-> 1 -(-0.25)-> 2, alpha 2: edge probs 1.0 and 0.25.
        let t = tree_from(
            &[(0, 1, Sign::Positive, 0.5), (1, 2, Sign::Negative, 0.25)],
            &[P, P, N],
        );
        let dp = TreeDp::solve(&t, 2.0, 3);
        // k=1: cost = -ln(1.0) - ln(0.25) = ln 4.
        assert!((dp.cost(1) - 4.0f64.ln()).abs() < 1e-12);
        // k=2: make node 2 an initiator, drop the expensive edge.
        assert!((dp.cost(2) - 0.0).abs() < 1e-12);
        assert_eq!(dp.cost(3), 0.0);
        assert!(dp.cost(2) <= dp.cost(1));
        let inits = dp.initiators(2);
        assert_eq!(
            inits,
            vec![(NodeId(0), Sign::Positive), (NodeId(2), Sign::Negative)]
        );
    }

    #[test]
    fn root_state_matches_observation() {
        let t = tree_from(&[(0, 1, Sign::Negative, 0.5)], &[N, P]);
        let dp = TreeDp::solve(&t, 2.0, 2);
        let inits = dp.initiators(1);
        assert_eq!(inits, vec![(NodeId(0), Sign::Negative)]);
    }

    #[test]
    fn unknown_states_are_inferred() {
        // Root unknown; child observed negative over a positive edge →
        // the root must have been negative for the edge to be consistent.
        let t = tree_from(&[(0, 1, Sign::Positive, 0.5)], &[U, N]);
        let dp = TreeDp::solve(&t, 2.0, 2);
        let inits = dp.initiators(1);
        assert_eq!(inits, vec![(NodeId(0), Sign::Negative)]);
    }

    #[test]
    fn wide_star_uses_dummies_correctly() {
        // Root 0 with 4 children over identical edges.
        let t = tree_from(
            &[
                (0, 1, Sign::Positive, 0.25),
                (0, 2, Sign::Positive, 0.25),
                (0, 3, Sign::Positive, 0.25),
                (0, 4, Sign::Positive, 0.25),
            ],
            &[P, P, P, P, P],
        );
        let dp = TreeDp::solve(&t, 2.0, 5);
        // alpha 2 → each edge prob 0.5; k=1 explains all 4: cost 4 ln 2.
        assert!((dp.cost(1) - 4.0 * 2.0f64.ln()).abs() < 1e-10);
        // Each extra initiator saves exactly ln 2.
        for k in 2..=5 {
            assert!((dp.cost(k) - (5 - k) as f64 * 2.0f64.ln()).abs() < 1e-10);
        }
        // Dummy nodes are never reported.
        for k in 1..=5 {
            let inits = dp.initiators(k);
            assert_eq!(inits.len(), k);
            assert!(inits.iter().all(|&(n, _)| n.index() < 5));
        }
    }

    #[test]
    fn best_k_balances_cost_and_penalty() {
        let t = tree_from(
            &[(0, 1, Sign::Positive, 0.5), (1, 2, Sign::Negative, 0.25)],
            &[P, P, N],
        );
        let dp = TreeDp::solve(&t, 2.0, 3);
        // Cheap penalty: worth paying beta to drop the -ln 0.25 edge.
        let (k, _) = dp.best_k(0.1, 3);
        assert_eq!(k, 2);
        // Expensive penalty: keep a single initiator.
        let (k, _) = dp.best_k(10.0, 3);
        assert_eq!(k, 1);
    }

    #[test]
    fn penalized_matches_budgeted_scan() {
        let t = tree_from(
            &[
                (0, 1, Sign::Positive, 0.3),
                (0, 2, Sign::Negative, 0.6),
                (2, 3, Sign::Positive, 0.2),
                (2, 4, Sign::Negative, 0.9),
            ],
            &[P, P, N, N, P],
        );
        let dp = TreeDp::solve(&t, 2.0, 5);
        for beta in [0.0, 0.05, 0.1, 0.5, 1.0, 3.0] {
            let outcome = TreeDp::solve_penalized(&t, 2.0, beta);
            let exhaustive = (1..=dp.k_max())
                .map(|k| dp.objective(k, beta))
                .fold(f64::INFINITY, f64::min);
            assert!(
                (outcome.objective - exhaustive).abs() < 1e-9,
                "beta {beta}: penalized {} vs exhaustive {exhaustive}",
                outcome.objective
            );
            // Cost consistency: cost(k*) recomputed from the budgeted DP.
            let k = outcome.initiators.len();
            assert!((outcome.cost - dp.cost(k)).abs() < 1e-9);
        }
    }

    #[test]
    fn beta_zero_makes_everyone_an_initiator() {
        let t = tree_from(
            &[(0, 1, Sign::Positive, 0.3), (1, 2, Sign::Positive, 0.3)],
            &[P, P, P],
        );
        let outcome = TreeDp::solve_penalized(&t, 1.0, 0.0);
        // With no penalty, dropping every edge is free and optimal
        // (edges cost −ln 0.3 > 0 each).
        assert_eq!(outcome.initiators.len(), 3);
        assert_eq!(outcome.cost, 0.0);
    }

    #[test]
    fn huge_beta_keeps_single_root() {
        let t = tree_from(
            &[(0, 1, Sign::Positive, 0.3), (1, 2, Sign::Positive, 0.3)],
            &[P, P, P],
        );
        let outcome = TreeDp::solve_penalized(&t, 1.0, 100.0);
        assert_eq!(outcome.initiators.len(), 1);
        assert_eq!(outcome.initiators[0].0, NodeId(0));
    }

    #[test]
    fn penalized_on_deep_chain_is_fast_and_correct() {
        // 10k-node chain with strong edges: one initiator suffices.
        let edges: Vec<(u32, u32, Sign, f64)> = (0..9_999)
            .map(|i| (i, i + 1, Sign::Positive, 0.6))
            .collect();
        let states = vec![P; 10_000];
        let t = tree_from(&edges, &states);
        let outcome = TreeDp::solve_penalized(&t, 2.0, 0.5);
        assert_eq!(outcome.initiators.len(), 1);
        assert_eq!(outcome.cost, 0.0); // all edges boosted to prob 1
    }

    #[test]
    #[should_panic(expected = "k_max must be positive")]
    fn zero_k_max_panics() {
        let t = tree_from(&[], &[P]);
        TreeDp::solve(&t, 2.0, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cost_out_of_range_panics() {
        let t = tree_from(&[], &[P]);
        TreeDp::solve(&t, 2.0, 1).cost(2);
    }
}
