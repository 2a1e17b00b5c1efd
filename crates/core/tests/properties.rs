//! Property-based validation of the RID core: both dynamic programs are
//! checked against exhaustive brute-force search on small random
//! instances, and the pipeline's structural invariants are checked on
//! arbitrary snapshots.

use isomit_core::likelihood::{g_factor_discounted, FLIP_DISCOUNT};
use isomit_core::{
    extract_cascade_forest, CascadeTree, InitiatorDetector, Rid, RidObjective, TreeDp,
};
use isomit_diffusion::InfectedNetwork;
use isomit_graph::{Edge, NodeId, NodeState, Sign, SignedDigraph};
use proptest::prelude::*;

/// Random infected snapshot with fully observed states.
fn arb_snapshot(max_nodes: u32) -> impl Strategy<Value = InfectedNetwork> {
    (2..=max_nodes).prop_flat_map(move |n| {
        let edge = (0..n, 0..n, any::<bool>(), 0.05f64..1.0).prop_filter_map(
            "no self-loops",
            move |(a, b, pos, w)| {
                (a != b).then(|| {
                    Edge::new(
                        NodeId(a),
                        NodeId(b),
                        if pos { Sign::Positive } else { Sign::Negative },
                        w,
                    )
                })
            },
        );
        let edges = proptest::collection::vec(edge, 1..(3 * n as usize));
        let states = proptest::collection::vec(any::<bool>(), n as usize);
        (edges, states).prop_map(move |(edges, states)| {
            let g = SignedDigraph::from_edges(n as usize, edges).unwrap();
            let states = states
                .into_iter()
                .map(|p| {
                    if p {
                        NodeState::Positive
                    } else {
                        NodeState::Negative
                    }
                })
                .collect();
            InfectedNetwork::from_parts(g, states)
        })
    })
}

/// Edge probability used by the probability-sum DP (flip-discounted).
fn edge_prob(tree: &CascadeTree, parent: usize, child: usize, alpha: f64) -> f64 {
    let (sign, weight) = tree.parent_edge(child).expect("non-root child");
    g_factor_discounted(alpha, tree.state(parent), sign, tree.state(child), weight)
}

/// Brute-force optimum of the probability-sum objective over all
/// initiator sets containing the root.
fn brute_force_probability_sum(tree: &CascadeTree, alpha: f64, beta: f64) -> f64 {
    let n = tree.len();
    assert!(n <= 12, "exponential brute force");
    let mut best = f64::INFINITY;
    for mask in 0u32..(1 << n) {
        if mask & (1 << tree.root()) == 0 {
            continue;
        }
        // P(u) = product of edge probs from nearest initiator ancestor.
        let mut prob_sum = 0.0;
        for u in 0..n {
            if mask & (1 << u) != 0 {
                prob_sum += 1.0;
                continue;
            }
            let mut q = 1.0;
            let mut cur = u;
            loop {
                let p = tree.parent(cur).expect("a non-initiator is not the root");
                q *= edge_prob(tree, p, cur, alpha);
                if mask & (1 << p) != 0 {
                    break;
                }
                cur = p;
            }
            prob_sum += q;
        }
        let k = mask.count_ones() as f64;
        let objective = -prob_sum + (k - 1.0) * beta;
        if objective < best {
            best = objective;
        }
    }
    best
}

/// Brute-force optimum of the budgeted log-likelihood DP: minimum
/// Σ −ln(edge prob) over non-initiator nodes, over all initiator sets of
/// size exactly k containing the root.
fn brute_force_budgeted(tree: &CascadeTree, alpha: f64, k: usize) -> f64 {
    let n = tree.len();
    assert!(n <= 12, "exponential brute force");
    let mut best = f64::INFINITY;
    for mask in 0u32..(1 << n) {
        if mask & (1 << tree.root()) == 0 || mask.count_ones() as usize != k {
            continue;
        }
        let mut cost = 0.0;
        for u in 0..n {
            if mask & (1 << u) == 0 {
                let parent = tree.parent(u).expect("a non-initiator is not the root");
                let p = edge_prob(tree, parent, u, alpha);
                cost += if p <= 0.0 { f64::INFINITY } else { -p.ln() };
            }
        }
        if cost < best {
            best = cost;
        }
    }
    best
}

fn small_trees(snapshot: &InfectedNetwork, alpha: f64) -> Vec<CascadeTree> {
    let (trees, _) = extract_cascade_forest(snapshot, alpha);
    trees.into_iter().filter(|t| t.len() <= 12).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn probability_sum_dp_matches_brute_force(
        snapshot in arb_snapshot(10),
        beta in 0.0f64..2.0,
    ) {
        let alpha = 2.0;
        for tree in small_trees(&snapshot, alpha) {
            let outcome = TreeDp::solve_probability_sum(&tree, alpha, beta);
            let optimal = brute_force_probability_sum(&tree, alpha, beta);
            prop_assert!(
                (outcome.objective - optimal).abs() < 1e-9,
                "dp {} vs brute force {optimal} on a {}-node tree",
                outcome.objective,
                tree.len()
            );
        }
    }

    #[test]
    fn budgeted_dp_matches_brute_force(snapshot in arb_snapshot(9)) {
        let alpha = 2.0;
        for tree in small_trees(&snapshot, alpha) {
            let dp = TreeDp::solve(&tree, alpha, tree.len());
            for k in 1..=dp.k_max() {
                let optimal = brute_force_budgeted(&tree, alpha, k);
                let got = dp.cost(k);
                if optimal.is_infinite() {
                    prop_assert!(got.is_infinite());
                } else {
                    prop_assert!(
                        (got - optimal).abs() < 1e-9,
                        "k={k}: dp {got} vs brute force {optimal}"
                    );
                }
            }
        }
    }

    #[test]
    fn budgeted_costs_are_non_increasing_in_k(snapshot in arb_snapshot(12)) {
        let alpha = 3.0;
        let (trees, _) = extract_cascade_forest(&snapshot, alpha);
        for tree in trees {
            let dp = TreeDp::solve(&tree, alpha, tree.len());
            let mut last = f64::INFINITY;
            for k in 1..=dp.k_max() {
                let c = dp.cost(k);
                prop_assert!(c <= last + 1e-9, "cost rose at k={k}");
                last = c;
            }
        }
    }

    #[test]
    fn penalized_initiator_count_is_monotone_in_beta(snapshot in arb_snapshot(14)) {
        let alpha = 3.0;
        let (trees, _) = extract_cascade_forest(&snapshot, alpha);
        for tree in trees {
            let mut last = usize::MAX;
            for beta in [0.0, 0.5, 1.0, 2.0, 5.0] {
                let n = TreeDp::solve_probability_sum(&tree, alpha, beta)
                    .initiators
                    .len();
                prop_assert!(n <= last, "count rose with beta at {beta}");
                last = n;
            }
        }
    }

    #[test]
    fn forest_partitions_snapshot_and_preserves_edges(snapshot in arb_snapshot(16)) {
        let alpha = 3.0;
        let (trees, components) = extract_cascade_forest(&snapshot, alpha);
        prop_assert!(trees.len() >= components || snapshot.node_count() == 0);
        // Trees come out ordered by root snapshot id; the DP folds the
        // objective in this order.
        for pair in trees.windows(2) {
            prop_assert!(
                pair[0].snapshot_id(pair[0].root()) < pair[1].snapshot_id(pair[1].root()),
                "tree roots out of order"
            );
        }
        let mut seen = vec![false; snapshot.node_count()];
        for tree in &trees {
            for local in 0..tree.len() {
                let id = tree.snapshot_id(local);
                prop_assert!(!seen[id.index()], "node {id} in two trees");
                seen[id.index()] = true;
                prop_assert_eq!(tree.state(local), snapshot.state(id));
                if local != tree.root() {
                    // Parent edge exists in the snapshot graph, and the
                    // parent comes first.
                    let parent = tree.parent(local).expect("non-root has parent");
                    prop_assert!(parent < local, "parent after its child");
                    prop_assert!(tree.children(parent).any(|c| c == local));
                    let p = tree.snapshot_id(parent);
                    let (sign, weight) = tree.parent_edge(local).unwrap();
                    let e = snapshot.graph().edge(p, id).expect("edge exists");
                    prop_assert_eq!(e.sign, sign);
                    prop_assert!((e.weight - weight).abs() < 1e-15);
                }
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "forest must cover every node");
    }

    #[test]
    fn rid_detects_at_least_the_definite_roots(snapshot in arb_snapshot(16)) {
        for objective in [RidObjective::ProbabilitySum, RidObjective::LogLikelihood] {
            let rid = Rid::new(3.0, 1.0).unwrap().with_objective(objective);
            let detection = rid.detect(&snapshot);
            // Every node with no in-links must be detected (nobody could
            // have activated it).
            for v in snapshot.graph().nodes() {
                if snapshot.graph().in_degree(v) == 0 {
                    let orig = snapshot.mapping().to_original(v).unwrap();
                    prop_assert!(
                        detection.contains(orig),
                        "definite root {orig} missed ({objective:?})"
                    );
                }
            }
            // All detected states are concrete.
            for d in &detection.initiators {
                prop_assert!(d.state.is_active());
            }
        }
    }

    #[test]
    fn flip_discount_is_between_equation_and_prose(
        w in 0.01f64..1.0,
        pos in any::<bool>(),
    ) {
        use isomit_core::likelihood::{g_factor, g_factor_lenient};
        let sign = if pos { Sign::Positive } else { Sign::Negative };
        // Inconsistent configuration: P -> P over negative, P -> N over positive.
        let (sx, sy) = match sign {
            Sign::Positive => (NodeState::Positive, NodeState::Negative),
            Sign::Negative => (NodeState::Positive, NodeState::Positive),
        };
        let strict = g_factor(2.0, sx, sign, sy, w);
        let lenient = g_factor_lenient(2.0, sx, sign, sy, w);
        let discounted = g_factor_discounted(2.0, sx, sign, sy, w);
        prop_assert_eq!(strict, 0.0);
        prop_assert_eq!(lenient, 1.0);
        prop_assert!(discounted > strict && discounted < lenient);
        prop_assert!((discounted / FLIP_DISCOUNT).abs() <= 1.0 + 1e-12);
    }
}

/// Random finite detector config for codec round-trips.
fn arb_rid_config() -> impl Strategy<Value = isomit_core::RidConfig> {
    (1.0f64..16.0, 0.0f64..8.0, any::<bool>(), any::<bool>()).prop_map(
        |(alpha, beta, log_likelihood, external_support)| isomit_core::RidConfig {
            alpha,
            beta,
            objective: if log_likelihood {
                RidObjective::LogLikelihood
            } else {
                RidObjective::ProbabilitySum
            },
            external_support,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rid_config_round_trips_bit_exactly(config in arb_rid_config()) {
        let back = isomit_core::RidConfig::from_json_str(&config.to_json_string()).unwrap();
        prop_assert_eq!(back, config);
        prop_assert_eq!(back.alpha.to_bits(), config.alpha.to_bits());
        prop_assert_eq!(back.beta.to_bits(), config.beta.to_bits());
    }

    #[test]
    fn rid_result_round_trips_bit_exactly(
        snapshot in arb_snapshot(12),
        config in arb_rid_config(),
    ) {
        let rid = Rid::from_config(config).unwrap();
        let result = isomit_core::RidResult {
            config,
            detection: rid.detect(&snapshot),
        };
        let back = isomit_core::RidResult::from_json_str(&result.to_json_string()).unwrap();
        prop_assert_eq!(
            back.detection.objective.to_bits(),
            result.detection.objective.to_bits()
        );
        prop_assert_eq!(back, result);
    }
}
