//! Property-based tests for the graph substrate.

use isomit_graph::traversal::{Bfs, Visit};
use isomit_graph::{jaccard_coefficient, jaccard_weights, Edge, NodeId, Sign, SignedDigraph};
use proptest::prelude::*;
use std::collections::VecDeque;

/// Strategy producing a valid edge set over `n` nodes (no self-loops,
/// weights in [0, 1]).
fn arb_edges(max_nodes: u32, max_edges: usize) -> impl Strategy<Value = (usize, Vec<Edge>)> {
    (2..=max_nodes).prop_flat_map(move |n| {
        let edge = (0..n, 0..n, any::<bool>(), 0.0f64..=1.0).prop_filter_map(
            "self-loops are invalid",
            |(a, b, pos, w)| {
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
        proptest::collection::vec(edge, 0..max_edges).prop_map(move |edges| (n as usize, edges))
    })
}

/// Strategy producing a graph for the search tests — edges among the
/// first nodes, some of them reciprocated, then isolated nodes — and up
/// to `max_sources - 1` search sources, duplicates allowed.
fn arb_search(max_sources: usize) -> impl Strategy<Value = (SignedDigraph, Vec<NodeId>)> {
    (1..=16u32, 0..=6u32).prop_flat_map(move |(linked, isolated)| {
        let pair = (0..linked, 0..linked, any::<bool>());
        (
            proptest::collection::vec(pair, 0..40),
            proptest::collection::vec(0..linked + isolated, 0..max_sources),
        )
            .prop_map(move |(pairs, sources)| {
                let mut edges = Vec::new();
                for (a, b, reciprocal) in pairs.into_iter().filter(|&(a, b, _)| a != b) {
                    edges.push(Edge::new(NodeId(a), NodeId(b), Sign::Positive, 0.5));
                    if reciprocal {
                        edges.push(Edge::new(NodeId(b), NodeId(a), Sign::Negative, 0.5));
                    }
                }
                let n = (linked + isolated) as usize;
                let g = SignedDigraph::from_edges(n, edges).expect("edges are in range");
                (g, sources.into_iter().map(NodeId).collect())
            })
    })
}

/// The reference search: a textbook queue BFS over the undirected view,
/// out-neighbours before in-neighbours.
fn reference_bfs(g: &SignedDigraph, sources: &[NodeId]) -> Vec<Visit> {
    let mut seen = vec![false; g.node_count()];
    let mut queue = VecDeque::new();
    for &node in sources {
        if !std::mem::replace(&mut seen[node.index()], true) {
            queue.push_back(Visit {
                node,
                parent: None,
                depth: 0,
            });
        }
    }
    let mut order = Vec::new();
    while let Some(visit) = queue.pop_front() {
        order.push(visit);
        let u = visit.node;
        for &node in g.out_neighbors(u).iter().chain(g.in_neighbors(u)) {
            if !std::mem::replace(&mut seen[node.index()], true) {
                queue.push_back(Visit {
                    node,
                    parent: Some(u),
                    depth: visit.depth + 1,
                });
            }
        }
    }
    order
}

proptest! {
    #[test]
    fn csr_preserves_every_last_duplicate((n, edges) in arb_edges(24, 60)) {
        let g = SignedDigraph::from_edges(n, edges.clone()).unwrap();
        // Reference: the last edge for each (src, dst) pair.
        let mut expected = std::collections::HashMap::new();
        for e in &edges {
            expected.insert((e.src, e.dst), (e.sign, e.weight));
        }
        prop_assert_eq!(g.edge_count(), expected.len());
        for ((src, dst), (sign, weight)) in expected {
            let e = g.edge(src, dst).expect("edge must exist");
            prop_assert_eq!(e.sign, sign);
            prop_assert!((e.weight - weight).abs() < 1e-15);
        }
    }

    #[test]
    fn reversal_is_involution((n, edges) in arb_edges(24, 60)) {
        let g = SignedDigraph::from_edges(n, edges).unwrap();
        prop_assert_eq!(g.reversed().reversed(), g);
    }

    #[test]
    fn reversal_swaps_in_and_out_degrees((n, edges) in arb_edges(16, 48)) {
        let g = SignedDigraph::from_edges(n, edges).unwrap();
        let r = g.reversed();
        for u in g.nodes() {
            prop_assert_eq!(g.out_degree(u), r.in_degree(u));
            prop_assert_eq!(g.in_degree(u), r.out_degree(u));
        }
    }

    #[test]
    fn degree_sums_equal_edge_count((n, edges) in arb_edges(16, 48)) {
        let g = SignedDigraph::from_edges(n, edges).unwrap();
        let out_sum: usize = g.nodes().map(|u| g.out_degree(u)).sum();
        let in_sum: usize = g.nodes().map(|u| g.in_degree(u)).sum();
        prop_assert_eq!(out_sum, g.edge_count());
        prop_assert_eq!(in_sum, g.edge_count());
    }

    #[test]
    fn jaccard_is_bounded_and_symmetric_in_structure((n, edges) in arb_edges(12, 40)) {
        let g = SignedDigraph::from_edges(n, edges).unwrap();
        let w = jaccard_weights(&g);
        for e in w.edges() {
            prop_assert!((0.0..=1.0).contains(&e.weight));
            let jc = jaccard_coefficient(&g, e.src, e.dst);
            prop_assert!((jc - e.weight).abs() < 1e-15);
        }
    }

    #[test]
    fn induced_subgraph_of_all_nodes_is_identity((n, edges) in arb_edges(12, 40)) {
        let g = SignedDigraph::from_edges(n, edges).unwrap();
        let (sub, map) = g.induced_subgraph(g.nodes().collect::<Vec<_>>());
        prop_assert_eq!(&sub, &g);
        for u in g.nodes() {
            prop_assert_eq!(map.to_subgraph(u), Some(u));
            prop_assert_eq!(map.to_original(u), Some(u));
        }
    }

    #[test]
    fn induced_subgraph_never_invents_edges(
        (n, edges) in arb_edges(12, 40),
        keep_mask in proptest::collection::vec(any::<bool>(), 12),
    ) {
        let g = SignedDigraph::from_edges(n, edges).unwrap();
        let kept: Vec<NodeId> = g
            .nodes()
            .filter(|u| keep_mask.get(u.index()).copied().unwrap_or(false))
            .collect();
        let (sub, map) = g.induced_subgraph(kept);
        for e in sub.edges() {
            let src = map.to_original(e.src).unwrap();
            let dst = map.to_original(e.dst).unwrap();
            let orig = g.edge(src, dst).expect("subgraph edge must exist in parent");
            prop_assert_eq!(orig.sign, e.sign);
            prop_assert!((orig.weight - e.weight).abs() < 1e-15);
        }
    }
}

// Every construction path must produce a graph that passes the debug
// invariant check (`SignedDigraph::validate`): the builder, CSR
// construction from an edge list, reversal, weight mapping, and induced
// subgraphs.
proptest! {
    #[test]
    fn builder_output_passes_validate((n, edges) in arb_edges(24, 60)) {
        let mut b = isomit_graph::SignedDigraphBuilder::with_nodes(n);
        for e in edges {
            b.add_edge(e.src, e.dst, e.sign, e.weight).unwrap();
        }
        prop_assert!(b.build().validate().is_ok());
    }

    #[test]
    fn derived_graphs_pass_validate((n, edges) in arb_edges(24, 60)) {
        let g = SignedDigraph::from_edges(n, edges).unwrap();
        prop_assert!(g.validate().is_ok());
        prop_assert!(g.reversed().validate().is_ok());
        prop_assert!(g
            .map_weights(|e| 0.25 + e.weight / 2.0)
            .validate()
            .is_ok());
    }

    #[test]
    fn induced_subgraph_passes_validate(
        (n, edges) in arb_edges(12, 40),
        keep_mask in proptest::collection::vec(any::<bool>(), 12),
    ) {
        let g = SignedDigraph::from_edges(n, edges).unwrap();
        let kept: Vec<NodeId> = g
            .nodes()
            .filter(|u| keep_mask.get(u.index()).copied().unwrap_or(false))
            .collect();
        let (sub, _map) = g.induced_subgraph(kept);
        prop_assert!(sub.validate().is_ok());
    }
}

proptest! {
    #[test]
    fn bfs_visits_parents_and_depths_match_a_reference_search((g, sources) in arb_search(6)) {
        let mut bfs = Bfs::default();
        prop_assert_eq!(bfs.search(&g, &sources), &reference_bfs(&g, &sources)[..]);
        for node in g.nodes() {
            prop_assert_eq!(bfs.search(&g, &[node]), &reference_bfs(&g, &[node])[..]);
        }
    }

    #[test]
    fn a_reused_scratch_answers_like_a_fresh_one(
        searches in proptest::collection::vec(arb_search(4), 1..10)
    ) {
        let mut reused = Bfs::default();
        for (g, sources) in &searches {
            let fresh = Bfs::default().search(g, sources).to_vec();
            prop_assert_eq!(reused.search(g, sources), &fresh[..]);
        }
    }
}
