//! Property-based tests: Edmonds branching optimality versus brute force,
//! the served component-wise Edmonds versus that oracle, binarization
//! invariants on random trees, component partitioning.

use isomit_forest::{
    binarize, maximum_branching, maximum_branching_components, weakly_connected_components,
    BranchingArena, UnionFind, WeightedArc,
};
use isomit_graph::{Edge, NodeId, Sign, SignedDigraph};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Brute-force maximum branching weight by enumerating every parent
/// assignment and keeping acyclic ones.
fn brute_force_weight(n: usize, arcs: &[WeightedArc]) -> f64 {
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
    #[allow(clippy::too_many_arguments)]
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

fn arb_arcs() -> impl Strategy<Value = (usize, Vec<WeightedArc>)> {
    (2usize..7).prop_flat_map(|n| {
        let arc = (0..n, 0..n, 0.01f64..1.0)
            .prop_filter_map("no self-loops", move |(src, dst, weight)| {
                (src != dst).then_some(WeightedArc { src, dst, weight })
            });
        proptest::collection::vec(arc, 0..14).prop_map(move |arcs| (n, arcs))
    })
}

/// Arc weights of [`tie_heavy_digraph`]: few distinct values, 0.0 (the
/// virtual root's weight) among them, so equal best in-arcs are common
/// and the tie-break decides; non-dyadic values make the re-weighting
/// subtractions round.
const TIE_WEIGHTS: [f64; 7] = [0.0, 0.1, 0.125, 0.3, 0.5, 0.7, 1.0];

/// A random digraph on `0..n` whose nodes are split into up to `blocks`
/// contiguous blocks, with arcs only inside a block: random arcs,
/// planted cliques, interlocking cycles on a few nodes each (so
/// contractions nest) and parallel copies of earlier arcs, in shuffled
/// input order. Returns the arcs and a partition of `0..n` that no arc
/// crosses: the weak components, or the coarser blocks.
fn tie_heavy_digraph(n: usize, blocks: usize, seed: u64) -> (Vec<WeightedArc>, Vec<Vec<NodeId>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cuts: Vec<usize> = (1..blocks).map(|_| rng.gen_range(0..=n)).collect();
    cuts.extend([0, n]);
    cuts.sort_unstable();
    cuts.dedup();
    let ranges: Vec<(usize, usize)> = cuts.windows(2).map(|w| (w[0], w[1])).collect();
    let arcful: Vec<(usize, usize)> = ranges
        .iter()
        .copied()
        .filter(|(lo, hi)| hi - lo >= 2)
        .collect();
    let mut arcs = Vec::new();
    let push = |arcs: &mut Vec<WeightedArc>, src: usize, dst: usize, weight: f64| {
        if src != dst {
            arcs.push(WeightedArc { src, dst, weight });
        }
    };
    if !arcful.is_empty() {
        for _ in 0..rng.gen_range(0..2 * n) {
            let (lo, hi) = arcful[rng.gen_range(0..arcful.len())];
            let w = TIE_WEIGHTS[rng.gen_range(0..TIE_WEIGHTS.len())];
            push(&mut arcs, rng.gen_range(lo..hi), rng.gen_range(lo..hi), w);
        }
        for _ in 0..rng.gen_range(0..3usize) {
            let (lo, hi) = arcful[rng.gen_range(0..arcful.len())];
            let size = rng.gen_range(2..=5usize).min(hi - lo);
            let start = rng.gen_range(lo..=hi - size);
            for s in start..start + size {
                for d in start..start + size {
                    let w = TIE_WEIGHTS[rng.gen_range(0..TIE_WEIGHTS.len())];
                    push(&mut arcs, s, d, w);
                }
            }
        }
        for _ in 0..rng.gen_range(0..6usize) {
            let (lo, hi) = arcful[rng.gen_range(0..arcful.len())];
            let window = rng.gen_range(lo..hi);
            let span = (hi - window).min(6);
            let len: usize = rng.gen_range(2..=5);
            let nodes: Vec<usize> = (0..len).map(|_| window + rng.gen_range(0..span)).collect();
            for i in 0..len {
                // Heavy weights, so the cycle wins its best in-arcs.
                let w = TIE_WEIGHTS[rng.gen_range(3..TIE_WEIGHTS.len())];
                push(&mut arcs, nodes[i], nodes[(i + 1) % len], w);
            }
        }
        for _ in 0..rng.gen_range(0..=arcs.len() / 4) {
            let a = arcs[rng.gen_range(0..arcs.len())];
            let w = TIE_WEIGHTS[rng.gen_range(0..TIE_WEIGHTS.len())];
            push(&mut arcs, a.src, a.dst, w);
        }
        for i in (1..arcs.len()).rev() {
            arcs.swap(i, rng.gen_range(0..=i));
        }
    }
    let components = if rng.gen_bool(0.3) {
        ranges
            .iter()
            .map(|&(lo, hi)| (lo..hi).map(NodeId::from_index).collect())
            .collect()
    } else {
        let mut uf = UnionFind::new(n);
        for a in &arcs {
            uf.union(a.src, a.dst);
        }
        let mut by_root: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for v in 0..n {
            by_root[uf.find(v)].push(NodeId::from_index(v));
        }
        by_root.retain(|c| !c.is_empty());
        by_root
    };
    (arcs, components)
}

/// Random tree as a children-list structure plus its root.
fn arb_tree() -> impl Strategy<Value = (usize, Vec<Vec<usize>>)> {
    (1usize..40).prop_flat_map(|n| {
        // Node i > 0 hangs under a uniformly random earlier node: always
        // a valid tree rooted at 0.
        proptest::collection::vec(any::<u64>(), n.saturating_sub(1)).prop_map(move |raw| {
            let mut children = vec![Vec::new(); n];
            for (i, r) in raw.iter().enumerate() {
                let node = i + 1;
                let parent = (*r as usize) % node;
                children[parent].push(node);
            }
            (0usize, children)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn branching_matches_brute_force((n, arcs) in arb_arcs()) {
        let b = maximum_branching(n, &arcs);
        let optimal = brute_force_weight(n, &arcs);
        prop_assert!(
            (b.total_weight() - optimal).abs() < 1e-9,
            "edmonds {} vs brute force {}",
            b.total_weight(),
            optimal
        );
    }

    #[test]
    fn branching_is_structurally_valid((n, arcs) in arb_arcs()) {
        let b = maximum_branching(n, &arcs);
        for v in 0..n {
            if let Some(a) = b.parent_arc(v) {
                prop_assert_eq!(arcs[a].dst, v);
                prop_assert_eq!(Some(arcs[a].src), b.parent(v));
            }
            // Acyclic: walk to a root in <= n steps.
            let mut cur = v;
            let mut steps = 0;
            while let Some(p) = b.parent(cur) {
                cur = p;
                steps += 1;
                prop_assert!(steps <= n, "cycle through {}", v);
            }
        }
    }

    #[test]
    fn branching_weight_equals_sum_of_selected((n, arcs) in arb_arcs()) {
        let b = maximum_branching(n, &arcs);
        let sum: f64 = (0..n)
            .filter_map(|v| b.parent_arc(v))
            .map(|a| arcs[a].weight)
            .sum();
        prop_assert!((sum - b.total_weight()).abs() < 1e-9);
    }

    #[test]
    fn component_branching_is_bit_identical_to_the_oracle(
        graphs in proptest::collection::vec((1usize..=40, 1usize..5, any::<u64>()), 1..4),
    ) {
        let mut inputs: Vec<_> = graphs
            .iter()
            .map(|&(n, blocks, seed)| (n, tie_heavy_digraph(n, blocks, seed)))
            .collect();
        inputs.sort_by_key(|(n, _)| *n);
        // One arena for every call: it grows through the inputs, then
        // shrinks back through them.
        let mut arena = BranchingArena::default();
        for (n, (arcs, components)) in inputs.iter().chain(inputs.iter().rev()) {
            let oracle = maximum_branching(*n, arcs);
            let served = maximum_branching_components(*n, arcs, components, &mut arena);
            for v in 0..*n {
                prop_assert_eq!(served.parent(v), oracle.parent(v), "parent of {}", v);
                prop_assert_eq!(served.parent_arc(v), oracle.parent_arc(v), "arc of {}", v);
            }
            prop_assert_eq!(
                served.total_weight().to_bits(),
                oracle.total_weight().to_bits()
            );
        }
    }

    #[test]
    fn binarize_preserves_real_nodes_and_ancestry((root, children) in arb_tree()) {
        let bt = binarize(root, &children);
        // Real node multiset = original node set.
        let mut reals: Vec<usize> = (0..bt.len()).filter_map(|i| bt.original(i)).collect();
        reals.sort_unstable();
        let expected: Vec<usize> = (0..children.len()).collect();
        prop_assert_eq!(reals, expected);
        // Fan-out <= 2 everywhere; dummy count bounded by real count.
        prop_assert!(bt.dummy_count() <= bt.real_count());
        // Nearest real ancestor is the original parent.
        let mut orig_parent = vec![None; children.len()];
        for (p, kids) in children.iter().enumerate() {
            for &k in kids {
                orig_parent[k] = Some(p);
            }
        }
        for node in 0..bt.len() {
            if let Some(orig) = bt.original(node) {
                let actual = bt.real_parent(node).map(|p| bt.original(p).unwrap());
                prop_assert_eq!(actual, orig_parent[orig]);
            }
        }
        // Parents first: the root is node 0 and every parent precedes
        // its children.
        prop_assert_eq!(bt.root(), 0);
        prop_assert_eq!(bt.parent(0), None);
        for node in 1..bt.len() {
            prop_assert!(bt.parent(node).is_some_and(|p| p < node));
        }
    }

    #[test]
    fn components_agree_with_union_find(
        n in 2usize..30,
        raw_edges in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..60),
    ) {
        let edges: Vec<Edge> = raw_edges
            .iter()
            .map(|&(a, b)| (a as usize % n, b as usize % n))
            .filter(|&(a, b)| a != b)
            .map(|(a, b)| {
                Edge::new(NodeId(a as u32), NodeId(b as u32), Sign::Positive, 0.5)
            })
            .collect();
        let g = SignedDigraph::from_edges(n, edges).unwrap();
        let comps = weakly_connected_components(&g);
        // Union-find reference.
        let mut uf = UnionFind::new(n);
        for e in g.edges() {
            uf.union(e.src.index(), e.dst.index());
        }
        prop_assert_eq!(comps.len(), uf.component_count());
        // Every component is internally connected under union-find and
        // the partition covers all nodes exactly once.
        let mut total = 0;
        for comp in &comps {
            total += comp.len();
            let rep = uf.find(comp[0].index());
            for &v in comp {
                prop_assert_eq!(uf.find(v.index()), rep);
            }
        }
        prop_assert_eq!(total, n);
    }
}
