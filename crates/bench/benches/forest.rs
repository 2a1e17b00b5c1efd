//! Micro-benchmarks for the structural algorithms: connected
//! components, Chu-Liu/Edmonds maximum branching (the served
//! component-wise run beside the single-run oracle), and the
//! binary-tree transformation.

use isomit_bench::report::{BenchmarkId, Harness};
use isomit_forest::{
    binarize, maximum_branching, maximum_branching_components, weakly_connected_components,
    BranchingArena, UnionFind, WeightedArc,
};
use isomit_graph::{Edge, NodeId, Sign, SignedDigraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_graph(n: usize, m: usize, seed: u64) -> SignedDigraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let edges = (0..m).filter_map(|_| {
        let a = rng.gen_range(0..n) as u32;
        let b = rng.gen_range(0..n) as u32;
        (a != b).then(|| {
            Edge::new(
                NodeId(a),
                NodeId(b),
                if rng.gen_bool(0.8) {
                    Sign::Positive
                } else {
                    Sign::Negative
                },
                rng.gen_range(0.01..1.0),
            )
        })
    });
    SignedDigraph::from_edges(n, edges).unwrap()
}

fn bench_components(c: &mut Harness) {
    let mut group = c.benchmark_group("components");
    for n in [1_000usize, 10_000, 50_000] {
        let g = random_graph(n, n * 6, 3);
        group.bench_with_input(BenchmarkId::from_parameter(n), &g, |b, g| {
            b.iter(|| weakly_connected_components(g))
        });
    }
    group.finish();
}

fn bench_branching(c: &mut Harness) {
    let mut group = c.benchmark_group("edmonds_branching");
    group.sample_size(20);
    for n in [1_000usize, 10_000, 50_000] {
        let mut rng = StdRng::seed_from_u64(5);
        let arcs: Vec<WeightedArc> = (0..n * 6)
            .filter_map(|_| {
                let src = rng.gen_range(0..n);
                let dst = rng.gen_range(0..n);
                (src != dst).then(|| WeightedArc {
                    src,
                    dst,
                    weight: rng.gen_range(0.01..1.0),
                })
            })
            .collect();
        group.bench_with_input(BenchmarkId::new("oracle", n), &arcs, |b, arcs| {
            b.iter(|| maximum_branching(n, arcs))
        });
        // The served run, against components found outside the timed
        // closure and one arena reused across iterations, as the RID
        // engine's thread-local arena is.
        let components = arc_components(n, &arcs);
        let mut arena = BranchingArena::default();
        group.bench_with_input(BenchmarkId::new("components", n), &arcs, |b, arcs| {
            b.iter(|| maximum_branching_components(n, arcs, &components, &mut arena))
        });
    }
    group.finish();
}

/// Weak components of `(0..n, arcs)` in the shape
/// `weakly_connected_components` returns: ascending by smallest member,
/// members ascending.
fn arc_components(n: usize, arcs: &[WeightedArc]) -> Vec<Vec<NodeId>> {
    let mut sets = UnionFind::new(n);
    for a in arcs {
        sets.union(a.src, a.dst);
    }
    let mut by_root: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for v in 0..n {
        by_root[sets.find(v)].push(NodeId::from_index(v));
    }
    by_root.retain(|c| !c.is_empty());
    by_root
}

fn bench_binarize(c: &mut Harness) {
    let mut group = c.benchmark_group("binarize");
    for n in [1_000usize, 100_000] {
        // Random recursive tree with heavy fan-out at the root.
        let mut rng = StdRng::seed_from_u64(9);
        let mut children = vec![Vec::new(); n];
        for v in 1..n {
            let parent = rng.gen_range(0..v);
            children[parent].push(v);
        }
        group.bench_with_input(BenchmarkId::from_parameter(n), &children, |b, ch| {
            b.iter(|| binarize(0, ch))
        });
    }
    group.finish();
}

fn main() {
    let mut harness = Harness::new("forest");
    bench_components(&mut harness);
    bench_branching(&mut harness);
    bench_binarize(&mut harness);
    harness.finish().expect("write bench artifact");
}
