//! Property-based tests for the diffusion models: structural invariants
//! that must hold for every random graph, seed set and RNG stream.

use isomit_diffusion::{
    estimate_infection_probabilities_wide_reference, par_estimate_infection_probabilities_wide,
    Cascade, DiffusionModel, IndependentCascade, InfectedNetwork, LinearThreshold, Mfc, PolarityIc,
    SeedSet, Sir,
};
use isomit_graph::{Edge, NodeId, NodeState, Sign, SignedDigraph};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;

/// Random (graph, seeds) scenario.
fn arb_scenario() -> impl Strategy<Value = (SignedDigraph, SeedSet)> {
    (3u32..20).prop_flat_map(|n| {
        let edge = (0..n, 0..n, any::<bool>(), 0.0f64..=1.0).prop_filter_map(
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
        let edges = proptest::collection::vec(edge, 0..60);
        let seeds = proptest::collection::btree_map(0..n, any::<bool>(), 1..=(n as usize).min(5));
        (edges, seeds).prop_map(move |(edges, seed_map)| {
            let g = SignedDigraph::from_edges(n as usize, edges).unwrap();
            let seeds = SeedSet::from_pairs(seed_map.into_iter().map(|(id, pos)| {
                (
                    NodeId(id),
                    if pos { Sign::Positive } else { Sign::Negative },
                )
            }))
            .unwrap();
            (g, seeds)
        })
    })
}

/// Random (graph, seeds) scenario of up to 200 nodes for the wide
/// engine, whose frontier bitmap holds 64 nodes per word. Ids 63, 64,
/// 127, 128 (each side of a word boundary) and `n - 1` each get an edge
/// in and out, may be seeded, and are chained in ascending order.
fn arb_wide_scenario() -> impl Strategy<Value = (SignedDigraph, SeedSet)> {
    (3u32..=200).prop_flat_map(|n| {
        let edge = (0..n, 0..n, any::<bool>(), 0.0f64..=1.0);
        let edges = proptest::collection::vec(edge, 0..(3 * n as usize));
        let seeds = proptest::collection::btree_map(0..n, any::<bool>(), 1..=5);
        let forced = (0..n, any::<bool>(), 0.0f64..=1.0, any::<bool>());
        let forced = proptest::collection::vec(forced, 5);
        (edges, seeds, forced).prop_map(move |(mut edges, mut seeds, forced)| {
            let mut special: Vec<u32> = [63, 64, 127, 128].into_iter().filter(|&v| v < n).collect();
            special.push(n - 1);
            special.dedup();
            for (&v, &(other, pos, w, seeded)) in special.iter().zip(&forced) {
                edges.push((v, other, pos, w));
                edges.push((other, v, !pos, w));
                if seeded {
                    seeds.insert(v, pos);
                }
            }
            for (pair, &(_, pos, w, _)) in special.windows(2).zip(&forced) {
                edges.push((pair[0], pair[1], pos, w));
            }
            let sign = |pos| if pos { Sign::Positive } else { Sign::Negative };
            let edges = edges
                .into_iter()
                .filter(|&(a, b, _, _)| a != b)
                .map(|(a, b, pos, w)| Edge::new(NodeId(a), NodeId(b), sign(pos), w));
            let g = SignedDigraph::from_edges(n as usize, edges).unwrap();
            let seeds =
                SeedSet::from_pairs(seeds.into_iter().map(|(v, pos)| (NodeId(v), sign(pos))));
            (g, seeds.unwrap())
        })
    })
}

/// A round cap: half the time small enough to truncate cascades whose
/// frontier spans several bitmap words; otherwise 1,000, a cap only for
/// flip waves, which boosted weights of probability 1 can send around a
/// positive cycle indefinitely.
fn arb_round_cap() -> impl Strategy<Value = usize> {
    (any::<bool>(), 1usize..10).prop_map(|(small, cap)| if small { cap } else { 1_000 })
}

/// Invariants every model's cascade must satisfy.
fn check_common_invariants(g: &SignedDigraph, seeds: &SeedSet, c: &Cascade) {
    // Seeds always end up infected (they may be flipped, never cured).
    for (node, _) in seeds.iter() {
        assert!(c.state(node).is_active(), "seed {node} lost its state");
    }
    // No Unknown states from simulation.
    assert!(c.states().iter().all(|s| *s != NodeState::Unknown));
    // Every event uses a real edge, and the recorded state matches the
    // sign product along that edge for non-flip events.
    for e in c.events() {
        let edge = g
            .edge(e.src, e.dst)
            .unwrap_or_else(|| panic!("event uses non-edge ({}, {})", e.src, e.dst));
        let _ = edge;
    }
    // first_parent pointers form an acyclic forest rooted at seeds.
    let infected: HashSet<NodeId> = c.infected_nodes().into_iter().collect();
    for &v in &infected {
        if seeds.contains(v) {
            assert_eq!(c.first_parent(v), None, "seed {v} has a first parent");
            continue;
        }
        // Walk to a root; must terminate within n steps at a seed.
        let mut cur = v;
        for _ in 0..=g.node_count() {
            match c.first_parent(cur) {
                Some(p) => cur = p,
                None => break,
            }
        }
        assert!(seeds.contains(cur), "walk from {v} ended at non-seed {cur}");
    }
    // Non-infected nodes have no parents.
    for u in g.nodes() {
        if !infected.contains(&u) {
            assert_eq!(c.first_parent(u), None);
            assert_eq!(c.last_parent(u), None);
            assert_eq!(c.state(u), NodeState::Inactive);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mfc_invariants(((g, seeds), rng_seed) in (arb_scenario(), any::<u64>())) {
        // Cap rounds: with probability-1 boosted edges, MFC flip waves
        // can oscillate around positive cycles forever (see the
        // `flip_wave_oscillates_forever` unit test in mfc.rs); the
        // structural invariants hold regardless of truncation.
        let model = Mfc::new(3.0).unwrap().with_max_rounds(5_000);
        let c = model.simulate(&g, &seeds, &mut StdRng::seed_from_u64(rng_seed)).unwrap();
        check_common_invariants(&g, &seeds, &c);
        // MFC-specific: flips only ever happen across positive edges.
        for e in c.events().iter().filter(|e| e.flip) {
            let edge = g.edge(e.src, e.dst).unwrap();
            prop_assert!(edge.sign.is_positive(), "flip across negative edge");
        }
    }

    #[test]
    fn ic_invariants(((g, seeds), rng_seed) in (arb_scenario(), any::<u64>())) {
        let c = IndependentCascade::new()
            .simulate(&g, &seeds, &mut StdRng::seed_from_u64(rng_seed)).unwrap();
        check_common_invariants(&g, &seeds, &c);
        // IC never flips: one event per infected non-seed, none for seeds.
        prop_assert_eq!(c.flip_count(), 0);
        let non_seed_infected = c
            .infected_nodes()
            .iter()
            .filter(|v| !seeds.contains(**v))
            .count();
        prop_assert_eq!(c.events().len(), non_seed_infected);
    }

    #[test]
    fn lt_invariants(((g, seeds), rng_seed) in (arb_scenario(), any::<u64>())) {
        let c = LinearThreshold::new()
            .simulate(&g, &seeds, &mut StdRng::seed_from_u64(rng_seed)).unwrap();
        check_common_invariants(&g, &seeds, &c);
        prop_assert_eq!(c.flip_count(), 0);
    }

    #[test]
    fn sir_invariants(((g, seeds), rng_seed) in (arb_scenario(), any::<u64>())) {
        let c = Sir::new(0.5).unwrap()
            .simulate(&g, &seeds, &mut StdRng::seed_from_u64(rng_seed)).unwrap();
        check_common_invariants(&g, &seeds, &c);
        prop_assert_eq!(c.flip_count(), 0);
    }

    #[test]
    fn pic_invariants(((g, seeds), rng_seed) in (arb_scenario(), any::<u64>())) {
        let c = PolarityIc::new(0.5).unwrap()
            .simulate(&g, &seeds, &mut StdRng::seed_from_u64(rng_seed)).unwrap();
        check_common_invariants(&g, &seeds, &c);
        prop_assert_eq!(c.flip_count(), 0);
    }

    #[test]
    fn infected_network_is_consistent(((g, seeds), rng_seed) in (arb_scenario(), any::<u64>())) {
        let model = Mfc::new(3.0).unwrap();
        let c = model.simulate(&g, &seeds, &mut StdRng::seed_from_u64(rng_seed)).unwrap();
        let inf = InfectedNetwork::from_cascade(&g, &c);
        prop_assert_eq!(inf.node_count(), c.infected_count());
        // Every subgraph state matches the cascade state of the original node.
        for v in inf.graph().nodes() {
            let orig = inf.mapping().to_original(v).unwrap();
            prop_assert_eq!(inf.state(v), c.state(orig));
        }
        // Every subgraph edge exists in the diffusion network with the
        // same sign and weight.
        for e in inf.graph().edges() {
            let src = inf.mapping().to_original(e.src).unwrap();
            let dst = inf.mapping().to_original(e.dst).unwrap();
            let orig = g.edge(src, dst).unwrap();
            prop_assert_eq!(orig.sign, e.sign);
            prop_assert!((orig.weight - e.weight).abs() < 1e-15);
        }
    }

    #[test]
    fn simulation_determinism(((g, seeds), rng_seed) in (arb_scenario(), any::<u64>())) {
        let model = Mfc::new(2.5).unwrap();
        let a = model.simulate(&g, &seeds, &mut StdRng::seed_from_u64(rng_seed)).unwrap();
        let b = model.simulate(&g, &seeds, &mut StdRng::seed_from_u64(rng_seed)).unwrap();
        prop_assert_eq!(a, b);
    }

    // The 64-lane bitplane engine is bit-identical to its retained
    // scalar reference for every graph, seed set, `alpha`, round cap,
    // master seed, and trial count — including ragged counts not
    // divisible by 64, which exercise the partial final batch, and
    // frontiers spanning several bitmap words. Its rayon batch
    // distribution merges commutatively, so this holds at any thread
    // count.
    #[test]
    fn wide_estimator_is_bit_identical_to_scalar_reference(
        ((g, seeds), alpha, runs, master, max_rounds) in
            (arb_wide_scenario(), 1.0f64..=5.0, 1usize..200, any::<u64>(), arb_round_cap())
    ) {
        let model = Mfc::new(alpha).unwrap().with_max_rounds(max_rounds);
        let wide = par_estimate_infection_probabilities_wide(
            &model, &g, &seeds, runs, master).unwrap();
        let reference = estimate_infection_probabilities_wide_reference(
            &model, &g, &seeds, runs, master).unwrap();
        prop_assert_eq!(&wide, &reference);
    }
}

/// Random [`DiffusionError`] for codec round-trip checks. Decoded
/// `&'static str` fields are interned copies, so value equality (what
/// `PartialEq` checks) is the right contract.
fn arb_diffusion_error() -> impl Strategy<Value = isomit_diffusion::DiffusionError> {
    use isomit_diffusion::DiffusionError;
    const NAMES: [&str; 4] = ["alpha", "runs", "threshold", "weird name \"quoted\""];
    const CONSTRAINTS: [&str; 3] = ["must be >= 1", "must be positive", "must be finite"];
    (
        0u32..3,
        0usize..4,
        0usize..3,
        -1e12f64..1e12,
        0usize..10_000,
        0usize..10_000,
    )
        .prop_map(
            |(variant, name_i, constraint_i, value, id, n)| match variant {
                0 => DiffusionError::InvalidParameter {
                    name: NAMES[name_i],
                    value,
                    constraint: CONSTRAINTS[constraint_i],
                },
                1 => DiffusionError::DuplicateSeed(NodeId::from_index(id)),
                _ => DiffusionError::SeedOutOfBounds {
                    node: NodeId::from_index(id),
                    node_count: n,
                },
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn diffusion_error_round_trips_through_json(error in arb_diffusion_error()) {
        let text = error.to_json_value().to_json();
        let parsed = isomit_graph::json::Value::parse(&text).unwrap();
        let back = isomit_diffusion::DiffusionError::from_json_value(&parsed).unwrap();
        prop_assert_eq!(back, error, "wire text: {}", text);
    }

    #[test]
    fn seed_set_round_trips_through_json((_, seeds) in arb_scenario()) {
        let text = seeds.to_json_value().to_json();
        let parsed = isomit_graph::json::Value::parse(&text).unwrap();
        let back = SeedSet::from_json_value(&parsed).unwrap();
        prop_assert_eq!(back, seeds);
    }
}
