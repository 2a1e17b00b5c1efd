//! Cross-crate integration tests: the full simulate → snapshot → detect
//! pipeline on synthetic networks.

use isomit::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn scenario(seed: u64, scale: f64, n: usize) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let social = epinions_like_scaled(scale, &mut rng);
    build_scenario(
        &social,
        &ScenarioConfig::default().with_initiators(n),
        &mut rng,
    )
}

#[test]
fn every_planted_seed_is_infected_and_mapped() {
    let sc = scenario(1, 0.01, 20);
    for (node, sign) in sc.ground_truth.iter() {
        assert!(sc.cascade.state(node).is_active());
        let sub = sc
            .snapshot
            .mapping()
            .to_subgraph(node)
            .expect("seed in snapshot");
        // Seeds keep an opinion; it may have been flipped, so only check
        // activity, and check the original seed sign is a valid sign.
        assert!(sc.snapshot.state(sub).is_active());
        let _ = sign;
    }
}

#[test]
fn rid_tree_has_perfect_precision_on_simulated_outbreaks() {
    for seed in 0..5 {
        let sc = scenario(seed, 0.01, 15);
        let detection = RidTree::new(3.0).unwrap().detect(&sc.snapshot);
        let truth: Vec<NodeId> = sc.ground_truth.nodes().collect();
        let prf = evaluate_identities(&detection.nodes(), &truth);
        assert!(
            detection.is_empty() || prf.precision == 1.0,
            "seed {seed}: RID-Tree precision {} != 1.0",
            prf.precision
        );
    }
}

#[test]
fn rid_recall_dominates_rid_tree_recall() {
    // RID's initiator set extends the forest-root set, so its recall can
    // never be lower than RID-Tree's on the same snapshot.
    for seed in 0..3 {
        let sc = scenario(seed, 0.02, 25);
        let truth: Vec<NodeId> = sc.ground_truth.nodes().collect();
        let tree = RidTree::new(3.0).unwrap().detect(&sc.snapshot);
        let rid = Rid::new(3.0, 2.5).unwrap().detect(&sc.snapshot);
        let tree_prf = evaluate_identities(&tree.nodes(), &truth);
        let rid_prf = evaluate_identities(&rid.nodes(), &truth);
        assert!(
            rid_prf.recall >= tree_prf.recall - 1e-12,
            "seed {seed}: RID recall {} < RID-Tree recall {}",
            rid_prf.recall,
            tree_prf.recall
        );
    }
}

#[test]
fn beta_extremes_bracket_detection_count() {
    let sc = scenario(3, 0.02, 25);
    let loose = Rid::new(3.0, 0.0).unwrap().detect(&sc.snapshot);
    let tight = Rid::new(3.0, 1e6).unwrap().detect(&sc.snapshot);
    // beta = 0: (almost) every node is an initiator — only nodes whose
    // activation edge has probability exactly 1 tie with the explained
    // option, and ties prefer the explanation.
    assert!(loose.len() >= sc.snapshot.node_count() * 9 / 10);
    // huge beta: only the forced tree roots remain.
    assert_eq!(tight.len(), tight.tree_count);
    assert!(tight.len() < loose.len());
}

#[test]
fn detection_counts_are_monotone_in_beta() {
    let sc = scenario(4, 0.02, 25);
    let mut last = usize::MAX;
    for beta in [0.0, 0.5, 1.0, 2.0, 4.0, 8.0] {
        let n = Rid::new(3.0, beta).unwrap().detect(&sc.snapshot).len();
        assert!(n <= last, "beta {beta}: count {n} > previous {last}");
        last = n;
    }
}

#[test]
fn full_pipeline_is_deterministic() {
    let a = scenario(9, 0.01, 10);
    let b = scenario(9, 0.01, 10);
    assert_eq!(a.snapshot, b.snapshot);
    let rid = Rid::new(3.0, 1.0).unwrap();
    assert_eq!(rid.detect(&a.snapshot), rid.detect(&b.snapshot));
}

#[test]
fn detection_survives_masked_states() {
    let sc = scenario(5, 0.01, 15);
    let mut rng = StdRng::seed_from_u64(77);
    let masked = sc.snapshot.with_masked_states(0.3, &mut rng);
    let detection = Rid::new(3.0, 2.0).unwrap().detect(&masked);
    // Detection still runs and every reported initiator carries a
    // concrete state even where the snapshot was masked.
    assert!(!detection.is_empty());
    for d in &detection.initiators {
        assert!(
            d.state.is_active(),
            "initiator {} has state {}",
            d.node,
            d.state
        );
    }
}

#[test]
fn detected_ids_live_in_the_original_network() {
    let sc = scenario(6, 0.01, 15);
    let detection = Rid::new(3.0, 1.0).unwrap().detect(&sc.snapshot);
    for d in &detection.initiators {
        assert!(sc.diffusion.contains(d.node));
        // And they are genuinely infected.
        assert!(sc.cascade.state(d.node).is_active());
    }
}

#[test]
fn snapshot_round_trips_through_json() {
    let sc = scenario(8, 0.005, 5);
    let json = sc.snapshot.to_json_string();
    let back = InfectedNetwork::from_json_str(&json).expect("deserialize");
    assert_eq!(back, sc.snapshot);
    let rid = Rid::new(3.0, 1.0).unwrap();
    assert_eq!(rid.detect(&back), rid.detect(&sc.snapshot));
}

#[test]
fn snap_io_round_trip_preserves_detection() {
    let mut rng = StdRng::seed_from_u64(2);
    let social = epinions_like_scaled(0.005, &mut rng);
    let mut buf = Vec::new();
    isomit::datasets::write_snap(&social, &mut buf).unwrap();
    let (reloaded, _) =
        isomit::datasets::load_snap(buf.as_slice(), &isomit::datasets::LoadOptions::default())
            .unwrap();
    // SNAP drops weights; structure and signs survive.
    assert_eq!(reloaded.node_count(), social.node_count());
    assert_eq!(reloaded.edge_count(), social.edge_count());
    assert_eq!(reloaded.positive_edge_count(), social.positive_edge_count());
}
