//! Property-based tests for the synthetic dataset generators: every
//! generated network must pass the graph invariant check
//! (`SignedDigraph::validate`), for any seed and any valid
//! configuration.

use isomit_datasets::{
    erdos_renyi_signed, load_snap, polarized_communities, preferential_attachment_signed,
    snap_like, write_snap, LoadOptions, PaConfig, PolarizedConfig,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #[test]
    fn preferential_attachment_passes_validate(
        seed in any::<u64>(),
        nodes in 4usize..120,
        mean_out_degree in 1.0f64..6.0,
        positive_fraction in 0.0f64..=1.0,
    ) {
        let config = PaConfig {
            nodes,
            mean_out_degree,
            positive_fraction,
            distrusted_fraction: 0.15,
            distrust_concentration: 3.0,
            uniform_edge_fraction: 0.2,
            closure_probability: 0.6,
            reciprocity: 0.35,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let g = preferential_attachment_signed(&config, &mut rng);
        prop_assert!(g.validate().is_ok());
        prop_assert_eq!(g.node_count(), nodes);
    }

    #[test]
    fn erdos_renyi_passes_validate(
        seed in any::<u64>(),
        nodes in 2usize..80,
        edge_fraction in 0.0f64..=1.0,
        positive_fraction in 0.0f64..=1.0,
    ) {
        let edges = (edge_fraction * (nodes * (nodes - 1)) as f64) as usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let g = erdos_renyi_signed(nodes, edges, positive_fraction, &mut rng);
        prop_assert!(g.validate().is_ok());
        prop_assert_eq!(g.edge_count(), edges);
    }

    #[test]
    fn polarized_communities_passes_validate(
        seed in any::<u64>(),
        communities in 2usize..5,
        nodes_per_camp in 2usize..40,
        intra_fraction in 0.0f64..=1.0,
    ) {
        let config = PolarizedConfig {
            nodes: communities * nodes_per_camp,
            communities,
            mean_out_degree: 4.0,
            intra_fraction,
            ..PolarizedConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let g = polarized_communities(&config, &mut rng);
        prop_assert!(g.validate().is_ok());
        prop_assert_eq!(g.node_count(), config.nodes);
    }

    #[test]
    fn snap_like_passes_validate_with_exact_counts(
        seed in any::<u64>(),
        nodes in 2usize..120,
        edge_fraction in 0.0f64..=1.0,
        sign_fraction in 0.0f64..=1.0,
    ) {
        let edges = (edge_fraction * (nodes * (nodes - 1)) as f64) as usize;
        let g = snap_like(nodes, edges, sign_fraction, seed);
        prop_assert!(g.validate().is_ok());
        prop_assert_eq!(g.node_count(), nodes);
        prop_assert_eq!(g.edge_count(), edges);
        // Same tuple, bit-identical graph.
        prop_assert_eq!(snap_like(nodes, edges, sign_fraction, seed), g);
    }

    // The SNAP writer and the scale loader are inverse to each other:
    // any unit-weight graph survives `load(write(g))` exactly,
    // including trailing isolated nodes (preserved via the node-count
    // header that `write_snap` emits).
    #[test]
    fn load_snap_round_trips_write_snap(
        seed in any::<u64>(),
        nodes in 2usize..80,
        edge_fraction in 0.0f64..=1.0,
        sign_fraction in 0.0f64..=1.0,
    ) {
        let edges = (edge_fraction * (nodes * (nodes - 1)) as f64) as usize;
        let g = snap_like(nodes, edges, sign_fraction, seed);
        let mut buf = Vec::new();
        write_snap(&g, &mut buf).unwrap();
        let (back, report) = load_snap(buf.as_slice(), &LoadOptions::default()).unwrap();
        prop_assert_eq!(&back, &g);
        prop_assert_eq!(report.edges, g.edge_count());
        prop_assert_eq!(report.duplicate_edges + report.self_loops + report.malformed_lines, 0);
    }
}
