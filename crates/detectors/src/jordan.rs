//! Jordan (distance) center as a ranked [`InitiatorDetector`].
//!
//! The distance-center estimator family surveyed by Jin & Wu, "Schemes
//! of Propagation Models and Source Estimators for Rumor Source
//! Detection in Online Social Networks" (arXiv:2101.00753): the source
//! estimate of an infected component is its **Jordan center**, the node
//! minimizing eccentricity (maximum hop distance to any other infected
//! node) over the undirected infected subgraph. The intuition is that a
//! rumor spreading roughly one hop per step leaves its origin near the
//! hop-distance center of the infected set.
//!
//! Each eccentricity is one [`Bfs`] search of the snapshot CSR: a
//! search from a node reaches exactly its weak component, so the depth
//! of its last visit is the node's eccentricity. One scratch serves
//! every search of a [`detect_ranked`](InitiatorDetector::detect_ranked)
//! call.

use crate::sort_ranked;
use isomit_core::{DetectedInitiator, Detection, InitiatorDetector, RankedSource, SourceDetection};
use isomit_diffusion::InfectedNetwork;
use isomit_forest::weakly_connected_components;
use isomit_graph::traversal::Bfs;
use isomit_telemetry::{names, Histogram};
use std::sync::OnceLock;

/// Cached handle into the process-global telemetry registry; looked up
/// once so the hot path pays one pointer load, not a map lookup.
fn jordan_histogram() -> &'static Histogram {
    static HIST: OnceLock<Histogram> = OnceLock::new();
    HIST.get_or_init(|| isomit_telemetry::global().histogram(names::DETECTOR_JORDAN_CENTER_NS))
}

/// The Jordan-center estimator: one point-estimate source per infected
/// weakly-connected component (the node of minimum eccentricity over
/// the undirected infected subgraph, smallest snapshot id on ties),
/// every node ranked by `-eccentricity`.
///
/// Signs, link directions and weights are ignored — this is the
/// classic unsigned distance-center baseline, provided for the
/// detector bakeoff. Deterministic and parameter-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JordanCenter {
    _private: (),
}

impl JordanCenter {
    /// Creates the parameter-free detector.
    pub fn new() -> Self {
        Self::default()
    }
}

impl InitiatorDetector for JordanCenter {
    fn name(&self) -> String {
        "Jordan-Center".to_string()
    }

    fn detect(&self, snapshot: &InfectedNetwork) -> Detection {
        self.detect_ranked(snapshot).detection
    }

    fn detect_ranked(&self, snapshot: &InfectedNetwork) -> SourceDetection {
        let _span = jordan_histogram().span();
        let graph = snapshot.graph();
        let components = weakly_connected_components(graph);
        let mut initiators = Vec::with_capacity(components.len());
        let mut ranked = Vec::with_capacity(graph.node_count());
        let mut bfs = Bfs::default();
        for component in &components {
            let eccs: Vec<u32> = component
                .iter()
                .map(|&v| bfs.search(graph, &[v]).last().map_or(0, |last| last.depth))
                .collect();
            let (best_sub_id, _) = component
                .iter()
                .zip(eccs.iter())
                .min_by_key(|&(&sub_id, &ecc)| (ecc, sub_id))
                .expect("non-empty component");
            initiators.push(DetectedInitiator {
                node: snapshot
                    .mapping()
                    .to_original(*best_sub_id)
                    .expect("snapshot id maps to original network"),
                state: snapshot.state(*best_sub_id),
            });
            for (&sub_id, &ecc) in component.iter().zip(eccs.iter()) {
                ranked.push(RankedSource {
                    node: snapshot
                        .mapping()
                        .to_original(sub_id)
                        .expect("snapshot id maps to original network"),
                    state: snapshot.state(sub_id),
                    score: -f64::from(ecc),
                });
            }
        }
        sort_ranked(&mut ranked);
        initiators.sort_by_key(|d| d.node);
        SourceDetection {
            detection: Detection {
                initiators,
                component_count: components.len(),
                tree_count: components.len(),
                objective: 0.0,
            },
            ranked,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isomit_graph::{Edge, NodeId, NodeState, Sign, SignedDigraph};

    fn snapshot(edges: &[(u32, u32)], n: usize) -> InfectedNetwork {
        let g = SignedDigraph::from_edges(
            n,
            edges
                .iter()
                .map(|&(a, b)| Edge::new(NodeId(a), NodeId(b), Sign::Positive, 0.5)),
        )
        .unwrap();
        InfectedNetwork::from_parts(g, vec![NodeState::Positive; n])
    }

    #[test]
    fn path_center_is_the_jordan_center() {
        let s = snapshot(&[(0, 1), (1, 2), (2, 3), (3, 4)], 5);
        let found = JordanCenter::new().detect_ranked(&s);
        assert_eq!(found.detection.nodes(), vec![NodeId(2)]);
        assert_eq!(found.rank_of(NodeId(2)), Some(1));
        // Center has eccentricity 2, ends 4.
        assert_eq!(found.ranked.first().map(|c| c.score), Some(-2.0));
    }

    #[test]
    fn direction_is_ignored() {
        let a = JordanCenter::new().detect_ranked(&snapshot(&[(0, 1), (1, 2), (2, 3), (3, 4)], 5));
        let b = JordanCenter::new().detect_ranked(&snapshot(&[(1, 0), (2, 1), (3, 2), (4, 3)], 5));
        assert_eq!(a.detection.nodes(), b.detection.nodes());
    }

    #[test]
    fn one_center_per_component_with_tie_breaking() {
        // Two 2-cliques: all nodes tie at eccentricity 1 inside each
        // component, so the smallest id of each component wins.
        let s = snapshot(&[(0, 1), (2, 3)], 4);
        let found = JordanCenter::new().detect_ranked(&s);
        assert_eq!(found.detection.nodes(), vec![NodeId(0), NodeId(2)]);
        assert_eq!(found.detection.component_count, 2);
        assert_eq!(found.ranked.len(), 4);
    }

    #[test]
    fn star_hub_is_the_center() {
        let s = snapshot(&[(0, 1), (0, 2), (0, 3), (0, 4)], 5);
        let found = JordanCenter::new().detect_ranked(&s);
        assert_eq!(found.detection.nodes(), vec![NodeId(0)]);
    }

    #[test]
    fn deterministic_across_runs() {
        let s = snapshot(&[(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)], 5);
        let d = JordanCenter::new();
        assert_eq!(d.detect_ranked(&s), d.detect_ranked(&s));
    }
}
