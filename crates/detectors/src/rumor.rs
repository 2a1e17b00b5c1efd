//! Rumor centrality as a ranked [`InitiatorDetector`].
//!
//! Shah & Zaman, "Rumors in a Network: Who's the Culprit?"
//! (arXiv:0909.4370, IEEE Trans. IT 2011): for a tree rooted at `v`,
//! `R(v) = n! / Π_u T_u^v` counts the infection orderings `v` could
//! have initiated; on general graphs the standard heuristic applies the
//! tree formula to a BFS spanning tree of each infected component. Here
//! that tree is the [`Bfs`] search of the snapshot CSR from the
//! component's smallest id, one reused scratch per
//! [`detect_ranked`](InitiatorDetector::detect_ranked) call. The
//! log-space message-passing sweep lives in
//! [`isomit_core::tree_rumor_centralities`]; this detector picks one
//! argmax per component (the last on ties) and ranks every node.

use crate::sort_ranked;
use isomit_core::{
    tree_rumor_centralities, DetectedInitiator, Detection, InitiatorDetector, RankedSource,
    SourceDetection,
};
use isomit_diffusion::InfectedNetwork;
use isomit_forest::weakly_connected_components;
use isomit_graph::traversal::Bfs;
use isomit_graph::{NodeId, SignedDigraph};
use isomit_telemetry::{names, Histogram};
use std::sync::OnceLock;

/// Cached handle into the process-global telemetry registry; looked up
/// once so the hot path pays one pointer load, not a map lookup.
fn rumor_histogram() -> &'static Histogram {
    static HIST: OnceLock<Histogram> = OnceLock::new();
    HIST.get_or_init(|| isomit_telemetry::global().histogram(names::DETECTOR_RUMOR_CENTRALITY_NS))
}

/// BFS spanning tree (undirected view) of the weak `component`, sorted
/// ascending, as parent pointers over its local indices: rooted at its
/// smallest id, out-neighbours before in-neighbours.
fn bfs_spanning_tree(graph: &SignedDigraph, component: &[NodeId], bfs: &mut Bfs) -> Vec<usize> {
    let local = |node: NodeId| {
        component
            .binary_search(&node)
            .expect("a weak component holds every node its search reaches")
    };
    let mut parent = vec![usize::MAX; component.len()];
    let root = *component.first().expect("non-empty component");
    for visit in bfs.search(graph, &[root]) {
        if let Some(up) = visit.parent {
            *parent
                .get_mut(local(visit.node))
                .expect("local ids are below component length") = local(up);
        }
    }
    parent
}

/// The rumor-centrality estimator with a full per-node ranking: one
/// point-estimate source per infected weakly-connected component (the
/// estimator is inherently single-source), every node scored by its
/// log rumor centrality on a BFS spanning tree.
///
/// Scores are log-space and per-component scaled — comparable within a
/// component, not across components — but the global rank order is
/// still deterministic (descending score, ascending node id on ties).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RumorCentralityDetector {
    _private: (),
}

impl RumorCentralityDetector {
    /// Creates the parameter-free detector.
    pub fn new() -> Self {
        Self::default()
    }
}

impl InitiatorDetector for RumorCentralityDetector {
    fn name(&self) -> String {
        "Rumor-Centrality".to_string()
    }

    fn detect(&self, snapshot: &InfectedNetwork) -> Detection {
        self.detect_ranked(snapshot).detection
    }

    fn detect_ranked(&self, snapshot: &InfectedNetwork) -> SourceDetection {
        let _span = rumor_histogram().span();
        let graph = snapshot.graph();
        let components = weakly_connected_components(graph);
        let mut bfs = Bfs::default();
        let mut initiators = Vec::with_capacity(components.len());
        let mut ranked = Vec::with_capacity(graph.node_count());
        for component in &components {
            let parent = bfs_spanning_tree(graph, component, &mut bfs);
            let log_r = tree_rumor_centralities(&parent);
            let (best_sub_id, _) = component
                .iter()
                .zip(log_r.iter())
                .max_by(|a, b| a.1.total_cmp(b.1))
                .expect("non-empty component");
            initiators.push(DetectedInitiator {
                node: snapshot
                    .mapping()
                    .to_original(*best_sub_id)
                    .expect("snapshot id maps to original network"),
                state: snapshot.state(*best_sub_id),
            });
            for (&sub_id, &score) in component.iter().zip(log_r.iter()) {
                ranked.push(RankedSource {
                    node: snapshot
                        .mapping()
                        .to_original(sub_id)
                        .expect("snapshot id maps to original network"),
                    state: snapshot.state(sub_id),
                    score,
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
    use isomit_graph::{Edge, NodeState, Sign};

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
    fn path_center_ranks_first_and_all_nodes_are_ranked() {
        let s = snapshot(&[(0, 1), (1, 2), (2, 3), (3, 4)], 5);
        let found = RumorCentralityDetector::new().detect_ranked(&s);
        assert_eq!(found.detection.nodes(), vec![NodeId(2)]);
        assert_eq!(found.rank_of(NodeId(2)), Some(1));
        assert_eq!(found.ranked.len(), 5);
        // Symmetric path: ends score lowest.
        assert!(found.rank_of(NodeId(0)) > Some(2));
        assert!(found.rank_of(NodeId(4)) > Some(2));
    }

    #[test]
    fn one_source_per_component_last_max_wins_ties() {
        // Two 2-node components: both nodes of each tie on centrality,
        // and the argmax keeps the last of them.
        let s = snapshot(&[(0, 1), (2, 3)], 4);
        let d = RumorCentralityDetector::new().detect(&s);
        assert_eq!(d.nodes(), vec![NodeId(1), NodeId(3)]);
        assert_eq!(d.component_count, 2);
    }

    #[test]
    fn direction_is_ignored() {
        // Same undirected path regardless of edge orientations.
        let d = RumorCentralityDetector::new();
        let a = d.detect(&snapshot(&[(0, 1), (1, 2), (2, 3), (3, 4)], 5));
        let b = d.detect(&snapshot(&[(1, 0), (2, 1), (3, 2), (4, 3)], 5));
        assert_eq!(a.nodes(), b.nodes());
    }

    #[test]
    fn deterministic_across_runs() {
        let s = snapshot(&[(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)], 5);
        let d = RumorCentralityDetector::new();
        assert_eq!(d.detect_ranked(&s), d.detect_ranked(&s));
    }
}
