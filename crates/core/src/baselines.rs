use crate::detection::{DetectedInitiator, Detection, InitiatorDetector};
use crate::error::RidError;
use crate::forest_extraction::{extract_cascade_forest, BRANCHING_ARENA};
use isomit_diffusion::InfectedNetwork;
use isomit_forest::{maximum_branching_components, weakly_connected_components, WeightedArc};
use isomit_graph::Sign;

/// The **RID-Tree** baseline (§IV-B1): run the first two stages of RID —
/// component detection and maximum-likelihood cascade-forest extraction —
/// and report the tree *roots* as the initiators, without the per-tree
/// dynamic program.
///
/// This is the signed generalization of Lappas et al.'s k-effectors tree
/// method. Per the paper, "the infected users without incoming diffusion
/// links (i.e., the roots of extracted diffusion trees) will definitely
/// be rumor initiators" — so RID-Tree reports exactly the nodes with no
/// incoming links in `G_I`, which gives it perfect precision but poor
/// recall. (Chu-Liu/Edmonds can additionally strand a root inside an
/// isolated mutual-infection cycle, where the paper's root/no-in-link
/// equivalence breaks; those cycle-break roots are a coin flip and are
/// *not* reported, keeping the baseline's precision-1 property.)
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RidTree {
    alpha: f64,
}

impl RidTree {
    /// Creates the baseline with boosting coefficient `alpha` (used to
    /// weight arcs during forest extraction, like RID).
    ///
    /// # Errors
    ///
    /// Returns [`RidError::InvalidParameter`] unless `alpha >= 1`.
    pub fn new(alpha: f64) -> Result<Self, RidError> {
        if !alpha.is_finite() || alpha < 1.0 {
            return Err(RidError::InvalidParameter {
                name: "alpha",
                value: alpha,
                constraint: "must be finite and >= 1",
            });
        }
        Ok(RidTree { alpha })
    }
}

impl InitiatorDetector for RidTree {
    fn name(&self) -> String {
        "RID-Tree".to_string()
    }

    fn detect(&self, snapshot: &InfectedNetwork) -> Detection {
        let (trees, component_count) = extract_cascade_forest(snapshot, self.alpha);
        let initiators = trees
            .iter()
            .map(|t| t.snapshot_id(t.root()))
            // Keep only the definite roots: nodes nobody could have
            // activated. Cycle-break roots still have in-links and are
            // dropped (see the type-level docs).
            .filter(|&sub_id| snapshot.graph().in_degree(sub_id) == 0)
            .map(|sub_id| DetectedInitiator {
                node: snapshot
                    .mapping()
                    .to_original(sub_id)
                    .expect("snapshot id maps to original network"),
                // Roots report their observed snapshot state (possibly
                // Unknown) — RID-Tree has no state-inference stage.
                state: snapshot.state(sub_id),
            })
            .collect();
        let mut detection = Detection {
            initiators,
            component_count,
            tree_count: trees.len(),
            objective: 0.0,
        };
        detection.sort();
        detection
    }
}

/// The **RID-Positive** baseline (§IV-B1): discard every negative link,
/// then run the plain *unsigned* diffusion-tree extraction of Lappas et
/// al. on the positive remainder — no sign-consistency filtering, no
/// boosting — and report the roots.
///
/// Nodes reachable only through distrust links lose all incoming arcs and
/// surface as (mostly false) roots, which reproduces the paper's
/// observation that RID-Positive detects many initiators at low
/// precision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RidPositive {
    _private: (),
}

impl RidPositive {
    /// Creates the parameter-free baseline.
    pub fn new() -> Self {
        Self::default()
    }
}

impl InitiatorDetector for RidPositive {
    fn name(&self) -> String {
        "RID-Positive".to_string()
    }

    fn detect(&self, snapshot: &InfectedNetwork) -> Detection {
        let graph = snapshot.graph();
        let components = weakly_connected_components(graph);
        // Unsigned method: keep positive arcs with their raw weights,
        // ignoring node states entirely.
        let arcs: Vec<WeightedArc> = graph
            .edges()
            .filter(|e| e.sign == Sign::Positive)
            .map(|e| WeightedArc {
                src: e.src.index(),
                dst: e.dst.index(),
                weight: e.weight,
            })
            .collect();
        // Dropping negative links only splits components, so every
        // positive arc stays inside one of the snapshot's components.
        let branching = BRANCHING_ARENA.with(|arena| {
            maximum_branching_components(
                graph.node_count(),
                &arcs,
                &components,
                &mut arena.borrow_mut(),
            )
        });
        let roots = branching.roots();
        let tree_count = roots.len();
        let initiators = roots
            .into_iter()
            .map(|root| {
                let sub_id = isomit_graph::NodeId::from_index(root);
                DetectedInitiator {
                    node: snapshot
                        .mapping()
                        .to_original(sub_id)
                        .expect("snapshot id maps to original network"),
                    state: snapshot.state(sub_id),
                }
            })
            .collect();
        let mut detection = Detection {
            initiators,
            component_count: components.len(),
            tree_count,
            objective: 0.0,
        };
        detection.sort();
        detection
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isomit_forest::maximum_branching;
    use isomit_graph::{Edge, NodeId, NodeState, SignedDigraph};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;
    use NodeState::{Negative as N, Positive as P};

    fn snapshot(edges: &[(u32, u32, Sign, f64)], states: &[NodeState]) -> InfectedNetwork {
        let g = SignedDigraph::from_edges(
            states.len(),
            edges
                .iter()
                .map(|&(a, b, s, w)| Edge::new(NodeId(a), NodeId(b), s, w)),
        )
        .unwrap();
        InfectedNetwork::from_parts(g, states.to_vec())
    }

    #[test]
    fn rid_tree_reports_forest_roots_only() {
        // A chain: only the true root (no in-links at all) is reported,
        // even across the inconsistent middle edge (which stays a
        // flip-discounted candidate per Algorithm 2).
        let s = snapshot(
            &[
                (0, 1, Sign::Positive, 0.5),
                (1, 2, Sign::Positive, 0.5), // P -> N over +: inconsistent
                (2, 3, Sign::Negative, 0.5),
            ],
            &[P, P, N, P],
        );
        let d = RidTree::new(2.0).unwrap().detect(&s);
        assert_eq!(d.nodes(), vec![NodeId(0)]);
        assert_eq!(d.tree_count, 1);
        assert_eq!(d.state_of(NodeId(0)), Some(P));
    }

    #[test]
    fn rid_tree_rejects_bad_alpha() {
        assert!(RidTree::new(0.0).is_err());
    }

    #[test]
    fn rid_positive_ignores_states_and_negative_links() {
        // Node 2 is only reachable over a negative link: RID-Positive
        // drops it and reports 2 as a root. Node 1's inconsistent
        // positive in-link is kept anyway (states are ignored).
        let s = snapshot(
            &[
                (0, 1, Sign::Positive, 0.5), // kept despite P -> N mismatch
                (1, 2, Sign::Negative, 0.5), // dropped
            ],
            &[P, N, P],
        );
        let d = RidPositive::new().detect(&s);
        assert_eq!(d.nodes(), vec![NodeId(0), NodeId(2)]);
    }

    #[test]
    fn rid_positive_on_all_negative_graph_reports_everyone() {
        let s = snapshot(
            &[(0, 1, Sign::Negative, 0.5), (1, 2, Sign::Negative, 0.5)],
            &[P, N, P],
        );
        let d = RidPositive::new().detect(&s);
        assert_eq!(d.len(), 3);
    }

    /// RID-Positive computed with one oracle Chu-Liu/Edmonds run over
    /// all of the snapshot's positive arcs.
    fn rid_positive_by_oracle(snapshot: &InfectedNetwork) -> Detection {
        let graph = snapshot.graph();
        let arcs: Vec<WeightedArc> = graph
            .edges()
            .filter(|e| e.sign == Sign::Positive)
            .map(|e| WeightedArc {
                src: e.src.index(),
                dst: e.dst.index(),
                weight: e.weight,
            })
            .collect();
        let roots = maximum_branching(graph.node_count(), &arcs).roots();
        let mut detection = Detection {
            tree_count: roots.len(),
            initiators: roots
                .into_iter()
                .map(|root| {
                    let sub_id = NodeId::from_index(root);
                    DetectedInitiator {
                        node: snapshot.mapping().to_original(sub_id).unwrap(),
                        state: snapshot.state(sub_id),
                    }
                })
                .collect(),
            component_count: weakly_connected_components(graph).len(),
            objective: 0.0,
        };
        detection.sort();
        detection
    }

    #[test]
    fn rid_positive_matches_the_oracle_when_negative_links_join_components() {
        let mut rng = StdRng::seed_from_u64(23);
        // Repeated weights force the branching's tie-breaks.
        let weights = [0.125, 0.25, 0.5, 1.0];
        let mut joined = 0;
        for _ in 0..64 {
            let n = rng.gen_range(2..48usize);
            let mut seen = BTreeSet::new();
            let mut edges = Vec::new();
            for _ in 0..rng.gen_range(0..3 * n) {
                let (src, dst) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if src == dst || !seen.insert((src, dst)) {
                    continue;
                }
                // Positive arcs stay inside blocks of six nodes, so only
                // negative links join the blocks into larger components.
                let sign = if src / 6 == dst / 6 && rng.gen_bool(0.8) {
                    Sign::Positive
                } else {
                    Sign::Negative
                };
                joined += usize::from(src / 6 != dst / 6);
                let weight = weights[rng.gen_range(0..weights.len())];
                edges.push(Edge::new(
                    NodeId::from_index(src),
                    NodeId::from_index(dst),
                    sign,
                    weight,
                ));
            }
            let states = (0..n)
                .map(|_| [P, N, NodeState::Unknown][rng.gen_range(0..3usize)])
                .collect();
            let s =
                InfectedNetwork::from_parts(SignedDigraph::from_edges(n, edges).unwrap(), states);
            assert_eq!(RidPositive::new().detect(&s), rid_positive_by_oracle(&s));
        }
        assert!(joined > 0, "some negative link must join two blocks");
    }

    #[test]
    fn names() {
        assert_eq!(RidTree::new(3.0).unwrap().name(), "RID-Tree");
        assert_eq!(RidPositive::new().name(), "RID-Positive");
    }
}
