//! # isomit-detectors — the source-detector subsystem
//!
//! Every rumor-source estimator the workspace ships, behind `isomit-core`'s
//! [`InitiatorDetector`] trait, so the serving engine, the CLI and the
//! bench harness can treat "which detector" as data instead of code.
//! [`InitiatorDetector::detect_ranked`] consumes an [`InfectedNetwork`]
//! snapshot and produces a [`SourceDetection`]: the familiar
//! [`Detection`] set (compatible with the `RidResult` wire shape) plus a
//! ranked candidate list for rank-of-true-source evaluation.
//!
//! Five detectors are provided, selected by [`DetectorKind`] and built
//! by [`build`]:
//!
//! * **RID** — the paper's full framework, `isomit_core::Rid`.
//! * **RID-Tree** / **RID-Positive** — the paper's §IV-B1 baselines,
//!   `isomit_core::RidTree` and `isomit_core::RidPositive`.
//! * **Rumor centrality** ([`RumorCentralityDetector`]) — the
//!   message-passing BFS-tree estimator of Shah & Zaman, "Rumors in a
//!   Network: Who's the Culprit?" (arXiv:0909.4370, IEEE Trans. IT
//!   2011): per infected component, score every node by the log count
//!   of infection orderings it could have initiated on a BFS spanning
//!   tree.
//! * **Jordan center** ([`JordanCenter`]) — the distance-center
//!   estimator family surveyed by Jin & Wu, "Schemes of Propagation
//!   Models and Source Estimators for Rumor Source Detection in Online
//!   Social Networks" (arXiv:2101.00753): per infected component, pick
//!   the node minimizing eccentricity over the undirected infected
//!   subgraph.
//!
//! All detectors are deterministic (no RNG, ordered collections only)
//! and time themselves into the process-global telemetry registry like
//! the RID stages do.
//!
//! # Examples
//!
//! Run two estimators on a 5-path infected end-to-end — rumor
//! centrality and Jordan center both recover the path's center:
//!
//! ```
//! use isomit_detectors::{build, DetectorKind};
//! use isomit_core::RidConfig;
//! use isomit_diffusion::InfectedNetwork;
//! use isomit_graph::{Edge, NodeId, NodeState, Sign, SignedDigraph};
//!
//! let g = SignedDigraph::from_edges(
//!     5,
//!     (0..4).map(|i| Edge::new(NodeId(i), NodeId(i + 1), Sign::Positive, 0.5)),
//! )
//! .unwrap();
//! let snapshot = InfectedNetwork::from_parts(g, vec![NodeState::Positive; 5]);
//!
//! let config = RidConfig::default();
//! for kind in [DetectorKind::RumorCentrality, DetectorKind::JordanCenter] {
//!     let detector = build(kind, &config).unwrap();
//!     let found = detector.detect_ranked(&snapshot);
//!     assert_eq!(found.detection.nodes(), vec![NodeId(2)]);
//!     assert_eq!(found.rank_of(NodeId(2)), Some(1));
//!     assert_eq!(found.ranked.len(), 5);
//! }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod error;
mod jordan;
mod kind;
mod rumor;

pub use error::DetectorError;
pub use jordan::JordanCenter;
pub use kind::{build, DetectorKind};
pub use rumor::RumorCentralityDetector;

// Re-exported so downstream callers can name the trait and its
// input/output types without an extra direct dependency.
pub use isomit_core::{Detection, InitiatorDetector, RankedSource, SourceDetection};
pub use isomit_diffusion::InfectedNetwork;

/// Deterministic rank order for score-style detectors: descending
/// score, ascending node id on ties.
fn sort_ranked(ranked: &mut [RankedSource]) {
    ranked.sort_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then_with(|| a.node.cmp(&b.node))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use isomit_graph::{NodeId, NodeState};

    #[test]
    fn sort_ranked_breaks_ties_by_node_id() {
        let mut ranked = vec![
            RankedSource {
                node: NodeId(9),
                state: NodeState::Positive,
                score: 1.0,
            },
            RankedSource {
                node: NodeId(1),
                state: NodeState::Positive,
                score: 1.0,
            },
            RankedSource {
                node: NodeId(5),
                state: NodeState::Positive,
                score: 3.0,
            },
        ];
        sort_ranked(&mut ranked);
        let ids: Vec<_> = ranked.iter().map(|c| c.node).collect();
        assert_eq!(ids, vec![NodeId(5), NodeId(1), NodeId(9)]);
    }
}
