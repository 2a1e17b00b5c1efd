//! # isomit-metrics
//!
//! Evaluation metrics for rumor-initiator detection, matching §IV-B2 of
//! *Rumor Initiator Detection in Infected Signed Networks* (ICDCS 2017):
//!
//! * **identity** metrics — [`precision`], [`recall`], F1, bundled in
//!   [`Prf`] / [`evaluate_identities`] — compare the detected initiator
//!   set against the ground truth;
//! * **state** metrics — accuracy, MAE, R² ([`StateMetrics`] /
//!   [`evaluate_states`]) — compare inferred initial opinions against
//!   the planted ones, computed *over the correctly identified
//!   initiators* as the paper does.
//!
//! ```
//! use isomit_metrics::evaluate_identities;
//! use isomit_graph::NodeId;
//!
//! let detected = [NodeId(1), NodeId(2), NodeId(3)];
//! let truth = [NodeId(2), NodeId(3), NodeId(4), NodeId(5)];
//! let prf = evaluate_identities(&detected, &truth);
//! assert!((prf.precision - 2.0 / 3.0).abs() < 1e-12);
//! assert!((prf.recall - 0.5).abs() < 1e-12);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

use isomit_graph::traversal::Bfs;
use isomit_graph::{NodeId, SignedDigraph};
use std::collections::BTreeSet;

/// Precision / recall / F1 triple for initiator-identity evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prf {
    /// Fraction of detected initiators that are real.
    pub precision: f64,
    /// Fraction of real initiators that were detected.
    pub recall: f64,
    /// Harmonic mean of precision and recall (`0` when both are `0`).
    pub f1: f64,
}

impl Prf {
    /// Builds the triple from raw counts.
    ///
    /// Empty denominators yield `0.0` (detecting nothing has precision 0
    /// by convention; an empty ground truth has recall 0).
    pub fn from_counts(true_positives: usize, detected: usize, truth: usize) -> Self {
        let precision = if detected == 0 {
            0.0
        } else {
            true_positives as f64 / detected as f64
        };
        let recall = if truth == 0 {
            0.0
        } else {
            true_positives as f64 / truth as f64
        };
        let f1 = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        Prf {
            precision,
            recall,
            f1,
        }
    }
}

/// Fraction of `detected` appearing in `truth`; `0.0` when nothing was
/// detected. Duplicate ids are counted once.
pub fn precision(detected: &[NodeId], truth: &[NodeId]) -> f64 {
    evaluate_identities(detected, truth).precision
}

/// Fraction of `truth` appearing in `detected`; `0.0` on an empty truth
/// set. Duplicate ids are counted once.
pub fn recall(detected: &[NodeId], truth: &[NodeId]) -> f64 {
    evaluate_identities(detected, truth).recall
}

/// Computes [`Prf`] for a detected initiator set against the ground
/// truth. Duplicate ids on either side are collapsed.
pub fn evaluate_identities(detected: &[NodeId], truth: &[NodeId]) -> Prf {
    let detected: BTreeSet<NodeId> = detected.iter().copied().collect();
    let truth: BTreeSet<NodeId> = truth.iter().copied().collect();
    let tp = detected.intersection(&truth).count();
    Prf::from_counts(tp, detected.len(), truth.len())
}

/// Accuracy / MAE / R² triple for initial-state inference, following the
/// paper's Figure 6 metrics. States are encoded as `±1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StateMetrics {
    /// Fraction of exactly matching states.
    pub accuracy: f64,
    /// Mean absolute error — in `{−1, +1}` encoding each miss
    /// contributes `2`.
    pub mae: f64,
    /// Coefficient of determination of the predictions against the true
    /// states. `0.0` when the true states have zero variance and the
    /// predictions are exact; `< 0` is possible for poor predictors.
    pub r2: f64,
}

/// Evaluates inferred states against true states over `(predicted,
/// actual)` pairs (each `±1`). Returns `None` on an empty input — the
/// paper computes these metrics over correctly identified initiators,
/// which can be an empty set.
pub fn evaluate_states(pairs: &[(f64, f64)]) -> Option<StateMetrics> {
    if pairs.is_empty() {
        return None;
    }
    let n = pairs.len() as f64;
    let hits = pairs.iter().filter(|(p, a)| p == a).count() as f64;
    let mae = pairs.iter().map(|(p, a)| (p - a).abs()).sum::<f64>() / n;
    let mean_actual = pairs.iter().map(|(_, a)| a).sum::<f64>() / n;
    let ss_tot: f64 = pairs.iter().map(|(_, a)| (a - mean_actual).powi(2)).sum();
    let ss_res: f64 = pairs.iter().map(|(p, a)| (a - p).powi(2)).sum();
    let r2 = if ss_tot == 0.0 {
        // Zero-variance truth: perfect predictions score 0 (the paper's
        // convention collapses here; any error makes R² meaningless, we
        // report -infinity-free 0/negative via ss_res check).
        if ss_res == 0.0 {
            1.0
        } else {
            0.0
        }
    } else {
        1.0 - ss_res / ss_tot
    };
    Some(StateMetrics {
        accuracy: hits / n,
        mae,
        r2,
    })
}

/// Convenience: evaluates both identity and state metrics in one pass.
///
/// `detected` and `truth` carry `(node, state)` pairs with states encoded
/// `±1`; state metrics are computed over the intersection (correctly
/// identified initiators), matching §IV-D1.
pub fn evaluate_detection(
    detected: &[(NodeId, i8)],
    truth: &[(NodeId, i8)],
) -> (Prf, Option<StateMetrics>) {
    let detected_ids: Vec<NodeId> = detected.iter().map(|&(n, _)| n).collect();
    let truth_ids: Vec<NodeId> = truth.iter().map(|&(n, _)| n).collect();
    let prf = evaluate_identities(&detected_ids, &truth_ids);
    let truth_map: std::collections::BTreeMap<NodeId, i8> = truth.iter().copied().collect();
    let pairs: Vec<(f64, f64)> = detected
        .iter()
        .filter_map(|&(n, p)| truth_map.get(&n).map(|&a| (f64::from(p), f64::from(a))))
        .collect();
    (prf, evaluate_states(&pairs))
}

/// Hop-distance error, the standard metric of the rumor
/// source-detection literature (Shah & Zaman; Prakash et al.): for each
/// detected initiator, the undirected hop distance to the *nearest*
/// true initiator, averaged. `0.0` means every detection is a true
/// initiator; small values mean detections land next to one.
///
/// Returns `None` when either side is empty or no detected node can
/// reach a true initiator (disconnected snapshot regions). Distances are
/// computed on the undirected view via one multi-source
/// [`Bfs`] from the truth set, `O(n + m)`.
///
/// # Panics
///
/// Panics if a node id is out of bounds for `graph`.
pub fn mean_detection_distance(
    graph: &SignedDigraph,
    detected: &[NodeId],
    truth: &[NodeId],
) -> Option<f64> {
    if detected.is_empty() || truth.is_empty() {
        return None;
    }
    let mut dist: Vec<Option<u32>> = vec![None; graph.node_count()];
    for visit in Bfs::default().search(graph, truth) {
        dist[visit.node.index()] = Some(visit.depth);
    }
    let reached: Vec<f64> = detected
        .iter()
        .filter_map(|&v| {
            assert!(graph.contains(v), "detected node {v} out of bounds");
            dist[v.index()].map(f64::from)
        })
        .collect();
    if reached.is_empty() {
        None
    } else {
        Some(reached.iter().sum::<f64>() / reached.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_with_empty_sides() {
        let p = Prf::from_counts(0, 0, 5);
        assert_eq!((p.precision, p.recall, p.f1), (0.0, 0.0, 0.0));
        let p = Prf::from_counts(0, 5, 0);
        assert_eq!((p.precision, p.recall, p.f1), (0.0, 0.0, 0.0));
    }

    #[test]
    fn perfect_detection() {
        let ids = [NodeId(1), NodeId(2)];
        let prf = evaluate_identities(&ids, &ids);
        assert_eq!((prf.precision, prf.recall, prf.f1), (1.0, 1.0, 1.0));
    }

    #[test]
    fn partial_overlap() {
        let prf = evaluate_identities(&[NodeId(1), NodeId(2)], &[NodeId(2), NodeId(3)]);
        assert!((prf.precision - 0.5).abs() < 1e-12);
        assert!((prf.recall - 0.5).abs() < 1e-12);
        assert!((prf.f1 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn duplicates_collapsed() {
        let prf = evaluate_identities(&[NodeId(1), NodeId(1), NodeId(1)], &[NodeId(1), NodeId(2)]);
        assert!((prf.precision - 1.0).abs() < 1e-12);
        assert!((prf.recall - 0.5).abs() < 1e-12);
    }

    #[test]
    fn f1_is_harmonic_mean() {
        let prf = Prf::from_counts(10, 100, 13);
        let expected = 2.0 * prf.precision * prf.recall / (prf.precision + prf.recall);
        assert!((prf.f1 - expected).abs() < 1e-12);
    }

    #[test]
    fn state_metrics_perfect() {
        let m = evaluate_states(&[(1.0, 1.0), (-1.0, -1.0)]).unwrap();
        assert_eq!(m.accuracy, 1.0);
        assert_eq!(m.mae, 0.0);
        assert_eq!(m.r2, 1.0);
    }

    #[test]
    fn state_metrics_half_wrong() {
        let m = evaluate_states(&[(1.0, 1.0), (1.0, -1.0)]).unwrap();
        assert_eq!(m.accuracy, 0.5);
        assert_eq!(m.mae, 1.0);
        // SS_res = 4, SS_tot = 2 → R² = −1.
        assert!((m.r2 - (-1.0)).abs() < 1e-12);
    }

    #[test]
    fn state_metrics_empty_is_none() {
        assert_eq!(evaluate_states(&[]), None);
    }

    #[test]
    fn state_metrics_zero_variance_truth() {
        let m = evaluate_states(&[(1.0, 1.0), (1.0, 1.0)]).unwrap();
        assert_eq!(m.r2, 1.0);
        let m = evaluate_states(&[(-1.0, 1.0), (1.0, 1.0)]).unwrap();
        assert_eq!(m.r2, 0.0);
    }

    #[test]
    fn combined_evaluation_uses_intersection_for_states() {
        let detected = [(NodeId(1), 1i8), (NodeId(2), -1), (NodeId(9), 1)];
        let truth = [(NodeId(1), 1i8), (NodeId(2), 1), (NodeId(3), -1)];
        let (prf, states) = evaluate_detection(&detected, &truth);
        assert!((prf.precision - 2.0 / 3.0).abs() < 1e-12);
        assert!((prf.recall - 2.0 / 3.0).abs() < 1e-12);
        // States over {1 (correct), 2 (wrong)} → accuracy 0.5.
        let s = states.unwrap();
        assert_eq!(s.accuracy, 0.5);
        assert_eq!(s.mae, 1.0);
    }

    #[test]
    fn detection_distance_on_a_path() {
        use isomit_graph::{Edge, Sign};
        // Path 0 - 1 - 2 - 3; truth = {0}.
        let g = SignedDigraph::from_edges(
            4,
            (0..3).map(|i| Edge::new(NodeId(i), NodeId(i + 1), Sign::Positive, 0.5)),
        )
        .unwrap();
        let truth = [NodeId(0)];
        assert_eq!(mean_detection_distance(&g, &[NodeId(0)], &truth), Some(0.0));
        assert_eq!(mean_detection_distance(&g, &[NodeId(2)], &truth), Some(2.0));
        // Average of distances 1 and 3.
        assert_eq!(
            mean_detection_distance(&g, &[NodeId(1), NodeId(3)], &truth),
            Some(2.0)
        );
        // Empty sides yield None.
        assert_eq!(mean_detection_distance(&g, &[], &truth), None);
        assert_eq!(mean_detection_distance(&g, &[NodeId(0)], &[]), None);
    }

    #[test]
    fn detection_distance_unreachable_is_none() {
        use isomit_graph::{Edge, Sign};
        // Two disconnected pairs.
        let g = SignedDigraph::from_edges(
            4,
            [
                Edge::new(NodeId(0), NodeId(1), Sign::Positive, 0.5),
                Edge::new(NodeId(2), NodeId(3), Sign::Positive, 0.5),
            ],
        )
        .unwrap();
        assert_eq!(
            mean_detection_distance(&g, &[NodeId(2)], &[NodeId(0)]),
            None
        );
        // Mixed: only reachable detections count.
        assert_eq!(
            mean_detection_distance(&g, &[NodeId(1), NodeId(2)], &[NodeId(0)]),
            Some(1.0)
        );
    }

    #[test]
    fn detection_distance_nearest_truth_wins() {
        use isomit_graph::{Edge, Sign};
        // Path with truth at both ends: the middle is 2 from each... the
        // nearest of {0, 4} to node 1 is 0 at distance 1.
        let g = SignedDigraph::from_edges(
            5,
            (0..4).map(|i| Edge::new(NodeId(i), NodeId(i + 1), Sign::Positive, 0.5)),
        )
        .unwrap();
        assert_eq!(
            mean_detection_distance(&g, &[NodeId(1)], &[NodeId(0), NodeId(4)]),
            Some(1.0)
        );
    }

    #[test]
    fn precision_recall_helpers_agree() {
        let d = [NodeId(1), NodeId(4)];
        let t = [NodeId(4)];
        assert_eq!(precision(&d, &t), 0.5);
        assert_eq!(recall(&d, &t), 1.0);
    }
}
