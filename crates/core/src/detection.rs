use isomit_diffusion::InfectedNetwork;
use isomit_graph::{NodeId, NodeState};

/// One detected rumor initiator: identity (in **original-network** ids)
/// plus inferred initial state.
///
/// Tree-root baselines report the observed snapshot state (possibly
/// [`NodeState::Unknown`]); the full RID dynamic program always infers a
/// concrete `+1`/`−1` state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectedInitiator {
    /// The initiator's id in the original diffusion network.
    pub node: NodeId,
    /// The inferred (or observed) initial opinion.
    pub state: NodeState,
}

/// The output of an [`InitiatorDetector`]: the inferred initiator set
/// `(I*, S*)` together with pipeline diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// Detected initiators, ascending by node id.
    pub initiators: Vec<DetectedInitiator>,
    /// Number of infected weakly-connected components.
    pub component_count: usize,
    /// Number of cascade trees in the extracted forest (a lower bound on
    /// the number of initiators, per §III-E3).
    pub tree_count: usize,
    /// Total penalized objective value `Σ_T (−OPT + (k−1)β)`; `0.0` for
    /// baselines that do not optimize an objective.
    pub objective: f64,
}

impl Detection {
    /// `true` if `node` (original-network id) was detected.
    pub fn contains(&self, node: NodeId) -> bool {
        self.initiators.iter().any(|d| d.node == node)
    }

    /// Inferred state of a detected initiator, `None` if not detected.
    pub fn state_of(&self, node: NodeId) -> Option<NodeState> {
        self.initiators
            .iter()
            .find(|d| d.node == node)
            .map(|d| d.state)
    }

    /// Number of detected initiators.
    pub fn len(&self) -> usize {
        self.initiators.len()
    }

    /// `true` if nothing was detected.
    pub fn is_empty(&self) -> bool {
        self.initiators.is_empty()
    }

    /// The detected node ids, ascending.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.initiators.iter().map(|d| d.node).collect()
    }

    pub(crate) fn sort(&mut self) {
        self.initiators.sort_by_key(|d| d.node);
    }
}

/// One candidate source in a detector's ranked output: identity (in
/// **original-network** ids), the state the detector associates with
/// it, and the detector-specific score that produced its rank.
///
/// Scores are only comparable *within* one detection run (and, for the
/// per-component estimators, only within one component — the list is
/// still totally ordered by score for determinism). Higher is better.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedSource {
    /// Candidate id in the original diffusion network.
    pub node: NodeId,
    /// Inferred (or observed) state of the candidate.
    pub state: NodeState,
    /// Detector-specific score; higher ranks earlier.
    pub score: f64,
}

/// The output of [`InitiatorDetector::detect_ranked`]: the point
/// estimate as a [`Detection`] plus the full ranked candidate list
/// behind it.
///
/// Set-style detectors (the RID family) return `ranked` equal to their
/// detected set — they commit to a set, not an ordering, so every
/// member carries score `0.0` in `Detection` order. Score-style
/// detectors (rumor centrality, Jordan center) rank **every** node of
/// the snapshot, descending by score with ascending node id as the
/// tie-break.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceDetection {
    /// The point estimate.
    pub detection: Detection,
    /// All scored candidates, best first.
    pub ranked: Vec<RankedSource>,
}

impl SourceDetection {
    /// 1-based rank of `node` (original-network id) in the candidate
    /// list, `None` if the detector never scored it.
    pub fn rank_of(&self, node: NodeId) -> Option<usize> {
        self.ranked
            .iter()
            .position(|c| c.node == node)
            .map(|i| i + 1)
    }
}

/// A rumor-initiator detection algorithm solving the ISOMIT problem on
/// an infected snapshot.
///
/// Implemented by [`Rid`](crate::Rid), [`RidTree`](crate::RidTree) and
/// [`RidPositive`](crate::RidPositive) here, and by the rumor-centrality
/// and Jordan-center estimators of `isomit-detectors`; object-safe so
/// experiment harnesses can iterate over
/// `Vec<Box<dyn InitiatorDetector>>`. Implementations must be
/// deterministic — same snapshot, same output, bit for bit, regardless
/// of thread count.
pub trait InitiatorDetector: std::fmt::Debug {
    /// Human-readable detector name used in reports, e.g. `"RID(0.1)"`.
    fn name(&self) -> String;

    /// Runs detection on an infected snapshot. Reported initiator ids are
    /// translated back to the original network through the snapshot's
    /// [`mapping`](InfectedNetwork::mapping).
    fn detect(&self, snapshot: &InfectedNetwork) -> Detection;

    /// Runs detection and also returns the ranked candidate list behind
    /// the point estimate.
    ///
    /// The default suits set-style detectors: it ranks the detected set
    /// in [`Detection`] order, every member at score `0.0`. Score-style
    /// estimators override it to rank every node they score.
    fn detect_ranked(&self, snapshot: &InfectedNetwork) -> SourceDetection {
        let detection = self.detect(snapshot);
        let ranked = detection
            .initiators
            .iter()
            .map(|d| RankedSource {
                node: d.node,
                state: d.state,
                score: 0.0,
            })
            .collect();
        SourceDetection { detection, ranked }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_helpers() {
        let mut d = Detection {
            initiators: vec![
                DetectedInitiator {
                    node: NodeId(5),
                    state: NodeState::Positive,
                },
                DetectedInitiator {
                    node: NodeId(2),
                    state: NodeState::Negative,
                },
            ],
            component_count: 1,
            tree_count: 2,
            objective: 1.5,
        };
        d.sort();
        assert_eq!(d.nodes(), vec![NodeId(2), NodeId(5)]);
        assert!(d.contains(NodeId(2)));
        assert!(!d.contains(NodeId(3)));
        assert_eq!(d.state_of(NodeId(5)), Some(NodeState::Positive));
        assert_eq!(d.state_of(NodeId(9)), None);
        assert_eq!(d.len(), 2);
        assert!(!d.is_empty());
    }

    #[test]
    fn rank_of_is_one_based() {
        let ranked = vec![
            RankedSource {
                node: NodeId(7),
                state: NodeState::Positive,
                score: 2.0,
            },
            RankedSource {
                node: NodeId(3),
                state: NodeState::Negative,
                score: 1.0,
            },
        ];
        let sd = SourceDetection {
            detection: Detection {
                initiators: Vec::new(),
                component_count: 1,
                tree_count: 1,
                objective: 0.0,
            },
            ranked,
        };
        assert_eq!(sd.rank_of(NodeId(7)), Some(1));
        assert_eq!(sd.rank_of(NodeId(3)), Some(2));
        assert_eq!(sd.rank_of(NodeId(0)), None);
    }
}
