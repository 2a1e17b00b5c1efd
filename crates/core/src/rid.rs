use crate::detection::{Detection, InitiatorDetector};
use crate::error::RidError;
use isomit_diffusion::{InfectedNetwork, Mfc};

/// Which per-tree objective RID optimizes when selecting the number of
/// initiators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RidObjective {
    /// The paper's objective as printed (§III-D): maximize
    /// `OPT = Σ_u P(u, s(u) | I, S)` − `(k−1)·β`. Per-node probabilities
    /// live in `[0, 1]`, so this is the objective under which the
    /// paper's `β ∈ [0, 1]` sensitivity range (Figures 5–6) is
    /// meaningful. Solved exactly by
    /// [`TreeDp::solve_probability_sum`](crate::TreeDp::solve_probability_sum).
    #[default]
    ProbabilitySum,
    /// Maximum-likelihood variant: minimize the negative log-likelihood
    /// `Σ −ln g` of the explained tree plus `(k−1)·β`. Edge costs are
    /// unbounded, so useful `β` values are larger. Solved exactly by
    /// [`TreeDp::solve_penalized`](crate::TreeDp::solve_penalized).
    LogLikelihood,
}

/// Plain-data description of a [`Rid`] detector, the unit the serving
/// wire protocol and config files speak.
///
/// Unlike [`Rid`] it performs no validation — turn it into a detector
/// with [`Rid::from_config`], which applies the same parameter checks
/// as [`Rid::new`]. The default matches the paper's headline setting:
/// `α = 3`, `β = 0.1`, probability-sum objective with external support.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RidConfig {
    /// The MFC boosting coefficient `α` (must be finite and `>= 1`).
    pub alpha: f64,
    /// The per-initiator penalty `β` (must be finite and `>= 0`).
    pub beta: f64,
    /// The per-tree objective to optimize.
    pub objective: RidObjective,
    /// Whether the probability-sum objective includes the
    /// external-support term.
    pub external_support: bool,
}

impl RidConfig {
    /// The MFC diffusion model this detector configuration assumes —
    /// the forward model behind the serving engine's `simulate` verb
    /// and the scale harness's snapshot sampling, derived here so
    /// detection and simulation cannot drift apart on `α`.
    ///
    /// # Errors
    ///
    /// Returns [`RidError::InvalidParameter`] unless `alpha` is finite
    /// and `>= 1`.
    pub fn model(&self) -> Result<Mfc, RidError> {
        Mfc::new(self.alpha).map_err(|_| RidError::InvalidParameter {
            name: "alpha",
            value: self.alpha,
            constraint: "must be finite and >= 1",
        })
    }
}

impl Default for RidConfig {
    fn default() -> Self {
        RidConfig {
            alpha: 3.0,
            beta: 0.1,
            objective: RidObjective::ProbabilitySum,
            external_support: true,
        }
    }
}

/// The full **Rumor Initiator Detector** of the paper (§III-E).
///
/// Pipeline: infected connected components → maximum-likelihood cascade
/// forest (Chu-Liu/Edmonds over sign-consistent boosted arcs) →
/// per-tree binary transformation and dynamic programming, selecting the
/// number of initiators per tree by the penalized objective
/// `argmin_k  −OPT(k) + (k − 1)·β`.
///
/// * `alpha` — the MFC asymmetric boosting coefficient (the paper's
///   experiments use `3`).
/// * `beta` — the per-initiator penalty; the paper evaluates
///   `RID(β = 0.09)` and `RID(β = 0.1)` and sweeps `β ∈ [0, 1]` in its
///   Figures 5–6. Larger `β` keeps trees whole (fewer initiators, higher
///   precision); smaller `β` splits them aggressively (more initiators,
///   higher recall).
///
/// ```
/// use isomit_core::{InitiatorDetector, Rid};
/// # fn main() -> Result<(), isomit_core::RidError> {
/// let rid = Rid::new(3.0, 0.1)?;
/// assert_eq!(rid.name(), "RID(0.1)");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rid {
    alpha: f64,
    beta: f64,
    objective: RidObjective,
    external_support: bool,
}

impl Rid {
    /// Creates a RID detector.
    ///
    /// # Errors
    ///
    /// Returns [`RidError::InvalidParameter`] unless `alpha >= 1` and
    /// `beta >= 0` (both finite).
    pub fn new(alpha: f64, beta: f64) -> Result<Self, RidError> {
        if !alpha.is_finite() || alpha < 1.0 {
            return Err(RidError::InvalidParameter {
                name: "alpha",
                value: alpha,
                constraint: "must be finite and >= 1",
            });
        }
        if !beta.is_finite() || beta < 0.0 {
            return Err(RidError::InvalidParameter {
                name: "beta",
                value: beta,
                constraint: "must be finite and >= 0",
            });
        }
        Ok(Rid {
            alpha,
            beta,
            objective: RidObjective::default(),
            external_support: true,
        })
    }

    /// Enables or disables the external-support term of the
    /// probability-sum objective (default: enabled). Disabling reduces
    /// each node's explanation to its single tree path — the ablation
    /// evaluated by the `ablation` experiment binary.
    pub fn with_external_support(mut self, enabled: bool) -> Self {
        self.external_support = enabled;
        self
    }

    /// Switches the per-tree objective (default:
    /// [`RidObjective::ProbabilitySum`]).
    pub fn with_objective(mut self, objective: RidObjective) -> Self {
        self.objective = objective;
        self
    }

    /// Builds a detector from a plain [`RidConfig`], applying the same
    /// validation as [`Rid::new`].
    ///
    /// # Errors
    ///
    /// Returns [`RidError::InvalidParameter`] under the same conditions
    /// as [`Rid::new`].
    pub fn from_config(config: RidConfig) -> Result<Self, RidError> {
        Ok(Rid::new(config.alpha, config.beta)?
            .with_objective(config.objective)
            .with_external_support(config.external_support))
    }

    /// The detector's parameters as a plain [`RidConfig`].
    pub fn config(&self) -> RidConfig {
        RidConfig {
            alpha: self.alpha,
            beta: self.beta,
            objective: self.objective,
            external_support: self.external_support,
        }
    }

    /// Whether the external-support term is enabled.
    pub fn external_support_enabled(&self) -> bool {
        self.external_support
    }

    /// The configured per-tree objective.
    pub fn objective(&self) -> RidObjective {
        self.objective
    }

    /// The boosting coefficient `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The initiator penalty `β`.
    pub fn beta(&self) -> f64 {
        self.beta
    }
}

impl InitiatorDetector for Rid {
    fn name(&self) -> String {
        format!("RID({})", self.beta)
    }

    fn detect(&self, snapshot: &InfectedNetwork) -> Detection {
        // One-shot path through the two-stage pipeline (see `stages`):
        // extract the forest artifacts, then answer the single query.
        let artifacts = self.extract_stage(snapshot);
        self.query_stage(snapshot, &artifacts)
            .expect("freshly extracted artifacts match the detector alpha")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isomit_diffusion::{DiffusionModel, Mfc, SeedSet};
    use isomit_graph::{Edge, NodeId, Sign, SignedDigraph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn parameter_validation() {
        assert!(Rid::new(0.5, 0.1).is_err());
        assert!(Rid::new(3.0, -0.1).is_err());
        assert!(Rid::new(f64::NAN, 0.1).is_err());
        let rid = Rid::new(3.0, 0.09).unwrap();
        assert_eq!(rid.alpha(), 3.0);
        assert_eq!(rid.beta(), 0.09);
        assert_eq!(rid.name(), "RID(0.09)");
    }

    #[test]
    fn recovers_single_seed_on_deterministic_chain() {
        let g = SignedDigraph::from_edges(
            4,
            [
                Edge::new(NodeId(0), NodeId(1), Sign::Positive, 0.9),
                Edge::new(NodeId(1), NodeId(2), Sign::Negative, 0.9),
                Edge::new(NodeId(2), NodeId(3), Sign::Positive, 0.9),
            ],
        )
        .unwrap();
        let seeds = SeedSet::single(NodeId(0), Sign::Positive);
        let cascade = Mfc::new(3.0)
            .unwrap()
            .simulate(&g, &seeds, &mut StdRng::seed_from_u64(3))
            .unwrap();
        let snapshot = InfectedNetwork::from_cascade(&g, &cascade);
        let detection = Rid::new(3.0, 0.5).unwrap().detect(&snapshot);
        assert_eq!(detection.len(), 1);
        assert!(detection.contains(NodeId(0)));
        assert_eq!(
            detection.state_of(NodeId(0)),
            Some(isomit_graph::NodeState::Positive)
        );
        assert_eq!(detection.component_count, 1);
        assert_eq!(detection.tree_count, 1);
    }

    #[test]
    fn recovers_two_seeds_in_separate_components() {
        let g = SignedDigraph::from_edges(
            4,
            [
                Edge::new(NodeId(0), NodeId(1), Sign::Positive, 0.9),
                Edge::new(NodeId(2), NodeId(3), Sign::Negative, 0.9),
            ],
        )
        .unwrap();
        let seeds = SeedSet::from_pairs([(NodeId(0), Sign::Positive), (NodeId(2), Sign::Negative)])
            .unwrap();
        let cascade = Mfc::new(3.0)
            .unwrap()
            .simulate(&g, &seeds, &mut StdRng::seed_from_u64(7))
            .unwrap();
        let snapshot = InfectedNetwork::from_cascade(&g, &cascade);
        let rid = Rid::new(3.0, 0.1).unwrap();
        let detection = rid.detect(&snapshot);
        assert!(detection.contains(NodeId(0)));
        assert!(detection.contains(NodeId(2)));
        assert_eq!(detection.component_count, 2);
        // The default ranked view is the detected set, in order, at 0.0.
        let found = rid.detect_ranked(&snapshot);
        assert_eq!(found.detection, detection);
        let ranked: Vec<_> = found
            .ranked
            .iter()
            .map(|c| (c.node, c.state, c.score))
            .collect();
        let set: Vec<_> = detection
            .initiators
            .iter()
            .map(|d| (d.node, d.state, 0.0))
            .collect();
        assert_eq!(ranked, set);
    }

    #[test]
    fn small_beta_splits_more_than_large_beta() {
        // A long weak chain: tiny beta should break it into many
        // initiators, large beta should keep it whole.
        let edges: Vec<Edge> = (0..20)
            .map(|i| Edge::new(NodeId(i), NodeId(i + 1), Sign::Negative, 0.3))
            .collect();
        let g = SignedDigraph::from_edges(21, edges).unwrap();
        let states = vec![isomit_graph::NodeState::Positive; 21]
            .into_iter()
            .enumerate()
            .map(|(i, _)| {
                if i % 2 == 0 {
                    isomit_graph::NodeState::Positive
                } else {
                    isomit_graph::NodeState::Negative
                }
            })
            .collect();
        let snapshot = InfectedNetwork::from_parts(g, states);
        let loose = Rid::new(3.0, 0.01).unwrap().detect(&snapshot);
        let tight = Rid::new(3.0, 5.0).unwrap().detect(&snapshot);
        assert!(
            loose.len() > tight.len(),
            "beta 0.01 found {} <= beta 5.0 found {}",
            loose.len(),
            tight.len()
        );
        assert_eq!(tight.len(), 1);
    }

    #[test]
    fn detection_is_deterministic() {
        let g = SignedDigraph::from_edges(
            6,
            (0..5).map(|i| {
                Edge::new(
                    NodeId(i),
                    NodeId(i + 1),
                    if i % 2 == 0 {
                        Sign::Positive
                    } else {
                        Sign::Negative
                    },
                    0.4,
                )
            }),
        )
        .unwrap();
        let seeds = SeedSet::single(NodeId(0), Sign::Negative);
        let cascade = Mfc::new(2.0)
            .unwrap()
            .simulate(&g, &seeds, &mut StdRng::seed_from_u64(5))
            .unwrap();
        let snapshot = InfectedNetwork::from_cascade(&g, &cascade);
        let rid = Rid::new(2.0, 0.1).unwrap();
        assert_eq!(rid.detect(&snapshot), rid.detect(&snapshot));
    }

    #[test]
    fn empty_snapshot_detects_nothing() {
        let g = SignedDigraph::from_edges(0, []).unwrap();
        let snapshot = InfectedNetwork::from_parts(g, vec![]);
        let detection = Rid::new(3.0, 0.1).unwrap().detect(&snapshot);
        assert!(detection.is_empty());
        assert_eq!(detection.tree_count, 0);
    }
}
