use crate::weighting::paper_weights;
use isomit_diffusion::{Cascade, DiffusionModel, InfectedNetwork, Mfc, SeedSet};
use isomit_graph::{NodeId, SignedDigraph};
use rand::Rng;

/// Parameters of one end-to-end detection experiment, defaulting to the
/// paper's §IV-B3 setup (`N = 1000`, `θ = 0.5`, `α = 3`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioConfig {
    /// Number of planted rumor initiators (`N`).
    pub n_initiators: usize,
    /// Fraction of initiators seeded with the positive state (`θ`).
    pub positive_ratio: f64,
    /// MFC asymmetric boosting coefficient (`α`).
    pub alpha: f64,
    /// Fraction of infected-node states hidden as unknown in the
    /// snapshot (`0.0` = fully observed, the paper's main setting).
    pub mask_fraction: f64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            n_initiators: 1000,
            positive_ratio: 0.5,
            alpha: 3.0,
            mask_fraction: 0.0,
        }
    }
}

impl ScenarioConfig {
    /// A small-scale variant (`N = 20`) suitable for scaled-down
    /// networks and doc examples.
    pub fn small() -> Self {
        ScenarioConfig {
            n_initiators: 20,
            ..Self::default()
        }
    }

    /// Replaces the initiator count.
    pub fn with_initiators(mut self, n: usize) -> Self {
        self.n_initiators = n;
        self
    }

    /// Replaces the mask fraction.
    pub fn with_mask_fraction(mut self, fraction: f64) -> Self {
        self.mask_fraction = fraction;
        self
    }
}

/// One generated experiment: the derived diffusion network, the planted
/// ground truth, the forward MFC cascade, and the infected snapshot that
/// detectors receive.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The weighted signed diffusion network (paper weighting applied).
    pub diffusion: SignedDigraph,
    /// The planted initiators and their initial states.
    pub ground_truth: SeedSet,
    /// The forward simulation record.
    pub cascade: Cascade,
    /// The snapshot handed to detectors (possibly with masked states).
    pub snapshot: InfectedNetwork,
}

impl Scenario {
    /// Ground truth as `(node, ±1)` pairs for
    /// `isomit_metrics::evaluate_detection`-style evaluation.
    pub fn ground_truth_pairs(&self) -> Vec<(NodeId, i8)> {
        self.ground_truth
            .iter()
            .map(|(n, s)| (n, s.value()))
            .collect()
    }

    /// Ground-truth initiators that actually appear in the snapshot.
    ///
    /// All seeds are always infected under MFC, so this equals the full
    /// ground truth; provided for defensive evaluation code.
    pub fn infected_ground_truth(&self) -> Vec<NodeId> {
        self.ground_truth
            .nodes()
            .filter(|&n| self.cascade.state(n).is_active())
            .collect()
    }
}

/// Builds a full experiment from a social network, following §IV-B3:
/// weight with Jaccard coefficients (zeros refilled from `(0, 0.1]`),
/// reverse into the diffusion network, plant `N` random initiators at
/// positive ratio `θ`, simulate MFC with boosting `α`, and extract the
/// infected snapshot (masking states if configured).
///
/// # Panics
///
/// Panics if `n_initiators` exceeds the node count, or on invalid
/// `positive_ratio` / `alpha` / `mask_fraction`.
pub fn build_scenario<R: Rng>(
    social: &SignedDigraph,
    config: &ScenarioConfig,
    rng: &mut R,
) -> Scenario {
    let model = Mfc::new(config.alpha).expect("alpha validated by Mfc");
    build_scenario_with_model(social, config, &model, rng)
}

/// [`build_scenario`] generalized over the forward diffusion model:
/// weighting, seed sampling and snapshot extraction are unchanged, only
/// the simulation step runs `model` instead of MFC. Passing
/// `Mfc::new(config.alpha)` reproduces [`build_scenario`] bit for bit
/// (the RNG draw order is identical), which the detector bakeoff relies
/// on to compare estimators across diffusion models on otherwise
/// identical setups.
///
/// `config.alpha` is ignored except by models that take it as a
/// constructor parameter.
///
/// # Panics
///
/// Panics if `n_initiators` exceeds the node count, on invalid
/// `positive_ratio` / `mask_fraction`, or if the model rejects the
/// sampled seed set.
pub fn build_scenario_with_model<R: Rng>(
    social: &SignedDigraph,
    config: &ScenarioConfig,
    model: &dyn DiffusionModel,
    rng: &mut R,
) -> Scenario {
    let diffusion = paper_weights(social, rng);
    let ground_truth = SeedSet::sample(&diffusion, config.n_initiators, config.positive_ratio, rng);
    let cascade = model
        .simulate(&diffusion, &ground_truth, rng)
        .expect("sampled seeds lie within the diffusion network");
    let snapshot = InfectedNetwork::from_cascade(&diffusion, &cascade);
    let snapshot = if config.mask_fraction > 0.0 {
        snapshot.with_masked_states(config.mask_fraction, rng)
    } else {
        snapshot
    };
    Scenario {
        diffusion,
        ground_truth,
        cascade,
        snapshot,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::epinions_like_scaled;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn scenario_pipeline_is_consistent() {
        let mut r = rng(11);
        let social = epinions_like_scaled(0.005, &mut r);
        let cfg = ScenarioConfig::small();
        let s = build_scenario(&social, &cfg, &mut r);
        assert_eq!(s.ground_truth.len(), 20);
        // Every seed is infected and present in the snapshot.
        for (node, sign) in s.ground_truth.iter() {
            assert_eq!(
                s.cascade.state(node).sign(),
                Some(s.cascade.state(node).sign().unwrap())
            );
            assert!(s.snapshot.mapping().to_subgraph(node).is_some());
            let _ = sign;
        }
        assert_eq!(s.infected_ground_truth().len(), 20);
        // Snapshot covers exactly the infected nodes.
        assert_eq!(s.snapshot.node_count(), s.cascade.infected_count());
        // Diffusion network is the reversal of the social one
        // structurally: same edge count.
        assert_eq!(s.diffusion.edge_count(), social.edge_count());
    }

    #[test]
    fn positive_ratio_respected() {
        let mut r = rng(12);
        let social = epinions_like_scaled(0.005, &mut r);
        let cfg = ScenarioConfig::small().with_initiators(40);
        let s = build_scenario(&social, &cfg, &mut r);
        assert!((s.ground_truth.positive_ratio() - 0.5).abs() < 1e-9);
        let pairs = s.ground_truth_pairs();
        assert_eq!(pairs.len(), 40);
        assert_eq!(pairs.iter().filter(|(_, v)| *v == 1).count(), 20);
    }

    #[test]
    fn masking_produces_unknowns() {
        let mut r = rng(13);
        let social = epinions_like_scaled(0.005, &mut r);
        let cfg = ScenarioConfig::small().with_mask_fraction(0.5);
        let s = build_scenario(&social, &cfg, &mut r);
        let unknowns = s.snapshot.node_count() - s.snapshot.observed_count();
        assert!(unknowns > 0, "expected some masked states");
    }

    #[test]
    fn with_model_mfc_is_bit_identical_to_build_scenario() {
        let social = epinions_like_scaled(0.004, &mut rng(3));
        let cfg = ScenarioConfig::small();
        let legacy = build_scenario(&social, &cfg, &mut rng(7));
        let model = Mfc::new(cfg.alpha).unwrap();
        let general = build_scenario_with_model(&social, &cfg, &model, &mut rng(7));
        assert_eq!(legacy, general);
    }

    #[test]
    fn with_model_runs_other_models() {
        use isomit_diffusion::{IndependentCascade, LinearThreshold};
        let social = epinions_like_scaled(0.004, &mut rng(3));
        let cfg = ScenarioConfig::small();
        for model in [
            Box::new(IndependentCascade::new()) as Box<dyn DiffusionModel>,
            Box::new(LinearThreshold::new()),
        ] {
            let s = build_scenario_with_model(&social, &cfg, model.as_ref(), &mut rng(9));
            assert_eq!(s.ground_truth.len(), 20);
            assert_eq!(s.snapshot.node_count(), s.cascade.infected_count());
        }
    }

    #[test]
    fn scenario_deterministic_per_seed() {
        let social = epinions_like_scaled(0.004, &mut rng(3));
        let cfg = ScenarioConfig::small();
        let a = build_scenario(&social, &cfg, &mut rng(7));
        let b = build_scenario(&social, &cfg, &mut rng(7));
        assert_eq!(a, b);
    }
}
