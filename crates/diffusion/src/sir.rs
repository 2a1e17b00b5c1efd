use crate::model::gen_unit;
use crate::{ActivationEvent, Cascade, DiffusionError, DiffusionModel, SeedSet};
use isomit_graph::{NodeId, NodeState, SignedDigraph};
use rand::RngCore;

/// A signed **Susceptible-Infectious-Recovered** epidemic model (Hethcote,
/// SIAM Review 2000), the family underlying Shah & Zaman's rumor-centrality
/// source detectors that the paper compares its problem setting to (§V).
///
/// Infectious nodes attempt every out-edge each round with the edge
/// weight as the per-round transmission probability (opinion follows the
/// sign product), then recover independently with probability `gamma`.
/// Recovered nodes keep their opinion (they remain "infected" in the
/// snapshot sense — they hold a state — but no longer transmit), matching
/// the paper's notion that an observed snapshot shows opinions, not
/// activity.
///
/// Unlike IC, an infectious node keeps attempting a susceptible neighbour
/// every round until it recovers, so low-weight edges eventually fire —
/// the classic epidemic behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sir {
    gamma: f64,
    max_rounds: usize,
}

impl Sir {
    /// Default safety cap on rounds (relevant when `gamma` is tiny).
    pub const DEFAULT_MAX_ROUNDS: usize = 100_000;

    /// Creates an SIR model with recovery probability `gamma` per round.
    ///
    /// # Errors
    ///
    /// Returns [`DiffusionError::InvalidParameter`] unless
    /// `0 < gamma <= 1`.
    pub fn new(gamma: f64) -> Result<Self, DiffusionError> {
        if !gamma.is_finite() || gamma <= 0.0 || gamma > 1.0 {
            return Err(DiffusionError::InvalidParameter {
                name: "gamma",
                value: gamma,
                constraint: "must be in (0, 1]",
            });
        }
        Ok(Sir {
            gamma,
            max_rounds: Self::DEFAULT_MAX_ROUNDS,
        })
    }

    /// Replaces the safety cap on rounds.
    ///
    /// # Panics
    ///
    /// Panics if `max_rounds` is zero.
    pub fn with_max_rounds(mut self, max_rounds: usize) -> Self {
        assert!(max_rounds > 0, "max_rounds must be positive");
        self.max_rounds = max_rounds;
        self
    }

    /// The per-round recovery probability.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }
}

impl DiffusionModel for Sir {
    fn name(&self) -> &'static str {
        "SIR"
    }

    fn simulate(
        &self,
        graph: &SignedDigraph,
        seeds: &SeedSet,
        rng: &mut dyn RngCore,
    ) -> Result<Cascade, DiffusionError> {
        seeds.validate_against(graph)?;
        let mut cascade = Cascade::new(graph.node_count(), seeds);
        let mut infectious: Vec<NodeId> = seeds.nodes().collect();
        let mut rounds = 0usize;
        let mut truncated = false;
        while !infectious.is_empty() {
            rounds += 1;
            if rounds > self.max_rounds {
                truncated = true;
                break;
            }
            let mut newly: Vec<NodeId> = Vec::new();
            for &u in &infectious {
                let su = match cascade.state(u).sign() {
                    Some(s) => s,
                    None => unreachable!("infectious node is always active"),
                };
                for e in graph.out_edges(u) {
                    if cascade.state(e.dst) != NodeState::Inactive {
                        continue;
                    }
                    if gen_unit(rng) < e.weight {
                        cascade.record(ActivationEvent {
                            step: rounds,
                            src: u,
                            dst: e.dst,
                            new_state: su * e.sign,
                            flip: false,
                        });
                        newly.push(e.dst);
                    }
                }
            }
            // Recovery phase: infectious nodes leave the transmitting pool
            // with probability gamma, keeping their opinion.
            infectious.retain(|_| gen_unit(rng) >= self.gamma);
            infectious.extend(newly);
        }
        cascade.finish(rounds.min(self.max_rounds), truncated);
        Ok(cascade)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isomit_graph::{Edge, Sign};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn parameter_validation() {
        assert!(Sir::new(0.0).is_err());
        assert!(Sir::new(1.1).is_err());
        assert!(Sir::new(f64::INFINITY).is_err());
        assert!(Sir::new(1.0).is_ok());
    }

    #[test]
    fn instant_recovery_reduces_to_one_shot() {
        // gamma = 1: every infectious node recovers after one round, so a
        // 3-chain needs the edge to fire first try each hop.
        let g =
            SignedDigraph::from_edges(2, [Edge::new(NodeId(0), NodeId(1), Sign::Positive, 1.0)])
                .unwrap();
        let seeds = SeedSet::single(NodeId(0), Sign::Positive);
        let c = Sir::new(1.0)
            .unwrap()
            .simulate(&g, &seeds, &mut rng(0))
            .unwrap();
        assert_eq!(c.infected_count(), 2);
        assert!(c.rounds() <= 3);
    }

    #[test]
    fn persistent_infection_eventually_crosses_weak_edges() {
        // Weight 0.05 edge, gamma 0.001: transmit-before-recover chance
        // is ~ p / (p + γ) ≈ 0.98, so transmission is near-certain.
        let g =
            SignedDigraph::from_edges(2, [Edge::new(NodeId(0), NodeId(1), Sign::Positive, 0.05)])
                .unwrap();
        let seeds = SeedSet::single(NodeId(0), Sign::Positive);
        let model = Sir::new(0.001).unwrap();
        let hits = (0..100)
            .filter(|&s| {
                model
                    .simulate(&g, &seeds, &mut rng(s))
                    .unwrap()
                    .infected_count()
                    == 2
            })
            .count();
        assert!(
            hits > 90,
            "weak edge should usually fire eventually, got {hits}"
        );
    }

    #[test]
    fn opinion_follows_sign_product() {
        let g =
            SignedDigraph::from_edges(2, [Edge::new(NodeId(0), NodeId(1), Sign::Negative, 1.0)])
                .unwrap();
        let seeds = SeedSet::single(NodeId(0), Sign::Positive);
        let c = Sir::new(0.5)
            .unwrap()
            .simulate(&g, &seeds, &mut rng(1))
            .unwrap();
        assert_eq!(c.state(NodeId(1)), NodeState::Negative);
    }

    #[test]
    fn truncation_cap_respected() {
        let g = SignedDigraph::from_edges(
            3,
            [
                Edge::new(NodeId(0), NodeId(1), Sign::Positive, 0.001),
                Edge::new(NodeId(1), NodeId(2), Sign::Positive, 0.001),
            ],
        )
        .unwrap();
        let seeds = SeedSet::single(NodeId(0), Sign::Positive);
        // gamma tiny → the seed stays infectious; cap must end the run.
        let c = Sir::new(1e-9)
            .unwrap()
            .with_max_rounds(50)
            .simulate(&g, &seeds, &mut rng(0))
            .unwrap();
        assert!(c.rounds() <= 50);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = SignedDigraph::from_edges(
            4,
            [
                Edge::new(NodeId(0), NodeId(1), Sign::Positive, 0.3),
                Edge::new(NodeId(1), NodeId(2), Sign::Negative, 0.3),
                Edge::new(NodeId(2), NodeId(3), Sign::Positive, 0.3),
            ],
        )
        .unwrap();
        let seeds = SeedSet::single(NodeId(0), Sign::Positive);
        let model = Sir::new(0.4).unwrap();
        assert_eq!(
            model.simulate(&g, &seeds, &mut rng(8)).unwrap(),
            model.simulate(&g, &seeds, &mut rng(8)).unwrap()
        );
    }
}
