use crate::model::gen_unit;
use crate::{ActivationEvent, Cascade, DiffusionError, DiffusionModel, SeedSet};
use isomit_graph::{NodeState, Sign, SignedDigraph};
use rand::RngCore;

/// The **Polarity-related Independent Cascade** model of Li et al.
/// (PLOS ONE 2014), cited by the paper (§V) as the prior signed diffusion
/// model that MFC improves on.
///
/// P-IC is sign-aware in the opinion (the sign product rule) and lets the
/// *polarity of the adopted opinion* modulate the activation chance: a
/// negative-opinion attempt succeeds with probability `w·δ`, where
/// `δ ∈ (0, 1]` is the negative-opinion damping factor (people are less
/// inclined to propagate disbelief). There is no flipping and no trust
/// boosting — exactly the two mechanisms MFC adds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolarityIc {
    delta: f64,
}

impl PolarityIc {
    /// Creates a P-IC model with negative-opinion damping `delta`.
    ///
    /// # Errors
    ///
    /// Returns [`DiffusionError::InvalidParameter`] unless
    /// `0 < delta <= 1`.
    pub fn new(delta: f64) -> Result<Self, DiffusionError> {
        if !delta.is_finite() || delta <= 0.0 || delta > 1.0 {
            return Err(DiffusionError::InvalidParameter {
                name: "delta",
                value: delta,
                constraint: "must be in (0, 1]",
            });
        }
        Ok(PolarityIc { delta })
    }

    /// The negative-opinion damping factor `δ`.
    pub fn delta(&self) -> f64 {
        self.delta
    }
}

impl DiffusionModel for PolarityIc {
    fn name(&self) -> &'static str {
        "P-IC"
    }

    fn simulate(
        &self,
        graph: &SignedDigraph,
        seeds: &SeedSet,
        rng: &mut dyn RngCore,
    ) -> Result<Cascade, DiffusionError> {
        seeds.validate_against(graph)?;
        let mut cascade = Cascade::new(graph.node_count(), seeds);
        let mut frontier: Vec<isomit_graph::NodeId> = seeds.nodes().collect();
        let mut rounds = 0usize;
        while !frontier.is_empty() {
            rounds += 1;
            let mut next = Vec::new();
            for &u in &frontier {
                let su = match cascade.state(u).sign() {
                    Some(s) => s,
                    None => unreachable!("frontier node is always active"),
                };
                for e in graph.out_edges(u) {
                    if cascade.state(e.dst) != NodeState::Inactive {
                        continue;
                    }
                    let adopted = su * e.sign;
                    let p = match adopted {
                        Sign::Positive => e.weight,
                        Sign::Negative => e.weight * self.delta,
                    };
                    if gen_unit(rng) < p {
                        cascade.record(ActivationEvent {
                            step: rounds,
                            src: u,
                            dst: e.dst,
                            new_state: adopted,
                            flip: false,
                        });
                        next.push(e.dst);
                    }
                }
            }
            frontier = next;
        }
        cascade.finish(rounds, false);
        Ok(cascade)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isomit_graph::{Edge, NodeId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn parameter_validation() {
        assert!(PolarityIc::new(0.0).is_err());
        assert!(PolarityIc::new(1.5).is_err());
        assert!(PolarityIc::new(1.0).is_ok());
        assert!((PolarityIc::new(0.25).unwrap().delta() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn negative_opinion_is_damped() {
        // Same weight; adoption of a negative opinion (via a negative
        // edge from a positive source) should fire less often.
        let pos =
            SignedDigraph::from_edges(2, [Edge::new(NodeId(0), NodeId(1), Sign::Positive, 0.5)])
                .unwrap();
        let neg =
            SignedDigraph::from_edges(2, [Edge::new(NodeId(0), NodeId(1), Sign::Negative, 0.5)])
                .unwrap();
        let seeds = SeedSet::single(NodeId(0), Sign::Positive);
        let model = PolarityIc::new(0.2).unwrap();
        let fire = |g: &SignedDigraph| {
            (0..2000)
                .filter(|&s| {
                    model
                        .simulate(g, &seeds, &mut rng(s))
                        .unwrap()
                        .infected_count()
                        == 2
                })
                .count()
        };
        let pos_hits = fire(&pos);
        let neg_hits = fire(&neg);
        assert!(
            pos_hits > 2 * neg_hits,
            "positive adoption {pos_hits} should dominate damped negative {neg_hits}"
        );
    }

    #[test]
    fn delta_one_matches_plain_sign_aware_ic() {
        // With delta = 1 both polarities use the raw weight.
        let g =
            SignedDigraph::from_edges(2, [Edge::new(NodeId(0), NodeId(1), Sign::Negative, 1.0)])
                .unwrap();
        let seeds = SeedSet::single(NodeId(0), Sign::Positive);
        let c = PolarityIc::new(1.0)
            .unwrap()
            .simulate(&g, &seeds, &mut rng(0))
            .unwrap();
        assert_eq!(c.state(NodeId(1)), NodeState::Negative);
    }

    #[test]
    fn no_flipping() {
        let g =
            SignedDigraph::from_edges(2, [Edge::new(NodeId(0), NodeId(1), Sign::Positive, 1.0)])
                .unwrap();
        let seeds = SeedSet::from_pairs([(NodeId(0), Sign::Positive), (NodeId(1), Sign::Negative)])
            .unwrap();
        let c = PolarityIc::new(0.5)
            .unwrap()
            .simulate(&g, &seeds, &mut rng(0))
            .unwrap();
        assert_eq!(c.state(NodeId(1)), NodeState::Negative);
        assert_eq!(c.flip_count(), 0);
    }
}
