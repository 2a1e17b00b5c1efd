use crate::model::gen_unit;
use crate::{ActivationEvent, Cascade, DiffusionError, DiffusionModel, SeedSet};
use isomit_graph::{NodeState, SignedDigraph};
use rand::RngCore;

/// The classic **Independent Cascade** model of Kempe, Kleinberg & Tardos
/// (KDD 2003), the unsigned baseline the paper contrasts MFC with
/// (§III-A1).
///
/// IC ignores link polarity for the *dynamics*: every edge `(u, v)` fires
/// with its raw weight `w(u, v)`, there is no boosting, and activated
/// nodes can never be re-activated (no flipping). To keep the resulting
/// snapshot comparable with signed models, the adopted opinion still
/// follows the sign product `s(v) = s(u)·s_D(u, v)` — the paper's Figure 2
/// discussion treats IC as blind to signs only in *who activates whom*.
///
/// ```
/// use isomit_diffusion::{DiffusionModel, IndependentCascade, SeedSet};
/// use isomit_graph::{Edge, NodeId, Sign, SignedDigraph};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = SignedDigraph::from_edges(
///     2,
///     [Edge::new(NodeId(0), NodeId(1), Sign::Positive, 1.0)],
/// )?;
/// let seeds = SeedSet::single(NodeId(0), Sign::Positive);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let c = IndependentCascade::new().simulate(&g, &seeds, &mut rng)?;
/// assert_eq!(c.infected_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IndependentCascade {
    _private: (),
}

impl IndependentCascade {
    /// Creates the parameter-free IC model.
    pub fn new() -> Self {
        Self::default()
    }
}

impl DiffusionModel for IndependentCascade {
    fn name(&self) -> &'static str {
        "IC"
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
                        continue; // once active, forever active — no flips
                    }
                    if gen_unit(rng) < e.weight {
                        cascade.record(ActivationEvent {
                            step: rounds,
                            src: u,
                            dst: e.dst,
                            new_state: su * e.sign,
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
    use isomit_graph::{Edge, NodeId, Sign};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn no_boosting_in_ic() {
        // A 0.3-weight positive edge fires ~30% of the time in IC even
        // though MFC at alpha=3 would fire ~90%.
        let g =
            SignedDigraph::from_edges(2, [Edge::new(NodeId(0), NodeId(1), Sign::Positive, 0.3)])
                .unwrap();
        let seeds = SeedSet::single(NodeId(0), Sign::Positive);
        let model = IndependentCascade::new();
        let hits = (0..2000)
            .filter(|&s| {
                model
                    .simulate(&g, &seeds, &mut rng(s))
                    .unwrap()
                    .infected_count()
                    == 2
            })
            .count();
        let rate = hits as f64 / 2000.0;
        assert!(
            (rate - 0.3).abs() < 0.05,
            "empirical rate {rate} far from 0.3"
        );
    }

    #[test]
    fn no_flipping_in_ic() {
        // Both seeded with opposite opinions over a strong trust edge:
        // IC never revisits an active node.
        let g =
            SignedDigraph::from_edges(2, [Edge::new(NodeId(0), NodeId(1), Sign::Positive, 1.0)])
                .unwrap();
        let seeds = SeedSet::from_pairs([(NodeId(0), Sign::Positive), (NodeId(1), Sign::Negative)])
            .unwrap();
        let c = IndependentCascade::new()
            .simulate(&g, &seeds, &mut rng(0))
            .unwrap();
        assert_eq!(c.state(NodeId(1)), NodeState::Negative);
        assert_eq!(c.flip_count(), 0);
    }

    #[test]
    fn opinion_follows_sign_product() {
        let g = SignedDigraph::from_edges(
            3,
            [
                Edge::new(NodeId(0), NodeId(1), Sign::Negative, 1.0),
                Edge::new(NodeId(1), NodeId(2), Sign::Negative, 1.0),
            ],
        )
        .unwrap();
        let seeds = SeedSet::single(NodeId(0), Sign::Positive);
        let c = IndependentCascade::new()
            .simulate(&g, &seeds, &mut rng(5))
            .unwrap();
        assert_eq!(c.state(NodeId(1)), NodeState::Negative);
        assert_eq!(c.state(NodeId(2)), NodeState::Positive);
    }

    #[test]
    fn one_chance_per_edge() {
        // With weight 0, node 1 is never activated no matter how many
        // rounds elapse elsewhere.
        let g = SignedDigraph::from_edges(
            3,
            [
                Edge::new(NodeId(0), NodeId(1), Sign::Positive, 0.0),
                Edge::new(NodeId(0), NodeId(2), Sign::Positive, 1.0),
            ],
        )
        .unwrap();
        let seeds = SeedSet::single(NodeId(0), Sign::Positive);
        let c = IndependentCascade::new()
            .simulate(&g, &seeds, &mut rng(0))
            .unwrap();
        assert_eq!(c.state(NodeId(1)), NodeState::Inactive);
        assert_eq!(c.state(NodeId(2)), NodeState::Positive);
    }
}
