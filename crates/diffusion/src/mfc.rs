use crate::model::gen_unit;
use crate::{ActivationEvent, Cascade, DiffusionError, DiffusionModel, SeedSet};
use isomit_graph::{NodeState, Sign, SignedDigraph};
use rand::RngCore;

/// The paper's **asyMmetric Flipping Cascade** model (Algorithm 1).
///
/// MFC extends the Independent Cascade model to signed, state-carrying
/// networks with two rules (§III-A2):
///
/// 1. **Asymmetric boosting** — a positive (trust) edge `(u, v)` succeeds
///    with probability `min(1, α·w(u, v))` where `α > 1` is the boosting
///    coefficient; a negative (distrust) edge succeeds with the raw
///    weight `w(u, v)`.
/// 2. **Flipping** — a node that is already active can be re-activated
///    (its opinion flipped) by a neighbour it *trusts* (positive edge)
///    holding a different opinion; distrusted neighbours can never flip
///    it.
///
/// On success, the target's state becomes `s(v) = s(u) · s_D(u, v)`.
/// Each node activated at round `τ − 1` gets exactly one attempt per
/// out-neighbour at round `τ`; a node re-enters the frontier whenever its
/// state changes, with a fresh set of attempts — the flip made it a
/// "newly activated" user again.
///
/// A safety cap on rounds (default [`Mfc::DEFAULT_MAX_ROUNDS`]) guards
/// against flip oscillations: when boosted probabilities reach exactly 1
/// on a positive cycle, a single contrarian injection creates a flip
/// wave that chases itself around the cycle forever — MFC as specified
/// by the paper does not terminate on such inputs (it terminates with
/// probability 1 whenever every success probability is below 1).
/// [`Cascade::truncated`] reports whether the cap was hit.
///
/// ```
/// use isomit_diffusion::{DiffusionModel, Mfc, SeedSet};
/// use isomit_graph::{Edge, NodeId, Sign, SignedDigraph};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // 0 -(+)-> 1 -(-)-> 2: node 1 adopts +1, node 2 adopts −1.
/// let g = SignedDigraph::from_edges(
///     3,
///     [
///         Edge::new(NodeId(0), NodeId(1), Sign::Positive, 1.0),
///         Edge::new(NodeId(1), NodeId(2), Sign::Negative, 1.0),
///     ],
/// )?;
/// let seeds = SeedSet::single(NodeId(0), Sign::Positive);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let cascade = Mfc::new(3.0)?.simulate(&g, &seeds, &mut rng)?;
/// assert_eq!(cascade.state(NodeId(2)).opinion(), Some(-1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mfc {
    alpha: f64,
    max_rounds: usize,
}

impl Mfc {
    /// Default safety cap on diffusion rounds.
    pub const DEFAULT_MAX_ROUNDS: usize = 1_000_000;

    /// Creates an MFC model with asymmetric boosting coefficient `alpha`.
    ///
    /// # Errors
    ///
    /// Returns [`DiffusionError::InvalidParameter`] unless
    /// `alpha >= 1` and finite (the paper requires `α > 1` for genuine
    /// asymmetry; `α = 1` degenerates to sign-aware IC with flipping and
    /// is accepted for ablations).
    pub fn new(alpha: f64) -> Result<Self, DiffusionError> {
        if !alpha.is_finite() || alpha < 1.0 {
            return Err(DiffusionError::InvalidParameter {
                name: "alpha",
                value: alpha,
                constraint: "must be finite and >= 1",
            });
        }
        Ok(Mfc {
            alpha,
            max_rounds: Self::DEFAULT_MAX_ROUNDS,
        })
    }

    /// Replaces the safety cap on diffusion rounds.
    ///
    /// # Panics
    ///
    /// Panics if `max_rounds` is zero.
    pub fn with_max_rounds(mut self, max_rounds: usize) -> Self {
        assert!(max_rounds > 0, "max_rounds must be positive");
        self.max_rounds = max_rounds;
        self
    }

    /// The asymmetric boosting coefficient `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The safety cap on diffusion rounds (see
    /// [`with_max_rounds`](Mfc::with_max_rounds)).
    pub fn max_rounds(&self) -> usize {
        self.max_rounds
    }

    /// The boosted success probability of an edge: `min(1, α·w)` if
    /// positive, `w` otherwise (the paper's `w̄_D`).
    #[inline]
    pub fn boosted_probability(&self, sign: Sign, weight: f64) -> f64 {
        match sign {
            Sign::Positive => (self.alpha * weight).min(1.0),
            Sign::Negative => weight,
        }
    }
}

impl DiffusionModel for Mfc {
    fn name(&self) -> &'static str {
        "MFC"
    }

    fn simulate(
        &self,
        graph: &SignedDigraph,
        seeds: &SeedSet,
        rng: &mut dyn RngCore,
    ) -> Result<Cascade, DiffusionError> {
        seeds.validate_against(graph)?;
        let mut cascade = Cascade::new(graph.node_count(), seeds);
        // Frontier of nodes activated (or flipped) in the previous round.
        let mut frontier: Vec<isomit_graph::NodeId> = seeds.nodes().collect();
        let mut in_next = vec![false; graph.node_count()];
        let mut rounds = 0usize;
        let mut truncated = false;

        while !frontier.is_empty() {
            rounds += 1;
            if rounds > self.max_rounds {
                truncated = true;
                break;
            }
            let mut next = Vec::new();
            for &u in &frontier {
                let su = match cascade.state(u).sign() {
                    Some(s) => s,
                    // A frontier node can have been flipped later in the
                    // same round it was activated; it still spreads its
                    // *current* state. Inactive is impossible here.
                    None => unreachable!("frontier node is always active"),
                };
                for e in graph.out_edges(u) {
                    let sv = cascade.state(e.dst);
                    // Algorithm 1, line 8: attempt iff v is inactive, or v
                    // is active with a different opinion and trusts u
                    // (positive diffusion edge u -> v).
                    let eligible = match sv {
                        NodeState::Inactive => true,
                        NodeState::Positive | NodeState::Negative => {
                            e.sign.is_positive() && sv.sign() != Some(su)
                        }
                        NodeState::Unknown => {
                            unreachable!("simulation never produces unknown states")
                        }
                    };
                    if !eligible {
                        continue;
                    }
                    let p = self.boosted_probability(e.sign, e.weight);
                    if gen_unit(rng) < p {
                        let new_state = su * e.sign;
                        let flip = sv.is_active();
                        cascade.record(ActivationEvent {
                            step: rounds,
                            src: u,
                            dst: e.dst,
                            new_state,
                            flip,
                        });
                        let seen = in_next
                            .get_mut(e.dst.index())
                            .expect("in_next has node_count entries and e.dst is a CSR node");
                        if !*seen {
                            *seen = true;
                            next.push(e.dst);
                        }
                    }
                }
            }
            for &v in &next {
                *in_next
                    .get_mut(v.index())
                    .expect("in_next has node_count entries and v was pushed from the CSR") = false;
            }
            frontier = next;
        }
        cascade.finish(rounds.min(self.max_rounds), truncated);
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

    fn g(edges: &[(u32, u32, Sign, f64)]) -> SignedDigraph {
        SignedDigraph::from_edges(
            0,
            edges
                .iter()
                .map(|&(a, b, s, w)| Edge::new(NodeId(a), NodeId(b), s, w)),
        )
        .unwrap()
    }

    #[test]
    fn rejects_alpha_below_one() {
        assert!(Mfc::new(0.99).is_err());
        assert!(Mfc::new(f64::NAN).is_err());
        assert!(Mfc::new(1.0).is_ok());
    }

    #[test]
    fn boosted_probability_caps_at_one() {
        let m = Mfc::new(3.0).unwrap();
        assert!((m.boosted_probability(Sign::Positive, 0.2) - 0.6).abs() < 1e-12);
        assert!((m.boosted_probability(Sign::Positive, 0.5) - 1.0).abs() < 1e-12);
        assert!((m.boosted_probability(Sign::Negative, 0.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn state_propagates_by_sign_product() {
        // + edge keeps the opinion, - edge flips it.
        let g = g(&[
            (0, 1, Sign::Positive, 1.0),
            (1, 2, Sign::Negative, 1.0),
            (2, 3, Sign::Negative, 1.0),
        ]);
        let seeds = SeedSet::single(NodeId(0), Sign::Positive);
        let c = Mfc::new(2.0)
            .unwrap()
            .simulate(&g, &seeds, &mut rng(0))
            .unwrap();
        assert_eq!(c.state(NodeId(1)), NodeState::Positive);
        assert_eq!(c.state(NodeId(2)), NodeState::Negative);
        assert_eq!(c.state(NodeId(3)), NodeState::Positive);
        assert_eq!(c.rounds(), 4); // 3 productive rounds + 1 empty check
        assert!(!c.truncated());
    }

    #[test]
    fn zero_weight_edges_never_fire() {
        let g = g(&[(0, 1, Sign::Positive, 0.0)]);
        let seeds = SeedSet::single(NodeId(0), Sign::Positive);
        for s in 0..20 {
            let c = Mfc::new(10.0)
                .unwrap()
                .simulate(&g, &seeds, &mut rng(s))
                .unwrap();
            assert_eq!(c.infected_count(), 1);
        }
    }

    #[test]
    fn boosting_rescues_weak_positive_edges() {
        // w = 0.34, alpha = 3 → p ≈ 1.0 for positive, stays 0.34 negative.
        let g = g(&[(0, 1, Sign::Positive, 0.34)]);
        let seeds = SeedSet::single(NodeId(0), Sign::Positive);
        let model = Mfc::new(3.0).unwrap();
        let hits = (0..200)
            .filter(|&s| {
                model
                    .simulate(&g, &seeds, &mut rng(s))
                    .unwrap()
                    .infected_count()
                    == 2
            })
            .count();
        assert!(
            hits > 195,
            "boosted edge should almost always fire, got {hits}"
        );
    }

    #[test]
    fn flipping_only_over_positive_links() {
        // Node 2 is seeded negative; node 0 (positive seed) reaches it via
        // a negative edge → cannot flip. Via positive edge → can flip.
        let negative_path = g(&[(0, 2, Sign::Negative, 1.0)]);
        let seeds = SeedSet::from_pairs([(NodeId(0), Sign::Positive), (NodeId(2), Sign::Negative)])
            .unwrap();
        let c = Mfc::new(2.0)
            .unwrap()
            .simulate(&negative_path, &seeds, &mut rng(1))
            .unwrap();
        assert_eq!(
            c.state(NodeId(2)),
            NodeState::Negative,
            "distrust cannot flip"
        );
        assert_eq!(c.flip_count(), 0);

        let positive_path = g(&[(0, 2, Sign::Positive, 1.0)]);
        let c = Mfc::new(2.0)
            .unwrap()
            .simulate(&positive_path, &seeds, &mut rng(1))
            .unwrap();
        assert_eq!(c.state(NodeId(2)), NodeState::Positive, "trust flips");
        assert_eq!(c.flip_count(), 1);
        // A flip does not reset the first parent (node 2 is a seed: none).
        assert_eq!(c.first_parent(NodeId(2)), None);
        assert_eq!(c.last_parent(NodeId(2)), Some(NodeId(0)));
    }

    #[test]
    fn same_state_neighbors_are_not_reattempted() {
        // 0 (+) and 1 (+) both seeded; positive edge 0 -> 1 is ineligible.
        let g = g(&[(0, 1, Sign::Positive, 1.0)]);
        let seeds = SeedSet::from_pairs([(NodeId(0), Sign::Positive), (NodeId(1), Sign::Positive)])
            .unwrap();
        let c = Mfc::new(2.0)
            .unwrap()
            .simulate(&g, &seeds, &mut rng(0))
            .unwrap();
        assert!(c.events().is_empty());
    }

    #[test]
    fn flipped_node_respreads_its_new_state() {
        // 0 (+) -> 1 (-, seeded) over trust; after the flip, 1 spreads +1
        // to 2 over a trust edge.
        let g = g(&[(0, 1, Sign::Positive, 1.0), (1, 2, Sign::Positive, 1.0)]);
        let seeds = SeedSet::from_pairs([(NodeId(0), Sign::Positive), (NodeId(1), Sign::Negative)])
            .unwrap();
        let c = Mfc::new(2.0)
            .unwrap()
            .simulate(&g, &seeds, &mut rng(3))
            .unwrap();
        assert_eq!(c.state(NodeId(1)), NodeState::Positive);
        assert_eq!(c.state(NodeId(2)), NodeState::Positive);
        // Round 1: node 1 (still −1) may already activate 2 with −1, then
        // gets flipped; round 2: node 1 re-spreads +1 and flips 2.
        assert!(c.flip_count() >= 1);
    }

    #[test]
    fn simulation_is_deterministic_given_seed() {
        let g = g(&[
            (0, 1, Sign::Positive, 0.5),
            (0, 2, Sign::Negative, 0.5),
            (1, 3, Sign::Positive, 0.5),
            (2, 3, Sign::Positive, 0.5),
            (3, 4, Sign::Negative, 0.5),
        ]);
        let seeds = SeedSet::single(NodeId(0), Sign::Positive);
        let model = Mfc::new(3.0).unwrap();
        let a = model.simulate(&g, &seeds, &mut rng(42)).unwrap();
        let b = model.simulate(&g, &seeds, &mut rng(42)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn flip_wave_oscillates_forever() {
        // Positive 3-cycle with boosted probability 1 everywhere, plus a
        // one-shot negative seed injecting a contrarian opinion: the "-"
        // wave chases the "+" wave around the cycle without ever
        // converging. This is inherent to the paper's Algorithm 1, not
        // an implementation artifact; the round cap is the mitigation.
        let g = g(&[
            (0, 1, Sign::Positive, 0.9),
            (1, 2, Sign::Positive, 0.9),
            (2, 0, Sign::Positive, 0.9),
            (3, 2, Sign::Positive, 0.9),
        ]);
        let seeds = SeedSet::from_pairs([(NodeId(2), Sign::Positive), (NodeId(3), Sign::Negative)])
            .unwrap();
        let c = Mfc::new(2.0)
            .unwrap()
            .with_max_rounds(1_000)
            .simulate(&g, &seeds, &mut rng(0))
            .unwrap();
        assert!(c.truncated(), "flip wave should outlive any finite cap");
        assert!(c.flip_count() > 500, "one flip per wave step expected");
    }

    #[test]
    fn max_rounds_cap_reports_truncation() {
        let g = g(&[
            (0, 1, Sign::Positive, 1.0),
            (1, 2, Sign::Positive, 1.0),
            (2, 3, Sign::Positive, 1.0),
        ]);
        let seeds = SeedSet::single(NodeId(0), Sign::Positive);
        let c = Mfc::new(2.0)
            .unwrap()
            .with_max_rounds(2)
            .simulate(&g, &seeds, &mut rng(0))
            .unwrap();
        assert!(c.truncated());
        assert_eq!(c.rounds(), 2);
        assert_eq!(c.infected_count(), 3); // 0, 1, 2 reached; 3 not.
    }

    #[test]
    fn out_of_bounds_seed_is_rejected() {
        let g = g(&[(0, 1, Sign::Positive, 1.0)]);
        let seeds = SeedSet::single(NodeId(9), Sign::Positive);
        let err = Mfc::new(2.0)
            .unwrap()
            .simulate(&g, &seeds, &mut rng(0))
            .unwrap_err();
        assert!(err.to_string().contains("out of bounds"));
    }

    #[test]
    fn empty_seed_set_infects_nothing() {
        let g = g(&[(0, 1, Sign::Positive, 1.0)]);
        let c = Mfc::new(2.0)
            .unwrap()
            .simulate(&g, &SeedSet::new(), &mut rng(0))
            .unwrap();
        assert_eq!(c.infected_count(), 0);
        assert_eq!(c.rounds(), 0);
    }

    #[test]
    fn infected_monotone_in_alpha_statistically() {
        // Higher alpha should never shrink average reach on a
        // positive-edge network.
        let edges: Vec<(u32, u32, Sign, f64)> = (0..30)
            .flat_map(|i| {
                [
                    (i, (i + 1) % 30, Sign::Positive, 0.15),
                    (i, (i + 7) % 30, Sign::Positive, 0.15),
                ]
            })
            .collect();
        let g = g(&edges);
        let seeds = SeedSet::single(NodeId(0), Sign::Positive);
        let mut total_low = 0usize;
        let mut total_high = 0usize;
        for s in 0..200 {
            total_low += Mfc::new(1.0)
                .unwrap()
                .simulate(&g, &seeds, &mut rng(s))
                .unwrap()
                .infected_count();
            total_high += Mfc::new(4.0)
                .unwrap()
                .simulate(&g, &seeds, &mut rng(s))
                .unwrap()
                .infected_count();
        }
        assert!(
            total_high > total_low,
            "alpha=4 reach {total_high} should exceed alpha=1 reach {total_low}"
        );
    }
}
