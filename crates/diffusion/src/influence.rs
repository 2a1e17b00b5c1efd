//! Influence maximization for signed diffusion networks — the problem
//! family the paper positions ISOMIT against (Table I: Kempe et al. for
//! unsigned networks, Li et al. for signed ones). Provided as a
//! substrate feature: the greedy hill-climbing algorithm with lazy
//! ("CELF") marginal-gain re-evaluation, driven by Monte-Carlo estimates
//! of the expected spread under any [`DiffusionModel`].
//!
//! Greedy is a `(1 − 1/e)`-approximation when the spread function is
//! monotone submodular (true for IC/LT; MFC's flipping breaks the
//! guarantee in theory but greedy remains the standard heuristic).

use crate::montecarlo::check_runs;
use crate::{par_estimate_infection_probabilities, DiffusionError, DiffusionModel, SeedSet};
use isomit_graph::{NodeId, Sign, SignedDigraph};
use rand::RngCore;

/// Result of [`maximize_influence`].
#[derive(Debug, Clone, PartialEq)]
pub struct InfluenceResult {
    /// Chosen seeds in selection order (all seeded with
    /// [`Sign::Positive`]).
    pub seeds: Vec<NodeId>,
    /// Estimated expected spread after each selection:
    /// `spread_trajectory[i]` is the spread of the first `i + 1` seeds.
    pub spread_trajectory: Vec<f64>,
}

impl InfluenceResult {
    /// Estimated expected spread of the full seed set.
    pub fn expected_spread(&self) -> f64 {
        self.spread_trajectory.last().copied().unwrap_or(0.0)
    }

    /// The chosen seeds as a positive-state [`SeedSet`].
    pub fn seed_set(&self) -> SeedSet {
        SeedSet::from_pairs(self.seeds.iter().map(|&n| (n, Sign::Positive)))
            .expect("selection never repeats a node")
    }
}

/// Expected spread of `seeds` (all positive): one estimator call whose
/// master seed is the next draw of `rng`.
fn estimate_spread<M: DiffusionModel + Sync + ?Sized>(
    model: &M,
    graph: &SignedDigraph,
    seeds: &[NodeId],
    runs: usize,
    rng: &mut dyn RngCore,
) -> Result<f64, DiffusionError> {
    let seed_set = SeedSet::from_pairs(seeds.iter().map(|&n| (n, Sign::Positive)))?;
    let estimate =
        par_estimate_infection_probabilities(model, graph, &seed_set, runs, rng.next_u64())?;
    Ok(estimate.expected_infected())
}

/// Greedily selects `k` seeds maximizing the Monte-Carlo estimate of the
/// expected spread of `model` on `graph`, with lazy marginal-gain
/// re-evaluation (CELF): candidates are kept in a priority queue keyed by
/// their last-known gain, and only the top candidate is re-evaluated
/// against the current seed set — typically a 10–100× saving over plain
/// greedy at identical output.
///
/// `runs` Monte-Carlo simulations back every spread estimate. Each
/// estimate is one [`par_estimate_infection_probabilities`] call seeded
/// by the next draw of `rng`, so the estimates (and thus the selection)
/// are deterministic given `rng` and bit-identical for every rayon
/// thread count.
///
/// # Errors
///
/// Returns [`DiffusionError::InvalidParameter`] if `k` exceeds the node
/// count, `runs == 0` or `runs > u32::MAX`, or any error of the
/// underlying [`DiffusionModel::simulate`] calls.
pub fn maximize_influence<M: DiffusionModel + Sync + ?Sized>(
    model: &M,
    graph: &SignedDigraph,
    k: usize,
    runs: usize,
    rng: &mut dyn RngCore,
) -> Result<InfluenceResult, DiffusionError> {
    if k > graph.node_count() {
        return Err(DiffusionError::InvalidParameter {
            name: "k",
            value: k as f64,
            constraint: "must not exceed the node count",
        });
    }
    check_runs(runs)?;

    // Lazy queue of (last-known marginal gain, node, round it was
    // computed in). BinaryHeap is a max-heap over the f64 gain via
    // total ordering on bits.
    #[derive(PartialEq)]
    struct Cand {
        gain: f64,
        node: NodeId,
        round: usize,
    }
    impl Eq for Cand {}
    impl PartialOrd for Cand {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Cand {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.gain
                .total_cmp(&other.gain)
                .then_with(|| other.node.cmp(&self.node))
        }
    }

    let mut queue: std::collections::BinaryHeap<Cand> = graph
        .nodes()
        .map(|node| Cand {
            // Optimistic initial gain forces one evaluation per node the
            // first time it reaches the top.
            gain: f64::INFINITY,
            node,
            round: usize::MAX,
        })
        .collect();

    let mut seeds: Vec<NodeId> = Vec::with_capacity(k);
    let mut trajectory = Vec::with_capacity(k);
    let mut current_spread = 0.0;

    for round in 0..k {
        loop {
            let Some(top) = queue.pop() else {
                unreachable!("k <= node count");
            };
            if top.round == round {
                // Gain is current: select it.
                seeds.push(top.node);
                current_spread += top.gain;
                trajectory.push(current_spread);
                break;
            }
            // Stale: re-evaluate against the current seed set.
            let mut candidate_seeds = seeds.clone();
            candidate_seeds.push(top.node);
            let spread = estimate_spread(model, graph, &candidate_seeds, runs, rng)?;
            queue.push(Cand {
                gain: spread - current_spread,
                node: top.node,
                round,
            });
        }
    }
    Ok(InfluenceResult {
        seeds,
        spread_trajectory: trajectory,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IndependentCascade, Mfc};
    use isomit_graph::Edge;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn picks_the_hub_of_a_star() {
        // Hub 0 reaches 5 leaves with probability 1; leaves reach nothing.
        let g = SignedDigraph::from_edges(
            6,
            (1..6).map(|i| Edge::new(NodeId(0), NodeId(i), Sign::Positive, 1.0)),
        )
        .unwrap();
        let result =
            maximize_influence(&IndependentCascade::new(), &g, 1, 20, &mut rng(0)).unwrap();
        assert_eq!(result.seeds, vec![NodeId(0)]);
        assert!((result.expected_spread() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn second_seed_avoids_redundancy() {
        // Two disjoint stars: greedy must pick both hubs, not two nodes
        // of the same star.
        let mut edges: Vec<Edge> = (1..4)
            .map(|i| Edge::new(NodeId(0), NodeId(i), Sign::Positive, 1.0))
            .collect();
        edges.extend((5..8).map(|i| Edge::new(NodeId(4), NodeId(i), Sign::Positive, 1.0)));
        let g = SignedDigraph::from_edges(8, edges).unwrap();
        let result =
            maximize_influence(&IndependentCascade::new(), &g, 2, 20, &mut rng(1)).unwrap();
        let mut seeds = result.seeds.clone();
        seeds.sort_unstable();
        assert_eq!(seeds, vec![NodeId(0), NodeId(4)]);
        assert!((result.expected_spread() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn trajectory_is_monotone() {
        let g = SignedDigraph::from_edges(
            8,
            (0..7).map(|i| {
                Edge::new(
                    NodeId(i),
                    NodeId(i + 1),
                    if i % 2 == 0 {
                        Sign::Positive
                    } else {
                        Sign::Negative
                    },
                    0.5,
                )
            }),
        )
        .unwrap();
        let result = maximize_influence(&Mfc::new(2.0).unwrap(), &g, 4, 50, &mut rng(2)).unwrap();
        assert_eq!(result.seeds.len(), 4);
        for w in result.spread_trajectory.windows(2) {
            // Estimates are noisy but marginal gains are >= 0 up to MC
            // noise; allow a tiny tolerance.
            assert!(w[1] >= w[0] - 0.5, "spread fell: {} -> {}", w[0], w[1]);
        }
        // Chosen seeds are distinct and convert to a valid SeedSet.
        assert_eq!(result.seed_set().len(), 4);
    }

    #[test]
    fn k_zero_selects_nothing() {
        let g = SignedDigraph::from_edges(3, []).unwrap();
        let result = maximize_influence(&IndependentCascade::new(), &g, 0, 5, &mut rng(0)).unwrap();
        assert!(result.seeds.is_empty());
        assert_eq!(result.expected_spread(), 0.0);
    }

    #[test]
    fn k_too_large_is_rejected() {
        let g = SignedDigraph::from_edges(2, []).unwrap();
        let err =
            maximize_influence(&IndependentCascade::new(), &g, 3, 5, &mut rng(0)).unwrap_err();
        assert!(err.to_string().contains("k"));
    }
}
