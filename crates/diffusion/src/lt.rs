use crate::bitmap;
use crate::model::gen_unit;
use crate::{ActivationEvent, Cascade, DiffusionError, DiffusionModel, SeedSet};
use isomit_graph::{NodeId, NodeState, Sign, SignedDigraph};
use rand::RngCore;

/// The **Linear Threshold** model of Kempe, Kleinberg & Tardos (KDD
/// 2003), adapted to signed state-carrying networks for comparison
/// against MFC.
///
/// Each node `v` draws a threshold `θ_v ~ U[0, 1)` once per simulation.
/// In every round, an inactive node whose active in-neighbours' total
/// incoming edge weight reaches `θ_v` becomes active. The adopted opinion
/// is the *weighted signed majority* of its active in-neighbours:
/// `sign(Σ_u w(u,v) · s(u) · s_D(u,v))` (ties resolve positive). As in
/// the classic model, active nodes never change state.
///
/// Incoming weights are normalized by the node's total in-weight so the
/// classic `Σ w ≤ 1` pre-condition holds on arbitrary inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinearThreshold {
    _private: (),
}

impl LinearThreshold {
    /// Creates the parameter-free LT model.
    pub fn new() -> Self {
        Self::default()
    }
}

impl DiffusionModel for LinearThreshold {
    fn name(&self) -> &'static str {
        "LT"
    }

    fn simulate(
        &self,
        graph: &SignedDigraph,
        seeds: &SeedSet,
        rng: &mut dyn RngCore,
    ) -> Result<Cascade, DiffusionError> {
        seeds.validate_against(graph)?;
        let n = graph.node_count();
        let mut cascade = Cascade::new(n, seeds);
        let thresholds: Vec<f64> = (0..n).map(|_| gen_unit(rng)).collect();
        // Only an out-neighbour of a node activated in the previous round
        // (in round 1, of a seed) can newly cross its threshold: any other
        // inactive node sums the same active in-edges as in the round
        // before, when it stayed below.
        let mut candidates = bitmap::empty(n);
        for (u, _) in seeds.iter() {
            mark_out_neighbours(graph, u, &mut candidates);
        }

        let mut rounds = 0usize;
        loop {
            rounds += 1;
            let mut newly: Vec<(NodeId, NodeId, Sign)> = Vec::new();
            bitmap::drain(&mut candidates, |i| {
                let v = NodeId::from_index(i);
                if cascade.state(v) == NodeState::Inactive {
                    let threshold = thresholds.get(i).expect("candidates are node ids");
                    newly.extend(crossing(graph, &cascade, v, *threshold));
                }
            });
            if newly.is_empty() {
                break;
            }
            for (v, activator, opinion) in newly {
                cascade.record(ActivationEvent {
                    step: rounds,
                    src: activator,
                    dst: v,
                    new_state: opinion,
                    flip: false,
                });
                mark_out_neighbours(graph, v, &mut candidates);
            }
        }
        cascade.finish(rounds, false);
        Ok(cascade)
    }
}

fn mark_out_neighbours(graph: &SignedDigraph, u: NodeId, candidates: &mut [u64]) {
    for v in graph.out_neighbors(u) {
        bitmap::insert(candidates, v.index());
    }
}

/// Whether inactive `v` crosses `threshold` on its active in-neighbours'
/// normalized weight: then `(v, activator, opinion)`, with the heaviest
/// active in-neighbour as the nominal activator (cascade-tree
/// bookkeeping) and the weighted signed majority as the opinion.
fn crossing(
    graph: &SignedDigraph,
    cascade: &Cascade,
    v: NodeId,
    threshold: f64,
) -> Option<(NodeId, NodeId, Sign)> {
    let mut weight_in = 0.0;
    let mut active_weight = 0.0;
    let mut signed_influence = 0.0;
    let mut best: Option<(f64, NodeId)> = None;
    for e in graph.in_edges(v) {
        weight_in += e.weight;
        if let Some(su) = cascade.state(e.src).sign() {
            active_weight += e.weight;
            signed_influence += e.weight * f64::from(su.value()) * f64::from(e.sign.value());
            if best.is_none_or(|(bw, _)| e.weight > bw) {
                best = Some((e.weight, e.src));
            }
        }
    }
    if weight_in <= 0.0 || active_weight / weight_in < threshold {
        return None;
    }
    let opinion = if signed_influence >= 0.0 {
        Sign::Positive
    } else {
        Sign::Negative
    };
    let Some((_, activator)) = best else {
        unreachable!("threshold reached implies an active in-neighbour");
    };
    Some((v, activator, opinion))
}

#[cfg(test)]
mod tests {
    use super::*;
    use isomit_graph::Edge;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    /// The full-rescan oracle: every round re-evaluates every inactive
    /// node with in-weight.
    fn simulate_full_rescan(
        graph: &SignedDigraph,
        seeds: &SeedSet,
        rng: &mut dyn RngCore,
    ) -> Result<Cascade, DiffusionError> {
        seeds.validate_against(graph)?;
        let n = graph.node_count();
        let mut cascade = Cascade::new(n, seeds);
        let thresholds: Vec<f64> = (0..n).map(|_| gen_unit(rng)).collect();
        let total_in_weight: Vec<f64> = (0..n)
            .map(|i| {
                graph
                    .in_edges(NodeId::from_index(i))
                    .map(|e| e.weight)
                    .sum::<f64>()
            })
            .collect();

        let mut rounds = 0usize;
        loop {
            rounds += 1;
            let mut newly: Vec<(NodeId, NodeId, Sign)> = Vec::new();
            for (i, (&weight_in, &threshold)) in total_in_weight.iter().zip(&thresholds).enumerate()
            {
                let v = NodeId::from_index(i);
                if cascade.state(v) != NodeState::Inactive || weight_in <= 0.0 {
                    continue;
                }
                let mut active_weight = 0.0;
                let mut signed_influence = 0.0;
                let mut best: Option<(f64, NodeId, Sign)> = None;
                for e in graph.in_edges(v) {
                    if let Some(su) = cascade.state(e.src).sign() {
                        active_weight += e.weight;
                        let contribution =
                            e.weight * f64::from(su.value()) * f64::from(e.sign.value());
                        signed_influence += contribution;
                        let candidate_state = su * e.sign;
                        if best.is_none_or(|(bw, _, _)| e.weight > bw) {
                            best = Some((e.weight, e.src, candidate_state));
                        }
                    }
                }
                if active_weight / weight_in >= threshold {
                    let opinion = if signed_influence >= 0.0 {
                        Sign::Positive
                    } else {
                        Sign::Negative
                    };
                    let (_, activator, _) =
                        best.expect("threshold reached implies an active in-neighbour");
                    newly.push((v, activator, opinion));
                }
            }
            if newly.is_empty() {
                break;
            }
            for (v, activator, opinion) in newly {
                cascade.record(ActivationEvent {
                    step: rounds,
                    src: activator,
                    dst: v,
                    new_state: opinion,
                    flip: false,
                });
            }
        }
        cascade.finish(rounds, false);
        Ok(cascade)
    }

    /// Graphs spanning up to three bitmap words, with zero weights (a
    /// node whose in-weight is zero never crosses) and dense enough for
    /// multi-round cascades.
    fn arb_graph_and_seeds() -> impl Strategy<Value = (SignedDigraph, SeedSet)> {
        (2u32..160).prop_flat_map(|n| {
            let weight = (0u8..4, 0.0f64..=1.0).prop_map(|(k, w)| match k {
                0 => 0.0,
                1 => 1.0,
                _ => w,
            });
            let edge = (0..n, 0..n, any::<bool>(), weight).prop_filter_map(
                "no self-loops",
                |(a, b, pos, w)| {
                    let sign = if pos { Sign::Positive } else { Sign::Negative };
                    (a != b).then(|| Edge::new(NodeId(a), NodeId(b), sign, w))
                },
            );
            let edges = proptest::collection::vec(edge, 0..(4 * n as usize));
            let seeds = proptest::collection::btree_map(0..n, any::<bool>(), 1..=4);
            (edges, seeds).prop_map(move |(edges, seeds)| {
                let g = SignedDigraph::from_edges(n as usize, edges).unwrap();
                let sign = |pos| if pos { Sign::Positive } else { Sign::Negative };
                let seeds =
                    SeedSet::from_pairs(seeds.into_iter().map(|(v, pos)| (NodeId(v), sign(pos))));
                (g, seeds.unwrap())
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn candidate_rounds_equal_the_full_rescan(
            (g, seeds) in arb_graph_and_seeds(),
            seed in any::<u64>(),
        ) {
            let served = LinearThreshold::new().simulate(&g, &seeds, &mut rng(seed)).unwrap();
            let oracle = simulate_full_rescan(&g, &seeds, &mut rng(seed)).unwrap();
            prop_assert_eq!(served, oracle);
        }
    }

    #[test]
    fn full_weight_neighbor_always_activates() {
        // v's only in-neighbour is active with normalized weight 1 ≥ any
        // threshold in [0, 1).
        let g =
            SignedDigraph::from_edges(2, [Edge::new(NodeId(0), NodeId(1), Sign::Positive, 0.7)])
                .unwrap();
        let seeds = SeedSet::single(NodeId(0), Sign::Positive);
        for s in 0..20 {
            let c = LinearThreshold::new()
                .simulate(&g, &seeds, &mut rng(s))
                .unwrap();
            assert_eq!(c.state(NodeId(1)), NodeState::Positive);
        }
    }

    #[test]
    fn signed_majority_decides_opinion() {
        // Two positive-opinion activators: one trusts (+, 0.9), one
        // distrusted path (−, 0.1) → majority positive.
        let g = SignedDigraph::from_edges(
            3,
            [
                Edge::new(NodeId(0), NodeId(2), Sign::Positive, 0.9),
                Edge::new(NodeId(1), NodeId(2), Sign::Negative, 0.1),
            ],
        )
        .unwrap();
        let seeds = SeedSet::from_pairs([(NodeId(0), Sign::Positive), (NodeId(1), Sign::Positive)])
            .unwrap();
        for s in 0..20 {
            let c = LinearThreshold::new()
                .simulate(&g, &seeds, &mut rng(s))
                .unwrap();
            assert_eq!(c.state(NodeId(2)), NodeState::Positive);
        }
    }

    #[test]
    fn negative_majority_gives_negative_opinion() {
        let g =
            SignedDigraph::from_edges(2, [Edge::new(NodeId(0), NodeId(1), Sign::Negative, 0.8)])
                .unwrap();
        let seeds = SeedSet::single(NodeId(0), Sign::Positive);
        for s in 0..20 {
            let c = LinearThreshold::new()
                .simulate(&g, &seeds, &mut rng(s))
                .unwrap();
            assert_eq!(c.state(NodeId(1)), NodeState::Negative);
        }
    }

    #[test]
    fn isolated_nodes_stay_inactive() {
        let g =
            SignedDigraph::from_edges(3, [Edge::new(NodeId(0), NodeId(1), Sign::Positive, 1.0)])
                .unwrap();
        let seeds = SeedSet::single(NodeId(0), Sign::Positive);
        let c = LinearThreshold::new()
            .simulate(&g, &seeds, &mut rng(0))
            .unwrap();
        assert_eq!(c.state(NodeId(2)), NodeState::Inactive);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = SignedDigraph::from_edges(
            4,
            [
                Edge::new(NodeId(0), NodeId(1), Sign::Positive, 0.4),
                Edge::new(NodeId(0), NodeId(2), Sign::Negative, 0.6),
                Edge::new(NodeId(1), NodeId(3), Sign::Positive, 0.5),
                Edge::new(NodeId(2), NodeId(3), Sign::Positive, 0.5),
            ],
        )
        .unwrap();
        let seeds = SeedSet::single(NodeId(0), Sign::Positive);
        let a = LinearThreshold::new()
            .simulate(&g, &seeds, &mut rng(11))
            .unwrap();
        let b = LinearThreshold::new()
            .simulate(&g, &seeds, &mut rng(11))
            .unwrap();
        assert_eq!(a, b);
    }
}
