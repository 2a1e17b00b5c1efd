//! Simulated MFC outbreaks on the served network, and the two views of
//! them the workloads send: snapshots of the infection at chosen sizes,
//! and the event-ordered delta stream a watch session replays.

use isomit_core::RidDelta;
use isomit_diffusion::{Cascade, DiffusionModel, InfectedNetwork, Mfc, SeedSet};
use isomit_graph::{NodeId, NodeState, SignedDigraph};
use rand::rngs::StdRng;

/// Simulates MFC outbreaks from `seeds` random initiators (half
/// positive) until one infects at least `min_infected` nodes; small
/// outbreaks that die out are redrawn.
///
/// # Panics
///
/// Panics if 100 draws in a row die out, which means the network
/// cannot carry an outbreak of that size.
pub fn simulate(
    graph: &SignedDigraph,
    model: &Mfc,
    seeds: usize,
    min_infected: usize,
    rng: &mut StdRng,
) -> Cascade {
    for _ in 0..100 {
        let seed_set = SeedSet::sample(graph, seeds, 0.5, rng);
        let cascade = model
            .simulate(graph, &seed_set, rng)
            .expect("sampled seeds lie in the graph");
        if cascade.infected_count() >= min_infected {
            return cascade;
        }
    }
    panic!("no outbreak reached {min_infected} infected nodes in 100 draws");
}

/// Node states of the outbreak after its seeds and first `events`
/// activation events, indexed by node id.
fn states_after(graph: &SignedDigraph, cascade: &Cascade, events: usize) -> Vec<NodeState> {
    let mut states = vec![NodeState::Inactive; graph.node_count()];
    for (node, sign) in cascade.seeds().iter() {
        states[node.index()] = NodeState::from_sign(sign);
    }
    for event in cascade.events().iter().take(events) {
        states[event.dst.index()] = NodeState::from_sign(event.new_state);
    }
    states
}

/// Snapshots of the outbreak at the moments it first reaches each of
/// the `sizes` infected-node counts (ascending); sizes the outbreak
/// never reaches are skipped.
pub fn snapshots_at_sizes(
    graph: &SignedDigraph,
    cascade: &Cascade,
    sizes: &[usize],
) -> Vec<InfectedNetwork> {
    let mut infected = cascade.seeds().len();
    let mut wanted = sizes.iter().peekable();
    let mut out = Vec::new();
    for events in 0..=cascade.events().len() {
        if events > 0 && !cascade.events()[events - 1].flip {
            infected += 1;
        }
        while wanted.peek().is_some_and(|&&size| size <= infected) {
            if *wanted.next().expect("peeked") == infected {
                out.push(InfectedNetwork::from_states(
                    graph,
                    &states_after(graph, cascade, events),
                ));
            }
        }
    }
    out
}

/// The watch-session replay of an outbreak, in event order: each seed
/// and each newly infected node sends `infect` followed by `add_edge`
/// for every diffusion link to or from an already-infected node; each
/// flip sends `flip_state` (MFC flips always change the state, so none
/// is a no-op). Stops once `max_infected` nodes are infected, or at the
/// outbreak's end if it is smaller.
pub fn deltas(graph: &SignedDigraph, cascade: &Cascade, max_infected: usize) -> Vec<RidDelta> {
    let mut active = vec![false; graph.node_count()];
    let mut out = Vec::new();
    let mut infect = |node: NodeId, state: NodeState, out: &mut Vec<RidDelta>| {
        out.push(RidDelta::Infect { node, state });
        for edge in graph.out_edges(node) {
            if active[edge.dst.index()] {
                out.push(RidDelta::AddEdge {
                    src: node,
                    dst: edge.dst,
                    sign: edge.sign,
                    weight: edge.weight,
                });
            }
        }
        for edge in graph.in_edges(node) {
            if active[edge.src.index()] {
                out.push(RidDelta::AddEdge {
                    src: edge.src,
                    dst: node,
                    sign: edge.sign,
                    weight: edge.weight,
                });
            }
        }
        active[node.index()] = true;
    };
    let mut infected = 0usize;
    for (node, sign) in cascade.seeds().iter() {
        infect(node, NodeState::from_sign(sign), &mut out);
        infected += 1;
    }
    for event in cascade.events() {
        if infected >= max_infected {
            break;
        }
        let state = NodeState::from_sign(event.new_state);
        if event.flip {
            out.push(RidDelta::FlipState {
                node: event.dst,
                state,
            });
        } else {
            infect(event.dst, state, &mut out);
            infected += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use isomit_core::{IncrementalRid, InitiatorDetector, Rid, RidConfig};
    use rand::SeedableRng;

    fn network() -> SignedDigraph {
        let mut rng = StdRng::seed_from_u64(3);
        let social = isomit_datasets::epinions_like_scaled(0.01, &mut rng);
        isomit_datasets::paper_weights(&social, &mut rng)
    }

    #[test]
    fn full_replay_ends_on_the_cascade_snapshot() {
        let graph = network();
        let config = RidConfig::default();
        let model = config.model().unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let cascade = simulate(&graph, &model, 4, 40, &mut rng);
        assert!(cascade.flip_count() > 0, "the replay should exercise flips");
        let stream = deltas(&graph, &cascade, usize::MAX);
        let mut session = IncrementalRid::new(config).unwrap();
        for (i, delta) in stream.iter().enumerate() {
            session
                .apply(delta)
                .unwrap_or_else(|e| panic!("delta {i} {delta:?} rejected: {e}"));
        }
        let expected = InfectedNetwork::from_cascade(&graph, &cascade);
        let replayed = session.snapshot();
        assert_eq!(replayed, expected);
        let rid = Rid::from_config(config).unwrap();
        assert_eq!(
            rid.detect(&replayed).to_json_value().to_json(),
            rid.detect(&expected).to_json_value().to_json()
        );
        assert_eq!(session.answer().detection, rid.detect(&expected));
    }

    #[test]
    fn truncated_replay_and_snapshots_agree_on_size() {
        let graph = network();
        let model = RidConfig::default().model().unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let cascade = simulate(&graph, &model, 4, 60, &mut rng);
        let stream = deltas(&graph, &cascade, 30);
        let infects = stream
            .iter()
            .filter(|d| matches!(d, RidDelta::Infect { .. }))
            .count();
        assert_eq!(infects, 30);

        let snaps = snapshots_at_sizes(&graph, &cascade, &[10, 30, 31, usize::MAX]);
        let sizes: Vec<usize> = snaps.iter().map(InfectedNetwork::node_count).collect();
        assert_eq!(sizes, vec![10, 30, 31]);
        let mut session = IncrementalRid::new(RidConfig::default()).unwrap();
        for delta in &stream {
            session.apply(delta).unwrap();
        }
        assert_eq!(session.snapshot().node_count(), 30);
        assert_eq!(
            session.snapshot().graph().edge_count(),
            snaps[1].graph().edge_count(),
            "the replay sends every link among infected nodes"
        );
    }
}
