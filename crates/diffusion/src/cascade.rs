// lint:allow-file(indexing) state/parent vectors are allocated with node_count entries; seeds are validated against the graph, event nodes come from the CSR, and the pub accessors document their out-of-bounds panic
use crate::SeedSet;
use isomit_graph::{NodeId, NodeState, Sign};

/// One successful activation (or flip) during a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActivationEvent {
    /// Diffusion round in which the activation happened (seeds are
    /// round 0; their first attempts land in round 1).
    pub step: usize,
    /// The activating node.
    pub src: NodeId,
    /// The activated (or flipped) node.
    pub dst: NodeId,
    /// State of `dst` after the event.
    pub new_state: Sign,
    /// `true` if `dst` was already active and had its opinion flipped,
    /// `false` for a first activation.
    pub flip: bool,
}

/// Complete record of one diffusion simulation: final states, the
/// activation log, and parent pointers for cascade-tree reconstruction.
///
/// Two parent notions coexist because of MFC's flipping rule:
///
/// * [`first_parent`](Cascade::first_parent) — who *first* activated the
///   node. First activations strictly follow time, so these pointers
///   always form a forest rooted at the seeds.
/// * [`last_parent`](Cascade::last_parent) — who set the node's *final*
///   state (the paper's *activation link*, Definition 4). Under flipping
///   these can in rare interleavings form 2-cycles, which is why the
///   ground-truth forest helpers use first parents.
#[derive(Debug, Clone, PartialEq)]
pub struct Cascade {
    states: Vec<NodeState>,
    first_parent: Vec<Option<NodeId>>,
    last_parent: Vec<Option<NodeId>>,
    events: Vec<ActivationEvent>,
    seeds: SeedSet,
    rounds: usize,
    truncated: bool,
}

impl Cascade {
    pub(crate) fn new(node_count: usize, seeds: &SeedSet) -> Self {
        let mut states = vec![NodeState::Inactive; node_count];
        for (node, sign) in seeds.iter() {
            states[node.index()] = NodeState::from_sign(sign);
        }
        Cascade {
            states,
            first_parent: vec![None; node_count],
            last_parent: vec![None; node_count],
            events: Vec::new(),
            seeds: seeds.clone(),
            rounds: 0,
            truncated: false,
        }
    }

    pub(crate) fn record(&mut self, event: ActivationEvent) {
        let dst = event.dst.index();
        if self.first_parent[dst].is_none() && !self.seeds.contains(event.dst) {
            self.first_parent[dst] = Some(event.src);
        }
        self.last_parent[dst] = Some(event.src);
        self.states[dst] = NodeState::from_sign(event.new_state);
        self.events.push(event);
    }

    pub(crate) fn finish(&mut self, rounds: usize, truncated: bool) {
        self.rounds = rounds;
        self.truncated = truncated;
    }

    /// Final state of every node, indexed by node id.
    pub fn states(&self) -> &[NodeState] {
        &self.states
    }

    /// Final state of one node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn state(&self, node: NodeId) -> NodeState {
        self.states[node.index()]
    }

    /// The seed set that started the cascade.
    pub fn seeds(&self) -> &SeedSet {
        &self.seeds
    }

    /// Nodes holding an opinion at the end of the simulation, ascending.
    pub fn infected_nodes(&self) -> Vec<NodeId> {
        self.states
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_active())
            .map(|(i, _)| NodeId::from_index(i))
            .collect()
    }

    /// Number of infected (opinion-holding) nodes.
    pub fn infected_count(&self) -> usize {
        self.states.iter().filter(|s| s.is_active()).count()
    }

    /// The node that first activated `node`, `None` for seeds and
    /// never-activated nodes.
    pub fn first_parent(&self, node: NodeId) -> Option<NodeId> {
        self.first_parent[node.index()]
    }

    /// The node whose activation/flip produced `node`'s final state,
    /// `None` for seeds that were never flipped and for inactive nodes.
    pub fn last_parent(&self, node: NodeId) -> Option<NodeId> {
        self.last_parent[node.index()]
    }

    /// Every successful activation/flip, in chronological order.
    pub fn events(&self) -> &[ActivationEvent] {
        &self.events
    }

    /// Number of completed diffusion rounds.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// `true` if the simulation stopped at the safety round cap rather
    /// than by quiescence. See [`Mfc::with_max_rounds`](crate::Mfc::with_max_rounds).
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Number of flip events (opinion reversals of already-active nodes).
    pub fn flip_count(&self) -> usize {
        self.events.iter().filter(|e| e.flip).count()
    }

    /// Edges of the ground-truth cascade forest: `(first_parent(v), v)`
    /// for every non-seed infected node. The result is acyclic by
    /// construction (first activations strictly follow time).
    pub fn forest_edges(&self) -> Vec<(NodeId, NodeId)> {
        self.first_parent
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.map(|parent| (parent, NodeId::from_index(i))))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeds() -> SeedSet {
        SeedSet::from_pairs([(NodeId(0), Sign::Positive)]).unwrap()
    }

    #[test]
    fn new_cascade_marks_seeds_active() {
        let c = Cascade::new(3, &seeds());
        assert_eq!(c.state(NodeId(0)), NodeState::Positive);
        assert_eq!(c.state(NodeId(1)), NodeState::Inactive);
        assert_eq!(c.infected_count(), 1);
        assert_eq!(c.infected_nodes(), vec![NodeId(0)]);
    }

    #[test]
    fn record_tracks_first_and_last_parents() {
        let mut c = Cascade::new(3, &seeds());
        c.record(ActivationEvent {
            step: 1,
            src: NodeId(0),
            dst: NodeId(1),
            new_state: Sign::Negative,
            flip: false,
        });
        c.record(ActivationEvent {
            step: 2,
            src: NodeId(2),
            dst: NodeId(1),
            new_state: Sign::Positive,
            flip: true,
        });
        assert_eq!(c.first_parent(NodeId(1)), Some(NodeId(0)));
        assert_eq!(c.last_parent(NodeId(1)), Some(NodeId(2)));
        assert_eq!(c.state(NodeId(1)), NodeState::Positive);
        assert_eq!(c.flip_count(), 1);
        assert_eq!(c.events().len(), 2);
    }

    #[test]
    fn seeds_never_get_first_parent() {
        let mut c = Cascade::new(2, &seeds());
        c.record(ActivationEvent {
            step: 3,
            src: NodeId(1),
            dst: NodeId(0),
            new_state: Sign::Negative,
            flip: true,
        });
        assert_eq!(c.first_parent(NodeId(0)), None);
        assert_eq!(c.last_parent(NodeId(0)), Some(NodeId(1)));
    }

    #[test]
    fn forest_edges_skip_seeds_and_inactive() {
        let mut c = Cascade::new(4, &seeds());
        c.record(ActivationEvent {
            step: 1,
            src: NodeId(0),
            dst: NodeId(2),
            new_state: Sign::Positive,
            flip: false,
        });
        assert_eq!(c.forest_edges(), vec![(NodeId(0), NodeId(2))]);
    }

    #[test]
    fn finish_records_rounds() {
        let mut c = Cascade::new(1, &seeds());
        c.finish(5, true);
        assert_eq!(c.rounds(), 5);
        assert!(c.truncated());
    }
}
