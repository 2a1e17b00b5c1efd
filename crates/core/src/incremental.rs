//! Incremental streaming RID: maintain a detection across typed deltas.
//!
//! One-shot [`Rid::detect`](crate::InitiatorDetector::detect) re-runs
//! the whole §III-E pipeline per snapshot, which is the wrong cost model
//! for the paper's monitoring scenario — an infection that *grows* while
//! an operator watches. [`IncrementalRid`] accepts typed [`RidDelta`]s
//! (infect a node, add a diffusion edge, flip an observed state),
//! tracks which weakly-connected components each delta dirties (a
//! growable [`isomit_forest::UnionFind`] handles merges), and on
//! [`answer`](IncrementalRid::answer) re-runs [`Rid`]'s own extract and
//! query stages once, on one sub-snapshot holding **only the dirty
//! components** — the whole snapshot when every component is dirty.
//!
//! The headline contract, pinned by the `incremental` tier-1 suite and
//! golden fixtures: replaying any valid delta sequence yields a
//! [`RidResult`] **bit-identical** (objective included) to a cold
//! [`Rid`] run on the final snapshot.
//!
//! Why per-component answers compose bit-identically: the global CSR
//! stores edges sorted by `(src, dst)`, so the sub-snapshot of a union
//! of whole components (members sorted by original id) is a monotone
//! relabeling of the global snapshot restricted to those components —
//! the branching sees the same arcs in the same order, and the per-tree
//! DP sees the same local structure. Solving and folding the trees is
//! then the very code [`Rid::query_stage`] runs: the same per-tree
//! solve, and the same fold over trees in ascending root order.

use crate::codec::RidResult;
use crate::error::RidError;
use crate::rid::{Rid, RidConfig};
use crate::stages::{fold, ForestArtifacts, SolvedTree};
use isomit_diffusion::InfectedNetwork;
use isomit_forest::UnionFind;
use isomit_graph::json::{JsonError, Value};
use isomit_graph::{Edge, NodeId, NodeState, Sign, SignedDigraph};
use std::collections::BTreeMap;
use std::fmt;

/// One typed mutation of the observed infected network.
///
/// Node ids are *original-network* ids: the session renumbers internally
/// and answers in original ids, exactly like the one-shot pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RidDelta {
    /// A node newly enters the infected snapshot with an observed
    /// opinion ([`NodeState::Positive`], [`NodeState::Negative`]) or as
    /// an observed-but-unlabeled infection ([`NodeState::Unknown`]).
    Infect {
        /// Original-network id of the infected node.
        node: NodeId,
        /// Observed state; [`NodeState::Inactive`] is invalid (inactive
        /// nodes are by definition outside `G_I`).
        state: NodeState,
    },
    /// A diffusion link between two already-infected nodes becomes
    /// visible.
    AddEdge {
        /// Source (influencing) node, original id.
        src: NodeId,
        /// Destination (influenced) node, original id.
        dst: NodeId,
        /// Polarity of the link.
        sign: Sign,
        /// Activation weight in `[0, 1]`.
        weight: f64,
    },
    /// An already-infected node's observed state is corrected.
    FlipState {
        /// Original-network id of the node.
        node: NodeId,
        /// The new state; [`NodeState::Inactive`] is invalid.
        state: NodeState,
    },
}

impl RidDelta {
    /// Encodes the delta as a JSON object:
    /// `{"op": "infect", "node": 3, "state": "+"}`,
    /// `{"op": "add_edge", "src": 0, "dst": 3, "sign": "-", "weight": 0.5}`
    /// or `{"op": "flip_state", "node": 3, "state": "-"}`.
    pub fn to_json_value(&self) -> Value {
        match *self {
            RidDelta::Infect { node, state } => Value::Object(vec![
                ("op".into(), Value::String("infect".into())),
                ("node".into(), Value::Number(node.index() as f64)),
                ("state".into(), Value::String(state.as_symbol().into())),
            ]),
            RidDelta::AddEdge {
                src,
                dst,
                sign,
                weight,
            } => Value::Object(vec![
                ("op".into(), Value::String("add_edge".into())),
                ("src".into(), Value::Number(src.index() as f64)),
                ("dst".into(), Value::Number(dst.index() as f64)),
                ("sign".into(), Value::String(sign.to_string())),
                ("weight".into(), Value::Number(weight)),
            ]),
            RidDelta::FlipState { node, state } => Value::Object(vec![
                ("op".into(), Value::String("flip_state".into())),
                ("node".into(), Value::Number(node.index() as f64)),
                ("state".into(), Value::String(state.as_symbol().into())),
            ]),
        }
    }

    /// Decodes a delta from the encoding of
    /// [`to_json_value`](RidDelta::to_json_value).
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on an unknown `op`, a missing field, or a
    /// field of the wrong type. Semantic validation (duplicate edges,
    /// uninfected endpoints, weight range) happens later, in
    /// [`IncrementalRid::apply`].
    pub fn from_json_value(value: &Value) -> Result<Self, JsonError> {
        let node_field = |key: &str| -> Result<NodeId, JsonError> {
            value
                .require(key)?
                .as_usize()
                .map(NodeId::from_index)
                .ok_or_else(|| JsonError::new(format!("`{key}` must be a non-negative node id")))
        };
        let state_field = |key: &str| -> Result<NodeState, JsonError> {
            NodeState::from_symbol(
                value
                    .require(key)?
                    .as_str()
                    .ok_or_else(|| JsonError::new(format!("`{key}` must be a state symbol")))?,
            )
        };
        let op = value
            .require("op")?
            .as_str()
            .ok_or_else(|| JsonError::new("`op` must be a string"))?;
        match op {
            "infect" => Ok(RidDelta::Infect {
                node: node_field("node")?,
                state: state_field("state")?,
            }),
            "add_edge" => {
                let sign = match value
                    .require("sign")?
                    .as_str()
                    .ok_or_else(|| JsonError::new("`sign` must be a string"))?
                {
                    "+" => Sign::Positive,
                    "-" => Sign::Negative,
                    other => return Err(JsonError::new(format!("unknown sign `{other}`"))),
                };
                Ok(RidDelta::AddEdge {
                    src: node_field("src")?,
                    dst: node_field("dst")?,
                    sign,
                    weight: value
                        .require("weight")?
                        .as_f64()
                        .ok_or_else(|| JsonError::new("`weight` must be a number"))?,
                })
            }
            "flip_state" => Ok(RidDelta::FlipState {
                node: node_field("node")?,
                state: state_field("state")?,
            }),
            other => Err(JsonError::new(format!("unknown delta op `{other}`"))),
        }
    }
}

/// Why a [`RidDelta`] was rejected. Rejected deltas leave the session
/// exactly as it was.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeltaError {
    /// `Infect` named a node that is already in the snapshot.
    AlreadyInfected(NodeId),
    /// A delta referenced a node that has not been infected yet.
    NotInfected(NodeId),
    /// `AddEdge` with `src == dst`.
    SelfLoop(NodeId),
    /// `AddEdge` duplicated an existing `(src, dst)` link.
    DuplicateEdge(NodeId, NodeId),
    /// `AddEdge` weight was non-finite or outside `[0, 1]`.
    InvalidWeight(f64),
    /// `Infect` or `FlipState` with [`NodeState::Inactive`].
    InactiveState(NodeId),
    /// `FlipState` to the state the node already holds.
    SameState(NodeId),
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DeltaError::AlreadyInfected(n) => write!(f, "node {n} is already infected"),
            DeltaError::NotInfected(n) => write!(f, "node {n} is not infected"),
            DeltaError::SelfLoop(n) => write!(f, "self-loop on node {n}"),
            DeltaError::DuplicateEdge(s, d) => write!(f, "edge ({s}, {d}) already exists"),
            DeltaError::InvalidWeight(w) => write!(f, "weight {w} must be finite in [0, 1]"),
            DeltaError::InactiveState(n) => {
                write!(
                    f,
                    "node {n}: inactive nodes cannot appear in an infected network"
                )
            }
            DeltaError::SameState(n) => write!(f, "node {n} already holds that state"),
        }
    }
}

impl std::error::Error for DeltaError {}

/// What one [`IncrementalRid::answer`] call actually did — the session's
/// cost telemetry, surfaced as `watch.*` counters by the serving layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AnswerOutcome {
    /// Components whose cached solution was stale and had to be
    /// recomputed (after merging, a merged component counts once). The
    /// answer extracts them together, as one sub-snapshot.
    pub dirty_components: usize,
    /// `true` when every component was dirty, so the answer extracted
    /// the whole snapshot.
    pub full_recompute: bool,
}

/// One weakly-connected component of the session.
#[derive(Debug, Clone, Default)]
struct ComponentState {
    /// Member slots, in no particular order.
    members: Vec<usize>,
    /// Per-tree outcomes of the last solve, in original ids; `None`
    /// while the component is dirty.
    solved: Option<Vec<SolvedTree>>,
}

/// A streaming RID session: applies [`RidDelta`]s and answers initiator
/// queries incrementally, bit-identical to a cold recompute.
///
/// # Examples
///
/// ```
/// use isomit_core::{IncrementalRid, InitiatorDetector, Rid, RidConfig, RidDelta};
/// use isomit_graph::{NodeId, NodeState, Sign};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = RidConfig::default();
/// let mut session = IncrementalRid::new(config)?;
/// session.apply(&RidDelta::Infect { node: NodeId(7), state: NodeState::Positive })?;
/// session.apply(&RidDelta::Infect { node: NodeId(3), state: NodeState::Negative })?;
/// session.apply(&RidDelta::AddEdge {
///     src: NodeId(7),
///     dst: NodeId(3),
///     sign: Sign::Negative,
///     weight: 0.8,
/// })?;
/// let incremental = session.answer();
///
/// // Bit-identical to a cold run over the final snapshot.
/// let cold = Rid::from_config(config)?.detect(&session.snapshot());
/// assert_eq!(incremental.detection, cold);
/// // Under the default α both nodes are kept as initiators (the α
/// // discount makes single-edge propagation unattractive), reported
/// // in ascending original-id order.
/// assert_eq!(incremental.detection.initiators[0].node, NodeId(3));
/// assert_eq!(incremental.detection.initiators[1].node, NodeId(7));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct IncrementalRid {
    rid: Rid,
    /// Original id → session slot.
    index_of: BTreeMap<NodeId, usize>,
    /// Session slot → original id (slots are handed out in infection
    /// order and never reused).
    originals: Vec<NodeId>,
    /// Session slot → observed state.
    states: Vec<NodeState>,
    /// Session slot → out-links `(dst slot, sign, weight)`.
    out_edges: Vec<Vec<(usize, Sign, f64)>>,
    /// Reused by `snapshot_of` for the dirty sub-snapshot: session slot
    /// → position in the slot list being materialized. Entries of other
    /// slots are stale.
    local_of: Vec<usize>,
    uf: UnionFind,
    /// Component root slot (union-find representative) → state.
    components: BTreeMap<usize, ComponentState>,
    deltas_applied: u64,
}

impl IncrementalRid {
    /// Opens an empty session under the given detector configuration.
    ///
    /// # Errors
    ///
    /// Returns [`RidError`] if the configuration is invalid (see
    /// [`Rid::from_config`]).
    pub fn new(config: RidConfig) -> Result<Self, RidError> {
        Ok(IncrementalRid {
            rid: Rid::from_config(config)?,
            index_of: BTreeMap::new(),
            originals: Vec::new(),
            states: Vec::new(),
            out_edges: Vec::new(),
            local_of: Vec::new(),
            uf: UnionFind::new(0),
            components: BTreeMap::new(),
            deltas_applied: 0,
        })
    }

    /// The configuration the session answers under.
    pub fn config(&self) -> RidConfig {
        self.rid.config()
    }

    /// Number of infected nodes observed so far.
    pub fn node_count(&self) -> usize {
        self.originals.len()
    }

    /// Number of diffusion links observed so far.
    pub fn edge_count(&self) -> usize {
        self.out_edges.iter().map(Vec::len).sum()
    }

    /// Number of weakly-connected components of the current snapshot.
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// Total deltas successfully applied.
    pub fn deltas_applied(&self) -> u64 {
        self.deltas_applied
    }

    /// Applies one delta, dirtying exactly the affected components.
    ///
    /// Validation happens before any mutation: a rejected delta leaves
    /// the session untouched, so a streaming caller can report the
    /// error and keep going.
    ///
    /// # Errors
    ///
    /// Returns a [`DeltaError`] naming the violated precondition — see
    /// the variants for the full taxonomy.
    pub fn apply(&mut self, delta: &RidDelta) -> Result<(), DeltaError> {
        match *delta {
            RidDelta::Infect { node, state } => {
                if !state.is_active() && !state.is_unknown() {
                    return Err(DeltaError::InactiveState(node));
                }
                if self.index_of.contains_key(&node) {
                    return Err(DeltaError::AlreadyInfected(node));
                }
                let slot = self.originals.len();
                self.index_of.insert(node, slot);
                self.originals.push(node);
                self.states.push(state);
                self.out_edges.push(Vec::new());
                self.local_of.push(0);
                let uf_slot = self.uf.push();
                debug_assert_eq!(uf_slot, slot, "union-find and slot arrays grow in lockstep");
                self.components.insert(
                    slot,
                    ComponentState {
                        members: vec![slot],
                        solved: None,
                    },
                );
            }
            RidDelta::AddEdge {
                src,
                dst,
                sign,
                weight,
            } => {
                if src == dst {
                    return Err(DeltaError::SelfLoop(src));
                }
                if !weight.is_finite() || !(0.0..=1.0).contains(&weight) {
                    return Err(DeltaError::InvalidWeight(weight));
                }
                let s = *self
                    .index_of
                    .get(&src)
                    .ok_or(DeltaError::NotInfected(src))?;
                let d = *self
                    .index_of
                    .get(&dst)
                    .ok_or(DeltaError::NotInfected(dst))?;
                let out = self
                    .out_edges
                    .get_mut(s)
                    .expect("index_of slots index the adjacency array");
                if out.iter().any(|&(to, _, _)| to == d) {
                    return Err(DeltaError::DuplicateEdge(src, dst));
                }
                out.push((d, sign, weight));
                let (ra, rb) = (self.uf.find(s), self.uf.find(d));
                if ra == rb {
                    self.components
                        .get_mut(&ra)
                        .expect("every union-find root has a component entry")
                        .solved = None;
                } else {
                    self.uf.union(ra, rb);
                    let merged_root = self.uf.find(s);
                    let a = self
                        .components
                        .remove(&ra)
                        .expect("every union-find root has a component entry");
                    let b = self
                        .components
                        .remove(&rb)
                        .expect("every union-find root has a component entry");
                    let (mut members, smaller) = if a.members.len() >= b.members.len() {
                        (a.members, b.members)
                    } else {
                        (b.members, a.members)
                    };
                    members.extend(smaller);
                    self.components.insert(
                        merged_root,
                        ComponentState {
                            members,
                            solved: None,
                        },
                    );
                }
            }
            RidDelta::FlipState { node, state } => {
                if !state.is_active() && !state.is_unknown() {
                    return Err(DeltaError::InactiveState(node));
                }
                let slot = *self
                    .index_of
                    .get(&node)
                    .ok_or(DeltaError::NotInfected(node))?;
                let held = self
                    .states
                    .get_mut(slot)
                    .expect("index_of slots index the state array");
                if *held == state {
                    return Err(DeltaError::SameState(node));
                }
                *held = state;
                let root = self.uf.find(slot);
                self.components
                    .get_mut(&root)
                    .expect("every union-find root has a component entry")
                    .solved = None;
            }
        }
        self.deltas_applied += 1;
        Ok(())
    }

    /// Materializes the current snapshot, with nodes numbered densely in
    /// ascending original-id order — exactly the numbering
    /// [`InfectedNetwork::from_states`] would produce for the same
    /// infection, so a cold detector run on this snapshot is the
    /// reference the incremental answer is bit-identical to.
    pub fn snapshot(&self) -> InfectedNetwork {
        let slots: Vec<usize> = self.index_of.values().copied().collect();
        self.snapshot_of(&slots, &mut vec![0; slots.len()])
    }

    /// Answers the initiator query for the current snapshot,
    /// recomputing only what the deltas since the previous answer
    /// dirtied. See [`answer_detailed`](IncrementalRid::answer_detailed)
    /// for the cost breakdown.
    pub fn answer(&mut self) -> RidResult {
        self.answer_detailed().0
    }

    /// [`answer`](IncrementalRid::answer), plus what the call actually
    /// cost: how many components were recomputed and whether that was
    /// every component.
    ///
    /// The dirty components are extracted and solved together, as one
    /// sub-snapshot, so an answer runs [`Rid::extract_stage`] at most
    /// once however many components its deltas dirtied.
    pub fn answer_detailed(&mut self) -> (RidResult, AnswerOutcome) {
        let mut slots = Vec::new();
        let mut dirty_components = 0;
        for comp in self.components.values_mut() {
            if comp.solved.is_none() {
                dirty_components += 1;
                slots.extend_from_slice(&comp.members);
                comp.solved = Some(Vec::new());
            }
        }
        let outcome = AnswerOutcome {
            dirty_components,
            full_recompute: dirty_components > 0 && dirty_components == self.components.len(),
        };
        if !slots.is_empty() {
            let originals = &self.originals;
            slots.sort_unstable_by_key(|&slot| {
                *originals
                    .get(slot)
                    .expect("member slots index the originals array")
            });
            let mut local_of = std::mem::take(&mut self.local_of);
            let sub = self.snapshot_of(&slots, &mut local_of);
            self.local_of = local_of;
            for solved in self.rid.solve_trees(&sub, &self.rid.extract_stage(&sub)) {
                let root_slot = *self
                    .index_of
                    .get(&solved.root)
                    .expect("tree roots are infected session nodes");
                self.components
                    .get_mut(&self.uf.find(root_slot))
                    .and_then(|comp| comp.solved.as_mut())
                    .expect("every extracted tree lies in a dirty component")
                    .push(solved);
            }
        }
        (self.assemble(), outcome)
    }

    /// Always `None`: an answer keeps neither the snapshot nor the
    /// artifacts it extracted. This stays only because the daemon
    /// benchmark's in-process replay (`daemonbench/src/replay.rs`)
    /// still calls it, and goes with that replay.
    pub fn take_fallback_artifacts(&mut self) -> Option<(InfectedNetwork, ForestArtifacts)> {
        None
    }

    /// Assembles the global [`RidResult`] from the (now all-clean)
    /// per-component outcomes, through the fold of
    /// [`Rid::query_stage`]. Trees are passed in ascending original-root
    /// order, the order a cold run folds them in (tree roots ascend
    /// with snapshot ids, which ascend with original ids), so the
    /// objective sum is bit-identical.
    fn assemble(&self) -> RidResult {
        let mut trees: Vec<&SolvedTree> = self
            .components
            .values()
            .flat_map(|c| {
                c.solved
                    .as_deref()
                    .expect("answer solved every dirty component")
            })
            .collect();
        trees.sort_by_key(|t| t.root);
        RidResult {
            config: self.rid.config(),
            detection: fold(trees, self.components.len()),
        }
    }

    /// Builds the sub-snapshot induced by `slots` (which must be sorted
    /// by original id and closed under session edges), numbering nodes
    /// by position, in O(its own size): `local_of` is a slot-indexed
    /// scratch array covering the session, of which only the entries
    /// of `slots` are written and read.
    fn snapshot_of(&self, slots: &[usize], local_of: &mut [usize]) -> InfectedNetwork {
        for (local, &slot) in slots.iter().enumerate() {
            *local_of
                .get_mut(slot)
                .expect("the scratch array covers every session slot") = local;
        }
        let mut edges = Vec::new();
        for (local, &slot) in slots.iter().enumerate() {
            let out = self
                .out_edges
                .get(slot)
                .expect("member slots index the adjacency array");
            for &(dst_slot, sign, weight) in out {
                let dst_local = local_of
                    .get(dst_slot)
                    .copied()
                    .filter(|&dst_local| slots.get(dst_local) == Some(&dst_slot))
                    .expect("session edges never cross component boundaries");
                edges.push(Edge::new(
                    NodeId::from_index(local),
                    NodeId::from_index(dst_local),
                    sign,
                    weight,
                ));
            }
        }
        let graph = SignedDigraph::from_edge_vec(slots.len(), edges)
            .expect("session deltas are validated on apply");
        let states = slots
            .iter()
            .map(|&slot| {
                *self
                    .states
                    .get(slot)
                    .expect("member slots index the state array")
            })
            .collect();
        let original_ids = slots
            .iter()
            .map(|&slot| {
                *self
                    .originals
                    .get(slot)
                    .expect("member slots index the originals array")
            })
            .collect();
        InfectedNetwork::from_subgraph_parts(graph, states, original_ids)
            .expect("session state forms a valid snapshot")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detection::InitiatorDetector;
    use crate::forest_extraction::extraction_run_count;
    use crate::rid::RidObjective;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn infect(node: u32, state: NodeState) -> RidDelta {
        RidDelta::Infect {
            node: NodeId(node),
            state,
        }
    }

    fn edge(src: u32, dst: u32, sign: Sign, weight: f64) -> RidDelta {
        RidDelta::AddEdge {
            src: NodeId(src),
            dst: NodeId(dst),
            sign,
            weight,
        }
    }

    fn session() -> IncrementalRid {
        IncrementalRid::new(RidConfig::default()).unwrap()
    }

    /// Replays a random but valid delta stream, checking every prefix
    /// answer against a cold run of the materialized prefix snapshot.
    fn replay_matches_cold(seed: u64, deltas: usize, config: RidConfig) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = IncrementalRid::new(config).unwrap();
        let rid = Rid::from_config(config).unwrap();
        let mut infected: Vec<u32> = Vec::new();
        let weights = [0.0, 0.25, 0.5, 0.75, 1.0];
        let states = [NodeState::Positive, NodeState::Negative, NodeState::Unknown];
        let mut applied = 0;
        while applied < deltas {
            let roll: f64 = rng.gen_range(0.0..1.0);
            let delta = if infected.len() < 2 || roll < 0.4 {
                let node = rng.gen_range(0..500u32);
                infect(node, states[rng.gen_range(0..3usize)])
            } else if roll < 0.85 {
                let src = infected[rng.gen_range(0..infected.len())];
                let dst = infected[rng.gen_range(0..infected.len())];
                let sign = if rng.gen_bool(0.5) {
                    Sign::Positive
                } else {
                    Sign::Negative
                };
                edge(src, dst, sign, weights[rng.gen_range(0..weights.len())])
            } else {
                let node = infected[rng.gen_range(0..infected.len())];
                RidDelta::FlipState {
                    node: NodeId(node),
                    state: states[rng.gen_range(0..3usize)],
                }
            };
            match s.apply(&delta) {
                Ok(()) => {
                    if let RidDelta::Infect { node, .. } = delta {
                        infected.push(node.0);
                    }
                    applied += 1;
                }
                Err(_) => continue,
            }
            let incremental = s.answer();
            let cold = rid.detect(&s.snapshot());
            assert_eq!(incremental.detection, cold, "seed {seed} delta {applied}");
            assert_eq!(
                incremental.detection.objective.to_bits(),
                cold.objective.to_bits(),
                "seed {seed} delta {applied}: objective not bit-identical"
            );
        }
    }

    #[test]
    fn replay_equals_cold_across_seeds() {
        for seed in 0..8 {
            replay_matches_cold(seed, 40, RidConfig::default());
        }
    }

    #[test]
    fn replay_equals_cold_log_likelihood_objective() {
        let config = RidConfig {
            beta: 0.3,
            objective: RidObjective::LogLikelihood,
            ..RidConfig::default()
        };
        replay_matches_cold(99, 30, config);
    }

    #[test]
    fn replay_equals_cold_without_external_support() {
        let config = RidConfig {
            external_support: false,
            ..RidConfig::default()
        };
        replay_matches_cold(7, 30, config);
    }

    #[test]
    fn empty_session_answers_an_empty_detection() {
        let mut s = session();
        let result = s.answer();
        assert!(result.detection.initiators.is_empty());
        assert_eq!(result.detection.component_count, 0);
        assert_eq!(result.detection.tree_count, 0);
        assert_eq!(result.detection.objective, 0.0);
    }

    #[test]
    fn delta_validation_taxonomy() {
        let mut s = session();
        assert_eq!(
            s.apply(&infect(1, NodeState::Inactive)),
            Err(DeltaError::InactiveState(NodeId(1)))
        );
        s.apply(&infect(1, NodeState::Positive)).unwrap();
        assert_eq!(
            s.apply(&infect(1, NodeState::Negative)),
            Err(DeltaError::AlreadyInfected(NodeId(1)))
        );
        assert_eq!(
            s.apply(&edge(1, 1, Sign::Positive, 0.5)),
            Err(DeltaError::SelfLoop(NodeId(1)))
        );
        assert_eq!(
            s.apply(&edge(1, 2, Sign::Positive, 0.5)),
            Err(DeltaError::NotInfected(NodeId(2)))
        );
        s.apply(&infect(2, NodeState::Positive)).unwrap();
        assert_eq!(
            s.apply(&edge(1, 2, Sign::Positive, 1.5)),
            Err(DeltaError::InvalidWeight(1.5))
        );
        s.apply(&edge(1, 2, Sign::Positive, 0.5)).unwrap();
        assert_eq!(
            s.apply(&edge(1, 2, Sign::Negative, 0.25)),
            Err(DeltaError::DuplicateEdge(NodeId(1), NodeId(2)))
        );
        assert_eq!(
            s.apply(&RidDelta::FlipState {
                node: NodeId(2),
                state: NodeState::Positive
            }),
            Err(DeltaError::SameState(NodeId(2)))
        );
        assert_eq!(
            s.apply(&RidDelta::FlipState {
                node: NodeId(9),
                state: NodeState::Positive
            }),
            Err(DeltaError::NotInfected(NodeId(9)))
        );
        // Failed deltas left the session consistent.
        assert_eq!(s.deltas_applied(), 3);
        assert_eq!(s.node_count(), 2);
        assert_eq!(s.edge_count(), 1);
        let cold = Rid::from_config(s.config()).unwrap().detect(&s.snapshot());
        assert_eq!(s.answer().detection, cold);
    }

    #[test]
    fn clean_components_are_not_reextracted() {
        let mut s = session();
        for node in 0..10 {
            s.apply(&infect(node, NodeState::Positive)).unwrap();
        }
        s.apply(&edge(0, 1, Sign::Positive, 0.5)).unwrap();
        s.answer();
        let before = extraction_run_count();
        // Dirty one far-away singleton; only that component recomputes.
        s.apply(&edge(8, 9, Sign::Positive, 0.5)).unwrap();
        let (_, outcome) = s.answer_detailed();
        assert_eq!(outcome.dirty_components, 1);
        assert!(!outcome.full_recompute);
        assert_eq!(
            extraction_run_count() - before,
            1,
            "only the dirtied component may be extracted"
        );
        // An untouched snapshot answers from cache, extracting nothing.
        let before = extraction_run_count();
        let (_, outcome) = s.answer_detailed();
        assert_eq!(outcome.dirty_components, 0);
        assert_eq!(extraction_run_count() - before, 0);
    }

    #[test]
    fn losing_edge_reextracts_exactly_its_component() {
        let mut s = session();
        for node in 0..12 {
            s.apply(&infect(node, NodeState::Positive)).unwrap();
        }
        // Strong chain 0 -> 1 -> 2; weaker cross edges will lose.
        s.apply(&edge(0, 1, Sign::Positive, 0.9)).unwrap();
        s.apply(&edge(1, 2, Sign::Positive, 0.9)).unwrap();
        s.apply(&edge(3, 1, Sign::Positive, 0.8)).unwrap();
        s.answer(); // All dirty: extracts the whole snapshot.
        s.apply(&edge(0, 3, Sign::Positive, 0.2)).unwrap();
        s.answer(); // Solves the four-node component on its own.
        let before = extraction_run_count();
        // Boosted to 0.3, strictly below node 2's incumbent best-in: the
        // forest is unchanged, yet the component is extracted again.
        s.apply(&edge(3, 2, Sign::Positive, 0.1)).unwrap();
        let (result, outcome) = s.answer_detailed();
        assert_eq!(outcome.dirty_components, 1);
        assert!(!outcome.full_recompute);
        assert_eq!(
            extraction_run_count() - before,
            1,
            "exactly the dirtied component is extracted"
        );
        let cold = Rid::from_config(s.config()).unwrap().detect(&s.snapshot());
        assert_eq!(result.detection, cold);
        assert_eq!(
            result.detection.objective.to_bits(),
            cold.objective.to_bits()
        );
    }

    #[test]
    fn several_dirty_components_extract_once() {
        let mut s = session();
        for node in 0..20 {
            s.apply(&infect(node, NodeState::Positive)).unwrap();
        }
        s.answer();
        // Three merges leave 6 of 20 nodes dirty, in three components.
        for (src, dst) in [(0, 1), (8, 9), (16, 17)] {
            s.apply(&edge(src, dst, Sign::Positive, 0.5)).unwrap();
        }
        let before = extraction_run_count();
        let (result, outcome) = s.answer_detailed();
        assert_eq!(
            extraction_run_count() - before,
            1,
            "the dirty components are extracted together"
        );
        assert_eq!(outcome.dirty_components, 3);
        assert!(!outcome.full_recompute);
        let cold = Rid::from_config(s.config()).unwrap().detect(&s.snapshot());
        assert_eq!(result.detection, cold);
        assert_eq!(
            result.detection.objective.to_bits(),
            cold.objective.to_bits()
        );
    }

    #[test]
    fn all_dirty_answer_extracts_the_whole_snapshot_once() {
        let mut s = session();
        for node in 0..8 {
            s.apply(&infect(node, NodeState::Positive)).unwrap();
        }
        let before = extraction_run_count();
        let (result, outcome) = s.answer_detailed();
        assert_eq!(extraction_run_count() - before, 1);
        assert_eq!(outcome.dirty_components, 8);
        assert!(outcome.full_recompute, "every component was dirty");
        assert!(s.take_fallback_artifacts().is_none());
        let cold = Rid::from_config(s.config()).unwrap().detect(&s.snapshot());
        assert_eq!(result.detection, cold);
        // The answer filled every component's cache: the next answer
        // after a small delta recomputes only what it dirtied.
        s.apply(&edge(0, 1, Sign::Positive, 0.5)).unwrap();
        let (result, outcome) = s.answer_detailed();
        assert!(!outcome.full_recompute);
        assert_eq!(outcome.dirty_components, 1);
        let cold = Rid::from_config(s.config()).unwrap().detect(&s.snapshot());
        assert_eq!(result.detection, cold);
    }

    #[test]
    fn component_merge_across_earlier_answers() {
        let mut s = session();
        let rid = Rid::from_config(s.config()).unwrap();
        s.apply(&infect(10, NodeState::Positive)).unwrap();
        s.apply(&infect(20, NodeState::Negative)).unwrap();
        s.apply(&infect(30, NodeState::Positive)).unwrap();
        s.answer();
        s.apply(&edge(10, 20, Sign::Negative, 0.7)).unwrap();
        assert_eq!(s.component_count(), 2);
        assert_eq!(s.answer().detection, rid.detect(&s.snapshot()));
        s.apply(&edge(30, 20, Sign::Positive, 0.9)).unwrap();
        assert_eq!(s.component_count(), 1);
        assert_eq!(s.answer().detection, rid.detect(&s.snapshot()));
    }

    #[test]
    fn delta_json_round_trips() {
        let deltas = [
            infect(3, NodeState::Positive),
            infect(4, NodeState::Unknown),
            edge(0, 3, Sign::Negative, 0.125),
            RidDelta::FlipState {
                node: NodeId(3),
                state: NodeState::Negative,
            },
        ];
        for delta in deltas {
            let back = RidDelta::from_json_value(&delta.to_json_value()).unwrap();
            assert_eq!(back, delta);
        }
        for bad in [
            "{\"op\": \"bogus\"}",
            "{\"op\": \"infect\", \"node\": 1}",
            "{\"op\": \"add_edge\", \"src\": 0, \"dst\": 1, \"sign\": \"*\", \"weight\": 0.5}",
            "{\"node\": 1, \"state\": \"+\"}",
        ] {
            let value = Value::parse(bad).unwrap();
            assert!(RidDelta::from_json_value(&value).is_err(), "{bad}");
        }
    }

    #[test]
    fn delta_errors_render_their_context() {
        assert_eq!(
            DeltaError::DuplicateEdge(NodeId(1), NodeId(2)).to_string(),
            "edge (n1, n2) already exists"
        );
        assert!(DeltaError::InvalidWeight(2.0).to_string().contains("2"));
    }
}
