//! Two-stage RID pipeline: extract once, query many times.
//!
//! [`Rid::detect`](crate::InitiatorDetector::detect) runs the full
//! pipeline per call, but its two halves have very different reuse
//! profiles. The *extract* half (weakly-connected components,
//! Chu-Liu/Edmonds branching, cascade-tree materialization, external
//! support accumulation) depends only on the snapshot and `alpha`; the
//! *query* half (binarized-tree DP + penalized model selection) also
//! depends on `beta`, the objective, and the external-support toggle.
//! Splitting them lets callers that answer many queries against one
//! snapshot — the §III-E3 β model-selection sweep, the serving engine's
//! artifact cache — pay the expensive half exactly once.
//!
//! Determinism contract: for any snapshot,
//! `rid.query_stage(&s, &rid.extract_stage(&s))` is bit-identical to
//! `rid.detect(&s)`, regardless of how often or on which thread the
//! artifacts are reused.

use crate::detection::{DetectedInitiator, Detection};
use crate::dp::{DpOutcome, TreeDp};
use crate::error::RidError;
use crate::forest_extraction::{external_support, extract_cascade_forest, CascadeTree};
use crate::rid::{Rid, RidObjective};
use isomit_diffusion::InfectedNetwork;
use isomit_graph::{NodeId, NodeState};
use isomit_telemetry::{names, Histogram};
use std::sync::OnceLock;

/// Cached handle into the process-global telemetry registry; looked up
/// once so the hot path pays one pointer load, not a map lookup.
fn extract_stage_histogram() -> &'static Histogram {
    static HIST: OnceLock<Histogram> = OnceLock::new();
    HIST.get_or_init(|| isomit_telemetry::global().histogram(names::RID_EXTRACT_STAGE_NS))
}

fn query_stage_histogram() -> &'static Histogram {
    static HIST: OnceLock<Histogram> = OnceLock::new();
    HIST.get_or_init(|| isomit_telemetry::global().histogram(names::RID_QUERY_STAGE_NS))
}

/// Snapshot-level artifacts produced by [`Rid::extract_stage`]: the
/// extracted cascade forest plus per-tree external-support tables.
///
/// Artifacts are tied to the `(snapshot, alpha)` pair they were
/// extracted from; [`Rid::query_stage`] rejects artifacts whose `alpha`
/// differs bit-for-bit from the detector's. They are immutable and
/// `Send + Sync`, so a server can share one `Arc<ForestArtifacts>`
/// across worker threads.
#[derive(Debug, Clone, PartialEq)]
pub struct ForestArtifacts {
    alpha: f64,
    trees: Vec<CascadeTree>,
    component_count: usize,
    /// `supports[i][v]` is the external-support term of local node `v`
    /// in tree `i`; always computed so cached artifacts can answer both
    /// support-enabled and support-ablated queries.
    supports: Vec<Vec<f64>>,
}

impl ForestArtifacts {
    /// The `alpha` the artifacts were extracted under.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The extracted cascade trees, in deterministic extraction order.
    pub fn trees(&self) -> &[CascadeTree] {
        &self.trees
    }

    /// Number of weakly-connected components in the snapshot.
    pub fn component_count(&self) -> usize {
        self.component_count
    }

    /// Approximate heap footprint in bytes, used by cache accounting.
    pub fn approx_bytes(&self) -> usize {
        let tree_bytes: usize = self.trees.iter().map(|t| t.len() * 48).sum();
        let support_bytes: usize = self
            .supports
            .iter()
            .map(|s| s.len() * std::mem::size_of::<f64>())
            .sum();
        std::mem::size_of::<Self>() + tree_bytes + support_bytes
    }
}

impl Rid {
    /// Stage 1: extracts the per-snapshot artifacts (components,
    /// maximum-likelihood branching forest, external-support tables).
    ///
    /// This is the expensive half of the pipeline and depends only on
    /// the snapshot and `alpha` — never on `beta`, the objective, or
    /// the support toggle — so the result can be cached and reused
    /// across every query variant against the same snapshot.
    pub fn extract_stage(&self, snapshot: &InfectedNetwork) -> ForestArtifacts {
        let _span = extract_stage_histogram().span();
        let (trees, component_count) = extract_cascade_forest(snapshot, self.alpha());
        let supports = external_support(snapshot, &trees, self.alpha());
        ForestArtifacts {
            alpha: self.alpha(),
            trees,
            component_count,
            supports,
        }
    }

    /// Stage 2: answers a detection query from previously extracted
    /// artifacts, skipping extraction entirely.
    ///
    /// Bit-identical to [`detect`](crate::InitiatorDetector::detect) on
    /// the same snapshot: trees are solved and folded in extraction
    /// order, so the objective sum and the sorted initiator list do not
    /// depend on cache state.
    ///
    /// # Errors
    ///
    /// Returns [`RidError::ArtifactMismatch`] if `artifacts` were
    /// extracted under a different `alpha` (compared via
    /// `f64::to_bits`); the branching structure depends on `alpha`, so
    /// answering anyway would silently change results.
    pub fn query_stage(
        &self,
        snapshot: &InfectedNetwork,
        artifacts: &ForestArtifacts,
    ) -> Result<Detection, RidError> {
        let _span = query_stage_histogram().span();
        if artifacts.alpha.to_bits() != self.alpha().to_bits() {
            return Err(RidError::ArtifactMismatch {
                expected_alpha: self.alpha(),
                artifact_alpha: artifacts.alpha,
            });
        }
        Ok(fold(
            &self.solve_trees(snapshot, artifacts),
            artifacts.component_count,
        ))
    }

    /// Runs the query-stage DP on every tree of `artifacts` and
    /// translates each outcome to original ids, in extraction order
    /// (ascending root snapshot id). The incremental session solves its
    /// dirty sub-snapshot through here, so it solves a tree exactly as
    /// [`query_stage`](Rid::query_stage) does.
    pub(crate) fn solve_trees(
        &self,
        snapshot: &InfectedNetwork,
        artifacts: &ForestArtifacts,
    ) -> Vec<SolvedTree> {
        let to_original = |sub_id: NodeId| {
            snapshot
                .mapping()
                .to_original(sub_id)
                .expect("snapshot id maps to original network")
        };
        artifacts
            .trees
            .iter()
            .zip(&artifacts.supports)
            .map(|(tree, support)| {
                let outcome = self.solve_tree(tree, support);
                SolvedTree {
                    root: to_original(tree.snapshot_id(tree.root())),
                    objective: outcome.objective,
                    initiators: outcome
                        .initiators
                        .into_iter()
                        .map(|(sub_id, state)| DetectedInitiator {
                            node: to_original(sub_id),
                            state: NodeState::from_sign(state),
                        })
                        .collect(),
                }
            })
            .collect()
    }

    /// The query-stage DP on one cascade tree under this detector's
    /// objective, `beta` and support toggle; `support` is the tree's
    /// external-support table.
    fn solve_tree(&self, tree: &CascadeTree, support: &[f64]) -> DpOutcome {
        match self.objective() {
            RidObjective::ProbabilitySum => TreeDp::solve_probability_sum_with_support(
                tree,
                self.alpha(),
                self.beta(),
                self.external_support_enabled().then_some(support),
            ),
            RidObjective::LogLikelihood => TreeDp::solve_penalized(tree, self.alpha(), self.beta()),
        }
    }
}

/// One cascade tree's query-stage outcome in original-network ids, so it
/// does not depend on how the snapshot it was solved in numbered its
/// nodes: the incremental session caches these per component.
#[derive(Debug, Clone)]
pub(crate) struct SolvedTree {
    /// Original id of the tree root.
    pub(crate) root: NodeId,
    objective: f64,
    initiators: Vec<DetectedInitiator>,
}

/// Folds solved trees into one [`Detection`]: the objective is summed
/// in the order given and the initiators are sorted. Both callers pass
/// the trees in ascending root order: [`Rid::query_stage`] in extraction
/// order, and the incremental session by original root id, which is the
/// order of its snapshot's ids. So the sum is bit-identical on both.
pub(crate) fn fold<'a>(
    trees: impl IntoIterator<Item = &'a SolvedTree>,
    component_count: usize,
) -> Detection {
    let mut detection = Detection {
        initiators: Vec::new(),
        component_count,
        tree_count: 0,
        objective: 0.0,
    };
    for tree in trees {
        detection.objective += tree.objective;
        detection.initiators.extend_from_slice(&tree.initiators);
        detection.tree_count += 1;
    }
    detection.sort();
    detection
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detection::InitiatorDetector;
    use crate::forest_extraction::extraction_run_count;
    use isomit_diffusion::{DiffusionModel, Mfc, SeedSet};
    use isomit_graph::{Edge, NodeId, Sign, SignedDigraph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn chain_snapshot() -> InfectedNetwork {
        let edges: Vec<Edge> = (0..14)
            .map(|i| {
                Edge::new(
                    NodeId(i),
                    NodeId(i + 1),
                    if i % 3 == 0 {
                        Sign::Negative
                    } else {
                        Sign::Positive
                    },
                    0.7,
                )
            })
            .collect();
        let g = SignedDigraph::from_edges(15, edges).unwrap();
        let seeds = SeedSet::single(NodeId(0), Sign::Positive);
        let cascade = Mfc::new(3.0)
            .unwrap()
            .simulate(&g, &seeds, &mut StdRng::seed_from_u64(11))
            .unwrap();
        InfectedNetwork::from_cascade(&g, &cascade)
    }

    #[test]
    fn staged_equals_detect_bit_for_bit() {
        let snapshot = chain_snapshot();
        for beta in [0.0, 0.05, 0.1, 0.5, 2.0] {
            for support in [true, false] {
                let rid = Rid::new(3.0, beta).unwrap().with_external_support(support);
                let artifacts = rid.extract_stage(&snapshot);
                let staged = rid.query_stage(&snapshot, &artifacts).unwrap();
                let direct = rid.detect(&snapshot);
                assert_eq!(staged, direct, "beta {beta} support {support}");
                assert_eq!(staged.objective.to_bits(), direct.objective.to_bits());
            }
        }
    }

    #[test]
    fn staged_equals_detect_log_likelihood() {
        let snapshot = chain_snapshot();
        let rid = Rid::new(3.0, 0.3)
            .unwrap()
            .with_objective(RidObjective::LogLikelihood);
        let artifacts = rid.extract_stage(&snapshot);
        assert_eq!(
            rid.query_stage(&snapshot, &artifacts).unwrap(),
            rid.detect(&snapshot)
        );
    }

    #[test]
    fn alpha_mismatch_is_rejected() {
        let snapshot = chain_snapshot();
        let artifacts = Rid::new(3.0, 0.1).unwrap().extract_stage(&snapshot);
        let other = Rid::new(2.0, 0.1).unwrap();
        match other.query_stage(&snapshot, &artifacts) {
            Err(RidError::ArtifactMismatch {
                expected_alpha,
                artifact_alpha,
            }) => {
                assert_eq!(expected_alpha, 2.0);
                assert_eq!(artifact_alpha, 3.0);
            }
            other => panic!("expected ArtifactMismatch, got {other:?}"),
        }
    }

    /// Regression test for the §III-E3 model-selection cost: the whole
    /// β sweep (each β re-runs the per-tree DP and re-selects `k`) must
    /// extract the cascade forest exactly once per snapshot.
    #[test]
    fn model_selection_sweep_extracts_once_per_snapshot() {
        let snapshot = chain_snapshot();
        let extractor = Rid::new(3.0, 0.0).unwrap();
        let before = extraction_run_count();
        let artifacts = extractor.extract_stage(&snapshot);
        let mut lens = Vec::new();
        for i in 0..20 {
            let beta = f64::from(i) * 0.05;
            let rid = Rid::new(3.0, beta).unwrap();
            lens.push(rid.query_stage(&snapshot, &artifacts).unwrap().len());
        }
        assert_eq!(
            extraction_run_count() - before,
            1,
            "a 20-point beta sweep must extract exactly once"
        );
        // Sanity: the sweep actually exercised different selections.
        assert!(lens.first().unwrap() >= lens.last().unwrap());
    }

    #[test]
    fn detect_extracts_once_per_call() {
        let snapshot = chain_snapshot();
        let rid = Rid::new(3.0, 0.1).unwrap();
        let before = extraction_run_count();
        rid.detect(&snapshot);
        assert_eq!(extraction_run_count() - before, 1);
    }

    #[test]
    fn artifacts_report_nonzero_footprint() {
        let snapshot = chain_snapshot();
        let artifacts = Rid::new(3.0, 0.1).unwrap().extract_stage(&snapshot);
        assert!(artifacts.approx_bytes() > std::mem::size_of::<ForestArtifacts>());
        assert_eq!(artifacts.alpha(), 3.0);
        assert!(!artifacts.trees().is_empty());
        assert!(artifacts.component_count() >= 1);
    }
}
