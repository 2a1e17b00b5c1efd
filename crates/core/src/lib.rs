//! # isomit-core
//!
//! The **RID** (Rumor Initiator Detector) framework of *Rumor Initiator
//! Detection in Infected Signed Networks* (Zhang, Aggarwal, Yu — ICDCS
//! 2017): given a snapshot of an infected signed diffusion network
//! (`G_I`, node opinions in `{+1, −1, ?}`), infer the number, identities
//! and initial states of the rumor initiators that most likely produced
//! it — the **ISOMIT** problem.
//!
//! The pipeline (§III-E of the paper):
//!
//! 1. **Infected connected components** — weakly connected components of
//!    `G_I` ([`isomit_forest::weakly_connected_components`]).
//! 2. **Cascade forest extraction** — per component, the
//!    maximum-likelihood set of cascade trees: keep only *usable*
//!    (sign-consistent under MFC) diffusion links, then run
//!    Chu-Liu/Edmonds ([`isomit_forest::maximum_branching`]) on the
//!    boosted activation probabilities (Algorithms 2–4). See
//!    [`extract_cascade_forest`].
//! 3. **Per-tree initiator inference** — binarize each cascade tree
//!    (Figure 3), then run the k-ISOMIT-BT dynamic program (§III-D) and
//!    select `k` by the penalized objective
//!    `argmin_k  −OPT(k) + (k−1)·β` (§III-E3). See [`Rid`] and
//!    [`TreeDp`].
//!
//! Baselines from the paper's evaluation are provided: [`RidTree`]
//! (forest roots only, the signed generalization of Lappas et al.'s
//! k-effectors tree method) and [`RidPositive`] (positive links only).
//! All detectors implement [`InitiatorDetector`], whose
//! [`detect_ranked`](InitiatorDetector::detect_ranked) also returns the
//! ranked candidate list behind the point estimate.
//!
//! The §III-B likelihood (`P(u, s(u) | I, S)` and `P(G_I | I, S)`) is
//! implemented in [`likelihood`], and the §III-C NP-hardness apparatus
//! (set-cover gadget, exact exponential solver) in [`reduction`] and
//! [`exact`].
//!
//! # Example
//!
//! ```
//! use isomit_core::{InitiatorDetector, Rid};
//! use isomit_diffusion::{DiffusionModel, InfectedNetwork, Mfc, SeedSet};
//! use isomit_graph::{Edge, NodeId, Sign, SignedDigraph};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Simulate an MFC outbreak, then work backwards with RID.
//! let g = SignedDigraph::from_edges(
//!     4,
//!     [
//!         Edge::new(NodeId(0), NodeId(1), Sign::Positive, 0.9),
//!         Edge::new(NodeId(1), NodeId(2), Sign::Negative, 0.9),
//!         Edge::new(NodeId(2), NodeId(3), Sign::Positive, 0.9),
//!     ],
//! )?;
//! let seeds = SeedSet::single(NodeId(0), Sign::Positive);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let cascade = Mfc::new(3.0)?.simulate(&g, &seeds, &mut rng)?;
//! let snapshot = InfectedNetwork::from_cascade(&g, &cascade);
//!
//! let detection = Rid::new(3.0, 0.1)?.detect(&snapshot);
//! assert!(detection.contains(NodeId(0)));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod baselines;
mod centrality;
mod codec;
mod detection;
mod dp;
mod error;
mod forest_extraction;
mod incremental;
mod kisomit;
mod rid;
mod stages;

pub mod exact;
pub mod likelihood;
pub mod reduction;

pub use baselines::{RidPositive, RidTree};
pub use centrality::tree_rumor_centralities;
pub use codec::RidResult;
pub use detection::{
    DetectedInitiator, Detection, InitiatorDetector, RankedSource, SourceDetection,
};
pub use dp::{DpOutcome, TreeDp};
pub use error::RidError;
pub use forest_extraction::{
    external_support, extract_cascade_forest, extract_cascade_forest_reference,
    extraction_run_count, usable_arcs, CascadeTree,
};
pub use incremental::{AnswerOutcome, DeltaError, IncrementalRid, RidDelta};
pub use kisomit::solve_k_isomit;
pub use rid::{Rid, RidConfig, RidObjective};
pub use stages::ForestArtifacts;
