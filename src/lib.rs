//! # isomit
//!
//! A from-scratch Rust reproduction of *Rumor Initiator Detection in
//! Infected Signed Networks* (Jiawei Zhang, Charu C. Aggarwal, Philip S.
//! Yu — ICDCS 2017): the **MFC** (asyMmetric Flipping Cascade) diffusion
//! model for signed networks and the **RID** (Rumor Initiator Detector)
//! framework that works backwards from an infected snapshot to the most
//! likely rumor initiators — their number, identities, and initial
//! states (the **ISOMIT** problem).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`graph`] — weighted signed digraphs, JSON I/O, Jaccard weighting;
//! * [`diffusion`] — MFC plus the IC / LT / SIR / P-IC reference models;
//! * [`forest`] — components, Chu-Liu/Edmonds branchings, binarization;
//! * [`core`] — the RID detector, baselines, likelihood, NP-hardness
//!   apparatus;
//! * [`datasets`] — SNAP edge-list I/O, Epinions/Slashdot-like
//!   generators and the experiment scenario builder;
//! * [`metrics`] — precision/recall/F1 and state accuracy/MAE/R².
//!
//! # Quickstart
//!
//! ```
//! use isomit::prelude::*;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! // 1. A small Epinions-like signed social network.
//! let social = epinions_like_scaled(0.005, &mut rng);
//! // 2. Plant initiators and simulate an MFC outbreak (paper §IV-B3).
//! let scenario = build_scenario(&social, &ScenarioConfig::small(), &mut rng);
//! // 3. Detect the initiators from the snapshot alone.
//! let detection = Rid::new(3.0, 0.1).unwrap().detect(&scenario.snapshot);
//! // 4. Score against the planted ground truth.
//! let truth: Vec<NodeId> = scenario.ground_truth.nodes().collect();
//! let prf = evaluate_identities(&detection.nodes(), &truth);
//! assert!(prf.recall > 0.0);
//! ```

#![deny(missing_docs)]

pub use isomit_core as core;
pub use isomit_datasets as datasets;
pub use isomit_diffusion as diffusion;
pub use isomit_forest as forest;
pub use isomit_graph as graph;
pub use isomit_metrics as metrics;

/// Convenience prelude pulling in the names used by a typical
/// simulate-then-detect experiment.
pub mod prelude {
    pub use isomit_core::{
        extract_cascade_forest, solve_k_isomit, Detection, InitiatorDetector, Rid, RidObjective,
        RidPositive, RidTree, TreeDp,
    };
    pub use isomit_datasets::{
        build_scenario, epinions_like, epinions_like_scaled, paper_weights, slashdot_like,
        slashdot_like_scaled, Scenario, ScenarioConfig,
    };
    pub use isomit_diffusion::{
        par_estimate_infection_probabilities, par_estimate_infection_probabilities_wide, Cascade,
        CascadeTimeline, DiffusionModel, IndependentCascade, InfectedNetwork, InfectionEstimate,
        LinearThreshold, Mfc, PolarityIc, SeedSet, Sir, WideBatch, WideSimulator,
    };
    pub use isomit_graph::{
        Edge, GraphStats, NodeId, NodeState, Sign, SignedDigraph, SignedDigraphBuilder,
    };
    pub use isomit_metrics::{
        evaluate_detection, evaluate_identities, mean_detection_distance, Prf, StateMetrics,
    };
}
