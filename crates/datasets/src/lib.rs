//! # isomit-datasets
//!
//! Dataset substrate for the `isomit` workspace: loaders for the
//! SNAP-format signed networks the paper evaluates on (Epinions,
//! Slashdot — see [`load_snap`]), synthetic generators matched to
//! those datasets' published statistics, the paper's §IV-B3 edge
//! weighting pipeline, and the end-to-end experiment scenario builder
//! (plant initiators → simulate MFC → snapshot).
//!
//! # Substitution note
//!
//! The paper downloads `soc-sign-epinions` and `soc-sign-Slashdot` from
//! SNAP. Those dumps are unavailable offline, so [`epinions_like`] and
//! [`slashdot_like`] generate preferential-attachment signed digraphs
//! with the same node/edge counts (Table II) and positive-link fractions
//! (~85% / ~77%). Because the evaluation's ground truth comes from
//! *simulating MFC forward* on whatever graph is given — never from
//! dataset labels — any structurally similar graph exercises identical
//! code paths; real SNAP files can be dropped in through
//! `load_snap_file(path, &LoadOptions::lenient())` ([`load_snap_file`])
//! unchanged.
//!
//! ```
//! use isomit_datasets::{build_scenario, epinions_like_scaled, ScenarioConfig};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let social = epinions_like_scaled(0.005, &mut rng); // ~650 nodes
//! let scenario = build_scenario(&social, &ScenarioConfig::small(), &mut rng);
//! assert!(scenario.snapshot.node_count() >= scenario.ground_truth.len());
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod generators;
mod ingest;
mod polarized;
mod scenario;
mod weighting;

pub use generators::{
    epinions_like, epinions_like_scaled, erdos_renyi_signed, preferential_attachment_signed,
    slashdot_like, slashdot_like_scaled, snap_like, PaConfig, EPINIONS_EDGES, EPINIONS_NODES,
    SLASHDOT_EDGES, SLASHDOT_NODES,
};
pub use ingest::{load_snap, load_snap_file, write_snap, LoadOptions, LoadReport, MalformedPolicy};
pub use polarized::{camp_of, polarized_communities, PolarizedConfig};
pub use scenario::{build_scenario, build_scenario_with_model, Scenario, ScenarioConfig};
pub use weighting::paper_weights;
