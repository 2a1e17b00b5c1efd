//! # isomit-diffusion
//!
//! Information-diffusion models for weighted signed directed networks,
//! reproducing §III-A of *Rumor Initiator Detection in Infected Signed
//! Networks* (ICDCS 2017).
//!
//! The centrepiece is the paper's **MFC** (asyMmetric Flipping Cascade)
//! model ([`Mfc`], the paper's Algorithm 1), in which
//!
//! * positive (trust) links get their activation probability *boosted* by
//!   the asymmetric coefficient `α > 1` (`p = min(1, α·w)`), while negative
//!   (distrust) links activate with the raw weight `w`;
//! * an activated node's opinion is the product of its activator's opinion
//!   and the link sign (`s(v) = s(u)·s_D(u, v)`);
//! * already-active nodes can be *flipped* by trusted neighbours holding
//!   the opposite opinion (only over positive links).
//!
//! Four reference models from the literature the paper builds on are also
//! provided for comparison: [`IndependentCascade`], [`LinearThreshold`],
//! [`Sir`], and [`PolarityIc`]. All models implement the
//! [`DiffusionModel`] trait and produce a [`Cascade`], from which the
//! infected snapshot handed to the detection side ([`InfectedNetwork`]) is
//! extracted.
//!
//! # Example
//!
//! ```
//! use isomit_diffusion::{DiffusionModel, Mfc, SeedSet};
//! use isomit_graph::{Edge, NodeId, Sign, SignedDigraph};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let diffusion = SignedDigraph::from_edges(
//!     3,
//!     [
//!         Edge::new(NodeId(0), NodeId(1), Sign::Positive, 1.0),
//!         Edge::new(NodeId(1), NodeId(2), Sign::Negative, 1.0),
//!     ],
//! )?;
//! let seeds = SeedSet::single(NodeId(0), Sign::Positive);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let cascade = Mfc::new(3.0)?.simulate(&diffusion, &seeds, &mut rng)?;
//! assert_eq!(cascade.infected_count(), 3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod bitmap;
mod cascade;
mod error;
mod ic;
mod infected;
mod influence;
mod json;
mod lt;
mod mfc;
mod model;
mod montecarlo;
mod pic;
mod seed;
mod sir;
mod timeline;
mod wide;

pub use cascade::{ActivationEvent, Cascade};
pub use error::DiffusionError;
pub use ic::IndependentCascade;
pub use infected::InfectedNetwork;
pub use influence::{maximize_influence, InfluenceResult};
pub use lt::LinearThreshold;
pub use mfc::Mfc;
pub use model::DiffusionModel;
pub use montecarlo::{par_estimate_infection_probabilities, InfectionEstimate};
pub use pic::PolarityIc;
pub use seed::SeedSet;
pub use sir::Sir;
pub use timeline::{CascadeTimeline, RoundStats};
pub use wide::{
    estimate_infection_probabilities_wide_reference, par_estimate_infection_probabilities_wide,
    simulate_wide_reference, wide_lane_key, WideBatch, WideSimulator, MAX_LANES,
};
