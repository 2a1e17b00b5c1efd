//! # isomit-graph
//!
//! Weighted signed directed graph substrate for the `isomit` workspace, the
//! reproduction of *Rumor Initiator Detection in Infected Signed Networks*
//! (Zhang, Aggarwal, Yu — ICDCS 2017).
//!
//! The paper's Definitions 1–3 describe three graph flavours that all share
//! the same shape — a directed graph whose edges carry a polarity
//! ([`Sign`]) and a weight in `[0, 1]`:
//!
//! * the **social network** `G`, where an edge `(u, v)` means *u trusts (or
//!   distrusts) v*;
//! * the **diffusion network** `G_D`, obtained by reversing every social
//!   edge (information flows from the trusted to the truster), see
//!   [`SignedDigraph::reversed`];
//! * the **infected network** `G_I`, an induced subgraph of `G_D` over the
//!   infected nodes, see [`SignedDigraph::induced_subgraph`].
//!
//! All three are represented by [`SignedDigraph`], an immutable
//! compressed-sparse-row structure built through [`SignedDigraphBuilder`].
//! Node opinions about the rumor are represented by [`NodeState`]
//! (`+1`, `−1`, inactive, unknown — the paper's `{+1, -1, 0, ?}`).
//!
//! # Example
//!
//! ```
//! use isomit_graph::{NodeId, Sign, SignedDigraphBuilder};
//!
//! # fn main() -> Result<(), isomit_graph::GraphError> {
//! let mut b = SignedDigraphBuilder::new();
//! b.add_edge(NodeId(0), NodeId(1), Sign::Positive, 0.8)?;
//! b.add_edge(NodeId(1), NodeId(2), Sign::Negative, 0.3)?;
//! let social = b.build();
//! let diffusion = social.reversed();
//! assert!(diffusion.edge(NodeId(1), NodeId(0)).is_some());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod builder;
mod edge;
mod error;
mod graph;
mod ids;
mod jaccard;
mod sign;
mod stats;
mod subgraph;

pub mod json;
pub mod traversal;

pub use builder::SignedDigraphBuilder;
pub use edge::{Edge, EdgeRef};
pub use error::GraphError;
pub use graph::SignedDigraph;
pub use ids::NodeId;
pub use jaccard::{jaccard_coefficient, jaccard_weights};
pub use sign::{NodeState, Sign};
pub use stats::{global_clustering, reciprocity, DegreeStats, GraphStats};
pub use subgraph::NodeMapping;
