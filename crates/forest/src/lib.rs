//! # isomit-forest
//!
//! Structural algorithms behind the RID pipeline of *Rumor Initiator
//! Detection in Infected Signed Networks* (ICDCS 2017):
//!
//! * [`weakly_connected_components`] — the paper's §III-E1 *infected
//!   connected components detection* (BFS over the undirected view), plus
//!   a reusable [`UnionFind`].
//! * [`maximum_branching`] — maximum-weight spanning branching of a
//!   directed weighted graph via the Chu-Liu/Edmonds algorithm, contracting
//!   every cycle of a level at once, covering the paper's Algorithms 2
//!   (MWSG), 3 (Contract Circles) and 4 (Infected Cascade Trees
//!   Extraction). The branching is the maximum-likelihood cascade forest:
//!   maximizing `Σ log w` equals maximizing `Π w`. It is the oracle of:
//! * [`maximum_branching_components`] — the same branching, bit for bit,
//!   computed component by component against a reusable
//!   [`BranchingArena`] by a lazy Chu-Liu/Edmonds that contracts each
//!   cycle as soon as a walk of best in-edges closes it and re-weights
//!   only that cycle's in-edges; the run the RID engine's forest
//!   extraction serves.
//! * [`BinaryTree`] / [`binarize`] — the §III-E3 transformation of an
//!   arbitrary cascade tree into a binary tree by inserting dummy nodes
//!   (paper's Figure 3), enabling the k-ISOMIT-BT dynamic program.
//!
//! # Example: extract the most likely cascade forest
//!
//! ```
//! use isomit_forest::{maximum_branching, WeightedArc};
//!
//! // Two candidate parents for node 2; the heavier one wins.
//! let arcs = vec![
//!     WeightedArc { src: 0, dst: 2, weight: 0.9 },
//!     WeightedArc { src: 1, dst: 2, weight: 0.4 },
//! ];
//! let branching = maximum_branching(3, &arcs);
//! assert_eq!(branching.parent(2), Some(0));
//! assert!(branching.is_root(0) && branching.is_root(1));
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod binary;
mod branching;
mod component_branching;
mod components;

pub use binary::{binarize, BinaryTree};
pub use branching::{maximum_branching, Branching, WeightedArc};
pub use component_branching::{maximum_branching_components, BranchingArena};
pub use components::{weakly_connected_components, UnionFind};
