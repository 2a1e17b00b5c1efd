use crate::{NodeId, Sign};
use std::fmt;

/// An owned signed, weighted, directed edge.
///
/// `Edge` is the exchange format between builders, iterators and I/O; the
/// graph itself stores edges in compressed-sparse-row arrays and hands out
/// [`EdgeRef`]s when iterating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Polarity of the relationship.
    pub sign: Sign,
    /// Weight in `[0, 1]` — an activation probability in diffusion
    /// networks, an intimacy score in social networks.
    pub weight: f64,
}

impl Edge {
    /// Creates a new edge.
    pub fn new(src: NodeId, dst: NodeId, sign: Sign, weight: f64) -> Self {
        Edge {
            src,
            dst,
            sign,
            weight,
        }
    }

    /// Returns the same edge with source and destination swapped, as used
    /// when deriving the diffusion network from the social network
    /// (Definition 2 of the paper: sign and weight are preserved).
    #[inline]
    pub fn reversed(self) -> Self {
        Edge {
            src: self.dst,
            dst: self.src,
            ..self
        }
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -({}{:.3})-> {}",
            self.src, self.sign, self.weight, self.dst
        )
    }
}

/// A borrowed view of one edge during iteration over a
/// [`SignedDigraph`](crate::SignedDigraph).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeRef {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Polarity of the relationship.
    pub sign: Sign,
    /// Weight in `[0, 1]`.
    pub weight: f64,
}

impl EdgeRef {
    /// Converts the reference into an owned [`Edge`].
    #[inline]
    pub fn to_edge(self) -> Edge {
        Edge {
            src: self.src,
            dst: self.dst,
            sign: self.sign,
            weight: self.weight,
        }
    }
}

impl From<EdgeRef> for Edge {
    #[inline]
    fn from(e: EdgeRef) -> Edge {
        e.to_edge()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reversal_swaps_endpoints_and_keeps_attributes() {
        let e = Edge::new(NodeId(1), NodeId(2), Sign::Negative, 0.25);
        let r = e.reversed();
        assert_eq!(r.src, NodeId(2));
        assert_eq!(r.dst, NodeId(1));
        assert_eq!(r.sign, Sign::Negative);
        assert_eq!(r.weight, 0.25);
        assert_eq!(r.reversed(), e);
    }

    #[test]
    fn edge_ref_round_trip() {
        let r = EdgeRef {
            src: NodeId(0),
            dst: NodeId(3),
            sign: Sign::Positive,
            weight: 0.5,
        };
        let e: Edge = r.into();
        assert_eq!(e, Edge::new(NodeId(0), NodeId(3), Sign::Positive, 0.5));
    }

    #[test]
    fn display_contains_sign_and_weight() {
        let e = Edge::new(NodeId(1), NodeId(2), Sign::Positive, 0.125);
        assert_eq!(e.to_string(), "n1 -(+0.125)-> n2");
    }
}
