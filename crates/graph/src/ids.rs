use std::fmt;

/// Identifier of a node in a [`SignedDigraph`](crate::SignedDigraph).
///
/// Node ids are dense: a graph with `n` nodes uses ids `0..n`. The inner
/// `u32` is public because `NodeId` is a plain index; the newtype exists to
/// keep node indices from being confused with counts, budgets or edge
/// positions in APIs that take several integers.
///
/// ```
/// use isomit_graph::NodeId;
/// let u = NodeId(7);
/// assert_eq!(u.index(), 7);
/// assert_eq!(NodeId::from(7u32), u);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the id as a `usize` suitable for indexing into per-node
    /// arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `NodeId` from a `usize` index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in a `u32`; graphs in this workspace
    /// are bounded by `u32::MAX` nodes.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index exceeds u32::MAX"))
    }
}

impl From<u32> for NodeId {
    #[inline]
    fn from(raw: u32) -> Self {
        NodeId(raw)
    }
}

impl From<NodeId> for u32 {
    #[inline]
    fn from(id: NodeId) -> Self {
        id.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trip() {
        assert_eq!(NodeId::from_index(42).index(), 42);
        assert_eq!(u32::from(NodeId(9)), 9);
    }

    #[test]
    fn display_is_prefixed() {
        assert_eq!(NodeId(3).to_string(), "n3");
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(NodeId(1) < NodeId(2));
        assert_eq!(NodeId::default(), NodeId(0));
    }

    #[test]
    #[should_panic(expected = "node index exceeds u32::MAX")]
    fn from_index_panics_on_overflow() {
        let _ = NodeId::from_index(u32::MAX as usize + 1);
    }
}
