//! Breadth-first search over the undirected view of a
//! [`SignedDigraph`], the one graph search of the workspace.
//!
//! Signs, weights and edge directions are ignored: an edge `(u, v)`
//! joins `u` and `v` both ways. Weakly connected components (the
//! paper's §III-E1 infected connected components), rumor centrality's
//! BFS spanning tree, Jordan-center eccentricities and the hop-distance
//! metric all run this search, so they all see one visit order: the
//! sources in the order given (duplicates once), then level by level,
//! each node's out-neighbours before its in-neighbours, each list in
//! CSR (ascending id) order.
//!
//! A [`Bfs`] is reusable scratch. Its visited array is stamped with a
//! per-search epoch, so starting a search costs O(1) rather than O(n),
//! and its visit list doubles as the queue. A search costs O(n + m) over
//! the part of the graph it reaches.

use crate::{NodeId, SignedDigraph};

/// One node reached by a [`Bfs::search`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Visit {
    /// The node reached.
    pub node: NodeId,
    /// The node it was first reached from; `None` for a source.
    pub parent: Option<NodeId>,
    /// Hop distance from the nearest source.
    pub depth: u32,
}

/// Reusable scratch for breadth-first searches over the undirected view
/// of a graph.
///
/// ```
/// use isomit_graph::traversal::{Bfs, Visit};
/// use isomit_graph::{Edge, NodeId, Sign, SignedDigraph};
///
/// // 0 -> 1 <- 2: connected once directions are ignored; 3 is isolated.
/// let g = SignedDigraph::from_edges(
///     4,
///     [
///         Edge::new(NodeId(0), NodeId(1), Sign::Positive, 0.5),
///         Edge::new(NodeId(2), NodeId(1), Sign::Negative, 0.5),
///     ],
/// )?;
/// let mut bfs = Bfs::default();
/// let visits = bfs.search(&g, &[NodeId(0)]);
/// assert_eq!(
///     visits,
///     [
///         Visit { node: NodeId(0), parent: None, depth: 0 },
///         Visit { node: NodeId(1), parent: Some(NodeId(0)), depth: 1 },
///         Visit { node: NodeId(2), parent: Some(NodeId(1)), depth: 2 },
///     ]
/// );
/// // The same scratch serves the next search.
/// assert_eq!(bfs.search(&g, &[NodeId(3)]).len(), 1);
/// # Ok::<(), isomit_graph::GraphError>(())
/// ```
#[derive(Debug, Default)]
pub struct Bfs {
    /// `stamp[v] == epoch` exactly when the current search reached `v`.
    stamp: Vec<u32>,
    epoch: u32,
    /// The current search's visits in BFS order; the unread tail is the
    /// queue.
    visits: Vec<Visit>,
}

impl Bfs {
    /// Searches `graph` from every node of `sources` at once and returns
    /// each node reached, in BFS order, with its parent and depth.
    ///
    /// # Panics
    ///
    /// Panics if a source is out of bounds for `graph`.
    pub fn search(&mut self, graph: &SignedDigraph, sources: &[NodeId]) -> &[Visit] {
        self.epoch = self.epoch.checked_add(1).unwrap_or_else(|| {
            // Stamps left by the search 2^32 - 1 searches ago would
            // alias the wrapped epoch, so clear them all once.
            self.stamp.fill(0);
            1
        });
        if self.stamp.len() < graph.node_count() {
            self.stamp.resize(graph.node_count(), 0);
        }
        let Bfs {
            stamp,
            epoch,
            visits,
        } = self;
        visits.clear();
        for &source in sources {
            assert!(graph.contains(source), "source {source} out of bounds");
            reach(stamp, *epoch, visits, source, None, 0);
        }
        let mut head = 0;
        while let Some(&Visit { node, depth, .. }) = visits.get(head) {
            head += 1;
            for neighbours in [graph.out_neighbors(node), graph.in_neighbors(node)] {
                for &next in neighbours {
                    reach(stamp, *epoch, visits, next, Some(node), depth + 1);
                }
            }
        }
        visits
    }
}

/// Appends `node` to `visits` unless the search stamped `epoch` has
/// already reached it. A free function over the scratch's separate
/// fields, so the compiler knows that growing `visits` leaves `stamp`
/// alone, which keeps the inner loop tight.
#[inline]
fn reach(
    stamp: &mut [u32],
    epoch: u32,
    visits: &mut Vec<Visit>,
    node: NodeId,
    parent: Option<NodeId>,
    depth: u32,
) {
    let seen = stamp
        .get_mut(node.index())
        .expect("the stamp array covers the searched graph");
    if *seen != epoch {
        *seen = epoch;
        visits.push(Visit {
            node,
            parent,
            depth,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Edge, Sign};

    fn g(n: usize, edges: &[(u32, u32)]) -> SignedDigraph {
        SignedDigraph::from_edges(
            n,
            edges
                .iter()
                .map(|&(a, b)| Edge::new(NodeId(a), NodeId(b), Sign::Positive, 0.5)),
        )
        .unwrap()
    }

    fn nodes(visits: &[Visit]) -> Vec<u32> {
        visits.iter().map(|v| v.node.0).collect()
    }

    #[test]
    fn out_neighbours_come_before_in_neighbours() {
        // 2 -> 0 and 0 -> 3, 0 -> 1: out-list [1, 3], then in-list [2].
        let g = g(4, &[(2, 0), (0, 3), (0, 1)]);
        let visits = Bfs::default().search(&g, &[NodeId(0)]).to_vec();
        assert_eq!(nodes(&visits), [0, 1, 3, 2]);
        assert!(visits
            .iter()
            .skip(1)
            .all(|v| v.parent == Some(NodeId(0)) && v.depth == 1));
    }

    #[test]
    fn the_epoch_wraps_without_aliasing_old_stamps() {
        let g = g(4, &[(0, 1), (2, 3)]);
        let mut bfs = Bfs::default();
        // Epoch 1 stamps 0 and 1; after the wrap the epoch is 1 again.
        assert_eq!(nodes(bfs.search(&g, &[NodeId(0)])), [0, 1]);
        bfs.epoch = u32::MAX - 1;
        for source in [2, 0, 1, 3, 0] {
            let fresh = Bfs::default().search(&g, &[NodeId(source)]).to_vec();
            assert_eq!(bfs.search(&g, &[NodeId(source)]), fresh);
        }
        assert_eq!(bfs.epoch, 4);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn an_out_of_bounds_source_panics() {
        Bfs::default().search(&g(2, &[(0, 1)]), &[NodeId(9)]);
    }
}
