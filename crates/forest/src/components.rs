//! Connectivity: a union-find for callers that merge sets edge by edge,
//! and the paper's infected connected components, which one
//! breadth-first search per component finds with
//! [`isomit_graph::traversal::Bfs`].

use isomit_graph::traversal::Bfs;
use isomit_graph::{NodeId, SignedDigraph};

/// Disjoint-set (union-find) structure with path compression and union by
/// rank.
///
/// ```
/// use isomit_forest::UnionFind;
///
/// let mut uf = UnionFind::new(4);
/// uf.union(0, 1);
/// uf.union(2, 3);
/// assert!(uf.connected(0, 1));
/// assert!(!uf.connected(1, 2));
/// assert_eq!(uf.component_count(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
    components: usize,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            rank: vec![0; n],
            components: n,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// `true` if the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Representative of `x`'s set.
    ///
    /// # Panics
    ///
    /// Panics if `x >= len()`.
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merges the sets of `a` and `b`; returns `true` if they were
    /// previously disjoint.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.components -= 1;
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb,
            std::cmp::Ordering::Greater => self.parent[rb] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra;
                self.rank[ra] += 1;
            }
        }
        true
    }

    /// Appends a fresh singleton set and returns its index.
    ///
    /// Lets incremental callers grow the universe one element at a time
    /// (e.g. a streaming session infecting a node it has never seen)
    /// without rebuilding the structure.
    ///
    /// ```
    /// use isomit_forest::UnionFind;
    ///
    /// let mut uf = UnionFind::new(2);
    /// let c = uf.push();
    /// assert_eq!(c, 2);
    /// assert_eq!(uf.component_count(), 3);
    /// uf.union(0, c);
    /// assert!(uf.connected(0, 2));
    /// ```
    pub fn push(&mut self) -> usize {
        let id = self.parent.len();
        self.parent.push(id);
        self.rank.push(0);
        self.components += 1;
        id
    }

    /// Removes every element but keeps the allocation, so a caller that
    /// solves many small problems can refill one structure with
    /// [`push`](UnionFind::push) instead of allocating a new one each time.
    ///
    /// ```
    /// use isomit_forest::UnionFind;
    ///
    /// let mut uf = UnionFind::new(3);
    /// uf.union(0, 1);
    /// uf.clear();
    /// assert!(uf.is_empty());
    /// assert_eq!(uf.push(), 0);
    /// assert_eq!(uf.component_count(), 1);
    /// ```
    pub fn clear(&mut self) {
        self.parent.clear();
        self.rank.clear();
        self.components = 0;
    }

    /// `true` if `a` and `b` are in the same set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Number of disjoint sets.
    pub fn component_count(&self) -> usize {
        self.components
    }
}

/// Splits a directed graph into weakly connected components: maximal node
/// sets connected when edge directions are ignored (the paper's
/// Definition 6, *infected connected components*).
///
/// Runs one undirected BFS from every node no earlier search reached —
/// `O(n + m)` as in §III-E1. Components are returned in ascending order
/// of their smallest node id, and nodes within a component ascend too, so
/// output is deterministic.
///
/// ```
/// use isomit_forest::weakly_connected_components;
/// use isomit_graph::{Edge, NodeId, Sign, SignedDigraph};
///
/// # fn main() -> Result<(), isomit_graph::GraphError> {
/// let g = SignedDigraph::from_edges(
///     4,
///     [Edge::new(NodeId(0), NodeId(1), Sign::Positive, 0.5)],
/// )?;
/// let comps = weakly_connected_components(&g);
/// assert_eq!(comps.len(), 3); // {0, 1}, {2}, {3}
/// assert_eq!(comps[0], vec![NodeId(0), NodeId(1)]);
/// # Ok(())
/// # }
/// ```
pub fn weakly_connected_components(graph: &SignedDigraph) -> Vec<Vec<NodeId>> {
    let mut bfs = Bfs::default();
    let mut assigned = vec![false; graph.node_count()];
    let mut components = Vec::new();
    for start in graph.nodes() {
        if assigned.get(start.index()) == Some(&true) {
            continue;
        }
        let mut component: Vec<NodeId> = bfs
            .search(graph, &[start])
            .iter()
            .map(|visit| visit.node)
            .collect();
        for node in &component {
            if let Some(seen) = assigned.get_mut(node.index()) {
                *seen = true;
            }
        }
        component.sort_unstable();
        components.push(component);
    }
    components
}

#[cfg(test)]
mod tests {
    use super::*;
    use isomit_graph::{Edge, Sign};

    fn g(n: usize, edges: &[(u32, u32)]) -> SignedDigraph {
        SignedDigraph::from_edges(
            n,
            edges
                .iter()
                .map(|&(a, b)| Edge::new(NodeId(a), NodeId(b), Sign::Positive, 0.5)),
        )
        .unwrap()
    }

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.component_count(), 5);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert!(uf.union(1, 2));
        assert!(uf.connected(0, 2));
        assert!(!uf.connected(0, 4));
        assert_eq!(uf.component_count(), 3);
        assert_eq!(uf.len(), 5);
    }

    #[test]
    fn union_find_push_grows_the_universe() {
        let mut uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.push(), 0);
        assert_eq!(uf.push(), 1);
        assert_eq!(uf.len(), 2);
        assert_eq!(uf.component_count(), 2);
        assert!(uf.union(0, 1));
        assert_eq!(uf.component_count(), 1);
        let c = uf.push();
        assert_eq!(c, 2);
        assert_eq!(uf.component_count(), 2);
        assert!(!uf.connected(0, c));
        assert!(uf.union(c, 1));
        assert_eq!(uf.find(2), uf.find(0));
    }

    #[test]
    fn union_find_transitivity_over_long_chain() {
        let mut uf = UnionFind::new(100);
        for i in 0..99 {
            uf.union(i, i + 1);
        }
        assert!(uf.connected(0, 99));
        assert_eq!(uf.component_count(), 1);
    }

    #[test]
    fn direction_is_ignored() {
        // 0 -> 1 <- 2: weakly connected despite no directed path 0 -> 2.
        let g = g(3, &[(0, 1), (2, 1)]);
        let comps = weakly_connected_components(&g);
        assert_eq!(comps, vec![vec![NodeId(0), NodeId(1), NodeId(2)]]);
    }

    #[test]
    fn multiple_components_sorted() {
        let g = g(6, &[(4, 5), (1, 0)]);
        let comps = weakly_connected_components(&g);
        assert_eq!(
            comps,
            vec![
                vec![NodeId(0), NodeId(1)],
                vec![NodeId(2)],
                vec![NodeId(3)],
                vec![NodeId(4), NodeId(5)],
            ]
        );
    }

    #[test]
    fn empty_graph_has_no_components() {
        let g = g(0, &[]);
        assert!(weakly_connected_components(&g).is_empty());
    }

    #[test]
    fn cycle_is_one_component() {
        let g = g(3, &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(weakly_connected_components(&g).len(), 1);
    }

    #[test]
    fn components_partition_the_node_set() {
        let g = g(8, &[(0, 3), (3, 6), (1, 2), (5, 7)]);
        let comps = weakly_connected_components(&g);
        let mut all: Vec<NodeId> = comps.into_iter().flatten().collect();
        all.sort_unstable();
        let expected: Vec<NodeId> = g.nodes().collect();
        assert_eq!(all, expected);
    }
}
