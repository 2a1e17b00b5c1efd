use crate::SignedDigraph;
use std::fmt;

/// Summary of a degree distribution (over in- or out-degrees).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeStats {
    /// Smallest degree.
    pub min: usize,
    /// Largest degree.
    pub max: usize,
    /// Arithmetic mean degree.
    pub mean: f64,
}

impl DegreeStats {
    fn from_degrees(degrees: impl Iterator<Item = usize>) -> Self {
        let mut min = usize::MAX;
        let mut max = 0usize;
        let mut sum = 0usize;
        let mut n = 0usize;
        for d in degrees {
            min = min.min(d);
            max = max.max(d);
            sum += d;
            n += 1;
        }
        if n == 0 {
            DegreeStats {
                min: 0,
                max: 0,
                mean: 0.0,
            }
        } else {
            DegreeStats {
                min,
                max,
                mean: sum as f64 / n as f64,
            }
        }
    }
}

/// Basic statistics of a signed digraph, in the spirit of the paper's
/// Table II (nodes, links, link type) extended with sign and degree
/// information.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of directed edges.
    pub edges: usize,
    /// Number of positive edges.
    pub positive_edges: usize,
    /// Fraction of positive edges (`0.0` if there are no edges).
    pub positive_fraction: f64,
    /// Out-degree summary.
    pub out_degree: DegreeStats,
    /// In-degree summary.
    pub in_degree: DegreeStats,
}

/// Fraction of directed edges `(u, v)` whose reverse `(v, u)` also
/// exists; `0.0` on an empty edge set. Trust networks are strongly
/// reciprocal, which is what gives late-joining nodes followers (and
/// therefore diffusion reach) — see the dataset generators.
///
/// # Examples
///
/// ```
/// use isomit_graph::{reciprocity, Edge, NodeId, Sign, SignedDigraph};
/// # fn main() -> Result<(), isomit_graph::GraphError> {
/// // One reciprocated pair out of three directed edges.
/// let g = SignedDigraph::from_edges(
///     3,
///     [
///         Edge::new(NodeId(0), NodeId(1), Sign::Positive, 0.5),
///         Edge::new(NodeId(1), NodeId(0), Sign::Positive, 0.5),
///         Edge::new(NodeId(1), NodeId(2), Sign::Negative, 0.5),
///     ],
/// )?;
/// assert!((reciprocity(&g) - 2.0 / 3.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn reciprocity(graph: &SignedDigraph) -> f64 {
    if graph.edge_count() == 0 {
        return 0.0;
    }
    let reciprocated = graph
        .edges()
        .filter(|e| graph.has_edge(e.dst, e.src))
        .count();
    reciprocated as f64 / graph.edge_count() as f64
}

/// Transitivity of the directed graph viewed as undirected: closed
/// wedges / all wedges, computed exactly over every node's undirected
/// neighbourhood. This is the clustering that makes Jaccard weights
/// non-zero (DESIGN.md §5).
///
/// Quadratic in degree per node — intended for generated-network
/// validation, not for full-scale graphs (sample first).
///
/// # Examples
///
/// ```
/// use isomit_graph::{global_clustering, Edge, NodeId, Sign, SignedDigraph};
/// # fn main() -> Result<(), isomit_graph::GraphError> {
/// // A directed triangle is fully clustered when viewed as undirected.
/// let g = SignedDigraph::from_edges(
///     3,
///     [
///         Edge::new(NodeId(0), NodeId(1), Sign::Positive, 0.5),
///         Edge::new(NodeId(1), NodeId(2), Sign::Positive, 0.5),
///         Edge::new(NodeId(2), NodeId(0), Sign::Positive, 0.5),
///     ],
/// )?;
/// assert_eq!(global_clustering(&g), 1.0);
/// # Ok(())
/// # }
/// ```
pub fn global_clustering(graph: &SignedDigraph) -> f64 {
    let mut wedges = 0u64;
    let mut closed = 0u64;
    for u in graph.nodes() {
        // Undirected neighbourhood (deduplicated, sorted merge).
        let mut nbrs: Vec<_> = graph
            .out_neighbors(u)
            .iter()
            .chain(graph.in_neighbors(u))
            .copied()
            .collect();
        nbrs.sort_unstable();
        nbrs.dedup();
        for (i, &a) in nbrs.iter().enumerate() {
            for &b in nbrs.iter().skip(i + 1) {
                wedges += 1;
                if graph.has_edge(a, b) || graph.has_edge(b, a) {
                    closed += 1;
                }
            }
        }
    }
    if wedges == 0 {
        0.0
    } else {
        closed as f64 / wedges as f64
    }
}

impl GraphStats {
    /// Computes statistics for `graph` in one pass over nodes.
    ///
    /// ```
    /// use isomit_graph::{Edge, GraphStats, NodeId, Sign, SignedDigraph};
    /// # fn main() -> Result<(), isomit_graph::GraphError> {
    /// let g = SignedDigraph::from_edges(
    ///     3,
    ///     [Edge::new(NodeId(0), NodeId(1), Sign::Positive, 0.5)],
    /// )?;
    /// let stats = GraphStats::compute(&g);
    /// assert_eq!(stats.nodes, 3);
    /// assert_eq!(stats.positive_edges, 1);
    /// # Ok(())
    /// # }
    /// ```
    pub fn compute(graph: &SignedDigraph) -> Self {
        GraphStats {
            nodes: graph.node_count(),
            edges: graph.edge_count(),
            positive_edges: graph.positive_edge_count(),
            positive_fraction: graph.positive_edge_fraction(),
            out_degree: DegreeStats::from_degrees(graph.nodes().map(|u| graph.out_degree(u))),
            in_degree: DegreeStats::from_degrees(graph.nodes().map(|u| graph.in_degree(u))),
        }
    }
}

impl fmt::Display for GraphStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} nodes, {} edges ({:.1}% positive), out-degree mean {:.2} max {}, in-degree mean {:.2} max {}",
            self.nodes,
            self.edges,
            self.positive_fraction * 100.0,
            self.out_degree.mean,
            self.out_degree.max,
            self.in_degree.mean,
            self.in_degree.max,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Edge, NodeId, Sign};

    #[test]
    fn stats_on_small_graph() {
        let g = SignedDigraph::from_edges(
            4,
            [
                Edge::new(NodeId(0), NodeId(1), Sign::Positive, 0.5),
                Edge::new(NodeId(0), NodeId(2), Sign::Negative, 0.5),
                Edge::new(NodeId(1), NodeId(2), Sign::Positive, 0.5),
            ],
        )
        .unwrap();
        let s = GraphStats::compute(&g);
        assert_eq!(s.nodes, 4);
        assert_eq!(s.edges, 3);
        assert_eq!(s.positive_edges, 2);
        assert!((s.positive_fraction - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.out_degree.max, 2);
        assert_eq!(s.out_degree.min, 0);
        assert!((s.out_degree.mean - 0.75).abs() < 1e-12);
        assert_eq!(s.in_degree.max, 2);
    }

    #[test]
    fn stats_on_empty_graph() {
        let g = SignedDigraph::from_edges(0, []).unwrap();
        let s = GraphStats::compute(&g);
        assert_eq!(s.nodes, 0);
        assert_eq!(s.edges, 0);
        assert_eq!(
            s.out_degree,
            DegreeStats {
                min: 0,
                max: 0,
                mean: 0.0
            }
        );
    }

    #[test]
    fn reciprocity_counts_mutual_pairs() {
        let g = SignedDigraph::from_edges(
            3,
            [
                Edge::new(NodeId(0), NodeId(1), Sign::Positive, 0.5),
                Edge::new(NodeId(1), NodeId(0), Sign::Negative, 0.5),
                Edge::new(NodeId(1), NodeId(2), Sign::Positive, 0.5),
            ],
        )
        .unwrap();
        // Two of three edges are reciprocated.
        assert!((reciprocity(&g) - 2.0 / 3.0).abs() < 1e-12);
        let empty = SignedDigraph::from_edges(2, []).unwrap();
        assert_eq!(reciprocity(&empty), 0.0);
    }

    #[test]
    fn clustering_of_triangle_is_one() {
        let g = SignedDigraph::from_edges(
            3,
            [
                Edge::new(NodeId(0), NodeId(1), Sign::Positive, 0.5),
                Edge::new(NodeId(1), NodeId(2), Sign::Positive, 0.5),
                Edge::new(NodeId(2), NodeId(0), Sign::Positive, 0.5),
            ],
        )
        .unwrap();
        assert!((global_clustering(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clustering_of_star_is_zero() {
        let g = SignedDigraph::from_edges(
            4,
            (1..4).map(|i| Edge::new(NodeId(0), NodeId(i), Sign::Positive, 0.5)),
        )
        .unwrap();
        assert_eq!(global_clustering(&g), 0.0);
    }

    #[test]
    fn display_mentions_counts() {
        let g =
            SignedDigraph::from_edges(2, [Edge::new(NodeId(0), NodeId(1), Sign::Positive, 1.0)])
                .unwrap();
        let text = GraphStats::compute(&g).to_string();
        assert!(text.contains("2 nodes"));
        assert!(text.contains("1 edges"));
        assert!(text.contains("100.0% positive"));
    }
}
