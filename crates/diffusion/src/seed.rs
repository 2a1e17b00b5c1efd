use crate::DiffusionError;
use isomit_graph::{NodeId, Sign, SignedDigraph};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::BTreeSet;

/// A set of rumor initiators with their initial opinions — the paper's
/// `(I, S)` pair.
///
/// Seed sets are ordered (simulation processes them in insertion order for
/// determinism) and contain no duplicate nodes.
///
/// ```
/// use isomit_diffusion::SeedSet;
/// use isomit_graph::{NodeId, Sign};
///
/// # fn main() -> Result<(), isomit_diffusion::DiffusionError> {
/// let seeds = SeedSet::from_pairs([
///     (NodeId(3), Sign::Positive),
///     (NodeId(7), Sign::Negative),
/// ])?;
/// assert_eq!(seeds.len(), 2);
/// assert_eq!(seeds.state_of(NodeId(7)), Some(Sign::Negative));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SeedSet {
    seeds: Vec<(NodeId, Sign)>,
}

impl SeedSet {
    /// Creates an empty seed set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a seed set holding a single initiator.
    pub fn single(node: NodeId, state: Sign) -> Self {
        SeedSet {
            seeds: vec![(node, state)],
        }
    }

    /// Builds a seed set from `(node, initial state)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`DiffusionError::DuplicateSeed`] if a node appears twice.
    pub fn from_pairs<I>(pairs: I) -> Result<Self, DiffusionError>
    where
        I: IntoIterator<Item = (NodeId, Sign)>,
    {
        let mut seen = BTreeSet::new();
        let mut seeds = Vec::new();
        for (node, state) in pairs {
            if !seen.insert(node) {
                return Err(DiffusionError::DuplicateSeed(node));
            }
            seeds.push((node, state));
        }
        Ok(SeedSet { seeds })
    }

    /// Samples `n` distinct initiators uniformly at random from `graph`
    /// and assigns `⌈n·positive_ratio⌉` of them the positive state — the
    /// paper's experimental setup (§IV-B3, parameters `N` and `θ`).
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the number of nodes or if `positive_ratio`
    /// is outside `[0, 1]`.
    pub fn sample<R: Rng + ?Sized>(
        graph: &SignedDigraph,
        n: usize,
        positive_ratio: f64,
        rng: &mut R,
    ) -> Self {
        assert!(
            n <= graph.node_count(),
            "cannot sample {n} seeds from {} nodes",
            graph.node_count()
        );
        assert!(
            (0.0..=1.0).contains(&positive_ratio),
            "positive_ratio {positive_ratio} must lie in [0, 1]"
        );
        let mut nodes: Vec<NodeId> = graph.nodes().collect();
        nodes.shuffle(rng);
        nodes.truncate(n);
        let positives = (n as f64 * positive_ratio).round() as usize;
        let seeds = nodes
            .into_iter()
            .enumerate()
            .map(|(i, node)| {
                let sign = if i < positives {
                    Sign::Positive
                } else {
                    Sign::Negative
                };
                (node, sign)
            })
            .collect();
        SeedSet { seeds }
    }

    /// Number of initiators.
    pub fn len(&self) -> usize {
        self.seeds.len()
    }

    /// `true` if there are no initiators.
    pub fn is_empty(&self) -> bool {
        self.seeds.is_empty()
    }

    /// Iterates over `(node, initial state)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, Sign)> + '_ {
        self.seeds.iter().copied()
    }

    /// The initiator nodes, in insertion order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.seeds.iter().map(|&(n, _)| n)
    }

    /// Initial state of `node`, if it is an initiator.
    pub fn state_of(&self, node: NodeId) -> Option<Sign> {
        self.seeds
            .iter()
            .find(|&&(n, _)| n == node)
            .map(|&(_, s)| s)
    }

    /// `true` if `node` is one of the initiators.
    pub fn contains(&self, node: NodeId) -> bool {
        self.state_of(node).is_some()
    }

    /// Validates the seed set against a network.
    ///
    /// # Errors
    ///
    /// Returns [`DiffusionError::SeedOutOfBounds`] if any seed lies
    /// outside `graph`.
    pub fn validate_against(&self, graph: &SignedDigraph) -> Result<(), DiffusionError> {
        for (node, _) in self.iter() {
            if !graph.contains(node) {
                return Err(DiffusionError::SeedOutOfBounds {
                    node,
                    node_count: graph.node_count(),
                });
            }
        }
        Ok(())
    }

    /// Fraction of initiators with the positive state; `0.0` when empty.
    pub fn positive_ratio(&self) -> f64 {
        if self.seeds.is_empty() {
            return 0.0;
        }
        let pos = self.seeds.iter().filter(|(_, s)| s.is_positive()).count();
        pos as f64 / self.seeds.len() as f64
    }
}

impl FromIterator<(NodeId, Sign)> for SeedSet {
    /// Collects pairs into a seed set, panicking on duplicates. Use
    /// [`SeedSet::from_pairs`] for fallible construction.
    fn from_iter<T: IntoIterator<Item = (NodeId, Sign)>>(iter: T) -> Self {
        SeedSet::from_pairs(iter).expect("duplicate seed in FromIterator")
    }
}

impl<'a> IntoIterator for &'a SeedSet {
    type Item = (NodeId, Sign);
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, (NodeId, Sign)>>;

    fn into_iter(self) -> Self::IntoIter {
        self.seeds.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isomit_graph::{Edge, SignedDigraphBuilder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn graph(n: usize) -> SignedDigraph {
        let mut b = SignedDigraphBuilder::with_nodes(n);
        b.extend(
            (0..n as u32 - 1).map(|i| Edge::new(NodeId(i), NodeId(i + 1), Sign::Positive, 0.5)),
        );
        b.build()
    }

    #[test]
    fn duplicate_seed_rejected() {
        let err = SeedSet::from_pairs([(NodeId(1), Sign::Positive), (NodeId(1), Sign::Negative)])
            .unwrap_err();
        assert_eq!(err, DiffusionError::DuplicateSeed(NodeId(1)));
    }

    #[test]
    fn sample_respects_count_and_ratio() {
        let g = graph(100);
        let mut rng = StdRng::seed_from_u64(1);
        let seeds = SeedSet::sample(&g, 40, 0.25, &mut rng);
        assert_eq!(seeds.len(), 40);
        let positives = seeds.iter().filter(|(_, s)| s.is_positive()).count();
        assert_eq!(positives, 10);
        // Distinct nodes.
        let distinct: BTreeSet<_> = seeds.nodes().collect();
        assert_eq!(distinct.len(), 40);
    }

    #[test]
    fn sample_is_deterministic_per_seed() {
        let g = graph(50);
        let a = SeedSet::sample(&g, 10, 0.5, &mut StdRng::seed_from_u64(9));
        let b = SeedSet::sample(&g, 10, 0.5, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn sample_extreme_ratios() {
        let g = graph(10);
        let mut rng = StdRng::seed_from_u64(2);
        assert!((SeedSet::sample(&g, 5, 1.0, &mut rng).positive_ratio() - 1.0).abs() < 1e-12);
        assert_eq!(SeedSet::sample(&g, 5, 0.0, &mut rng).positive_ratio(), 0.0);
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn sample_too_many_panics() {
        let g = graph(5);
        SeedSet::sample(&g, 6, 0.5, &mut StdRng::seed_from_u64(0));
    }

    #[test]
    fn validate_detects_out_of_bounds() {
        let g = graph(5);
        let seeds = SeedSet::single(NodeId(99), Sign::Positive);
        assert!(matches!(
            seeds.validate_against(&g),
            Err(DiffusionError::SeedOutOfBounds { .. })
        ));
        assert!(SeedSet::single(NodeId(4), Sign::Positive)
            .validate_against(&g)
            .is_ok());
    }

    #[test]
    fn lookup_helpers() {
        let seeds = SeedSet::from_pairs([(NodeId(2), Sign::Negative)]).unwrap();
        assert!(seeds.contains(NodeId(2)));
        assert!(!seeds.contains(NodeId(3)));
        assert_eq!(seeds.state_of(NodeId(2)), Some(Sign::Negative));
        assert!(!seeds.is_empty());
        assert!(SeedSet::new().is_empty());
    }

    #[test]
    fn iteration_order_is_insertion_order() {
        let pairs = [
            (NodeId(5), Sign::Positive),
            (NodeId(1), Sign::Negative),
            (NodeId(9), Sign::Positive),
        ];
        let seeds: SeedSet = pairs.into_iter().collect();
        let back: Vec<_> = (&seeds).into_iter().collect();
        assert_eq!(back, pairs);
    }
}
