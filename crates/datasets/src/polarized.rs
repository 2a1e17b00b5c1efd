//! A polarized-community signed network generator: the adversarial
//! "friend/foe camps" structure that motivates signed-network analysis
//! (dense trust inside camps, distrust across) — structural balance
//! theory's archetype and a natural stress test for rumor detection,
//! since opinions align with camp boundaries.

use isomit_graph::{NodeId, Sign, SignedDigraph, SignedDigraphBuilder};
use rand::Rng;
use std::collections::BTreeSet;

/// Configuration of the polarized-community generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolarizedConfig {
    /// Total number of nodes, split evenly across camps.
    pub nodes: usize,
    /// Number of camps (≥ 2).
    pub communities: usize,
    /// Average out-degree per node.
    pub mean_out_degree: f64,
    /// Fraction of a node's edges that stay inside its camp.
    pub intra_fraction: f64,
    /// Probability that an intra-camp edge is positive (trust is the
    /// norm inside a camp).
    pub intra_positive: f64,
    /// Probability that an inter-camp edge is positive (distrust is the
    /// norm across camps).
    pub inter_positive: f64,
}

impl Default for PolarizedConfig {
    fn default() -> Self {
        PolarizedConfig {
            nodes: 1000,
            communities: 2,
            mean_out_degree: 8.0,
            intra_fraction: 0.85,
            intra_positive: 0.95,
            inter_positive: 0.15,
        }
    }
}

impl PolarizedConfig {
    fn validate(&self) {
        assert!(self.communities >= 2, "need at least 2 camps");
        assert!(
            self.nodes >= 2 * self.communities,
            "need at least 2 nodes per camp"
        );
        assert!(
            self.mean_out_degree > 0.0,
            "mean_out_degree must be positive"
        );
        for (name, v) in [
            ("intra_fraction", self.intra_fraction),
            ("intra_positive", self.intra_positive),
            ("inter_positive", self.inter_positive),
        ] {
            assert!((0.0..=1.0).contains(&v), "{name} must lie in [0, 1]");
        }
    }
}

/// The camp (community index) of each node under [`polarized_communities`]:
/// node `v` belongs to camp `v % communities`.
pub fn camp_of(node: NodeId, communities: usize) -> usize {
    node.index() % communities
}

/// Generates a polarized signed social network per [`PolarizedConfig`].
/// All edge weights are `1.0`; apply
/// [`paper_weights`](crate::paper_weights) afterwards.
///
/// # Panics
///
/// Panics on invalid configuration.
pub fn polarized_communities<R: Rng + ?Sized>(
    config: &PolarizedConfig,
    rng: &mut R,
) -> SignedDigraph {
    config.validate();
    let n = config.nodes;
    let c = config.communities;
    let mut builder = SignedDigraphBuilder::with_nodes(n)
        .with_edge_capacity((config.mean_out_degree * n as f64) as usize);
    let mut chosen: BTreeSet<u32> = BTreeSet::new();
    let max_m = (2.0 * config.mean_out_degree).max(1.0);
    for v in 0..n {
        let my_camp = v % c;
        let m = ((rng.gen_range(0.0..max_m) + 0.5) as usize).clamp(1, n - 1);
        chosen.clear();
        let mut attempts = 0;
        while chosen.len() < m && attempts < 30 * m {
            attempts += 1;
            let intra = rng.gen_bool(config.intra_fraction);
            // Sample a target in the right camp: targets of camp q are
            // the nodes ≡ q (mod c).
            let target_camp = if intra {
                my_camp
            } else {
                let mut other = rng.gen_range(0..c - 1);
                if other >= my_camp {
                    other += 1;
                }
                other
            };
            let per_camp = n.div_ceil(c);
            let slot = rng.gen_range(0..per_camp);
            let target = slot * c + target_camp;
            if target >= n || target == v {
                continue;
            }
            chosen.insert(u32::from(NodeId::from_index(target)));
        }
        let mut targets: Vec<u32> = chosen.iter().copied().collect();
        targets.sort_unstable();
        for target in targets {
            let intra = target as usize % c == my_camp;
            let p_pos = if intra {
                config.intra_positive
            } else {
                config.inter_positive
            };
            let sign = if rng.gen_bool(p_pos) {
                Sign::Positive
            } else {
                Sign::Negative
            };
            builder
                .add_edge(NodeId::from_index(v), NodeId(target), sign, 1.0)
                .expect("generated edges are valid");
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn respects_basic_shape() {
        let cfg = PolarizedConfig {
            nodes: 600,
            ..PolarizedConfig::default()
        };
        let g = polarized_communities(&cfg, &mut rng(1));
        assert_eq!(g.node_count(), 600);
        let mean = g.edge_count() as f64 / g.node_count() as f64;
        assert!((mean - 8.0).abs() < 2.0, "mean degree {mean}");
    }

    #[test]
    fn trust_concentrates_inside_camps() {
        let cfg = PolarizedConfig {
            nodes: 2000,
            ..PolarizedConfig::default()
        };
        let g = polarized_communities(&cfg, &mut rng(2));
        let (mut intra_pos, mut intra_tot, mut inter_pos, mut inter_tot) = (0, 0, 0, 0);
        for e in g.edges() {
            let same = camp_of(e.src, 2) == camp_of(e.dst, 2);
            if same {
                intra_tot += 1;
                if e.sign.is_positive() {
                    intra_pos += 1;
                }
            } else {
                inter_tot += 1;
                if e.sign.is_positive() {
                    inter_pos += 1;
                }
            }
        }
        let intra_rate = intra_pos as f64 / intra_tot as f64;
        let inter_rate = inter_pos as f64 / inter_tot as f64;
        assert!(intra_rate > 0.9, "intra positive rate {intra_rate}");
        assert!(inter_rate < 0.25, "inter positive rate {inter_rate}");
        // Most edges are intra-camp.
        assert!(intra_tot > 3 * inter_tot);
    }

    #[test]
    fn camp_assignment_is_modular() {
        assert_eq!(camp_of(NodeId(0), 3), 0);
        assert_eq!(camp_of(NodeId(7), 3), 1);
        assert_eq!(camp_of(NodeId(11), 3), 2);
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = PolarizedConfig::default();
        assert_eq!(
            polarized_communities(&cfg, &mut rng(9)),
            polarized_communities(&cfg, &mut rng(9))
        );
    }

    #[test]
    #[should_panic(expected = "at least 2 camps")]
    fn one_camp_rejected() {
        let cfg = PolarizedConfig {
            communities: 1,
            ..PolarizedConfig::default()
        };
        polarized_communities(&cfg, &mut rng(0));
    }

    #[test]
    fn many_camps_work() {
        let cfg = PolarizedConfig {
            nodes: 300,
            communities: 5,
            ..PolarizedConfig::default()
        };
        let g = polarized_communities(&cfg, &mut rng(3));
        assert_eq!(g.node_count(), 300);
        assert!(g.edge_count() > 0);
    }
}
