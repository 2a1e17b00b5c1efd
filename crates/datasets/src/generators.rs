// lint:allow-file(cast-truncation) generator node ids are loop indices over the configured node count, which SignedDigraphBuilder re-validates against u32::MAX on every add_edge; a truncated id would fail graph construction, not corrupt it
use isomit_graph::{Edge, NodeId, Sign, SignedDigraph, SignedDigraphBuilder};
use rand::Rng;
// lint:allow(determinism) HashSet is used for insert-only membership tests (duplicate-edge rejection), never iterated, so hash order cannot leak into the output
use std::collections::{BTreeSet, HashSet};

/// Configuration of the preferential-attachment signed digraph generator.
///
/// The generator grows the network one node at a time; each new node
/// emits a random number of edges (mean [`mean_out_degree`]) whose
/// targets are drawn from a degree-proportional pool (with a
/// [`uniform_edge_fraction`] escape hatch to uniform targets), giving a
/// heavy-tailed in-degree distribution like Epinions'/Slashdot's.
///
/// Signs model the empirical observation that distrust concentrates on a
/// minority of controversial accounts: a [`distrusted_fraction`] of the
/// nodes receive negative edges with elevated probability, calibrated so
/// the overall negative-edge fraction is `1 − positive_fraction`.
///
/// [`mean_out_degree`]: PaConfig::mean_out_degree
/// [`uniform_edge_fraction`]: PaConfig::uniform_edge_fraction
/// [`distrusted_fraction`]: PaConfig::distrusted_fraction
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaConfig {
    /// Number of nodes to generate.
    pub nodes: usize,
    /// Average number of outgoing edges per node.
    pub mean_out_degree: f64,
    /// Target fraction of positive (trust) edges.
    pub positive_fraction: f64,
    /// Fraction of nodes that concentrate distrust.
    pub distrusted_fraction: f64,
    /// How much more likely a distrusted node is to receive a negative
    /// edge (multiplier on the base negative rate, capped at 0.95).
    pub distrust_concentration: f64,
    /// Fraction of edges whose target is drawn uniformly instead of
    /// preferentially.
    pub uniform_edge_fraction: f64,
    /// Triadic-closure probability: after following `t`, the chance of
    /// also following one of `t`'s existing followers. Closure creates
    /// the `Γ_out(v) ∩ Γ_in(u)` overlaps that give social links non-zero
    /// Jaccard coefficients, matching the strong clustering of the real
    /// Epinions/Slashdot graphs (without it, the paper's §IV-B3
    /// weighting degenerates to the uniform `(0, 0.1]` fill everywhere).
    pub closure_probability: f64,
    /// Probability that a new follow edge is reciprocated (`t` follows
    /// `v` back). Trust networks are strongly reciprocal; without this,
    /// late-joining nodes have no followers at all and can never spread
    /// information in the reversed (diffusion) orientation.
    pub reciprocity: f64,
}

impl PaConfig {
    fn validate(&self) {
        assert!(self.nodes >= 2, "need at least 2 nodes");
        assert!(
            self.mean_out_degree > 0.0,
            "mean_out_degree must be positive"
        );
        assert!(
            (0.0..=1.0).contains(&self.positive_fraction),
            "positive_fraction must lie in [0, 1]"
        );
        assert!(
            (0.0..1.0).contains(&self.distrusted_fraction),
            "distrusted_fraction must lie in [0, 1)"
        );
        assert!(
            self.distrust_concentration >= 1.0,
            "distrust_concentration must be >= 1"
        );
        assert!(
            (0.0..=1.0).contains(&self.uniform_edge_fraction),
            "uniform_edge_fraction must lie in [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&self.closure_probability),
            "closure_probability must lie in [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&self.reciprocity),
            "reciprocity must lie in [0, 1]"
        );
    }
}

/// Generates a signed directed network by preferential attachment per
/// [`PaConfig`]. All edge weights are `1.0`; apply
/// [`paper_weights`](crate::paper_weights) (or any custom scheme)
/// afterwards.
///
/// # Panics
///
/// Panics on invalid configuration (see [`PaConfig`] field docs).
pub fn preferential_attachment_signed<R: Rng + ?Sized>(
    config: &PaConfig,
    rng: &mut R,
) -> SignedDigraph {
    config.validate();
    let n = config.nodes;
    // Calibrate per-target negative rates so the expected global negative
    // fraction is 1 - positive_fraction.
    let q = 1.0 - config.positive_fraction;
    let f = config.distrusted_fraction;
    let p_hi = (q * config.distrust_concentration).min(0.95);
    // Clamp both rates into [0, 1]: with extreme `positive_fraction`
    // the concentration cap on `p_hi` pushes the compensating `p_lo`
    // past 1.
    let p_lo = ((q - f * p_hi) / (1.0 - f)).clamp(0.0, 1.0);

    let distrusted: Vec<bool> = (0..n).map(|_| rng.gen_bool(f.max(0.0))).collect();
    let mut builder = SignedDigraphBuilder::with_nodes(n)
        .with_edge_capacity((config.mean_out_degree * n as f64) as usize + n);
    // Degree-proportional attachment pool (node repeated once per
    // incident edge endpoint) and follower lists for triadic closure.
    let mut pool: Vec<u32> = Vec::with_capacity(2 * (config.mean_out_degree as usize + 1) * n);
    let mut followers: Vec<Vec<u32>> = vec![Vec::new(); n];

    let sign_for = |target: usize, rng: &mut R| -> Sign {
        let p_neg = if distrusted[target] { p_hi } else { p_lo };
        if rng.gen_bool(p_neg) {
            Sign::Negative
        } else {
            Sign::Positive
        }
    };

    // Seed core: a directed triangle (or a single edge for n = 2).
    let core = 3.min(n);
    for i in 0..core {
        let j = (i + 1) % core;
        if i == j {
            continue;
        }
        let sign = sign_for(j, rng);
        builder
            .add_edge(NodeId(i as u32), NodeId(j as u32), sign, 1.0)
            .expect("core edges are valid");
        pool.push(i as u32);
        pool.push(j as u32);
        followers[j].push(i as u32);
    }

    // Out-degree distribution: uniform over 1..=2·mean − 1 (mean ≈
    // mean_out_degree), clamped to the number of available targets.
    // Closure edges come on top, so the base mean is scaled down to keep
    // the configured overall mean.
    let base_mean =
        config.mean_out_degree / ((1.0 + config.closure_probability) * (1.0 + config.reciprocity));
    let max_m = (2.0 * base_mean).max(1.0);
    let mut chosen: BTreeSet<u32> = BTreeSet::new();
    let mut closure_extra: BTreeSet<u32> = BTreeSet::new();
    for v in core..n {
        // Continuous draw keeps the configured mean exactly even when
        // 2·base_mean is not an integer.
        let m = ((rng.gen_range(0.0..max_m) + 0.5) as usize).clamp(1, v);
        chosen.clear();
        closure_extra.clear();
        let mut attempts = 0;
        while chosen.len() < m && attempts < 20 * m {
            attempts += 1;
            let target = if pool.is_empty() || rng.gen_bool(config.uniform_edge_fraction) {
                rng.gen_range(0..v) as u32
            } else {
                pool[rng.gen_range(0..pool.len())]
            };
            if target as usize == v || target as usize >= v {
                continue;
            }
            chosen.insert(target);
            // Triadic closure: also follow one of the target's followers,
            // forming the v -> w, w -> t, v -> t triangle that gives the
            // (v, t) link a non-zero Jaccard coefficient. Closure edges
            // are extra, on top of the m base edges.
            if rng.gen_bool(config.closure_probability) {
                let fs = &followers[target as usize];
                if !fs.is_empty() {
                    let w = fs[rng.gen_range(0..fs.len())];
                    if w as usize != v {
                        closure_extra.insert(w);
                    }
                }
            }
        }
        chosen.extend(closure_extra.iter().copied());
        // BTreeSet iterates in sorted order, so the per-edge sign draws
        // consume the RNG stream in a platform-independent order.
        let targets: Vec<u32> = chosen.iter().copied().collect();
        for target in targets {
            let sign = sign_for(target as usize, rng);
            builder
                .add_edge(NodeId(v as u32), NodeId(target), sign, 1.0)
                .expect("generated edges are valid");
            pool.push(v as u32);
            pool.push(target);
            followers[target as usize].push(v as u32);
            if rng.gen_bool(config.reciprocity) {
                let back_sign = sign_for(v, rng);
                builder
                    .add_edge(NodeId(target), NodeId(v as u32), back_sign, 1.0)
                    .expect("generated edges are valid");
                pool.push(target);
                pool.push(v as u32);
                followers[v].push(target);
            }
        }
    }
    builder.build()
}

/// Erdős–Rényi-style signed digraph: `edges` distinct directed pairs
/// chosen uniformly, each positive with probability `positive_fraction`.
/// Weights are `1.0`.
///
/// # Panics
///
/// Panics if `nodes < 2`, if `edges` exceeds `nodes·(nodes−1)`, or if
/// `positive_fraction` is outside `[0, 1]`.
pub fn erdos_renyi_signed<R: Rng + ?Sized>(
    nodes: usize,
    edges: usize,
    positive_fraction: f64,
    rng: &mut R,
) -> SignedDigraph {
    assert!(nodes >= 2, "need at least 2 nodes");
    assert!(
        edges <= nodes * (nodes - 1),
        "{edges} edges exceed the {nodes}-node simple digraph capacity"
    );
    assert!(
        (0.0..=1.0).contains(&positive_fraction),
        "positive_fraction must lie in [0, 1]"
    );
    let mut builder = SignedDigraphBuilder::with_nodes(nodes).with_edge_capacity(edges);
    let mut used: BTreeSet<(u32, u32)> = BTreeSet::new();
    while used.len() < edges {
        let src = rng.gen_range(0..nodes) as u32;
        let dst = rng.gen_range(0..nodes) as u32;
        if src == dst || !used.insert((src, dst)) {
            continue;
        }
        let sign = if rng.gen_bool(positive_fraction) {
            Sign::Positive
        } else {
            Sign::Negative
        };
        builder
            .add_edge(NodeId(src), NodeId(dst), sign, 1.0)
            .expect("generated edges are valid");
    }
    builder.build()
}

/// Epinions statistics from the paper's Table II and the SNAP dataset
/// page: 131,828 nodes, 841,372 directed links, ~85.3% positive.
pub const EPINIONS_NODES: usize = 131_828;
/// Epinions directed link count (Table II).
pub const EPINIONS_EDGES: usize = 841_372;
/// Slashdot statistics (Table II): 77,350 nodes, 516,575 links, ~77.4%
/// positive.
pub const SLASHDOT_NODES: usize = 77_350;
/// Slashdot directed link count (Table II).
pub const SLASHDOT_EDGES: usize = 516_575;

fn scaled_config(
    nodes: usize,
    edges: usize,
    positive: f64,
    scale: f64,
    edge_loss_compensation: f64,
) -> PaConfig {
    assert!(scale > 0.0 && scale <= 1.0, "scale must lie in (0, 1]");
    let n = ((nodes as f64 * scale) as usize).max(16);
    PaConfig {
        nodes: n,
        // The generator loses part of its nominal edges to per-node
        // target dedup, the early-node clamp and closure misses; the
        // per-preset compensation factor is calibrated empirically so
        // the realized edge count matches Table II.
        mean_out_degree: edge_loss_compensation * edges as f64 / nodes as f64,
        positive_fraction: positive,
        distrusted_fraction: 0.15,
        distrust_concentration: 3.0,
        uniform_edge_fraction: 0.2,
        closure_probability: 0.6,
        reciprocity: 0.35,
    }
}

/// A full-scale Epinions-like signed social network (Table II shape:
/// ~131.8k nodes, ~841k directed links, ~85% positive).
pub fn epinions_like<R: Rng + ?Sized>(rng: &mut R) -> SignedDigraph {
    epinions_like_scaled(1.0, rng)
}

/// An Epinions-like network scaled down to `scale · 131,828` nodes with
/// the same mean degree and sign profile — for fast experiments.
///
/// # Panics
///
/// Panics unless `0 < scale <= 1`.
pub fn epinions_like_scaled<R: Rng + ?Sized>(scale: f64, rng: &mut R) -> SignedDigraph {
    preferential_attachment_signed(
        &scaled_config(EPINIONS_NODES, EPINIONS_EDGES, 0.853, scale, 0.98),
        rng,
    )
}

/// A full-scale Slashdot-like signed social network (Table II shape:
/// ~77.3k nodes, ~516k directed links, ~77% positive).
pub fn slashdot_like<R: Rng + ?Sized>(rng: &mut R) -> SignedDigraph {
    slashdot_like_scaled(1.0, rng)
}

/// A Slashdot-like network scaled down to `scale · 77,350` nodes.
///
/// # Panics
///
/// Panics unless `0 < scale <= 1`.
pub fn slashdot_like_scaled<R: Rng + ?Sized>(scale: f64, rng: &mut R) -> SignedDigraph {
    preferential_attachment_signed(
        &scaled_config(SLASHDOT_NODES, SLASHDOT_EDGES, 0.774, scale, 1.0),
        rng,
    )
}

/// A deterministic SNAP-scale signed digraph: exactly `edges` distinct
/// directed links over `nodes` nodes, grown by preferential attachment
/// so in-degrees are heavy-tailed like the real `soc-sign` dumps, with
/// `sign_fraction` of the links positive (in expectation) and every
/// weight `1.0` (the SNAP format is unweighted; re-weight with
/// [`paper_weights`](crate::paper_weights) afterwards).
///
/// Unlike [`preferential_attachment_signed`], which takes a caller
/// RNG and realizes edge counts only approximately, this generator seeds
/// its own [`StdRng`](rand::rngs::StdRng) from `seed` and tops attachment
/// up with rejection
/// sampling until the edge count is exact — so CI can exercise
/// paper-scale topology (≥ 500k edges) offline from a single `(nodes,
/// edges, sign_fraction, seed)` tuple and get bit-identical graphs on
/// every platform.
///
/// # Panics
///
/// Panics if `nodes < 2`, `edges > nodes·(nodes−1)`, or `sign_fraction`
/// is outside `[0, 1]`.
///
/// # Examples
///
/// ```
/// use isomit_datasets::snap_like;
///
/// let g = snap_like(100, 300, 0.8, 7);
/// assert_eq!(g.node_count(), 100);
/// assert_eq!(g.edge_count(), 300);
/// // Same tuple, same graph — bit-identical, every time.
/// assert_eq!(snap_like(100, 300, 0.8, 7), g);
/// ```
pub fn snap_like(nodes: usize, edges: usize, sign_fraction: f64, seed: u64) -> SignedDigraph {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    assert!(nodes >= 2, "need at least 2 nodes");
    assert!(
        edges <= nodes * (nodes - 1),
        "{edges} edges exceed the {nodes}-node simple digraph capacity"
    );
    assert!(
        (0.0..=1.0).contains(&sign_fraction),
        "sign_fraction must lie in [0, 1]"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edge_list: Vec<Edge> = Vec::with_capacity(edges);
    // lint:allow(determinism) membership-only set (insert/contains); iteration order never observed
    let mut seen: HashSet<u64> = HashSet::with_capacity(edges * 2);
    // Degree-proportional endpoint pool: every accepted edge pushes its
    // endpoints (the target twice), so high-degree nodes keep attracting
    // links — the Barabási–Albert rich-get-richer mechanism.
    let mut pool: Vec<u32> = Vec::with_capacity(edges * 3);
    let pack = |src: u32, dst: u32| (u64::from(src) << 32) | u64::from(dst);
    let sample_sign = |rng: &mut StdRng| {
        if rng.gen_bool(sign_fraction) {
            Sign::Positive
        } else {
            Sign::Negative
        }
    };

    // Phase 1: every node attaches once to an earlier node, giving a
    // connected-ish backbone that touches the whole id range.
    let attach = edges.min(nodes - 1);
    for v in 1..=attach {
        let v = v as u32;
        let u = if pool.is_empty() || rng.gen_bool(0.25) {
            rng.gen_range(0..v)
        } else {
            pool[rng.gen_range(0..pool.len())]
        };
        // Direction is randomized: trust networks have both hubs that
        // are widely followed and hubs that follow widely.
        let (src, dst) = if rng.gen_bool(0.5) { (v, u) } else { (u, v) };
        seen.insert(pack(src, dst));
        edge_list.push(Edge::new(
            NodeId(src),
            NodeId(dst),
            sample_sign(&mut rng),
            1.0,
        ));
        pool.push(u);
        pool.push(u);
        pool.push(v);
    }

    // Phase 2: top up to the exact edge count with pool-biased rejection
    // sampling.
    let mut attempts = 0usize;
    let max_attempts = 20 * edges + 1000;
    while edge_list.len() < edges && attempts < max_attempts {
        attempts += 1;
        let pick = |rng: &mut StdRng, pool: &[u32]| {
            if pool.is_empty() || rng.gen_bool(0.3) {
                rng.gen_range(0..nodes) as u32
            } else {
                pool[rng.gen_range(0..pool.len())]
            }
        };
        let src = pick(&mut rng, &pool);
        let dst = pick(&mut rng, &pool);
        if src == dst || !seen.insert(pack(src, dst)) {
            continue;
        }
        edge_list.push(Edge::new(
            NodeId(src),
            NodeId(dst),
            sample_sign(&mut rng),
            1.0,
        ));
        pool.push(src);
        pool.push(dst);
        pool.push(dst);
    }

    // Deterministic fallback for near-complete densities where rejection
    // sampling stalls: sweep the missing pairs in lexicographic order.
    if edge_list.len() < edges {
        'sweep: for src in 0..nodes as u32 {
            for dst in 0..nodes as u32 {
                if src == dst || !seen.insert(pack(src, dst)) {
                    continue;
                }
                edge_list.push(Edge::new(
                    NodeId(src),
                    NodeId(dst),
                    sample_sign(&mut rng),
                    1.0,
                ));
                if edge_list.len() == edges {
                    break 'sweep;
                }
            }
        }
    }

    SignedDigraph::from_edge_vec(nodes, edge_list).expect("generated edges are valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use isomit_graph::GraphStats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn pa_generator_hits_node_and_rough_edge_targets() {
        let cfg = PaConfig {
            nodes: 2000,
            mean_out_degree: 6.0,
            positive_fraction: 0.85,
            distrusted_fraction: 0.15,
            distrust_concentration: 3.0,
            uniform_edge_fraction: 0.2,
            closure_probability: 0.5,
            reciprocity: 0.3,
        };
        let g = preferential_attachment_signed(&cfg, &mut rng(1));
        assert_eq!(g.node_count(), 2000);
        let mean = g.edge_count() as f64 / g.node_count() as f64;
        assert!(
            (mean - 6.0).abs() < 1.5,
            "mean out-degree {mean} far from target 6"
        );
    }

    #[test]
    fn pa_sign_fraction_close_to_target() {
        let cfg = PaConfig {
            nodes: 4000,
            mean_out_degree: 5.0,
            positive_fraction: 0.8,
            distrusted_fraction: 0.15,
            distrust_concentration: 3.0,
            uniform_edge_fraction: 0.2,
            closure_probability: 0.5,
            reciprocity: 0.3,
        };
        let g = preferential_attachment_signed(&cfg, &mut rng(2));
        let pos = g.positive_edge_fraction();
        assert!(
            (pos - 0.8).abs() < 0.05,
            "positive fraction {pos} far from 0.8"
        );
    }

    #[test]
    fn pa_indegree_is_heavy_tailed() {
        let cfg = PaConfig {
            nodes: 3000,
            mean_out_degree: 5.0,
            positive_fraction: 0.85,
            distrusted_fraction: 0.1,
            distrust_concentration: 2.0,
            uniform_edge_fraction: 0.1,
            closure_probability: 0.5,
            reciprocity: 0.3,
        };
        let g = preferential_attachment_signed(&cfg, &mut rng(3));
        let stats = GraphStats::compute(&g);
        // Hubs: max in-degree far above the mean.
        assert!(
            stats.in_degree.max as f64 > 10.0 * stats.in_degree.mean,
            "max in-degree {} not hub-like vs mean {}",
            stats.in_degree.max,
            stats.in_degree.mean
        );
    }

    #[test]
    fn pa_deterministic_per_seed() {
        let cfg = PaConfig {
            nodes: 500,
            mean_out_degree: 4.0,
            positive_fraction: 0.8,
            distrusted_fraction: 0.1,
            distrust_concentration: 2.0,
            uniform_edge_fraction: 0.2,
            closure_probability: 0.4,
            reciprocity: 0.3,
        };
        assert_eq!(
            preferential_attachment_signed(&cfg, &mut rng(9)),
            preferential_attachment_signed(&cfg, &mut rng(9))
        );
    }

    #[test]
    fn erdos_renyi_exact_edge_count() {
        let g = erdos_renyi_signed(50, 200, 0.7, &mut rng(4));
        assert_eq!(g.node_count(), 50);
        assert_eq!(g.edge_count(), 200);
        let pos = g.positive_edge_fraction();
        assert!((pos - 0.7).abs() < 0.12);
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn erdos_renyi_rejects_impossible_density() {
        erdos_renyi_signed(3, 10, 0.5, &mut rng(0));
    }

    #[test]
    fn scaled_presets_have_expected_shape() {
        let g = epinions_like_scaled(0.01, &mut rng(5));
        assert_eq!(g.node_count(), 1318);
        let mean = g.edge_count() as f64 / g.node_count() as f64;
        assert!((mean - 6.38).abs() < 2.0, "mean degree {mean}");
        assert!((g.positive_edge_fraction() - 0.853).abs() < 0.06);

        let g = slashdot_like_scaled(0.01, &mut rng(6));
        assert_eq!(g.node_count(), 773);
        assert!((g.positive_edge_fraction() - 0.774).abs() < 0.07);
    }

    #[test]
    fn presets_have_clustering_and_reciprocity() {
        // The Jaccard weighting and diffusion reach both depend on these
        // structural properties (DESIGN.md §5); pin them.
        let g = epinions_like_scaled(0.01, &mut rng(7));
        let clustering = isomit_graph::global_clustering(&g);
        let reciprocity = isomit_graph::reciprocity(&g);
        assert!(
            clustering > 0.03,
            "triadic closure should produce clustering, got {clustering}"
        );
        assert!(
            (0.15..0.55).contains(&reciprocity),
            "reciprocity {reciprocity} out of the configured band"
        );
    }

    #[test]
    #[should_panic(expected = "scale must lie")]
    fn zero_scale_rejected() {
        epinions_like_scaled(0.0, &mut rng(0));
    }

    #[test]
    fn snap_like_exact_counts_and_determinism() {
        let g = snap_like(400, 2_000, 0.8, 42);
        assert_eq!(g.node_count(), 400);
        assert_eq!(g.edge_count(), 2_000);
        assert!((g.positive_edge_fraction() - 0.8).abs() < 0.05);
        assert_eq!(snap_like(400, 2_000, 0.8, 42), g);
        // A different seed gives a different graph.
        assert_ne!(snap_like(400, 2_000, 0.8, 43), g);
        g.validate().unwrap();
    }

    #[test]
    fn snap_like_has_heavy_tailed_in_degrees() {
        let g = snap_like(2_000, 12_000, 0.85, 9);
        let mut in_deg = vec![0usize; g.node_count()];
        for e in g.edges() {
            in_deg[e.dst.index()] += 1;
        }
        in_deg.sort_unstable_by(|a, b| b.cmp(a));
        let mean = 12_000.0 / 2_000.0;
        assert!(
            in_deg[0] as f64 > 6.0 * mean,
            "max in-degree {} should dwarf the mean {mean}",
            in_deg[0]
        );
    }

    #[test]
    fn snap_like_handles_dense_and_sparse_extremes() {
        // Near-complete density exercises the deterministic sweep.
        let g = snap_like(12, 12 * 11, 0.5, 3);
        assert_eq!(g.edge_count(), 12 * 11);
        // Fewer edges than nodes leaves some nodes isolated but exact.
        let g = snap_like(50, 10, 0.5, 3);
        assert_eq!(g.node_count(), 50);
        assert_eq!(g.edge_count(), 10);
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn snap_like_rejects_impossible_density() {
        snap_like(3, 10, 0.5, 0);
    }
}
