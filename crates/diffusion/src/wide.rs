// lint:allow-file(indexing) hot-path bitplane kernel: every node index is a seed checked by `validate_against`, a bitmap member, or a `dst` of the graph's validated CSR, and each plane holds `node_count` words
//! 64-lane bitset Monte-Carlo MFC engine: runs up to 64 **independent**
//! trials per pass over the graph, one trial per bit of a `u64`
//! bitplane.
//!
//! # Bitplane layout
//!
//! Trial state is laid out *across* trials rather than across nodes:
//! for every node the engine keeps one `u64` per state plane, bit `l`
//! describing lane (trial) `l` of the batch:
//!
//! * `active[v]` — lane holds an opinion at `v` (the union of the
//!   paper's positive and negative activation states);
//! * `positive[v]` — lane's opinion at `v` is `+1` (only meaningful
//!   where the `active` bit is set; maintained zero elsewhere);
//! * `frontier_plane[v]` / `next_plane[v]` — lane activated or flipped
//!   `v` in the previous / current round and must spread from it next
//!   round.
//!
//! Beside the planes, a `frontier` and a `next` bitmap hold one bit per
//! node: the nodes whose frontier / next word is nonzero. A round walks
//! the frontier bitmap in ascending node order, taking each visited
//! node's frontier word (which zeroes it) and reading its out-edges
//! straight from the graph's CSR; a success sets the target's next word
//! and its bit in `next`. At the end of the round the two planes and
//! the two bitmaps swap, so no per-node transfer or sort remains.
//!
//! One pass over a frontier node's out-edges then advances all 64
//! trials at once: eligibility (Algorithm 1, line 8) is evaluated with
//! three bitwise operations instead of 64 branch chains, and the
//! per-node tallies behind [`InfectionEstimate`] are popcounts.
//!
//! # Per-lane RNG streams and wide ≡ scalar bit-identity
//!
//! A lockstep engine cannot share one sequential RNG stream per lane:
//! the number of draws a lane consumes per round depends on that lane's
//! own frontier, so any interleaving choice would perturb some lane's
//! stream. Instead every *attempt* draws a **counter-based** uniform
//!
//! ```text
//! u(lane, round, edge) = unit(mix(mix(round ⊕ edge·C), lane_key))
//! ```
//!
//! — a pure function of the lane's seed-derived key and the attempt
//! coordinates (`mix` is the SplitMix64 finalizer). Draw *order* is
//! irrelevant by construction, so a scalar replay of one lane
//! ([`simulate_wide_reference`]) consumes exactly the same randomness
//! as the 64-lane engine, and [`par_estimate_infection_probabilities_wide`]
//! is **bit-identical** to
//! [`estimate_infection_probabilities_wide_reference`] for every batch
//! width, thread count, and trial count. Both paths visit frontier
//! nodes in ascending node order (within-round activations are applied
//! immediately, as in the scalar [`Mfc`] engine), which pins the one
//! remaining order-dependence.
//!
//! As for the scalar estimator, a sequential run is the same call in a
//! 1-thread rayon pool.
//!
//! Note the wide engine is *distributionally* equivalent to
//! [`Mfc::simulate`] but not bit-identical to it: the scalar engine
//! visits its frontier in insertion order and draws from a sequential
//! per-run stream, neither of which survives vectorization. The scalar
//! reference implementation in this module is the retained oracle.
//!
//! # Ragged tails
//!
//! A trial count that is not a multiple of 64 simply runs its final
//! batch with fewer lanes: lane keys are derived from the *global*
//! trial index (`splitmix64(master ⊕ trial·RUN_STREAM)`, the same
//! spread the scalar estimator uses), so trial 70 draws the same
//! numbers whether it runs as lane 6 of batch 1 or alone in a width-1
//! batch.

use crate::bitmap;
use crate::montecarlo::{check_runs, Tally, RUN_STREAM};
use crate::{DiffusionError, InfectionEstimate, Mfc, SeedSet};
use isomit_graph::{NodeId, NodeState, SignedDigraph};
use isomit_telemetry::{names, Counter, Histogram};
use rayon::prelude::*;
use std::sync::OnceLock;

/// Maximum number of lanes (independent trials) per batch: the width of
/// the `u64` bitplanes.
pub const MAX_LANES: usize = 64;

/// Cached telemetry handles (amortized over batches, like the scalar
/// estimator's `mc.batch_ns`).
fn wide_batch_histogram() -> &'static Histogram {
    static HIST: OnceLock<Histogram> = OnceLock::new();
    HIST.get_or_init(|| isomit_telemetry::global().histogram(names::MC_WIDE_BATCH_NS))
}

fn wide_lane_counter() -> &'static Counter {
    static LANES: OnceLock<Counter> = OnceLock::new();
    LANES.get_or_init(|| isomit_telemetry::global().counter(names::MC_WIDE_LANES))
}

fn wide_batch_counter() -> &'static Counter {
    static BATCHES: OnceLock<Counter> = OnceLock::new();
    BATCHES.get_or_init(|| isomit_telemetry::global().counter(names::MC_WIDE_BATCHES))
}

/// SplitMix64 finalizer — the mixing primitive of the counter-based
/// attempt RNG.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Odd multiplier decorrelating edge indices inside a round key.
const EDGE_STREAM: u64 = 0xA24B_AED4_963E_E407;

/// The RNG key of trial `trial` under `master_seed` — the wide
/// counterpart of the scalar estimator's per-run stream derivation
/// (same `RUN_STREAM` spread, finalized so nearby trials land far apart
/// in key space).
#[inline]
pub fn wide_lane_key(master_seed: u64, trial: usize) -> u64 {
    splitmix64(master_seed ^ (trial as u64).wrapping_mul(RUN_STREAM))
}

/// The shared per-round component of attempt coordinates.
#[inline]
fn round_key(round: usize) -> u64 {
    splitmix64(round as u64)
}

/// The shared per-(round, edge) component; hoisted out of the lane loop
/// so each eligible lane costs one further mix.
#[inline]
fn attempt_base(round_key: u64, edge: u64) -> u64 {
    splitmix64(round_key ^ edge.wrapping_mul(EDGE_STREAM))
}

/// The uniform draw in `[0, 1)` of one (lane, round, edge) attempt
/// (53-bit mantissa method, like the scalar engine's `gen_unit`).
#[inline]
fn attempt_unit(base: u64, lane_key: u64) -> f64 {
    (splitmix64(base ^ lane_key) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Final state of one wide batch: up to 64 finished MFC trials, one per
/// bitplane lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WideBatch {
    lanes: u32,
    active: Vec<u64>,
    positive: Vec<u64>,
    truncated: u64,
}

impl WideBatch {
    /// Number of lanes (trials) this batch ran.
    pub fn lanes(&self) -> usize {
        self.lanes as usize
    }

    /// Bitmask of lanes in which `node` ended up holding an opinion.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn active_mask(&self, node: NodeId) -> u64 {
        self.active[node.index()]
    }

    /// Bitmask of lanes in which `node` ended up with the positive
    /// opinion.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn positive_mask(&self, node: NodeId) -> u64 {
        self.positive[node.index()]
    }

    /// Bitmask of lanes whose trial hit the round cap before
    /// quiescing (the wide counterpart of [`crate::Cascade::truncated`]).
    pub fn truncated_lanes(&self) -> u64 {
        self.truncated
    }

    /// Final per-node states of one lane — the wide counterpart of
    /// [`crate::Cascade::states`].
    ///
    /// # Panics
    ///
    /// Panics if `lane >= self.lanes()`.
    pub fn lane_states(&self, lane: usize) -> Vec<NodeState> {
        assert!(lane < self.lanes(), "lane {lane} out of {}", self.lanes);
        let bit = 1u64 << lane;
        self.active
            .iter()
            .zip(&self.positive)
            .map(|(&a, &p)| {
                if a & bit == 0 {
                    NodeState::Inactive
                } else if p & bit != 0 {
                    NodeState::Positive
                } else {
                    NodeState::Negative
                }
            })
            .collect()
    }

    /// Adds this batch's outcomes into `tally` (one popcount per node
    /// and plane records all lanes at once).
    fn tally_into(&self, tally: &mut Tally) {
        for (slot, &mask) in tally.infected.iter_mut().zip(&self.active) {
            *slot += mask.count_ones();
        }
        for (slot, &mask) in tally.positive.iter_mut().zip(&self.positive) {
            *slot += mask.count_ones();
        }
    }
}

/// Wide-simulation context: a model and the graph whose own out-edge CSR
/// the kernel reads in place. An edge's probability (`min(1, α·w)` / raw
/// `w`) is boosted only when some lane is eligible to cross it, so
/// building one copies and allocates nothing. It is `Sync`: the parallel
/// estimator shares one across workers.
#[derive(Debug)]
pub struct WideSimulator<'g> {
    graph: &'g SignedDigraph,
    model: Mfc,
}

impl<'g> WideSimulator<'g> {
    /// A simulator of `model` over `graph`.
    pub fn new(model: &Mfc, graph: &'g SignedDigraph) -> Self {
        WideSimulator {
            graph,
            model: *model,
        }
    }

    /// The graph this simulator was built over.
    pub fn graph(&self) -> &SignedDigraph {
        self.graph
    }

    /// Runs one batch: `lane_keys.len()` independent MFC trials (lane
    /// `l` keyed by `lane_keys[l]`), all seeded from `seeds`.
    ///
    /// # Errors
    ///
    /// Returns [`DiffusionError::InvalidParameter`] if `lane_keys` is
    /// empty or longer than [`MAX_LANES`], or
    /// [`DiffusionError::SeedOutOfBounds`] for seeds outside the graph.
    pub fn run(&self, seeds: &SeedSet, lane_keys: &[u64]) -> Result<WideBatch, DiffusionError> {
        if lane_keys.is_empty() || lane_keys.len() > MAX_LANES {
            return Err(DiffusionError::InvalidParameter {
                name: "lanes",
                value: lane_keys.len() as f64,
                constraint: "must be between 1 and 64",
            });
        }
        seeds.validate_against(self.graph)?;
        let _span = wide_batch_histogram().span();
        wide_batch_counter().inc();
        wide_lane_counter().add(lane_keys.len() as u64);

        let n = self.graph.node_count();
        let full = lane_mask(lane_keys.len());
        let mut active = vec![0u64; n];
        let mut positive = vec![0u64; n];
        let mut frontier_plane = vec![0u64; n];
        let mut next_plane = vec![0u64; n];
        let mut frontier = bitmap::empty(n);
        let mut next = bitmap::empty(n);
        for (node, sign) in seeds.iter() {
            let v = node.index();
            active[v] = full;
            if sign.is_positive() {
                positive[v] = full;
            }
            frontier_plane[v] = full;
            bitmap::insert(&mut frontier, v);
        }

        let mut rounds = 0usize;
        let mut truncated = 0u64;
        while frontier.iter().any(|&word| word != 0) {
            rounds += 1;
            if rounds > self.model.max_rounds() {
                truncated = frontier_plane.iter().fold(0, |lanes, &fu| lanes | fu);
                break;
            }
            let rkey = round_key(rounds);
            bitmap::drain(&mut frontier, |u| {
                let fu = std::mem::take(&mut frontier_plane[u]);
                let pu = positive[u];
                let (first, dst, signs, weights) = self.graph.out_columns(NodeId::from_index(u));
                for (i, ((v, &sign), &w)) in (first..).zip(dst.iter().zip(signs).zip(weights)) {
                    let v = v.index();
                    // `!0` over a trust edge, `0` over a distrust edge:
                    // branch-free select masks for the flip rule and the
                    // state product.
                    let sign_plane = if sign.is_positive() { !0u64 } else { 0 };
                    // Algorithm 1, line 8, across all lanes at once:
                    // inactive targets, plus active opposite-opinion
                    // targets reached over a trust edge.
                    let mut eligible = fu & (!active[v] | (sign_plane & (pu ^ positive[v])));
                    if eligible == 0 {
                        continue;
                    }
                    let p = self.model.boosted_probability(sign, w);
                    let succ = if p >= 1.0 {
                        // unit draws live in [0, 1): certain success,
                        // no draws needed (counter-based streams make
                        // skipping free — no state advances).
                        eligible
                    } else {
                        let base = attempt_base(rkey, i as u64);
                        let mut s = 0u64;
                        while eligible != 0 {
                            let lane = eligible.trailing_zeros();
                            eligible &= eligible - 1;
                            if attempt_unit(base, lane_keys[lane as usize]) < p {
                                s |= 1u64 << lane;
                            }
                        }
                        s
                    };
                    if succ == 0 {
                        continue;
                    }
                    // s(v) = s(u) · s_D(u, v): copy u's opinion over
                    // trust edges, invert it over distrust edges.
                    let new_pos = (pu & sign_plane) | (!pu & !sign_plane);
                    positive[v] = (positive[v] & !succ) | (new_pos & succ);
                    active[v] |= succ;
                    next_plane[v] |= succ;
                    bitmap::insert(&mut next, v);
                }
            });
            std::mem::swap(&mut frontier_plane, &mut next_plane);
            std::mem::swap(&mut frontier, &mut next);
        }

        Ok(WideBatch {
            lanes: u32::try_from(lane_keys.len()).expect("lane count is at most LANES (64)"),
            active,
            positive,
            truncated,
        })
    }
}

/// Bitmask with the low `lanes` bits set.
#[inline]
fn lane_mask(lanes: usize) -> u64 {
    debug_assert!((1..=MAX_LANES).contains(&lanes));
    if lanes == MAX_LANES {
        !0
    } else {
        (1u64 << lanes) - 1
    }
}

/// Scalar reference replay of **one lane**: an independent
/// implementation (plain state array, sorted frontier lists, its own
/// edge-index prefix sums; no bitplanes or bitmaps) that must reproduce lane `lane_key` of any wide batch bit-exactly.
/// Returns the final per-node states and whether the round cap was hit.
///
/// This is the retained oracle behind the wide-determinism suite and
/// the `bit_identical` gate in `BENCH_montecarlo.json`.
///
/// # Errors
///
/// Returns [`DiffusionError::SeedOutOfBounds`] for seeds outside the
/// graph.
pub fn simulate_wide_reference(
    model: &Mfc,
    graph: &SignedDigraph,
    seeds: &SeedSet,
    lane_key: u64,
) -> Result<(Vec<NodeState>, bool), DiffusionError> {
    seeds.validate_against(graph)?;
    let n = graph.node_count();
    // Flat edge indices: the wide engine numbers edges by CSR position.
    let mut edge_base = vec![0u64; n];
    let mut acc = 0u64;
    for u in graph.nodes() {
        edge_base[u.index()] = acc;
        acc += graph.out_degree(u) as u64;
    }

    let mut state = vec![NodeState::Inactive; n];
    let mut frontier: Vec<u32> = Vec::with_capacity(seeds.len());
    for (node, sign) in seeds.iter() {
        state[node.index()] = NodeState::from_sign(sign);
        frontier.push(node.0);
    }
    frontier.sort_unstable();
    let mut in_next = vec![false; n];

    let mut rounds = 0usize;
    let mut truncated = false;
    while !frontier.is_empty() {
        rounds += 1;
        if rounds > model.max_rounds() {
            truncated = true;
            break;
        }
        let rkey = round_key(rounds);
        let mut next: Vec<u32> = Vec::new();
        for &u in &frontier {
            let su = match state[u as usize].sign() {
                Some(s) => s,
                None => unreachable!("frontier node is always active"),
            };
            for (idx, e) in (edge_base[u as usize]..).zip(graph.out_edges(NodeId(u))) {
                let sv = state[e.dst.index()];
                let eligible = match sv.sign() {
                    None => true,
                    Some(s) => e.sign.is_positive() && s != su,
                };
                if !eligible {
                    continue;
                }
                let p = model.boosted_probability(e.sign, e.weight);
                if attempt_unit(attempt_base(rkey, idx), lane_key) < p {
                    state[e.dst.index()] = NodeState::from_sign(su * e.sign);
                    if !in_next[e.dst.index()] {
                        in_next[e.dst.index()] = true;
                        next.push(e.dst.0);
                    }
                }
            }
        }
        for &v in &next {
            in_next[v as usize] = false;
        }
        next.sort_unstable();
        frontier = next;
    }
    Ok((state, truncated))
}

/// The lane keys of one batch: trials `first..first + count` of
/// `master_seed`.
fn batch_keys(master_seed: u64, first: usize, count: usize) -> Vec<u64> {
    (first..first + count)
        .map(|t| wide_lane_key(master_seed, t))
        .collect()
}

/// Wide Monte-Carlo estimator: tallies `runs` MFC trials in batches of
/// up to 64 lanes per graph traversal, distributing whole batches
/// across the current rayon worker count. Deterministic in
/// `(graph, seeds, runs, master_seed)` and **bit-identical** to
/// [`estimate_infection_probabilities_wide_reference`] for every thread
/// count (inside a 1-thread pool the batches run in order on the
/// calling thread); the throughput replacement for
/// [`par_estimate_infection_probabilities`](crate::par_estimate_infection_probabilities)
/// on MFC workloads.
///
/// # Errors
///
/// Returns [`DiffusionError::InvalidParameter`] if `runs == 0` or
/// `runs > u32::MAX`, or [`DiffusionError::SeedOutOfBounds`] for seeds
/// outside the graph.
pub fn par_estimate_infection_probabilities_wide(
    model: &Mfc,
    graph: &SignedDigraph,
    seeds: &SeedSet,
    runs: usize,
    master_seed: u64,
) -> Result<InfectionEstimate, DiffusionError> {
    check_runs(runs)?;
    let sim = WideSimulator::new(model, graph);
    let n = graph.node_count();
    let tally = (0..runs.div_ceil(MAX_LANES)).into_par_iter().fold_reduce(
        || Ok(Tally::new(n)),
        |acc: Result<Tally, DiffusionError>, b| {
            let mut acc = acc?;
            let first = b * MAX_LANES;
            let count = MAX_LANES.min(runs - first);
            sim.run(seeds, &batch_keys(master_seed, first, count))?
                .tally_into(&mut acc);
            Ok(acc)
        },
        |a, b| Ok(a?.merge(b?)),
    )?;
    Ok(tally.into_estimate(runs))
}

/// Scalar-oracle estimator: replays every trial through
/// [`simulate_wide_reference`] one at a time. Slow by design — it
/// exists so the wide engine has an independent implementation to be
/// bit-identical against.
///
/// # Errors
///
/// Returns [`DiffusionError::InvalidParameter`] if `runs == 0` or
/// `runs > u32::MAX`, or [`DiffusionError::SeedOutOfBounds`] for seeds
/// outside the graph.
pub fn estimate_infection_probabilities_wide_reference(
    model: &Mfc,
    graph: &SignedDigraph,
    seeds: &SeedSet,
    runs: usize,
    master_seed: u64,
) -> Result<InfectionEstimate, DiffusionError> {
    check_runs(runs)?;
    let mut tally = Tally::new(graph.node_count());
    for trial in 0..runs {
        let (states, _) =
            simulate_wide_reference(model, graph, seeds, wide_lane_key(master_seed, trial))?;
        tally.record(&states);
    }
    Ok(tally.into_estimate(runs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use isomit_graph::{Edge, Sign};

    fn g(edges: &[(u32, u32, Sign, f64)]) -> SignedDigraph {
        SignedDigraph::from_edges(
            0,
            edges
                .iter()
                .map(|&(a, b, s, w)| Edge::new(NodeId(a), NodeId(b), s, w)),
        )
        .unwrap()
    }

    #[test]
    fn deterministic_chain_reaches_everyone_in_every_lane() {
        // All probabilities boosted to 1: every lane must fully infect.
        let g = g(&[
            (0, 1, Sign::Positive, 0.5),
            (1, 2, Sign::Negative, 1.0),
            (2, 3, Sign::Negative, 1.0),
        ]);
        let seeds = SeedSet::single(NodeId(0), Sign::Positive);
        let model = Mfc::new(2.0).unwrap();
        let keys: Vec<u64> = (0..64).map(|t| wide_lane_key(9, t)).collect();
        let batch = WideSimulator::new(&model, &g).run(&seeds, &keys).unwrap();
        assert_eq!(batch.lanes(), 64);
        for v in 0..4 {
            assert_eq!(batch.active_mask(NodeId(v)), !0, "node {v}");
        }
        // Signs: + at 0 and 1, − at 2, + at 3 (two flips of the chain).
        assert_eq!(batch.positive_mask(NodeId(1)), !0);
        assert_eq!(batch.positive_mask(NodeId(2)), 0);
        assert_eq!(batch.positive_mask(NodeId(3)), !0);
        assert_eq!(batch.truncated_lanes(), 0);
    }

    /// Runs one batch and checks every lane's states and truncation bit
    /// against its scalar replay.
    fn assert_lanes_match_replay(
        model: &Mfc,
        g: &SignedDigraph,
        seeds: &SeedSet,
        keys: &[u64],
    ) -> WideBatch {
        let batch = WideSimulator::new(model, g).run(seeds, keys).unwrap();
        for (lane, &key) in keys.iter().enumerate() {
            let (states, truncated) = simulate_wide_reference(model, g, seeds, key).unwrap();
            assert_eq!(batch.lane_states(lane), states, "lane {lane}");
            assert_eq!(
                batch.truncated_lanes() & (1 << lane) != 0,
                truncated,
                "lane {lane} truncation"
            );
        }
        batch
    }

    #[test]
    fn every_lane_matches_its_scalar_replay() {
        let g5 = g(&[
            (0, 1, Sign::Positive, 0.5),
            (0, 2, Sign::Negative, 0.6),
            (1, 3, Sign::Positive, 0.4),
            (2, 3, Sign::Positive, 0.7),
            (3, 4, Sign::Negative, 0.5),
            (4, 0, Sign::Positive, 0.3),
        ]);
        let seeds = SeedSet::from_pairs([(NodeId(0), Sign::Positive), (NodeId(2), Sign::Negative)])
            .unwrap();
        let keys: Vec<u64> = (0..37).map(|t| wide_lane_key(123, t)).collect();
        assert_lanes_match_replay(&Mfc::new(1.5).unwrap(), &g5, &seeds, &keys);

        // Frontiers over two and three bitmap words, seeded on both sides
        // of each word boundary, run to quiescence and cut off mid-way.
        for n in [65u32, 129] {
            let edges: Vec<(u32, u32, Sign, f64)> = (0..n)
                .flat_map(|i| {
                    [
                        (i, (i + 1) % n, Sign::Positive, 0.3),
                        (i, (i * 37 + 11) % n, Sign::Negative, 0.5),
                        ((i * 13 + 5) % n, i, Sign::Positive, 0.2),
                    ]
                })
                .filter(|&(a, b, _, _)| a != b)
                .collect();
            let g = g(&edges);
            let seeds =
                SeedSet::from_pairs([0, 63, 64, 127, 128].into_iter().filter(|&v| v < n).map(
                    |v| {
                        (
                            NodeId(v),
                            if v % 2 == 0 {
                                Sign::Positive
                            } else {
                                Sign::Negative
                            },
                        )
                    },
                ))
                .unwrap();
            let keys: Vec<u64> = (0..64).map(|t| wide_lane_key(u64::from(n), t)).collect();
            let model = Mfc::new(2.0).unwrap();
            let done = assert_lanes_match_replay(&model, &g, &seeds, &keys);
            assert_eq!(done.truncated_lanes(), 0, "n = {n}");
            let cut = assert_lanes_match_replay(&model.with_max_rounds(3), &g, &seeds, &keys);
            assert_ne!(cut.truncated_lanes(), 0, "n = {n}");
        }
    }

    #[test]
    fn ragged_batches_match_full_batches_per_trial() {
        // Trial t must draw the same numbers regardless of the batch it
        // runs in: compare a 64-lane batch against singleton batches.
        let g = g(&[
            (0, 1, Sign::Positive, 0.3),
            (1, 2, Sign::Negative, 0.8),
            (0, 2, Sign::Positive, 0.2),
        ]);
        let seeds = SeedSet::single(NodeId(0), Sign::Negative);
        let model = Mfc::new(3.0).unwrap();
        let keys: Vec<u64> = (0..64).map(|t| wide_lane_key(7, t)).collect();
        let full = WideSimulator::new(&model, &g).run(&seeds, &keys).unwrap();
        for (lane, &key) in keys.iter().enumerate().take(7) {
            let single = WideSimulator::new(&model, &g).run(&seeds, &[key]).unwrap();
            assert_eq!(single.lane_states(0), full.lane_states(lane));
        }
    }

    #[test]
    fn wide_estimator_matches_scalar_reference_bit_for_bit() {
        let g = g(&[
            (0, 1, Sign::Positive, 0.4),
            (1, 2, Sign::Positive, 0.5),
            (2, 0, Sign::Negative, 0.6),
            (0, 3, Sign::Negative, 0.2),
        ]);
        let seeds = SeedSet::single(NodeId(0), Sign::Positive);
        let model = Mfc::new(2.0).unwrap();
        // 130 = 2 full batches + a ragged 2-lane tail.
        for runs in [1, 63, 64, 65, 130] {
            let wide =
                par_estimate_infection_probabilities_wide(&model, &g, &seeds, runs, 42).unwrap();
            let reference =
                estimate_infection_probabilities_wide_reference(&model, &g, &seeds, runs, 42)
                    .unwrap();
            assert_eq!(wide, reference, "runs={runs}");
        }
    }

    #[test]
    fn wide_estimate_agrees_with_closed_form() {
        // Single boosted edge: P(infect) = min(1, α·w) = 0.9.
        let g = g(&[(0, 1, Sign::Positive, 0.3)]);
        let seeds = SeedSet::single(NodeId(0), Sign::Positive);
        let model = Mfc::new(3.0).unwrap();
        let est = par_estimate_infection_probabilities_wide(&model, &g, &seeds, 20_000, 5).unwrap();
        let p = est.infection_probability(NodeId(1));
        assert!((p - 0.9).abs() < 0.02, "estimated {p}");
        assert_eq!(est.runs(), 20_000);
    }

    #[test]
    fn distinct_master_seeds_give_distinct_estimates() {
        let g = g(&[(0, 1, Sign::Positive, 0.5), (1, 2, Sign::Negative, 0.5)]);
        let seeds = SeedSet::single(NodeId(0), Sign::Positive);
        let model = Mfc::new(1.0).unwrap();
        let a = par_estimate_infection_probabilities_wide(&model, &g, &seeds, 300, 1).unwrap();
        let b = par_estimate_infection_probabilities_wide(&model, &g, &seeds, 300, 2).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn truncation_reports_per_lane() {
        // Deterministic chain cut off by the round cap: every lane
        // still has a frontier when the cap hits, so all 8 lanes must
        // report truncation; without the cap none do.
        let g = g(&[
            (0, 1, Sign::Positive, 0.5),
            (1, 2, Sign::Positive, 0.5),
            (2, 3, Sign::Positive, 0.5),
        ]);
        let seeds = SeedSet::single(NodeId(0), Sign::Positive);
        let keys: Vec<u64> = (0..8).map(|t| wide_lane_key(3, t)).collect();
        let capped = Mfc::new(2.0).unwrap().with_max_rounds(2);
        let batch = WideSimulator::new(&capped, &g).run(&seeds, &keys).unwrap();
        assert_eq!(batch.truncated_lanes(), 0xFF);
        // 0, 1, 2 reached in every lane; 3 not.
        assert_eq!(batch.active_mask(NodeId(2)), 0xFF);
        assert_eq!(batch.active_mask(NodeId(3)), 0);
        let uncapped = Mfc::new(2.0).unwrap();
        let batch = WideSimulator::new(&uncapped, &g)
            .run(&seeds, &keys)
            .unwrap();
        assert_eq!(batch.truncated_lanes(), 0);
        assert_eq!(batch.active_mask(NodeId(3)), 0xFF);
    }

    #[test]
    fn bad_inputs_are_rejected() {
        let g = g(&[(0, 1, Sign::Positive, 0.5)]);
        let model = Mfc::new(2.0).unwrap();
        let seeds = SeedSet::single(NodeId(0), Sign::Positive);
        assert!(WideSimulator::new(&model, &g).run(&seeds, &[]).is_err());
        assert!(WideSimulator::new(&model, &g)
            .run(&seeds, &vec![1u64; 65])
            .is_err());
        let oob = SeedSet::single(NodeId(9), Sign::Positive);
        assert!(WideSimulator::new(&model, &g).run(&oob, &[1]).is_err());
        assert!(par_estimate_infection_probabilities_wide(&model, &g, &seeds, 0, 1).is_err());
    }

    #[test]
    fn empty_seed_set_infects_nothing() {
        let g = g(&[(0, 1, Sign::Positive, 1.0)]);
        let model = Mfc::new(2.0).unwrap();
        let batch = WideSimulator::new(&model, &g)
            .run(&SeedSet::new(), &[1, 2, 3])
            .unwrap();
        assert!((0..2).all(|v| batch.active_mask(NodeId(v)) == 0));
        assert_eq!(batch.truncated_lanes(), 0);
    }
}
