//! Monte-Carlo estimation of per-node infection probabilities — the
//! empirical counterpart to the closed-form §III-B likelihood, used to
//! validate analytical formulas and to answer "how likely is user X to
//! end up believing the rumor?" questions on networks too large for
//! exact path enumeration.
//!
//! # Determinism
//!
//! [`par_estimate_infection_probabilities`] gives every run its own RNG
//! stream derived from a master seed
//! (`StdRng::seed_from_u64(master ^ run_index · RUN_STREAM)`), so run
//! `i` draws the same numbers no matter which thread executes it or in
//! what order. Per-run outcomes land in a `Tally` of `u32` counters
//! whose merge (element-wise addition) is commutative and associative,
//! so the estimate is **bit-identical** for every thread count. A
//! sequential run is the same call in a 1-thread rayon pool, where the
//! fold is the plain loop over runs `0..runs`.

use crate::{DiffusionError, DiffusionModel, SeedSet};
use isomit_graph::{json, NodeId, NodeState, SignedDigraph};
use isomit_telemetry::{names, Histogram};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use std::sync::OnceLock;

/// Cached handle into the process-global telemetry registry: one
/// recording per estimation batch (not per run), so the instrumentation
/// cost is amortized over the whole batch.
fn batch_histogram() -> &'static Histogram {
    static HIST: OnceLock<Histogram> = OnceLock::new();
    HIST.get_or_init(|| isomit_telemetry::global().histogram(names::MC_BATCH_NS))
}

/// Empirical per-node outcome frequencies over repeated simulations.
#[derive(Debug, Clone, PartialEq)]
pub struct InfectionEstimate {
    runs: usize,
    infected: Vec<u32>,
    positive: Vec<u32>,
}

impl InfectionEstimate {
    /// Number of simulation runs behind the estimate.
    pub fn runs(&self) -> usize {
        self.runs
    }

    /// Estimated probability that `node` ends up holding *any* opinion.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn infection_probability(&self, node: NodeId) -> f64 {
        self.infected[node.index()] as f64 / self.runs as f64
    }

    /// Estimated probability that `node` ends up with the positive
    /// opinion specifically.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn positive_probability(&self, node: NodeId) -> f64 {
        self.positive[node.index()] as f64 / self.runs as f64
    }

    /// Estimated expected outbreak size.
    pub fn expected_infected(&self) -> f64 {
        self.infected.iter().map(|&c| c as f64).sum::<f64>() / self.runs as f64
    }

    /// Half-width of a ~95% normal-approximation confidence interval for
    /// [`infection_probability`](InfectionEstimate::infection_probability).
    pub fn confidence_halfwidth(&self, node: NodeId) -> f64 {
        let p = self.infection_probability(node);
        1.96 * (p * (1.0 - p) / self.runs as f64).sqrt()
    }

    /// Encodes the estimate with the in-repo JSON codec as
    /// `{"runs": N, "infected": [...], "positive": [...]}` — the wire
    /// form of the serving protocol's `simulate` response.
    pub fn to_json_value(&self) -> json::Value {
        let counts = |v: &[u32]| {
            json::Value::Array(v.iter().map(|&c| json::Value::Number(c as f64)).collect())
        };
        json::Value::Object(vec![
            ("runs".into(), json::Value::Number(self.runs as f64)),
            ("infected".into(), counts(&self.infected)),
            ("positive".into(), counts(&self.positive)),
        ])
    }

    /// Decodes an estimate from the encoding of
    /// [`to_json_value`](InfectionEstimate::to_json_value).
    ///
    /// # Errors
    ///
    /// Returns [`json::JsonError`] on malformed input, mismatched array
    /// lengths, counts that do not fit a `u32`, `runs == 0`, or counts
    /// no estimate can hold: `infected[v] > runs` or
    /// `positive[v] > infected[v]`.
    pub fn from_json_value(value: &json::Value) -> Result<Self, json::JsonError> {
        let runs = value
            .require("runs")?
            .as_usize()
            .ok_or_else(|| json::JsonError::new("`runs` must be a non-negative integer"))?;
        let counts = |key: &str| -> Result<Vec<u32>, json::JsonError> {
            value
                .require(key)?
                .as_array()
                .ok_or_else(|| json::JsonError::new(format!("`{key}` must be an array")))?
                .iter()
                .map(|v| {
                    v.as_u64()
                        .and_then(|n| u32::try_from(n).ok())
                        .ok_or_else(|| json::JsonError::new(format!("`{key}` counts must be u32")))
                })
                .collect()
        };
        let infected = counts("infected")?;
        let positive = counts("positive")?;
        if infected.len() != positive.len() {
            return Err(json::JsonError::new(
                "`infected` and `positive` must have the same length",
            ));
        }
        if runs == 0 {
            return Err(json::JsonError::new("`runs` must be positive"));
        }
        for (&inf, &pos) in infected.iter().zip(&positive) {
            if inf as usize > runs {
                return Err(json::JsonError::new(
                    "`infected` counts must not exceed `runs`",
                ));
            }
            if pos > inf {
                return Err(json::JsonError::new(
                    "`positive` counts must not exceed `infected` counts",
                ));
            }
        }
        Ok(InfectionEstimate {
            runs,
            infected,
            positive,
        })
    }
}

/// Checks the shared `runs` precondition of every estimator: at least
/// one run, and no more than the `u32` tallies can count.
pub(crate) fn check_runs(runs: usize) -> Result<(), DiffusionError> {
    if runs == 0 {
        return Err(DiffusionError::InvalidParameter {
            name: "runs",
            value: 0.0,
            constraint: "must be positive",
        });
    }
    if u32::try_from(runs).is_err() {
        return Err(DiffusionError::InvalidParameter {
            name: "runs",
            value: runs as f64,
            constraint: "must be at most 4294967295, the largest count a tally holds",
        });
    }
    Ok(())
}

/// Per-worker outcome tallies of every estimator, scalar and wide;
/// merging two is element-wise addition, which commutes — the property
/// the parallel estimators' determinism rests on.
pub(crate) struct Tally {
    pub(crate) infected: Vec<u32>,
    pub(crate) positive: Vec<u32>,
}

impl Tally {
    pub(crate) fn new(n: usize) -> Self {
        Tally {
            infected: vec![0u32; n],
            positive: vec![0u32; n],
        }
    }

    /// Counts one run's final per-node states.
    pub(crate) fn record(&mut self, states: &[NodeState]) {
        let counters = self.infected.iter_mut().zip(self.positive.iter_mut());
        for ((inf, pos), state) in counters.zip(states) {
            if state.is_active() {
                *inf += 1;
            }
            if *state == NodeState::Positive {
                *pos += 1;
            }
        }
    }

    pub(crate) fn merge(mut self, other: Tally) -> Tally {
        for (a, b) in self.infected.iter_mut().zip(&other.infected) {
            *a += b;
        }
        for (a, b) in self.positive.iter_mut().zip(&other.positive) {
            *a += b;
        }
        self
    }

    /// The estimate behind `runs` recorded runs.
    pub(crate) fn into_estimate(self, runs: usize) -> InfectionEstimate {
        InfectionEstimate {
            runs,
            infected: self.infected,
            positive: self.positive,
        }
    }
}

/// Odd multiplier (⌊2⁶⁴/φ⌋) spreading run indices across the seed
/// space. A plain `master ^ run_index` would be wrong here: XOR with a
/// small master merely permutes `{0..runs}`, so two small masters can
/// cover the *same set* of per-run streams and — tallies being
/// order-independent sums — yield identical aggregates.
pub(crate) const RUN_STREAM: u64 = 0x9E37_79B9_7F4A_7C15;

/// The RNG stream for run `run_index` of a master seed: fold the
/// spread index into the seed, then let `seed_from_u64`'s SplitMix64
/// expansion decorrelate the resulting values.
#[inline]
fn run_rng(master_seed: u64, run_index: usize) -> StdRng {
    StdRng::seed_from_u64(master_seed ^ (run_index as u64).wrapping_mul(RUN_STREAM))
}

/// Runs `runs` independent simulations of `model`, run `i` drawing from
/// its own index-derived stream of `master_seed`, and tallies per-node
/// outcome frequencies.
///
/// The runs are distributed across the current rayon worker count
/// (configure with `RAYON_NUM_THREADS` or `ThreadPool::install`);
/// workers accumulate into thread-local tallies merged by element-wise
/// addition, so neither scheduling order nor thread count can influence
/// the result. Inside a 1-thread pool this is the plain sequential loop.
///
/// # Errors
///
/// Returns [`DiffusionError::InvalidParameter`] if `runs == 0` or
/// `runs > u32::MAX`, or any error of the underlying
/// [`DiffusionModel::simulate`] calls. Errors short-circuit the
/// surviving work but cannot perturb successful results: a simulation
/// either fails for every run (seed validation is input-determined) or
/// for none.
pub fn par_estimate_infection_probabilities<M>(
    model: &M,
    graph: &SignedDigraph,
    seeds: &SeedSet,
    runs: usize,
    master_seed: u64,
) -> Result<InfectionEstimate, DiffusionError>
where
    M: DiffusionModel + Sync + ?Sized,
{
    check_runs(runs)?;
    let _span = batch_histogram().span();
    let n = graph.node_count();
    let tally = (0..runs).into_par_iter().fold_reduce(
        || Ok(Tally::new(n)),
        |acc: Result<Tally, DiffusionError>, run| {
            let mut acc = acc?;
            let mut rng = run_rng(master_seed, run);
            acc.record(model.simulate(graph, seeds, &mut rng)?.states());
            Ok(acc)
        },
        |a, b| Ok(a?.merge(b?)),
    )?;
    Ok(tally.into_estimate(runs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IndependentCascade, Mfc};
    use isomit_graph::{Edge, Sign};

    #[test]
    fn tree_ic_probabilities_match_path_products() {
        // On a tree under IC, P(node infected) is exactly the product of
        // edge weights along the unique path from the seed.
        let g = SignedDigraph::from_edges(
            4,
            [
                Edge::new(NodeId(0), NodeId(1), Sign::Positive, 0.6),
                Edge::new(NodeId(1), NodeId(2), Sign::Positive, 0.5),
                Edge::new(NodeId(0), NodeId(3), Sign::Negative, 0.3),
            ],
        )
        .unwrap();
        let seeds = SeedSet::single(NodeId(0), Sign::Positive);
        let est =
            par_estimate_infection_probabilities(&IndependentCascade::new(), &g, &seeds, 40_000, 0)
                .unwrap();
        assert_eq!(est.infection_probability(NodeId(0)), 1.0);
        for (node, expected) in [(1u32, 0.6), (2, 0.3), (3, 0.3)] {
            let p = est.infection_probability(NodeId(node));
            let tolerance = est.confidence_halfwidth(NodeId(node)) * 2.0;
            assert!(
                (p - expected).abs() < tolerance.max(0.01),
                "node {node}: estimated {p}, expected {expected}"
            );
        }
        // Node 3 is reached over a negative edge: never positive.
        assert_eq!(est.positive_probability(NodeId(3)), 0.0);
    }

    #[test]
    fn mfc_boost_shows_up_in_estimates() {
        let g =
            SignedDigraph::from_edges(2, [Edge::new(NodeId(0), NodeId(1), Sign::Positive, 0.3)])
                .unwrap();
        let seeds = SeedSet::single(NodeId(0), Sign::Positive);
        let est =
            par_estimate_infection_probabilities(&Mfc::new(3.0).unwrap(), &g, &seeds, 20_000, 1)
                .unwrap();
        // Boosted probability min(1, 3·0.3) = 0.9.
        let p = est.infection_probability(NodeId(1));
        assert!((p - 0.9).abs() < 0.02, "estimated {p}");
    }

    #[test]
    fn expected_infected_sums_probabilities() {
        let g =
            SignedDigraph::from_edges(2, [Edge::new(NodeId(0), NodeId(1), Sign::Positive, 0.5)])
                .unwrap();
        let seeds = SeedSet::single(NodeId(0), Sign::Positive);
        let est =
            par_estimate_infection_probabilities(&IndependentCascade::new(), &g, &seeds, 10_000, 2)
                .unwrap();
        let total = est.expected_infected();
        assert!((total - 1.5).abs() < 0.05, "expected size {total}");
        assert_eq!(est.runs(), 10_000);
    }

    #[test]
    fn zero_runs_is_rejected() {
        let g = SignedDigraph::from_edges(1, []).unwrap();
        let seeds = SeedSet::single(NodeId(0), Sign::Positive);
        let err =
            par_estimate_infection_probabilities(&IndependentCascade::new(), &g, &seeds, 0, 0)
                .unwrap_err();
        assert!(err.to_string().contains("runs"));
    }

    #[test]
    fn runs_past_the_tally_range_are_rejected() {
        assert!(check_runs(u32::MAX as usize).is_ok());
        let err = check_runs(u32::MAX as usize + 1).unwrap_err();
        assert!(err.to_string().contains("runs = 4294967296"), "{err}");
    }

    #[test]
    fn decoder_rejects_counts_no_estimate_can_hold() {
        for (input, needle) in [
            (r#"{"runs":0,"infected":[1],"positive":[1]}"#, "runs"),
            (r#"{"runs":2,"infected":[5],"positive":[9]}"#, "infected"),
            (r#"{"runs":2,"infected":[1],"positive":[2]}"#, "positive"),
        ] {
            let value = json::Value::parse(input).unwrap();
            let err = InfectionEstimate::from_json_value(&value).unwrap_err();
            assert!(err.to_string().contains(needle), "{input}: {err}");
        }
        // The boundary cases stay valid: every run infected, every
        // infection positive.
        let value = json::Value::parse(r#"{"runs":2,"infected":[2],"positive":[2]}"#).unwrap();
        let est = InfectionEstimate::from_json_value(&value).unwrap();
        assert_eq!(est.positive_probability(NodeId(0)), 1.0);
    }
}
