//! # isomit-bench
//!
//! Experiment harness reproducing every table and figure of the paper's
//! evaluation (§IV). Each artifact has a dedicated binary:
//!
//! | Paper artifact | Binary | What it prints |
//! |---|---|---|
//! | Table II (dataset statistics) | `table2` | nodes / links / sign fractions of the generated networks vs the published numbers |
//! | Figure 4 (method comparison)  | `fig4`   | precision / recall / F1 of RID(β), RID-Tree, RID-Positive on both networks |
//! | Figure 5 (β sensitivity, identities) | `fig5` | precision / recall / F1 of RID across a β sweep |
//! | Figure 6 (β sensitivity, states) | `fig6` | accuracy / MAE / R² of RID's state inference across the β sweep |
//! | §IV-B3 diffusion analysis | `diffusion_analysis` | mean infected counts of MFC vs IC / LT / SIR / P-IC |
//! | design ablation | `ablation` | RID objective and external-support variants across β |
//! | extension | `unknowns` | detection quality under masked (unknown) states |
//! | engine check | `montecarlo` | sequential vs parallel Monte-Carlo: bit-identity assertion and speedup |
//!
//! All binaries accept `--scale <f>` (network scale, default `0.1`),
//! `--trials <n>` (default `5`), `--seed <u64>` (default `2026`),
//! `--threads <n>` (worker threads for parallel sections; default
//! automatic, also settable via `RAYON_NUM_THREADS`; `1` forces the
//! sequential path) and `--full` (shortcut for `--scale 1.0`, the
//! paper's Table-II sizes). Experiments run trials in parallel on a
//! bounded rayon pool; results are bit-identical for every thread count
//! because each trial draws from its own seed-derived RNG stream.
//!
//! Micro-benchmarks live in `benches/` (diffusion-model throughput,
//! forest-algorithm scaling, end-to-end RID latency), driven by the
//! in-repo [`report`] harness.
//!
//! # `BENCH_<name>.json` artifacts
//!
//! Experiment binaries and `benches/` targets serialize their results
//! through [`report::BenchReport`] to `BENCH_<name>.json` at the
//! workspace root (the nearest ancestor directory with a `Cargo.lock`;
//! override with the `ISOMIT_BENCH_DIR` environment variable). The
//! schema:
//!
//! ```json
//! {
//!   "schema": "isomit-bench/1",
//!   "name": "montecarlo",
//!   "created_unix": 1770000000,
//!   "threads": 8,
//!   "entries": [
//!     {"group": "mc", "id": "parallel",
//!      "metrics": {"speedup": 3.4},
//!      "timing": {"samples": 20, "mean_ns": 1.0e6, "std_ns": 2.0e4,
//!                 "min_ns": 9.7e5, "max_ns": 1.1e6}}
//!   ]
//! }
//! ```
//!
//! `schema` is the artifact version tag; `threads` is the rayon worker
//! count the run used; each entry carries a `group`/`id` pair plus
//! `metrics` (named scalars — precision, node counts, speedups, ...)
//! and/or `timing` (per-iteration statistics in nanoseconds). Absent
//! sections are omitted rather than emitted empty.

#![deny(missing_docs)]

pub mod report;

use isomit_core::{InitiatorDetector, Rid, RidPositive, RidTree};
use isomit_datasets::{
    build_scenario, build_scenario_with_model, epinions_like_scaled, slashdot_like_scaled,
    Scenario, ScenarioConfig,
};
use isomit_diffusion::DiffusionModel;
use isomit_graph::{NodeId, SignedDigraph};
use isomit_metrics::{evaluate_detection, evaluate_identities, Prf, StateMetrics};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

/// Which synthetic network family an experiment runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Network {
    /// Epinions-like (Table II row 1).
    Epinions,
    /// Slashdot-like (Table II row 2).
    Slashdot,
}

impl Network {
    /// Both networks, in paper order.
    pub const ALL: [Network; 2] = [Network::Epinions, Network::Slashdot];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Network::Epinions => "Epinions",
            Network::Slashdot => "Slashdot",
        }
    }

    /// Generates the network at the given scale.
    pub fn generate(self, scale: f64, rng: &mut StdRng) -> SignedDigraph {
        match self {
            Network::Epinions => epinions_like_scaled(scale, rng),
            Network::Slashdot => slashdot_like_scaled(scale, rng),
        }
    }
}

/// Common command-line options of the experiment binaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpOptions {
    /// Network scale in `(0, 1]`; `1.0` = the paper's Table II sizes.
    pub scale: f64,
    /// Number of independent trials to average over.
    pub trials: usize,
    /// Base RNG seed; trial `t` uses `seed + t`.
    pub seed: u64,
    /// Worker threads for parallel sections; `None` defers to
    /// `RAYON_NUM_THREADS` / hardware parallelism, `Some(1)` forces the
    /// sequential path.
    pub threads: Option<usize>,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            scale: 0.1,
            trials: 5,
            seed: 2026,
            threads: None,
        }
    }
}

impl ExpOptions {
    /// Parses `--scale`, `--trials`, `--seed`, `--threads`, `--full`
    /// from an argument iterator.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on an unknown flag (a mistyped flag
    /// would otherwise run, and record, the default configuration) and
    /// on malformed values.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut opts = ExpOptions::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--scale" => {
                    let v = iter.next().expect("--scale needs a value");
                    opts.scale = v.parse().expect("--scale needs a float");
                }
                "--trials" => {
                    let v = iter.next().expect("--trials needs a value");
                    opts.trials = v.parse().expect("--trials needs an integer");
                }
                "--seed" => {
                    let v = iter.next().expect("--seed needs a value");
                    opts.seed = v.parse().expect("--seed needs an integer");
                }
                "--threads" => {
                    let v = iter.next().expect("--threads needs a value");
                    opts.threads = Some(v.parse().expect("--threads needs an integer"));
                }
                "--full" => opts.scale = 1.0,
                other => panic!("unknown flag `{other}`"),
            }
        }
        assert!(
            opts.scale > 0.0 && opts.scale <= 1.0,
            "scale must lie in (0, 1]"
        );
        assert!(opts.trials > 0, "trials must be positive");
        assert!(opts.threads != Some(0), "threads must be positive");
        opts
    }

    /// Runs `f` under this option set's thread count: with
    /// `--threads n` the rayon sections inside `f` use exactly `n`
    /// workers, otherwise the ambient configuration
    /// (`RAYON_NUM_THREADS`, hardware parallelism) applies.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        match self.threads {
            Some(n) => rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .expect("thread pool construction cannot fail")
                .install(f),
            None => f(),
        }
    }

    /// The paper plants `N = 1000` initiators in the full Epinions
    /// network (0.76% of nodes); scaled-down runs keep that fraction.
    pub fn initiators_for(&self, network: Network) -> usize {
        let full = match network {
            Network::Epinions => 1000.0,
            Network::Slashdot => 1000.0,
        };
        ((full * self.scale).round() as usize).max(10)
    }
}

/// One trial's raw material: the scenario plus the ground-truth pairs.
#[derive(Debug)]
pub struct Trial {
    /// The generated scenario.
    pub scenario: Scenario,
    /// Ground truth as `(node, ±1)` pairs.
    pub truth_pairs: Vec<(NodeId, i8)>,
    /// Ground-truth node ids.
    pub truth_ids: Vec<NodeId>,
}

/// Builds one trial (network generation + MFC outbreak) for trial index
/// `t`, deterministic in `(options.seed, t)`.
pub fn build_trial(network: Network, options: &ExpOptions, t: usize) -> Trial {
    let mut rng = StdRng::seed_from_u64(options.seed.wrapping_add(t as u64));
    let social = network.generate(options.scale, &mut rng);
    let config = ScenarioConfig {
        n_initiators: options.initiators_for(network),
        ..ScenarioConfig::default()
    };
    let scenario = build_scenario(&social, &config, &mut rng);
    let truth_pairs = scenario.ground_truth_pairs();
    let truth_ids = scenario.ground_truth.nodes().collect();
    Trial {
        scenario,
        truth_pairs,
        truth_ids,
    }
}

/// Builds `options.trials` trials on the bounded rayon pool (honoring
/// `options.threads`). Trial `t` is seeded from `(options.seed, t)`
/// alone, so the result is identical for every thread count.
pub fn build_trials(network: Network, options: &ExpOptions) -> Vec<Trial> {
    options.install(|| {
        (0..options.trials)
            .into_par_iter()
            .map(|t| build_trial(network, options, t))
            .collect()
    })
}

/// [`build_trial`] generalized over the forward diffusion model: same
/// network generation, same seeding scheme, but the outbreak is
/// simulated by `model`. With MFC this is bit-identical to
/// [`build_trial`]; the detector bakeoff uses it to grade estimators
/// under outbreaks their assumptions were not built for.
pub fn build_trial_with_model(
    network: Network,
    options: &ExpOptions,
    t: usize,
    model: &dyn DiffusionModel,
) -> Trial {
    let mut rng = StdRng::seed_from_u64(options.seed.wrapping_add(t as u64));
    let social = network.generate(options.scale, &mut rng);
    let config = ScenarioConfig {
        n_initiators: options.initiators_for(network),
        ..ScenarioConfig::default()
    };
    let scenario = build_scenario_with_model(&social, &config, model, &mut rng);
    let truth_pairs = scenario.ground_truth_pairs();
    let truth_ids = scenario.ground_truth.nodes().collect();
    Trial {
        scenario,
        truth_pairs,
        truth_ids,
    }
}

/// [`build_trials`] generalized over the forward diffusion model; see
/// [`build_trial_with_model`].
pub fn build_trials_with_model(
    network: Network,
    options: &ExpOptions,
    model: &(dyn DiffusionModel + Sync),
) -> Vec<Trial> {
    options.install(|| {
        (0..options.trials)
            .into_par_iter()
            .map(|t| build_trial_with_model(network, options, t, model))
            .collect()
    })
}

/// Mean and (population) standard deviation of a sample.
pub fn mean_std(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// Identity metrics of one detector over a set of trials.
pub fn evaluate_identity_over_trials(
    detector: &dyn InitiatorDetector,
    trials: &[Trial],
) -> (Vec<Prf>, Vec<usize>) {
    trials
        .iter()
        .map(|trial| {
            let detection = detector.detect(&trial.scenario.snapshot);
            let prf = evaluate_identities(&detection.nodes(), &trial.truth_ids);
            (prf, detection.len())
        })
        .unzip()
}

/// State metrics of one detector over a set of trials (over correctly
/// identified initiators, per §IV-D1). Trials where nothing was
/// correctly identified produce no sample.
pub fn evaluate_states_over_trials(
    detector: &dyn InitiatorDetector,
    trials: &[Trial],
) -> Vec<StateMetrics> {
    trials
        .iter()
        .filter_map(|trial| {
            let detection = detector.detect(&trial.scenario.snapshot);
            let pairs: Vec<(NodeId, i8)> = detection
                .initiators
                .iter()
                .filter_map(|d| d.state.opinion().map(|s| (d.node, s)))
                .collect();
            let (_, states) = evaluate_detection(&pairs, &trial.truth_pairs);
            states
        })
        .collect()
}

/// The comparison detectors of Figure 4. `betas` follows the paper
/// (`0.09`, `0.1`) plus the calibrated equivalents for the synthetic
/// weight scale (see EXPERIMENTS.md); `alpha` is the paper's `3`.
pub fn figure4_detectors() -> Vec<Box<dyn InitiatorDetector>> {
    let alpha = 3.0;
    vec![
        Box::new(Rid::new(alpha, 0.09).expect("valid params")),
        Box::new(Rid::new(alpha, 0.1).expect("valid params")),
        Box::new(Rid::new(alpha, 2.5).expect("valid params")),
        Box::new(Rid::new(alpha, 3.0).expect("valid params")),
        Box::new(RidTree::new(alpha).expect("valid params")),
        Box::new(RidPositive::new()),
        // Extra baseline from the related work the paper discusses (§V):
        // Shah & Zaman's unsigned single-source estimator.
        Box::new(isomit_detectors::RumorCentralityDetector::new()),
    ]
}

/// The β sweep of Figures 5–6: the paper's `[0, 1]` range plus the
/// extension that covers the synthetic networks' transition region.
pub const BETA_SWEEP: [f64; 15] = [
    0.0, 0.09, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.5, 2.0, 3.0,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_parse_defaults_and_flags() {
        let opts = ExpOptions::parse(Vec::<String>::new());
        assert_eq!(opts, ExpOptions::default());
        let opts = ExpOptions::parse(
            ["--scale", "0.05", "--trials", "2", "--seed", "9"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(opts.scale, 0.05);
        assert_eq!(opts.trials, 2);
        assert_eq!(opts.seed, 9);
        let opts = ExpOptions::parse(["--full".to_string()]);
        assert_eq!(opts.scale, 1.0);
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn options_refuse_unknown_flags() {
        ExpOptions::parse(["--thread".to_string(), "1".to_string()]);
    }

    #[test]
    #[should_panic(expected = "scale must lie")]
    fn options_reject_bad_scale() {
        ExpOptions::parse(["--scale".to_string(), "2.0".to_string()]);
    }

    #[test]
    fn initiator_count_scales() {
        let opts = ExpOptions {
            scale: 0.1,
            ..ExpOptions::default()
        };
        assert_eq!(opts.initiators_for(Network::Epinions), 100);
        let opts = ExpOptions {
            scale: 1.0,
            ..ExpOptions::default()
        };
        assert_eq!(opts.initiators_for(Network::Slashdot), 1000);
    }

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[1.0, 3.0]);
        assert_eq!(m, 2.0);
        assert_eq!(s, 1.0);
        assert!(mean_std(&[]).0.is_nan());
    }

    #[test]
    fn trial_is_deterministic() {
        let opts = ExpOptions {
            scale: 0.005,
            trials: 1,
            seed: 4,
            ..ExpOptions::default()
        };
        let a = build_trial(Network::Epinions, &opts, 0);
        let b = build_trial(Network::Epinions, &opts, 0);
        assert_eq!(a.truth_ids, b.truth_ids);
        assert_eq!(a.scenario.snapshot, b.scenario.snapshot);
    }

    #[test]
    fn end_to_end_smoke() {
        let opts = ExpOptions {
            scale: 0.01,
            trials: 2,
            seed: 1,
            ..ExpOptions::default()
        };
        let trials = build_trials(Network::Slashdot, &opts);
        assert_eq!(trials.len(), 2);
        let detector = RidTree::new(3.0).unwrap();
        let (prfs, counts) = evaluate_identity_over_trials(&detector, &trials);
        assert_eq!(prfs.len(), 2);
        assert_eq!(counts.len(), 2);
        // RID-Tree only reports no-in-link roots: perfect precision.
        for prf in prfs {
            assert!(prf.precision > 0.99 || prf.precision == 0.0);
        }
    }
}
