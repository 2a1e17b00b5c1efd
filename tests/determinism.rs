//! Regression tests for the deterministic parallel execution layer:
//! given the same master seed, every parallel path must produce output
//! bit-identical to a 1-thread run of itself, for every thread count.

use isomit::prelude::*;
use isomit_bench::{build_trials, ExpOptions, Network};
use isomit_core::extract_cascade_forest;
use isomit_diffusion::maximize_influence;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::ThreadPoolBuilder;

fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        .expect("thread pool")
        .install(f)
}

fn small_scenario(seed: u64) -> (SignedDigraph, SeedSet) {
    let mut rng = StdRng::seed_from_u64(seed);
    let social = epinions_like_scaled(0.01, &mut rng);
    let diffusion = isomit_datasets::paper_weights(&social, &mut rng);
    let seeds = SeedSet::sample(&diffusion, 20, 0.5, &mut rng);
    (diffusion, seeds)
}

#[test]
fn parallel_monte_carlo_is_bit_identical_to_sequential() {
    let (diffusion, seeds) = small_scenario(11);
    let model = Mfc::new(3.0).unwrap();
    let master = 0xD15EA5E;
    let sequential = with_threads(1, || {
        par_estimate_infection_probabilities(&model, &diffusion, &seeds, 500, master).unwrap()
    });
    for threads in [2, 4, 7] {
        let parallel = with_threads(threads, || {
            par_estimate_infection_probabilities(&model, &diffusion, &seeds, 500, master).unwrap()
        });
        assert_eq!(sequential, parallel, "threads={threads}");
    }
}

#[test]
fn monte_carlo_master_seeds_give_distinct_streams() {
    let (diffusion, seeds) = small_scenario(12);
    let model = Mfc::new(3.0).unwrap();
    let a = par_estimate_infection_probabilities(&model, &diffusion, &seeds, 300, 1).unwrap();
    let b = par_estimate_infection_probabilities(&model, &diffusion, &seeds, 300, 2).unwrap();
    assert_ne!(a, b, "different master seeds should not collide");
}

#[test]
fn forest_extraction_is_thread_count_invariant() {
    let mut rng = StdRng::seed_from_u64(21);
    let social = epinions_like_scaled(0.01, &mut rng);
    let config = isomit_datasets::ScenarioConfig {
        n_initiators: 15,
        ..Default::default()
    };
    let scenario = build_scenario(&social, &config, &mut rng);
    let baseline = with_threads(1, || extract_cascade_forest(&scenario.snapshot, 3.0));
    for threads in [2, 3, 8] {
        let got = with_threads(threads, || extract_cascade_forest(&scenario.snapshot, 3.0));
        assert_eq!(got, baseline, "threads={threads}");
    }
}

#[test]
fn rid_detection_is_thread_count_invariant() {
    let mut rng = StdRng::seed_from_u64(31);
    let social = slashdot_like_scaled(0.01, &mut rng);
    let config = isomit_datasets::ScenarioConfig {
        n_initiators: 15,
        ..Default::default()
    };
    let scenario = build_scenario(&social, &config, &mut rng);
    let rid = Rid::new(3.0, 0.5).unwrap();
    let baseline = with_threads(1, || rid.detect(&scenario.snapshot));
    for threads in [2, 5] {
        let got = with_threads(threads, || rid.detect(&scenario.snapshot));
        assert_eq!(got, baseline, "threads={threads}");
    }
    // The float objective, not just the id set, must match bit-exactly:
    // outcomes are folded in tree order regardless of scheduling.
    assert_eq!(
        with_threads(3, || rid.detect(&scenario.snapshot))
            .objective
            .to_bits(),
        baseline.objective.to_bits()
    );
}

#[test]
fn trial_building_is_thread_count_invariant() {
    let opts = ExpOptions {
        scale: 0.01,
        trials: 3,
        seed: 99,
        threads: Some(1),
    };
    let baseline = build_trials(Network::Epinions, &opts);
    for threads in [2, 4] {
        let opts = ExpOptions {
            threads: Some(threads),
            ..opts
        };
        let got = build_trials(Network::Epinions, &opts);
        assert_eq!(got.len(), baseline.len());
        for (a, b) in got.iter().zip(&baseline) {
            assert_eq!(
                a.scenario.snapshot, b.scenario.snapshot,
                "threads={threads}"
            );
            assert_eq!(a.truth_pairs, b.truth_pairs, "threads={threads}");
        }
    }
}

#[test]
fn influence_maximization_is_thread_count_invariant() {
    // Every spread estimate draws its master seed from the caller's RNG
    // and runs through the parallel estimator, so the greedy selection
    // and its float trajectory cannot depend on the worker count.
    let mut rng = StdRng::seed_from_u64(41);
    let social = epinions_like_scaled(0.002, &mut rng);
    let diffusion = isomit_datasets::paper_weights(&social, &mut rng);
    let model = Mfc::new(3.0).unwrap();
    let select = |threads| {
        let result = with_threads(threads, || {
            maximize_influence(&model, &diffusion, 3, 16, &mut StdRng::seed_from_u64(7)).unwrap()
        });
        let bits: Vec<u64> = result
            .spread_trajectory
            .iter()
            .map(|s| s.to_bits())
            .collect();
        (result.seeds, bits)
    };
    let baseline = select(1);
    for threads in [2, 4] {
        assert_eq!(select(threads), baseline, "threads={threads}");
    }
}
