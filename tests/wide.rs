//! Determinism suite for the 64-lane wide Monte-Carlo engine: batch
//! width must not change any individual trial, every lane must replay
//! bit-identically through the scalar reference, and the estimator
//! must match a 1-thread run of itself for every thread count.
//! CI runs this binary under `RAYON_NUM_THREADS=1` and `=4`.

use isomit::prelude::*;
use isomit_diffusion::{
    estimate_infection_probabilities_wide_reference, simulate_wide_reference, wide_lane_key,
};
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

const MASTER: u64 = 0xD15EA5E;

/// Lane keys come from the *global* trial index, so packing the same
/// trials into 1-lane, 7-lane, or full 64-lane batches must produce
/// identical per-trial outcomes — and each must equal the scalar
/// reference replay of its lane key.
#[test]
fn batch_width_does_not_change_any_trial() {
    let (diffusion, seeds) = small_scenario(11);
    let model = Mfc::new(3.0).unwrap();
    let sim = WideSimulator::new(&model, &diffusion);
    let trials = 70usize;
    let keys: Vec<u64> = (0..trials).map(|t| wide_lane_key(MASTER, t)).collect();

    let run_width = |width: usize| -> Vec<Vec<NodeState>> {
        let mut per_trial = Vec::with_capacity(trials);
        for chunk in keys.chunks(width) {
            let batch = sim.run(&seeds, chunk).expect("valid batch");
            for lane in 0..batch.lanes() {
                per_trial.push(batch.lane_states(lane));
            }
        }
        per_trial
    };

    let full = run_width(64);
    for width in [1, 7] {
        assert_eq!(run_width(width), full, "width={width}");
    }
    for (t, states) in full.iter().enumerate() {
        let (reference, _) =
            simulate_wide_reference(&model, &diffusion, &seeds, wide_lane_key(MASTER, t))
                .expect("valid trial");
        assert_eq!(states, &reference, "trial {t} diverged from scalar replay");
    }
}

#[test]
fn parallel_wide_estimate_is_bit_identical_to_sequential() {
    let (diffusion, seeds) = small_scenario(11);
    let model = Mfc::new(3.0).unwrap();
    let sequential = with_threads(1, || {
        par_estimate_infection_probabilities_wide(&model, &diffusion, &seeds, 500, MASTER).unwrap()
    });
    for threads in [2, 4, 7] {
        let parallel = with_threads(threads, || {
            par_estimate_infection_probabilities_wide(&model, &diffusion, &seeds, 500, MASTER)
                .unwrap()
        });
        assert_eq!(sequential, parallel, "threads={threads}");
    }
}

/// Ragged trial counts — not divisible by 64 — exercise the masked
/// final batch; the estimate must still match the per-trial scalar
/// reference exactly.
#[test]
fn ragged_trial_counts_match_the_scalar_reference() {
    let (diffusion, seeds) = small_scenario(12);
    let model = Mfc::new(3.0).unwrap();
    for runs in [1usize, 63, 64, 65, 130] {
        let wide =
            par_estimate_infection_probabilities_wide(&model, &diffusion, &seeds, runs, MASTER)
                .unwrap();
        let reference = estimate_infection_probabilities_wide_reference(
            &model, &diffusion, &seeds, runs, MASTER,
        )
        .unwrap();
        assert_eq!(wide, reference, "runs={runs}");
    }
}

#[test]
fn wide_master_seeds_give_distinct_streams() {
    let (diffusion, seeds) = small_scenario(13);
    let model = Mfc::new(3.0).unwrap();
    let a = par_estimate_infection_probabilities_wide(&model, &diffusion, &seeds, 300, 1).unwrap();
    let b = par_estimate_infection_probabilities_wide(&model, &diffusion, &seeds, 300, 2).unwrap();
    assert_ne!(a, b, "different master seeds should not collide");
}
