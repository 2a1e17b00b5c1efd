//! Micro-benchmarks for the diffusion models: simulation
//! throughput of MFC versus the reference models at growing network
//! scales — backing the claim that MFC runs at Epinions/Slashdot scale.

use isomit_bench::report::{BenchmarkId, Harness};
use isomit_datasets::{epinions_like_scaled, paper_weights};
use isomit_diffusion::{
    simulate_wide_reference, wide_lane_key, DiffusionModel, IndependentCascade, LinearThreshold,
    Mfc, PolarityIc, SeedSet, Sir, WideSimulator, MAX_LANES,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_models(c: &mut Harness) {
    let mut rng = StdRng::seed_from_u64(7);
    let social = epinions_like_scaled(0.05, &mut rng); // ~6.6k nodes
    let diffusion = paper_weights(&social, &mut rng);
    let seeds = SeedSet::sample(&diffusion, 50, 0.5, &mut rng);

    let models: Vec<(&str, Box<dyn DiffusionModel>)> = vec![
        ("mfc", Box::new(Mfc::new(3.0).unwrap())),
        ("ic", Box::new(IndependentCascade::new())),
        ("lt", Box::new(LinearThreshold::new())),
        ("sir", Box::new(Sir::new(0.5).unwrap())),
        ("pic", Box::new(PolarityIc::new(0.5).unwrap())),
    ];
    let mut group = c.benchmark_group("diffusion_models");
    for (name, model) in &models {
        group.bench_function(*name, |b| {
            let mut rng = StdRng::seed_from_u64(11);
            b.iter(|| model.simulate(&diffusion, &seeds, &mut rng))
        });
    }
    group.finish();
}

fn bench_mfc_scaling(c: &mut Harness) {
    let mut group = c.benchmark_group("mfc_scaling");
    group.sample_size(10);
    for scale in [0.02, 0.05, 0.1, 0.2] {
        let mut rng = StdRng::seed_from_u64(7);
        let social = epinions_like_scaled(scale, &mut rng);
        let diffusion = paper_weights(&social, &mut rng);
        let n_seeds = ((1000.0 * scale) as usize).max(10);
        let seeds = SeedSet::sample(&diffusion, n_seeds, 0.5, &mut rng);
        let model = Mfc::new(3.0).unwrap();
        group.bench_with_input(
            BenchmarkId::from_parameter(diffusion.node_count()),
            &diffusion,
            |b, g| {
                let mut rng = StdRng::seed_from_u64(11);
                b.iter(|| model.simulate(g, &seeds, &mut rng))
            },
        );
    }
    group.finish();
}

/// One 64-lane batch of the wide MFC engine, in the shape of a served
/// `simulate` request: 3 initiators sampled from a fixed RNG seed on the
/// Epinions-like network with paper weights (scale 0.3 is the network
/// the daemon benchmark serves), α = 3 as in RID's default config.
/// `reference/<n>` replays one lane of the same batch through the scalar
/// oracle.
fn bench_wide_batch(c: &mut Harness) {
    let mut group = c.benchmark_group("wide_batch");
    group.sample_size(10);
    let model = Mfc::new(3.0).unwrap();
    let keys: Vec<u64> = (0..MAX_LANES).map(|t| wide_lane_key(1, t)).collect();
    for scale in [0.05, 0.3] {
        let mut rng = StdRng::seed_from_u64(7);
        let social = epinions_like_scaled(scale, &mut rng);
        let diffusion = paper_weights(&social, &mut rng);
        let seeds = SeedSet::sample(&diffusion, 3, 0.5, &mut StdRng::seed_from_u64(0));
        let n = diffusion.node_count();
        let sim = WideSimulator::new(&model, &diffusion);
        group.bench_function(BenchmarkId::new("wide", n), |b| {
            b.iter(|| sim.run(&seeds, &keys))
        });
        group.bench_function(BenchmarkId::new("reference", n), |b| {
            b.iter(|| simulate_wide_reference(&model, &diffusion, &seeds, keys[0]))
        });
    }
    group.finish();
}

fn main() {
    let mut harness = Harness::new("diffusion");
    bench_models(&mut harness);
    bench_mfc_scaling(&mut harness);
    bench_wide_batch(&mut harness);
    harness.finish().expect("write bench artifact");
}
