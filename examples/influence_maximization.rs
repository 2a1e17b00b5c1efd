//! The flip side of initiator detection: if you *wanted* to start a
//! rumor (or a correction campaign), whom should you seed? Greedy
//! influence maximization under MFC versus IC — Table I's neighbouring
//! problem, built on the same substrate.
//!
//! ```sh
//! cargo run --release --example influence_maximization
//! ```

use isomit::diffusion::maximize_influence;
use isomit::prelude::*;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let social = epinions_like_scaled(0.004, &mut rng);
    let diffusion = paper_weights(&social, &mut rng);
    println!(
        "network: {} nodes, {} edges",
        diffusion.node_count(),
        diffusion.edge_count()
    );

    let k = 5;
    let runs = 100;
    for (label, model) in [
        (
            "MFC(a=3)",
            Box::new(Mfc::new(3.0)?) as Box<dyn DiffusionModel + Sync>,
        ),
        ("IC", Box::new(IndependentCascade::new())),
    ] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let result = maximize_influence(model.as_ref(), &diffusion, k, runs, &mut rng)?;
        println!("\n{label}: greedy seeds and spread trajectory");
        for (i, (seed, spread)) in result
            .seeds
            .iter()
            .zip(&result.spread_trajectory)
            .enumerate()
        {
            println!("  seed {:>2}: {seed} -> expected spread {spread:.1}", i + 1);
        }
        // Compare against random seeding with the same budget.
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let random_seeds = SeedSet::sample(&diffusion, k, 1.0, &mut rng);
        let random_spread = par_estimate_infection_probabilities(
            model.as_ref(),
            &diffusion,
            &random_seeds,
            runs,
            1000,
        )?
        .expected_infected();
        println!(
            "  random {k}-seed baseline: {random_spread:.1} (greedy advantage {:.1}x)",
            result.expected_spread() / random_spread.max(1.0)
        );
    }
    Ok(())
}
