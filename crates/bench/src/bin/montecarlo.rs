//! Benchmarks the Monte-Carlo estimators and writes
//! `BENCH_montecarlo.json` with two groups:
//!
//! * `mc` — the scalar per-trial estimator, sequential vs rayon
//!   parallel, verified bit-identical for the same master seed;
//! * `montecarlo_wide` — the 64-lane bitplane engine, sequential and
//!   parallel, verified bit-identical to its retained scalar reference
//!   ([`estimate_infection_probabilities_wide_reference`]) and timed
//!   against the scalar `mc` path to report the wide speedup that
//!   `cargo run -p xtask -- bench-check` gates on.
//!
//! A "sequential" timing is the same estimator call in a 1-thread pool.
//!
//! A `speedup` metric is only recorded for parallel-vs-sequential
//! comparisons taken with **two or more** rayon threads: a 1-thread
//! "parallel" run measures scheduling overhead, not parallelism, and
//! labeling it a speedup corrupts the regression baseline. The
//! wide-vs-scalar `speedup` is thread-independent (both sides
//! sequential) and always recorded.
//!
//! Accepts the common options (`--scale`, `--trials` as MC-run
//! multiplier, `--seed`, `--threads`); the run count is
//! `1000 · trials`, clamped to at least 1000.

use isomit_bench::report::{BenchReport, TimingStats};
use isomit_bench::{ExpOptions, Network};
use isomit_datasets::paper_weights;
use isomit_diffusion::{
    estimate_infection_probabilities_wide_reference, par_estimate_infection_probabilities,
    par_estimate_infection_probabilities_wide, Mfc, SeedSet,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let opts = ExpOptions::parse(std::env::args().skip(1));
    let runs = (1000 * opts.trials).max(1000);
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let social = Network::Epinions.generate(opts.scale, &mut rng);
    let diffusion = paper_weights(&social, &mut rng);
    let n_seeds = opts.initiators_for(Network::Epinions);
    let seeds = SeedSet::sample(&diffusion, n_seeds, 0.5, &mut rng);
    let model = Mfc::new(3.0).expect("valid alpha");
    let one_thread = ExpOptions {
        threads: Some(1),
        ..opts
    };

    opts.install(|| {
        let threads = rayon::current_num_threads();
        println!(
            "== Monte-Carlo estimators: {} runs, {} nodes, {} threads ==",
            runs,
            diffusion.node_count(),
            threads
        );

        // -- scalar path: 1-thread pool vs rayon parallel --
        let t0 = Instant::now();
        let sequential = one_thread
            .install(|| {
                par_estimate_infection_probabilities(&model, &diffusion, &seeds, runs, opts.seed)
            })
            .expect("sampled seeds lie within the diffusion network");
        let seq_ns = t0.elapsed().as_nanos() as f64;

        let t1 = Instant::now();
        let parallel =
            par_estimate_infection_probabilities(&model, &diffusion, &seeds, runs, opts.seed)
                .expect("sampled seeds lie within the diffusion network");
        let par_ns = t1.elapsed().as_nanos() as f64;

        assert_eq!(
            sequential, parallel,
            "parallel estimate must be bit-identical to the sequential reference"
        );
        if threads >= 2 {
            println!(
                "scalar: sequential {:.1} ms, parallel {:.1} ms, speedup {:.2}x — bit-identical",
                seq_ns / 1e6,
                par_ns / 1e6,
                seq_ns / par_ns
            );
        } else {
            println!(
                "scalar: sequential {:.1} ms, parallel {:.1} ms (1 thread: no speedup recorded) — bit-identical",
                seq_ns / 1e6,
                par_ns / 1e6,
            );
        }

        // -- wide path: 64-lane bitplanes vs its scalar oracle --
        let t2 = Instant::now();
        let wide_seq = one_thread
            .install(|| {
                par_estimate_infection_probabilities_wide(
                    &model, &diffusion, &seeds, runs, opts.seed,
                )
            })
            .expect("sampled seeds lie within the diffusion network");
        let wide_seq_ns = t2.elapsed().as_nanos() as f64;

        let t3 = Instant::now();
        let wide_par =
            par_estimate_infection_probabilities_wide(&model, &diffusion, &seeds, runs, opts.seed)
                .expect("sampled seeds lie within the diffusion network");
        let wide_par_ns = t3.elapsed().as_nanos() as f64;

        let t4 = Instant::now();
        let wide_ref = estimate_infection_probabilities_wide_reference(
            &model, &diffusion, &seeds, runs, opts.seed,
        )
        .expect("sampled seeds lie within the diffusion network");
        let wide_ref_ns = t4.elapsed().as_nanos() as f64;

        assert_eq!(
            wide_seq, wide_ref,
            "wide estimate must be bit-identical to the scalar wide reference"
        );
        assert_eq!(
            wide_seq, wide_par,
            "parallel wide estimate must be bit-identical to the sequential wide path"
        );
        // Wide speedup over the production scalar estimator: both sides
        // sequential, so the figure is meaningful at any thread count.
        let wide_speedup = seq_ns / wide_seq_ns;
        println!(
            "wide: sequential {:.1} ms, parallel {:.1} ms, scalar-oracle {:.1} ms — bit-identical",
            wide_seq_ns / 1e6,
            wide_par_ns / 1e6,
            wide_ref_ns / 1e6,
        );
        println!("wide-vs-scalar speedup {wide_speedup:.2}x (sequential both sides)");

        let mut report = BenchReport::new("montecarlo");
        report.add_timing(
            "mc",
            "sequential",
            TimingStats::from_samples(&[seq_ns / runs as f64]),
        );
        report.add_timing(
            "mc",
            "parallel",
            TimingStats::from_samples(&[par_ns / runs as f64]),
        );
        let mut scalar_summary = vec![
            ("runs".into(), runs as f64),
            ("nodes".into(), diffusion.node_count() as f64),
            ("threads".into(), threads as f64),
            ("sequential_ns".into(), seq_ns),
            ("parallel_ns".into(), par_ns),
            ("bit_identical".into(), 1.0),
            ("expected_infected".into(), parallel.expected_infected()),
        ];
        if threads >= 2 {
            scalar_summary.push(("speedup".into(), seq_ns / par_ns));
        }
        report.add_metrics("mc", "summary", scalar_summary);

        report.add_timing(
            "montecarlo_wide",
            "sequential",
            TimingStats::from_samples(&[wide_seq_ns / runs as f64]),
        );
        report.add_timing(
            "montecarlo_wide",
            "parallel",
            TimingStats::from_samples(&[wide_par_ns / runs as f64]),
        );
        report.add_timing(
            "montecarlo_wide",
            "scalar_reference",
            TimingStats::from_samples(&[wide_ref_ns / runs as f64]),
        );
        let mut wide_summary = vec![
            ("runs".into(), runs as f64),
            ("nodes".into(), diffusion.node_count() as f64),
            ("threads".into(), threads as f64),
            ("sequential_ns".into(), wide_seq_ns),
            ("parallel_ns".into(), wide_par_ns),
            ("scalar_reference_ns".into(), wide_ref_ns),
            ("speedup".into(), wide_speedup),
            ("bit_identical".into(), 1.0),
            ("expected_infected".into(), wide_par.expected_infected()),
        ];
        if threads >= 2 {
            wide_summary.push(("par_speedup".into(), wide_seq_ns / wide_par_ns));
        }
        report.add_metrics("montecarlo_wide", "summary", wide_summary);

        let path = report.write().expect("write bench artifact");
        println!("wrote {}", path.display());
    });
}
