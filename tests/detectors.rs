//! Suite for the `isomit-detectors` registry: every detector built by
//! [`isomit_detectors::build`] must reproduce the checked-in golden
//! answers (RID) and give bit-identical output under every rayon thread
//! count (this binary runs in the CI determinism matrix at
//! `RAYON_NUM_THREADS` 1 and 4).

use isomit::prelude::*;
use isomit_core::{RidConfig, RidObjective, RidResult};
use isomit_datasets::ScenarioConfig;
use isomit_detectors::{build, DetectorKind};
use isomit_diffusion::InfectedNetwork;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::ThreadPoolBuilder;
use std::path::PathBuf;

fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        .expect("thread pool")
        .install(f)
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// The golden cases pinned by `tests/golden.rs`, re-answered here
/// through the registry instead of `Rid` directly.
fn golden_cases() -> Vec<(&'static str, RidConfig)> {
    vec![
        ("default", RidConfig::default()),
        (
            "beta_zero",
            RidConfig {
                beta: 0.0,
                ..RidConfig::default()
            },
        ),
        (
            "log_likelihood",
            RidConfig {
                objective: RidObjective::LogLikelihood,
                ..RidConfig::default()
            },
        ),
        (
            "no_external_support",
            RidConfig {
                external_support: false,
                ..RidConfig::default()
            },
        ),
    ]
}

/// A small deterministic multi-initiator snapshot.
fn random_snapshot(seed: u64, n_initiators: usize) -> InfectedNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let social = epinions_like_scaled(0.008, &mut rng);
    let config = ScenarioConfig {
        n_initiators,
        ..ScenarioConfig::small()
    };
    build_scenario(&social, &config, &mut rng).snapshot
}

/// Registry-built RID reproduces the checked-in golden answers byte for
/// byte: dispatch may not perturb the pipeline's output encoding in any
/// way.
#[test]
fn dispatched_rid_matches_golden_fixtures_byte_for_byte() {
    let dir = golden_dir();
    for (name, config) in golden_cases() {
        let snapshot_text = std::fs::read_to_string(dir.join(format!("{name}.snapshot.json")))
            .expect("golden snapshot fixture exists");
        let snapshot =
            InfectedNetwork::from_json_str(&snapshot_text).expect("golden snapshot parses");
        let expected = std::fs::read_to_string(dir.join(format!("{name}.expected.json")))
            .expect("golden expected fixture exists");

        let detector = build(DetectorKind::Rid, &config).expect("golden configs are valid");
        let result = RidResult {
            config: Rid::from_config(config).expect("valid").config(),
            detection: detector.detect_ranked(&snapshot).detection,
        };
        assert_eq!(
            result.to_json_string(),
            expected,
            "{name}: dispatched RID diverged from the golden fixture"
        );
    }
}

/// Every registered detector gives the same point estimate, objective
/// bits and ranked list at 1, 2 and 4 threads.
#[test]
fn every_detector_is_thread_count_invariant() {
    let snapshot = random_snapshot(77, 12);
    let config = RidConfig {
        beta: 3.0,
        ..RidConfig::default()
    };
    for kind in DetectorKind::ALL {
        let detect = |threads| {
            with_threads(threads, || {
                build(kind, &config)
                    .expect("valid config")
                    .detect_ranked(&snapshot)
            })
        };
        let baseline = detect(1);
        for threads in [2, 4] {
            let got = detect(threads);
            let label = kind.as_label();
            assert_eq!(
                got.detection, baseline.detection,
                "{label}: point estimate diverged at threads={threads}"
            );
            assert_eq!(
                got.detection.objective.to_bits(),
                baseline.detection.objective.to_bits(),
                "{label}: objective bits diverged at threads={threads}"
            );
            assert_eq!(
                got.ranked, baseline.ranked,
                "{label}: ranked list diverged at threads={threads}"
            );
        }
    }
}
