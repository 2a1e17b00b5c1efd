//! Suite for the `isomit-detectors` registry: every detector built by
//! [`isomit_detectors::build`] must reproduce the checked-in golden
//! answers (RID, rumor centrality and Jordan center) and give
//! bit-identical output under every rayon thread count (this binary
//! runs in the CI determinism matrix at `RAYON_NUM_THREADS` 1 and 4).
//!
//! Regenerate the centrality fixtures after an *intentional* change
//! with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test detectors
//! ```

use isomit::prelude::*;
use isomit_core::{RidConfig, RidObjective, RidResult, SourceDetection};
use isomit_datasets::ScenarioConfig;
use isomit_detectors::{build, DetectorKind};
use isomit_diffusion::InfectedNetwork;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::ThreadPoolBuilder;
use std::fmt::Write as _;
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

/// A ranked answer as fixture text: the component count, the
/// initiators, then every ranked `(node, state, score)`, with scores
/// written round-trip exact.
fn render_ranked(found: &SourceDetection) -> String {
    let mut out = format!("component_count {}\n", found.detection.component_count);
    for d in &found.detection.initiators {
        writeln!(out, "initiator {} {}", d.node.0, d.state.as_symbol()).expect("infallible");
    }
    for r in &found.ranked {
        writeln!(
            out,
            "ranked {} {} {:?}",
            r.node.0,
            r.state.as_symbol(),
            r.score
        )
        .expect("infallible");
    }
    out
}

/// The two single-source estimators reproduce their checked-in answers
/// on the golden snapshots byte for byte, every ranked score included.
#[test]
fn centrality_detectors_match_golden_fixtures_byte_for_byte() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let dir = golden_dir();
    for (name, _) in golden_cases() {
        let snapshot_text = std::fs::read_to_string(dir.join(format!("{name}.snapshot.json")))
            .expect("golden snapshot fixture exists");
        let snapshot =
            InfectedNetwork::from_json_str(&snapshot_text).expect("golden snapshot parses");
        for kind in [DetectorKind::RumorCentrality, DetectorKind::JordanCenter] {
            let label = kind.as_label();
            let found = build(kind, &RidConfig::default())
                .expect("parameter-free detectors build")
                .detect_ranked(&snapshot);
            let actual = render_ranked(&found);
            let path = dir.join(format!("{name}.{label}.txt"));
            if update {
                std::fs::write(&path, &actual).expect("write ranked fixture");
                continue;
            }
            let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                panic!(
                    "missing fixture {} ({e}); regenerate with UPDATE_GOLDEN=1",
                    path.display()
                )
            });
            assert_eq!(
                actual, expected,
                "{name}: {label} diverged from the golden fixture"
            );
        }
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

/// All-pairs undirected hop distances by Floyd–Warshall, `None` between
/// components.
fn all_pairs_hops(n: usize, edges: &[(usize, usize)]) -> Vec<Vec<Option<u32>>> {
    let mut dist = vec![vec![None; n]; n];
    for (v, row) in dist.iter_mut().enumerate() {
        row[v] = Some(0);
    }
    for &(a, b) in edges {
        dist[a][b] = Some(1);
        dist[b][a] = Some(1);
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                if let (Some(ik), Some(kj)) = (dist[i][k], dist[k][j]) {
                    if dist[i][j].is_none_or(|ij| ik + kj < ij) {
                        dist[i][j] = Some(ik + kj);
                    }
                }
            }
        }
    }
    dist
}

// Jordan center names, per weak component, the `(eccentricity, id)`
// minimum of an all-pairs distance oracle, and scores every node
// `-eccentricity`.
proptest! {
    #[test]
    fn jordan_center_is_the_eccentricity_then_id_minimum(
        (n, edges) in (1..=30usize).prop_flat_map(|n| {
            (Just(n), proptest::collection::vec((0..n, 0..n, any::<bool>()), 0..45))
        })
    ) {
        let arcs: Vec<(usize, usize)> = edges
            .iter()
            .filter(|&&(a, b, _)| a != b)
            .flat_map(|&(a, b, reciprocal)| {
                std::iter::once((a, b)).chain(reciprocal.then_some((b, a)))
            })
            .collect();
        let g = SignedDigraph::from_edges(
            n,
            arcs.iter().map(|&(a, b)| {
                Edge::new(NodeId::from_index(a), NodeId::from_index(b), Sign::Positive, 0.5)
            }),
        )
        .expect("edges are in range");
        let snapshot = InfectedNetwork::from_parts(g, vec![NodeState::Positive; n]);
        let found = build(DetectorKind::JordanCenter, &RidConfig::default())
            .expect("parameter-free detectors build")
            .detect_ranked(&snapshot);

        let dist = all_pairs_hops(n, &arcs);
        let ecc: Vec<u32> = dist
            .iter()
            .map(|row| row.iter().flatten().copied().max().unwrap_or(0))
            .collect();
        let expected: Vec<NodeId> = (0..n)
            .filter(|&v| (0..n).all(|u| dist[v][u].is_none() || (ecc[v], v) <= (ecc[u], u)))
            .map(NodeId::from_index)
            .collect();
        prop_assert_eq!(found.detection.nodes(), expected);
        for r in &found.ranked {
            prop_assert_eq!(r.score, -f64::from(ecc[r.node.index()]));
        }
    }
}
