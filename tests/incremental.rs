//! Equivalence suite for the incremental streaming layer: replaying
//! any valid delta sequence through [`IncrementalRid`] must produce a
//! [`RidResult`] bit-identical to a cold `Rid::detect` over the final
//! snapshot — after the full sequence, after every prefix, and under
//! every rayon thread count (this binary runs in the CI determinism
//! matrix at `RAYON_NUM_THREADS` 1 and 4).
//!
//! The golden watch fixture (`tests/golden/watch.*.jsonl`) pins one
//! delta script and the exact answer stream it must produce;
//! regenerate after an intentional behavior change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test incremental
//! ```

use isomit::prelude::*;
use isomit_core::{IncrementalRid, RidConfig, RidDelta, RidResult};
use isomit_graph::json::Value;
use isomit_graph::{NodeId, NodeState, Sign};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::ThreadPoolBuilder;
use std::path::PathBuf;

fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        .expect("thread pool")
        .install(f)
}

/// Deterministically generates a valid delta script: `nodes` initial
/// infections, up to `edges` random edges among them, then a `tail` of
/// mixed traffic (fresh infections, late edges, state flips). Every
/// delta is pre-validated against a probe session, so replaying the
/// script never rejects.
fn script(seed: u64, nodes: usize, edges: usize, tail: usize) -> Vec<RidDelta> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut probe = IncrementalRid::new(RidConfig::default()).expect("valid default config");
    let mut deltas = Vec::new();
    let mut states = Vec::with_capacity(nodes);

    for i in 0..nodes {
        let state = if rng.gen_bool(0.7) {
            NodeState::Positive
        } else {
            NodeState::Negative
        };
        let delta = RidDelta::Infect {
            node: NodeId::from_index(i),
            state,
        };
        probe.apply(&delta).expect("fresh infections are valid");
        deltas.push(delta);
        states.push(state);
    }

    let mut added = 0usize;
    let mut attempts = 0usize;
    while added < edges && attempts < edges * 4 {
        attempts += 1;
        let delta = RidDelta::AddEdge {
            src: NodeId::from_index(rng.gen_range(0..nodes)),
            dst: NodeId::from_index(rng.gen_range(0..nodes)),
            sign: if rng.gen_bool(0.8) {
                Sign::Positive
            } else {
                Sign::Negative
            },
            weight: 0.05 + 0.9 * rng.gen_range(0.0..1.0),
        };
        if probe.apply(&delta).is_ok() {
            deltas.push(delta);
            added += 1;
        }
    }

    let mut accepted = 0usize;
    let mut attempts = 0usize;
    while accepted < tail && attempts < tail * 8 + 8 {
        attempts += 1;
        let population = states.len();
        let delta = match rng.gen_range(0..4usize) {
            0 | 1 => {
                let state = if rng.gen_bool(0.5) {
                    NodeState::Positive
                } else {
                    NodeState::Negative
                };
                states.push(state);
                RidDelta::Infect {
                    node: NodeId::from_index(population),
                    state,
                }
            }
            2 => RidDelta::AddEdge {
                src: NodeId::from_index(rng.gen_range(0..population)),
                dst: NodeId::from_index(rng.gen_range(0..population)),
                sign: Sign::Positive,
                weight: 0.05 + 0.9 * rng.gen_range(0.0..1.0),
            },
            _ => {
                let node = rng.gen_range(0..population);
                let flipped = match states[node] {
                    NodeState::Positive => NodeState::Negative,
                    _ => NodeState::Positive,
                };
                states[node] = flipped;
                RidDelta::FlipState {
                    node: NodeId::from_index(node),
                    state: flipped,
                }
            }
        };
        if probe.apply(&delta).is_ok() {
            deltas.push(delta);
            accepted += 1;
        }
    }
    deltas
}

/// Cold reference: the `RidResult` a from-scratch detector produces on
/// `session`'s current snapshot.
fn cold_answer(session: &IncrementalRid) -> RidResult {
    let rid = Rid::from_config(session.config()).expect("valid session config");
    RidResult {
        config: rid.config(),
        detection: rid.detect(&session.snapshot()),
    }
}

/// Asserts full bit-identity between an incremental answer and its
/// cold reference: equal detections, equal objective bit patterns,
/// equal canonical JSON bytes.
fn assert_bit_identical(incremental: &RidResult, cold: &RidResult, context: &str) {
    assert_eq!(
        incremental.detection, cold.detection,
        "{context}: detections diverged"
    );
    assert_eq!(
        incremental.detection.objective.to_bits(),
        cold.detection.objective.to_bits(),
        "{context}: objective bit patterns diverged"
    );
    assert_eq!(
        incremental.to_json_string(),
        cold.to_json_string(),
        "{context}: JSON encodings diverged"
    );
}

#[test]
fn prefix_consistency_every_delta_answers_like_cold() {
    let deltas = script(4242, 24, 48, 12);
    let mut session = IncrementalRid::new(RidConfig::default()).expect("valid default config");
    let mut full_recompute = false;
    for (i, delta) in deltas.iter().enumerate() {
        session.apply(delta).expect("script deltas are valid");
        let (answer, outcome) = session.answer_detailed();
        full_recompute |= outcome.full_recompute;
        assert_bit_identical(&answer, &cold_answer(&session), &format!("prefix {i}"));
    }
    assert!(
        full_recompute,
        "the very first answer has every component dirty"
    );
    assert_eq!(session.deltas_applied(), deltas.len() as u64);
}

#[test]
fn replay_answers_are_thread_count_invariant() {
    let deltas = script(77, 20, 30, 10);
    let replay = || {
        let mut session = IncrementalRid::new(RidConfig::default()).expect("valid default config");
        deltas
            .iter()
            .map(|delta| {
                session.apply(delta).expect("script deltas are valid");
                session.answer().to_json_string()
            })
            .collect::<Vec<String>>()
    };
    let baseline = with_threads(1, replay);
    for threads in [2, 4] {
        let got = with_threads(threads, replay);
        assert_eq!(got, baseline, "threads={threads}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Randomized graphs × delta sequences × configs: replaying a full
    // script is bit-identical to cold-loading the final snapshot.
    #[test]
    fn replay_equals_cold_recompute_on_random_scripts(
        seed in 0u64..1_000,
        nodes in 8usize..40,
        tail in 0usize..20,
        beta_ix in 0usize..3,
    ) {
        let beta = [0.0, 0.1, 3.0][beta_ix];
        let config = RidConfig { beta, ..RidConfig::default() };
        let mut session = IncrementalRid::new(config).expect("valid config");
        for delta in script(seed, nodes, nodes * 2, tail) {
            session.apply(&delta).expect("script deltas are valid");
        }
        let answer = session.answer();
        let cold = cold_answer(&session);
        prop_assert_eq!(&answer.detection, &cold.detection);
        prop_assert_eq!(
            answer.detection.objective.to_bits(),
            cold.detection.objective.to_bits()
        );
        prop_assert_eq!(answer.to_json_string(), cold.to_json_string());
    }

    // Answering mid-stream never perturbs later answers: a session
    // answered after every `every`-th delta ends bit-identical to one
    // answered only once at the end, and each intermediate answer —
    // clean components beside several dirty ones — matches cold.
    #[test]
    fn intermediate_answers_do_not_perturb_the_final_one(
        seed in 0u64..1_000,
        nodes in 6usize..24,
        tail in 1usize..12,
        every in 1usize..8,
    ) {
        let deltas = script(seed, nodes, nodes, tail);
        let config = RidConfig::default();
        let mut chatty = IncrementalRid::new(config).expect("valid config");
        let mut quiet = IncrementalRid::new(config).expect("valid config");
        for (i, delta) in deltas.iter().enumerate() {
            chatty.apply(delta).expect("script deltas are valid");
            if (i + 1) % every == 0 {
                let context = format!("seed {seed} delta {i}");
                assert_bit_identical(&chatty.answer(), &cold_answer(&chatty), &context);
            }
            quiet.apply(delta).expect("script deltas are valid");
        }
        prop_assert_eq!(
            chatty.answer().to_json_string(),
            quiet.answer().to_json_string()
        );
    }
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// The pinned watch script: one delta JSON per line in
/// `watch.deltas.jsonl`, the exact answer stream in
/// `watch.expected.jsonl` — byte-for-byte, wire encoding included.
#[test]
fn golden_watch_fixture_is_byte_exact() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let dir = golden_dir();
    let deltas_path = dir.join("watch.deltas.jsonl");
    let expected_path = dir.join("watch.expected.jsonl");

    if update {
        std::fs::create_dir_all(&dir).expect("create tests/golden");
        let deltas = script(7, 16, 24, 9);
        let delta_lines: Vec<String> = deltas.iter().map(|d| d.to_json_value().to_json()).collect();
        std::fs::write(&deltas_path, delta_lines.join("\n") + "\n")
            .expect("write watch deltas fixture");
        let mut session = IncrementalRid::new(RidConfig::default()).expect("valid default config");
        let answer_lines: Vec<String> = deltas
            .iter()
            .map(|delta| {
                session.apply(delta).expect("script deltas are valid");
                session.answer().to_json_string()
            })
            .collect();
        std::fs::write(&expected_path, answer_lines.join("\n") + "\n")
            .expect("write watch expected fixture");
        return;
    }

    let deltas_text = std::fs::read_to_string(&deltas_path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); regenerate with UPDATE_GOLDEN=1",
            deltas_path.display()
        )
    });
    let expected_text = std::fs::read_to_string(&expected_path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); regenerate with UPDATE_GOLDEN=1",
            expected_path.display()
        )
    });
    let expected: Vec<&str> = expected_text.lines().collect();

    let mut session = IncrementalRid::new(RidConfig::default()).expect("valid default config");
    for (i, line) in deltas_text.lines().enumerate() {
        let value =
            Value::parse(line).unwrap_or_else(|e| panic!("corrupt delta fixture line {i}: {e}"));
        let delta = RidDelta::from_json_value(&value)
            .unwrap_or_else(|e| panic!("corrupt delta fixture line {i}: {e}"));
        // The delta codec must be byte-stable on its own fixture.
        assert_eq!(
            delta.to_json_value().to_json(),
            line,
            "delta {i}: re-encoding drifted from the checked-in bytes"
        );
        session.apply(&delta).expect("golden deltas are valid");
        let answer = session.answer().to_json_string();
        assert_eq!(
            Some(&answer.as_str()),
            expected.get(i),
            "delta {i}: answer diverged from the golden stream; if the \
             change is intentional, regenerate with UPDATE_GOLDEN=1 and commit"
        );
    }
    assert_eq!(
        expected.len(),
        deltas_text.lines().count(),
        "fixture line counts must match"
    );
}
