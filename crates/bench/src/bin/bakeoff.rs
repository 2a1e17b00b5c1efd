//! The **detector bakeoff**: every registered detector × diffusion model ×
//! network family, graded on precision / recall / F1 and
//! rank-of-true-source, with per-detector latency distributions.
//!
//! The grid crosses the five detectors (`rid`, `rid_tree`,
//! `rid_positive`, `rumor_centrality`, `jordan_center`) with three
//! forward models (MFC — the paper's own — plus independent cascade and
//! linear threshold as model-mismatch probes) on both synthetic network
//! families. Each cell averages `--trials` independent outbreaks.
//!
//! Rank-of-true-source is the mean, over planted initiators, of the
//! 1-based position the detector's ranked candidate list gives the true
//! source; sources the detector never scored are charged rank
//! `len + 1`. Set-style detectors (the RID family) rank only their
//! detected set, so their mean rank is near the detected count; the
//! score-style estimators rank the whole snapshot.
//!
//! A final `equivalence` entry asserts that RID built through the
//! registry is bit-identical to a directly configured `Rid::detect` on
//! every MFC trial and records `bit_identical: 1` for
//! `cargo xtask bench-check`.
//!
//! Writes `BENCH_detectors.json` (gated in CI against the F1 floors in
//! `bench_baselines.json`).

use isomit_bench::report::{BenchReport, TimingStats};
use isomit_bench::{build_trials_with_model, mean_std, ExpOptions, Network, Trial};
use isomit_core::{InitiatorDetector, Rid, RidConfig};
use isomit_detectors::{build, DetectorKind, SourceDetection};
use isomit_diffusion::{DiffusionModel, IndependentCascade, LinearThreshold, Mfc};
use isomit_graph::NodeId;
use isomit_metrics::evaluate_identities;
use std::time::Instant;

/// Mean 1-based rank the detector assigns the true sources; unscored
/// sources are charged `ranked.len() + 1`.
fn mean_rank_of_truth(found: &SourceDetection, truth: &[NodeId]) -> f64 {
    if truth.is_empty() {
        return f64::NAN;
    }
    let penalty = found.ranked.len() + 1;
    let total: usize = truth
        .iter()
        .map(|&node| found.rank_of(node).unwrap_or(penalty))
        .sum();
    total as f64 / truth.len() as f64
}

fn models(alpha: f64) -> Vec<Box<dyn DiffusionModel + Sync>> {
    vec![
        Box::new(Mfc::new(alpha).expect("alpha 3 is valid")),
        Box::new(IndependentCascade::new()),
        Box::new(LinearThreshold::new()),
    ]
}

fn main() {
    let opts = ExpOptions::parse(std::env::args().skip(1));
    // β = 3.0 is the calibrated equivalent of the paper's β = 0.1 on
    // the synthetic weight scale (see the β-calibration note in
    // EXPERIMENTS.md); the uncalibrated default drowns RID in
    // over-detection here exactly as Figure 5's low-β regime predicts.
    let config = RidConfig {
        beta: 3.0,
        ..RidConfig::default()
    };
    let mut report = BenchReport::new("detectors");
    println!(
        "== Detector bakeoff: {} detectors x 3 models x {} networks (scale {}, {} trials) ==",
        DetectorKind::ALL.len(),
        Network::ALL.len(),
        opts.scale,
        opts.trials
    );
    let mut mfc_cells = 0usize;
    for network in Network::ALL {
        for model in models(config.alpha) {
            let trials = build_trials_with_model(network, &opts, model.as_ref());
            let group = format!(
                "{}_{}",
                network.name().to_lowercase(),
                model.name().to_lowercase()
            );
            let infected: Vec<f64> = trials
                .iter()
                .map(|t| t.scenario.snapshot.node_count() as f64)
                .collect();
            let (inf_mean, _) = mean_std(&infected);
            println!(
                "\n-- {group} (N = {} planted, mean infected {:.0}) --",
                opts.initiators_for(network),
                inf_mean
            );
            println!(
                "{:<18} {:>9} {:>9} {:>9} {:>9} {:>11} {:>11}",
                "detector", "detected", "precision", "recall", "F1", "mean rank", "mean ms"
            );
            for kind in DetectorKind::ALL {
                let detector = build(kind, &config).expect("default config builds every detector");
                let mut precisions = Vec::with_capacity(trials.len());
                let mut recalls = Vec::with_capacity(trials.len());
                let mut f1s = Vec::with_capacity(trials.len());
                let mut ranks = Vec::with_capacity(trials.len());
                let mut detected = Vec::with_capacity(trials.len());
                let mut latencies_ns = Vec::with_capacity(trials.len());
                for trial in &trials {
                    let started = Instant::now();
                    let found = detector.detect_ranked(&trial.scenario.snapshot);
                    latencies_ns.push(started.elapsed().as_nanos() as f64);
                    let prf = evaluate_identities(&found.detection.nodes(), &trial.truth_ids);
                    precisions.push(prf.precision);
                    recalls.push(prf.recall);
                    f1s.push(prf.f1);
                    ranks.push(mean_rank_of_truth(&found, &trial.truth_ids));
                    detected.push(found.detection.len() as f64);
                }
                if kind == DetectorKind::Rid && model.name() == "MFC" {
                    assert_dispatch_equivalence(&config, &trials);
                    mfc_cells += 1;
                }
                let (p, _) = mean_std(&precisions);
                let (r, _) = mean_std(&recalls);
                let (f, fs) = mean_std(&f1s);
                let (rank, _) = mean_std(&ranks);
                let (c, _) = mean_std(&detected);
                let timing = TimingStats::from_samples(&latencies_ns);
                println!(
                    "{:<18} {:>9.0} {:>9.3} {:>9.3} {:>9.3} {:>11.1} {:>11.2}",
                    kind.as_label(),
                    c,
                    p,
                    r,
                    f,
                    rank,
                    timing.mean_ns / 1e6
                );
                report.add_entry(
                    group.clone(),
                    kind.as_label(),
                    vec![
                        ("precision".into(), p),
                        ("recall".into(), r),
                        ("f1".into(), f),
                        ("f1_std".into(), fs),
                        ("mean_rank".into(), rank),
                        ("detected".into(), c),
                        ("trials".into(), opts.trials as f64),
                        ("scale".into(), opts.scale),
                    ],
                    timing,
                );
            }
        }
    }
    // One summary entry so bench-check's bit-identity gate covers this
    // artifact: every MFC cell re-ran registry-built RID and asserted
    // bit equality with a directly configured `Rid` above.
    report.add_metrics(
        "detectors",
        "equivalence",
        vec![
            ("bit_identical".into(), 1.0),
            ("cells_checked".into(), mfc_cells as f64),
        ],
    );
    let path = report.write().expect("write bench artifact");
    println!("\nwrote {}", path.display());
}

/// Asserts registry-built RID ≡ `Rid::from_config(..).detect`, bit for
/// bit, on every trial of an MFC cell.
fn assert_dispatch_equivalence(config: &RidConfig, trials: &[Trial]) {
    let direct = Rid::from_config(*config).expect("default config is valid");
    let dispatched = build(DetectorKind::Rid, config).expect("default config is valid");
    for trial in trials {
        let expected = direct.detect(&trial.scenario.snapshot);
        let got = dispatched.detect_ranked(&trial.scenario.snapshot);
        assert_eq!(got.detection, expected, "registry-built RID diverged");
        assert_eq!(
            got.detection.objective.to_bits(),
            expected.objective.to_bits(),
            "objective bits diverged"
        );
    }
}
