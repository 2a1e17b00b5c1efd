//! `cargo run -p xtask -- bench-check` — the CI bench-regression gate.
//!
//! Reads the committed benchmark artifacts (`BENCH_montecarlo.json`,
//! `BENCH_scale.json`) and the committed policy file
//! (`bench_baselines.json`) and fails when:
//!
//! * any entry carries a `bit_identical` metric that is not `1` — a
//!   parallel or wide path diverged from its scalar reference;
//! * a summary taken with fewer than two rayon threads records a
//!   parallel-vs-sequential speedup (a 1-thread "parallel" run measures
//!   scheduling overhead, not parallelism, and must not set a baseline);
//! * the wide-vs-scalar Monte-Carlo speedup falls below the committed
//!   floor for its artifact;
//! * `sampling_ns` in `BENCH_scale.json` regresses more than 25% against
//!   the baseline recorded for the **same workload** (nodes, edges,
//!   snapshot count). Workloads without a committed baseline are warned
//!   about and skipped, so a full-scale local artifact never trips a
//!   smoke-scale gate (and vice versa);
//! * any detector's F1 on the paper-family workload (the `epinions_mfc`
//!   cell of `BENCH_detectors.json`) falls below its committed
//!   `floors.detector_f1_<label>` floor — a broken estimator must not
//!   land silently even when the artifact was regenerated;
//! * the incremental watch-session amortized speedup over cold
//!   recompute (`speedup_amortized` in `BENCH_incremental.json`) falls
//!   below `floors.incremental_speedup`, or any of its answers diverged
//!   from the cold reference (`bit_identical`), or its sparse tail did
//!   not stay incremental: any tail answer in which every component was
//!   dirty (`stream_fallbacks`), or a forest-extraction count other than
//!   one per dirty component (`stream_extractions` against
//!   `dirty_components_total`). Those two counts match because each
//!   tail step dirties exactly one fresh component and an answer
//!   extracts its dirty components once, together. The speedup alone
//!   cannot tell, since it divides the cold recompute by whatever the
//!   session did;
//! * the serving layer's cached-snapshot throughput (`service_rps` in
//!   `BENCH_service.json`'s `service/summary` entry) falls below
//!   `floors.service_rps`, its hot-path tail latency (`hot_p99_ns`)
//!   exceeds `ceilings.service_hot_p99_ns`, or the load generator saw
//!   any answer diverge from the in-process oracle (`wrong_answers`).
//!
//! `--update-baselines` rewrites the sampling baselines in
//! `bench_baselines.json` from the current artifacts, preserving the
//! hand-committed speedup/F1/throughput floors and latency ceilings.

use isomit_graph::json::Value;
use std::fs;
use std::path::Path;

/// Fraction by which `sampling_ns` may exceed its baseline before the
/// gate fails.
const SAMPLING_TOLERANCE: f64 = 0.25;

/// Outcome of one bench-check run: human-readable failures (empty means
/// the gate passes) and non-fatal warnings.
#[derive(Debug, Default)]
pub struct BenchCheckOutcome {
    /// Gate violations; any entry fails the command.
    pub failures: Vec<String>,
    /// Skipped or missing-but-tolerated checks.
    pub warnings: Vec<String>,
}

/// One parsed `metrics` map of a bench entry.
struct Metrics<'a> {
    group: &'a str,
    id: &'a str,
    values: &'a [(String, Value)],
}

impl Metrics<'_> {
    fn get(&self, key: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_f64())
    }
}

/// Extracts every metrics entry of a parsed bench artifact.
fn metrics_entries(doc: &Value) -> Vec<Metrics<'_>> {
    let mut out = Vec::new();
    let Some(entries) = doc.get("entries").and_then(Value::as_array) else {
        return out;
    };
    for entry in entries {
        let (Some(group), Some(id)) = (
            entry.get("group").and_then(Value::as_str),
            entry.get("id").and_then(Value::as_str),
        ) else {
            continue;
        };
        if let Some(Value::Object(values)) = entry.get("metrics") {
            out.push(Metrics { group, id, values });
        }
    }
    out
}

fn load_json(path: &Path) -> Result<Value, String> {
    let text =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Value::parse(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

/// Looks up one metrics entry by `(group, id)`.
fn find<'a>(entries: &'a [Metrics<'a>], group: &str, id: &str) -> Option<&'a Metrics<'a>> {
    entries.iter().find(|m| m.group == group && m.id == id)
}

/// Every `bit_identical` metric anywhere in the artifact must be 1.
fn check_bit_identical(name: &str, entries: &[Metrics<'_>], out: &mut BenchCheckOutcome) {
    let mut seen = false;
    for m in entries {
        if let Some(flag) = m.get("bit_identical") {
            seen = true;
            if flag != 1.0 {
                out.failures.push(format!(
                    "{name}: {}/{} reports bit_identical = {flag} (parallel or wide \
                     path diverged from its scalar reference)",
                    m.group, m.id
                ));
            }
        }
    }
    if !seen {
        out.failures.push(format!(
            "{name}: no entry carries a bit_identical metric — artifact predates the \
             determinism gate; regenerate it"
        ));
    }
}

/// A summary taken with fewer than two threads must not record a
/// parallel-vs-sequential speedup.
fn check_thread_labels(name: &str, entries: &[Metrics<'_>], out: &mut BenchCheckOutcome) {
    for (group, id, key) in [
        ("mc", "summary", "speedup"),
        ("montecarlo_wide", "summary", "par_speedup"),
    ] {
        let Some(m) = find(entries, group, id) else {
            continue;
        };
        if m.get("threads").is_some_and(|t| t < 2.0) && m.get(key).is_some() {
            out.failures.push(format!(
                "{name}: {group}/{id} records `{key}` from a 1-thread run — a 1-thread \
                 \"parallel\" measurement is scheduling overhead, not a speedup; rerun \
                 with --threads >= 2"
            ));
        }
    }
}

/// The speedup metric `key` of `(group, id)` must meet `floor`.
fn check_speedup_floor(
    name: &str,
    entries: &[Metrics<'_>],
    group: &str,
    id: &str,
    key: &str,
    floor: f64,
    out: &mut BenchCheckOutcome,
) {
    let Some(m) = find(entries, group, id) else {
        out.failures.push(format!(
            "{name}: missing {group}/{id} entry — regenerate the artifact"
        ));
        return;
    };
    match m.get(key) {
        Some(speedup) if speedup < floor => out.failures.push(format!(
            "{name}: {group}/{id} {key} {speedup:.2}x is below the \
             committed floor {floor:.2}x (bench_baselines.json)"
        )),
        Some(_) => {}
        None => out
            .failures
            .push(format!("{name}: {group}/{id} has no `{key}` metric")),
    }
}

/// The `watch_load` tail must have stayed incremental: no answer in
/// which every component was dirty, and exactly one forest extraction
/// per dirty component. An answer extracts its dirty components once,
/// together, so the second count holds because each tail step dirties
/// exactly one fresh component.
fn check_incremental_counts(name: &str, entries: &[Metrics<'_>], out: &mut BenchCheckOutcome) {
    let Some(m) = find(entries, "incremental", "watch_load") else {
        out.failures.push(format!(
            "{name}: missing incremental/watch_load entry — regenerate the artifact"
        ));
        return;
    };
    let (Some(fallbacks), Some(extractions), Some(dirty)) = (
        m.get("stream_fallbacks"),
        m.get("stream_extractions"),
        m.get("dirty_components_total"),
    ) else {
        out.failures.push(format!(
            "{name}: incremental/watch_load lacks stream_fallbacks, stream_extractions \
             or dirty_components_total — regenerate the artifact"
        ));
        return;
    };
    if fallbacks != 0.0 {
        out.failures.push(format!(
            "{name}: incremental/watch_load had every component dirty in {fallbacks} \
             answers of the sparse tail"
        ));
    }
    if extractions != dirty {
        out.failures.push(format!(
            "{name}: incremental/watch_load ran {extractions} forest extractions for \
             {dirty} dirty components; the tail must extract each dirty component once"
        ));
    }
}

/// Detector labels gated by `floors.detector_f1_<label>`.
const GATED_DETECTORS: [&str; 5] = [
    "rid",
    "rid_tree",
    "rid_positive",
    "rumor_centrality",
    "jordan_center",
];

/// The bakeoff cell on the paper's own model and network family; F1
/// floors are pinned against it because it is the workload the paper
/// optimises for (model-mismatch cells are diagnostics, not gates).
const PAPER_FAMILY_GROUP: &str = "epinions_mfc";

/// Every gated detector's F1 on the paper-family cell must meet its
/// committed floor; a missing cell fails too (a regenerated artifact
/// that silently dropped a detector must not pass).
fn check_detector_f1(
    name: &str,
    entries: &[Metrics<'_>],
    baselines: &Value,
    out: &mut BenchCheckOutcome,
) -> Result<(), String> {
    for label in GATED_DETECTORS {
        let floor = floor(baselines, &format!("detector_f1_{label}"))?;
        let Some(m) = find(entries, PAPER_FAMILY_GROUP, label) else {
            out.failures.push(format!(
                "{name}: missing {PAPER_FAMILY_GROUP}/{label} entry — regenerate the \
                 artifact with the full detector grid"
            ));
            continue;
        };
        match m.get("f1") {
            Some(f1) if f1 < floor => out.failures.push(format!(
                "{name}: {PAPER_FAMILY_GROUP}/{label} F1 {f1:.3} is below the committed \
                 floor {floor:.3} (bench_baselines.json)"
            )),
            Some(_) => {}
            None => out.failures.push(format!(
                "{name}: {PAPER_FAMILY_GROUP}/{label} has no `f1` metric"
            )),
        }
    }
    Ok(())
}

/// The `(nodes, edges, snapshots)` workload key of a scale artifact.
fn scale_workload(entries: &[Metrics<'_>]) -> Option<(f64, f64, f64)> {
    let graph = find(entries, "dataset", "graph")?;
    let snaps = find(entries, "dataset", "snapshots")?;
    Some((
        graph.get("nodes")?,
        graph.get("edges")?,
        snaps.get("count")?,
    ))
}

/// `sampling_ns` must stay within `1 + SAMPLING_TOLERANCE` of the
/// baseline committed for the same workload.
fn check_sampling_regression(
    name: &str,
    entries: &[Metrics<'_>],
    baselines: &Value,
    out: &mut BenchCheckOutcome,
) {
    let Some((nodes, edges, snapshots)) = scale_workload(entries) else {
        out.failures.push(format!(
            "{name}: missing dataset/graph or dataset/snapshots entry"
        ));
        return;
    };
    let Some(sampling_ns) =
        find(entries, "dataset", "snapshots").and_then(|m| m.get("sampling_ns"))
    else {
        out.failures.push(format!(
            "{name}: dataset/snapshots has no `sampling_ns` metric"
        ));
        return;
    };
    let baseline = baselines
        .get("sampling")
        .and_then(Value::as_array)
        .into_iter()
        .flatten()
        .find(|b| {
            b.get("nodes").and_then(Value::as_f64) == Some(nodes)
                && b.get("edges").and_then(Value::as_f64) == Some(edges)
                && b.get("snapshots").and_then(Value::as_f64) == Some(snapshots)
        });
    let Some(baseline_ns) = baseline
        .and_then(|b| b.get("sampling_ns"))
        .and_then(Value::as_f64)
    else {
        out.warnings.push(format!(
            "{name}: no sampling baseline for workload nodes={nodes} edges={edges} \
             snapshots={snapshots}; skipping the regression check (run with \
             --update-baselines to record one)"
        ));
        return;
    };
    let limit = baseline_ns * (1.0 + SAMPLING_TOLERANCE);
    if sampling_ns > limit {
        out.failures.push(format!(
            "{name}: sampling_ns {sampling_ns:.0} exceeds baseline {baseline_ns:.0} by \
             more than {:.0}% (workload nodes={nodes} edges={edges} snapshots={snapshots})",
            SAMPLING_TOLERANCE * 100.0
        ));
    }
}

/// Reads a committed speedup floor out of the baselines policy file.
fn floor(baselines: &Value, key: &str) -> Result<f64, String> {
    baselines
        .get("floors")
        .and_then(|f| f.get(key))
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("bench_baselines.json: missing floors.{key}"))
}

/// Reads a committed latency ceiling out of the baselines policy file.
fn ceiling(baselines: &Value, key: &str) -> Result<f64, String> {
    baselines
        .get("ceilings")
        .and_then(|c| c.get(key))
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("bench_baselines.json: missing ceilings.{key}"))
}

/// The serving layer's `service/summary` entry must meet the committed
/// throughput floor and tail-latency ceiling, and must have verified
/// every answer against the in-process oracle.
fn check_service(
    name: &str,
    entries: &[Metrics<'_>],
    baselines: &Value,
    out: &mut BenchCheckOutcome,
) -> Result<(), String> {
    let rps_floor = floor(baselines, "service_rps")?;
    let p99_ceiling = ceiling(baselines, "service_hot_p99_ns")?;
    let Some(m) = find(entries, "service", "summary") else {
        out.failures.push(format!(
            "{name}: missing service/summary entry — regenerate the artifact"
        ));
        return Ok(());
    };
    match m.get("service_rps") {
        Some(rps) if rps < rps_floor => out.failures.push(format!(
            "{name}: service/summary service_rps {rps:.0} is below the committed \
             floor {rps_floor:.0} (bench_baselines.json)"
        )),
        Some(_) => {}
        None => out.failures.push(format!(
            "{name}: service/summary has no `service_rps` metric"
        )),
    }
    match m.get("hot_p99_ns") {
        Some(p99) if p99 > p99_ceiling => out.failures.push(format!(
            "{name}: service/summary hot_p99_ns {p99:.0} exceeds the committed \
             ceiling {p99_ceiling:.0} (bench_baselines.json)"
        )),
        Some(_) => {}
        None => out.failures.push(format!(
            "{name}: service/summary has no `hot_p99_ns` metric"
        )),
    }
    match m.get("wrong_answers") {
        Some(wrong) if wrong != 0.0 => out.failures.push(format!(
            "{name}: service/summary reports {wrong} wrong answers — the daemon \
             diverged from the in-process pipeline"
        )),
        Some(_) => {}
        None => out.failures.push(format!(
            "{name}: service/summary has no `wrong_answers` metric"
        )),
    }
    Ok(())
}

/// Runs the gate over the artifacts at the workspace `root`.
///
/// With `update`, rewrites the sampling baselines from the current
/// `BENCH_scale.json` (inserting or replacing the entry for its
/// workload) while preserving the committed floors.
pub fn run_bench_check(root: &Path, update: bool) -> Result<BenchCheckOutcome, String> {
    let baselines_path = root.join("bench_baselines.json");
    let baselines = load_json(&baselines_path)?;
    let montecarlo = load_json(&root.join("BENCH_montecarlo.json"))?;
    let scale = load_json(&root.join("BENCH_scale.json"))?;
    let detectors = load_json(&root.join("BENCH_detectors.json"))?;
    let incremental = load_json(&root.join("BENCH_incremental.json"))?;
    let service = load_json(&root.join("BENCH_service.json"))?;
    let mc_entries = metrics_entries(&montecarlo);
    let scale_entries = metrics_entries(&scale);
    let detector_entries = metrics_entries(&detectors);
    let incremental_entries = metrics_entries(&incremental);
    let service_entries = metrics_entries(&service);

    let mut out = BenchCheckOutcome::default();
    check_bit_identical("BENCH_montecarlo.json", &mc_entries, &mut out);
    check_bit_identical("BENCH_scale.json", &scale_entries, &mut out);
    check_bit_identical("BENCH_detectors.json", &detector_entries, &mut out);
    check_bit_identical("BENCH_incremental.json", &incremental_entries, &mut out);
    check_detector_f1(
        "BENCH_detectors.json",
        &detector_entries,
        &baselines,
        &mut out,
    )?;
    check_thread_labels("BENCH_montecarlo.json", &mc_entries, &mut out);
    check_speedup_floor(
        "BENCH_montecarlo.json",
        &mc_entries,
        "montecarlo_wide",
        "summary",
        "speedup",
        floor(&baselines, "montecarlo_wide_speedup")?,
        &mut out,
    );
    check_speedup_floor(
        "BENCH_scale.json",
        &scale_entries,
        "montecarlo_wide",
        "sampling",
        "speedup",
        floor(&baselines, "scale_wide_speedup")?,
        &mut out,
    );
    check_speedup_floor(
        "BENCH_incremental.json",
        &incremental_entries,
        "incremental",
        "watch_load",
        "speedup_amortized",
        floor(&baselines, "incremental_speedup")?,
        &mut out,
    );
    check_incremental_counts("BENCH_incremental.json", &incremental_entries, &mut out);
    check_sampling_regression("BENCH_scale.json", &scale_entries, &baselines, &mut out);
    check_service("BENCH_service.json", &service_entries, &baselines, &mut out)?;

    if update {
        let updated = updated_baselines(&baselines, &scale_entries)?;
        fs::write(&baselines_path, updated.to_json())
            .map_err(|e| format!("cannot write {}: {e}", baselines_path.display()))?;
    }
    Ok(out)
}

/// The baselines document with the current scale workload's sampling
/// entry inserted or replaced. Floors pass through untouched: they are
/// policy, not measurements.
fn updated_baselines(baselines: &Value, scale_entries: &[Metrics<'_>]) -> Result<Value, String> {
    let (nodes, edges, snapshots) = scale_workload(scale_entries)
        .ok_or_else(|| "BENCH_scale.json: missing dataset entries".to_string())?;
    let sampling_ns = find(scale_entries, "dataset", "snapshots")
        .and_then(|m| m.get("sampling_ns"))
        .ok_or_else(|| "BENCH_scale.json: missing sampling_ns".to_string())?;
    let entry = Value::Object(vec![
        ("nodes".into(), Value::Number(nodes)),
        ("edges".into(), Value::Number(edges)),
        ("snapshots".into(), Value::Number(snapshots)),
        ("sampling_ns".into(), Value::Number(sampling_ns)),
    ]);

    let mut sampling: Vec<Value> = baselines
        .get("sampling")
        .and_then(Value::as_array)
        .map(<[Value]>::to_vec)
        .unwrap_or_default();
    match sampling.iter_mut().find(|b| {
        b.get("nodes").and_then(Value::as_f64) == Some(nodes)
            && b.get("edges").and_then(Value::as_f64) == Some(edges)
            && b.get("snapshots").and_then(Value::as_f64) == Some(snapshots)
    }) {
        Some(slot) => *slot = entry,
        None => sampling.push(entry),
    }

    let mut doc: Vec<(String, Value)> = match baselines {
        Value::Object(fields) => fields.clone(),
        _ => return Err("bench_baselines.json: expected a JSON object".to_string()),
    };
    match doc.iter_mut().find(|(k, _)| k == "sampling") {
        Some((_, slot)) => *slot = Value::Array(sampling),
        None => doc.push(("sampling".into(), Value::Array(sampling))),
    }
    Ok(Value::Object(doc))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact(entries_json: &str) -> Value {
        Value::parse(&format!(
            r#"{{"schema":"isomit-bench/1","name":"t","entries":[{entries_json}]}}"#
        ))
        .expect("test artifact parses")
    }

    #[test]
    fn divergent_bit_identical_fails() {
        let doc = artifact(r#"{"group":"mc","id":"summary","metrics":{"bit_identical":0}}"#);
        let mut out = BenchCheckOutcome::default();
        check_bit_identical("a", &metrics_entries(&doc), &mut out);
        assert_eq!(out.failures.len(), 1);
    }

    #[test]
    fn missing_bit_identical_fails() {
        let doc = artifact(r#"{"group":"mc","id":"summary","metrics":{"runs":10}}"#);
        let mut out = BenchCheckOutcome::default();
        check_bit_identical("a", &metrics_entries(&doc), &mut out);
        assert_eq!(out.failures.len(), 1);
    }

    #[test]
    fn one_thread_parallel_speedup_fails() {
        let doc = artifact(
            r#"{"group":"mc","id":"summary","metrics":{"threads":1,"speedup":0.99,"bit_identical":1}}"#,
        );
        let mut out = BenchCheckOutcome::default();
        check_thread_labels("a", &metrics_entries(&doc), &mut out);
        assert_eq!(out.failures.len(), 1, "{:?}", out.failures);
    }

    #[test]
    fn two_thread_parallel_speedup_passes() {
        let doc = artifact(
            r#"{"group":"mc","id":"summary","metrics":{"threads":2,"speedup":1.8,"bit_identical":1}}"#,
        );
        let mut out = BenchCheckOutcome::default();
        check_thread_labels("a", &metrics_entries(&doc), &mut out);
        assert!(out.failures.is_empty(), "{:?}", out.failures);
    }

    #[test]
    fn speedup_below_floor_fails() {
        let doc =
            artifact(r#"{"group":"montecarlo_wide","id":"summary","metrics":{"speedup":1.2}}"#);
        let mut out = BenchCheckOutcome::default();
        check_speedup_floor(
            "a",
            &metrics_entries(&doc),
            "montecarlo_wide",
            "summary",
            "speedup",
            1.4,
            &mut out,
        );
        assert_eq!(out.failures.len(), 1);
        let mut ok = BenchCheckOutcome::default();
        check_speedup_floor(
            "a",
            &metrics_entries(&doc),
            "montecarlo_wide",
            "summary",
            "speedup",
            1.0,
            &mut ok,
        );
        assert!(ok.failures.is_empty());
    }

    #[test]
    fn incremental_speedup_gates_on_the_amortized_metric() {
        let doc = artifact(
            r#"{"group":"incremental","id":"watch_load","metrics":{"speedup_amortized":8.5,"bit_identical":1}}"#,
        );
        let entries = metrics_entries(&doc);
        let mut out = BenchCheckOutcome::default();
        check_speedup_floor(
            "BENCH_incremental.json",
            &entries,
            "incremental",
            "watch_load",
            "speedup_amortized",
            10.0,
            &mut out,
        );
        assert_eq!(out.failures.len(), 1, "8.5x under a 10x floor must fail");
        let mut ok = BenchCheckOutcome::default();
        check_speedup_floor(
            "BENCH_incremental.json",
            &entries,
            "incremental",
            "watch_load",
            "speedup_amortized",
            8.5,
            &mut ok,
        );
        assert!(ok.failures.is_empty(), "{:?}", ok.failures);
    }

    #[test]
    fn incremental_counts_gate_a_tail_that_stopped_being_incremental() {
        let counts = |fallbacks: u32, extractions: u32| {
            let doc = artifact(&format!(
                r#"{{"group":"incremental","id":"watch_load","metrics":{{"stream_fallbacks":{fallbacks},"stream_extractions":{extractions},"dirty_components_total":50}}}}"#
            ));
            let mut out = BenchCheckOutcome::default();
            check_incremental_counts("BENCH_incremental.json", &metrics_entries(&doc), &mut out);
            out.failures.len()
        };
        assert_eq!(
            counts(0, 50),
            0,
            "one extraction per dirty component passes"
        );
        assert_eq!(
            counts(1, 50),
            1,
            "an all-dirty answer in the tail must fail"
        );
        assert_eq!(counts(0, 0), 1, "extracting nothing must fail");
        assert_eq!(
            counts(0, 51),
            1,
            "extracting more than the dirty set must fail"
        );
        assert_eq!(counts(2, 2), 2, "both faults are reported");
    }

    #[test]
    fn incremental_counts_missing_from_the_artifact_fail() {
        let doc = artifact(
            r#"{"group":"incremental","id":"watch_load","metrics":{"speedup_amortized":90,"bit_identical":1,"dirty_components_total":50}}"#,
        );
        let mut out = BenchCheckOutcome::default();
        check_incremental_counts("BENCH_incremental.json", &metrics_entries(&doc), &mut out);
        assert_eq!(out.failures.len(), 1, "{:?}", out.failures);
        let mut out = BenchCheckOutcome::default();
        check_incremental_counts("BENCH_incremental.json", &[], &mut out);
        assert_eq!(out.failures.len(), 1, "{:?}", out.failures);
    }

    #[test]
    fn missing_incremental_entry_fails() {
        let doc = artifact(r#"{"group":"incremental","id":"cold_recompute","metrics":{}}"#);
        let mut out = BenchCheckOutcome::default();
        check_speedup_floor(
            "BENCH_incremental.json",
            &metrics_entries(&doc),
            "incremental",
            "watch_load",
            "speedup_amortized",
            10.0,
            &mut out,
        );
        assert_eq!(out.failures.len(), 1, "{:?}", out.failures);
    }

    #[test]
    fn incremental_floor_survives_baseline_updates() {
        let doc = artifact(
            r#"{"group":"dataset","id":"graph","metrics":{"nodes":10,"edges":20}},
               {"group":"dataset","id":"snapshots","metrics":{"count":1,"sampling_ns":100}}"#,
        );
        let base = Value::parse(r#"{"floors":{"incremental_speedup":10}}"#).expect("parses");
        let updated = updated_baselines(&base, &metrics_entries(&doc)).expect("update succeeds");
        assert_eq!(
            updated
                .get("floors")
                .and_then(|f| f.get("incremental_speedup"))
                .and_then(Value::as_f64),
            Some(10.0),
            "the incremental floor must survive --update-baselines"
        );
    }

    #[test]
    fn sampling_regression_gates_only_matching_workloads() {
        let doc = artifact(
            r#"{"group":"dataset","id":"graph","metrics":{"nodes":100,"edges":500}},
               {"group":"dataset","id":"snapshots","metrics":{"count":2,"sampling_ns":1000}}"#,
        );
        let entries = metrics_entries(&doc);
        let matching = Value::parse(
            r#"{"sampling":[{"nodes":100,"edges":500,"snapshots":2,"sampling_ns":500}]}"#,
        )
        .expect("baseline parses");
        let mut out = BenchCheckOutcome::default();
        check_sampling_regression("a", &entries, &matching, &mut out);
        assert_eq!(out.failures.len(), 1, "2x the baseline must fail");

        let other = Value::parse(
            r#"{"sampling":[{"nodes":999,"edges":500,"snapshots":2,"sampling_ns":500}]}"#,
        )
        .expect("baseline parses");
        let mut out = BenchCheckOutcome::default();
        check_sampling_regression("a", &entries, &other, &mut out);
        assert!(out.failures.is_empty());
        assert_eq!(out.warnings.len(), 1, "unmatched workload warns and skips");
    }

    /// Baselines carrying a floor for every gated detector.
    fn detector_floors(value: f64) -> Value {
        let floors: Vec<String> = GATED_DETECTORS
            .iter()
            .map(|label| format!(r#""detector_f1_{label}":{value}"#))
            .collect();
        Value::parse(&format!(r#"{{"floors":{{{}}}}}"#, floors.join(",")))
            .expect("test baselines parse")
    }

    /// An artifact with every gated detector at the given F1.
    fn detector_artifact(f1: f64) -> Value {
        let entries: Vec<String> = GATED_DETECTORS
            .iter()
            .map(|label| {
                format!(r#"{{"group":"epinions_mfc","id":"{label}","metrics":{{"f1":{f1}}}}}"#)
            })
            .collect();
        artifact(&entries.join(","))
    }

    #[test]
    fn detector_f1_below_floor_fails() {
        let doc = detector_artifact(0.01);
        let mut out = BenchCheckOutcome::default();
        check_detector_f1(
            "a",
            &metrics_entries(&doc),
            &detector_floors(0.02),
            &mut out,
        )
        .expect("floors present");
        assert_eq!(
            out.failures.len(),
            GATED_DETECTORS.len(),
            "{:?}",
            out.failures
        );
    }

    #[test]
    fn detector_f1_at_or_above_floor_passes() {
        let doc = detector_artifact(0.02);
        let mut out = BenchCheckOutcome::default();
        check_detector_f1(
            "a",
            &metrics_entries(&doc),
            &detector_floors(0.02),
            &mut out,
        )
        .expect("floors present");
        assert!(out.failures.is_empty(), "{:?}", out.failures);
    }

    #[test]
    fn missing_detector_cell_fails() {
        // Only RID present: the other four gated labels must each fail.
        let doc = artifact(r#"{"group":"epinions_mfc","id":"rid","metrics":{"f1":0.5}}"#);
        let mut out = BenchCheckOutcome::default();
        check_detector_f1(
            "a",
            &metrics_entries(&doc),
            &detector_floors(0.02),
            &mut out,
        )
        .expect("floors present");
        assert_eq!(
            out.failures.len(),
            GATED_DETECTORS.len() - 1,
            "{:?}",
            out.failures
        );
    }

    #[test]
    fn missing_detector_floor_is_a_policy_error() {
        let doc = detector_artifact(0.5);
        let base = Value::parse(r#"{"floors":{}}"#).expect("parses");
        let mut out = BenchCheckOutcome::default();
        let err = check_detector_f1("a", &metrics_entries(&doc), &base, &mut out)
            .expect_err("missing floor must be an error");
        assert!(err.contains("detector_f1_rid"), "{err}");
    }

    #[test]
    fn detector_floors_survive_baseline_updates() {
        let doc = artifact(
            r#"{"group":"dataset","id":"graph","metrics":{"nodes":100,"edges":500}},
               {"group":"dataset","id":"snapshots","metrics":{"count":2,"sampling_ns":1000}}"#,
        );
        let updated = updated_baselines(&detector_floors(0.02), &metrics_entries(&doc))
            .expect("update succeeds");
        for label in GATED_DETECTORS {
            assert_eq!(
                updated
                    .get("floors")
                    .and_then(|f| f.get(&format!("detector_f1_{label}")))
                    .and_then(Value::as_f64),
                Some(0.02),
                "floor for {label} must survive --update-baselines"
            );
        }
    }

    /// Baselines carrying the service throughput floor and tail ceiling.
    fn service_baselines(rps_floor: f64, p99_ceiling: f64) -> Value {
        Value::parse(&format!(
            r#"{{"floors":{{"service_rps":{rps_floor}}},"ceilings":{{"service_hot_p99_ns":{p99_ceiling}}}}}"#
        ))
        .expect("test baselines parse")
    }

    fn service_artifact(rps: f64, p99: f64, wrong: f64) -> Value {
        artifact(&format!(
            r#"{{"group":"service","id":"summary","metrics":{{"service_rps":{rps},"hot_p99_ns":{p99},"wrong_answers":{wrong}}}}}"#
        ))
    }

    #[test]
    fn service_rps_below_floor_fails() {
        let doc = service_artifact(3000.0, 1e7, 0.0);
        let mut out = BenchCheckOutcome::default();
        check_service(
            "a",
            &metrics_entries(&doc),
            &service_baselines(5000.0, 5e7),
            &mut out,
        )
        .expect("policy present");
        assert_eq!(out.failures.len(), 1, "{:?}", out.failures);

        let mut ok = BenchCheckOutcome::default();
        check_service(
            "a",
            &metrics_entries(&doc),
            &service_baselines(3000.0, 5e7),
            &mut ok,
        )
        .expect("policy present");
        assert!(ok.failures.is_empty(), "{:?}", ok.failures);
    }

    #[test]
    fn service_p99_above_ceiling_fails() {
        let doc = service_artifact(9000.0, 9e7, 0.0);
        let mut out = BenchCheckOutcome::default();
        check_service(
            "a",
            &metrics_entries(&doc),
            &service_baselines(5000.0, 5e7),
            &mut out,
        )
        .expect("policy present");
        assert_eq!(out.failures.len(), 1, "{:?}", out.failures);
    }

    #[test]
    fn service_wrong_answers_fail() {
        let doc = service_artifact(9000.0, 1e7, 2.0);
        let mut out = BenchCheckOutcome::default();
        check_service(
            "a",
            &metrics_entries(&doc),
            &service_baselines(5000.0, 5e7),
            &mut out,
        )
        .expect("policy present");
        assert_eq!(out.failures.len(), 1, "{:?}", out.failures);
    }

    #[test]
    fn missing_service_summary_fails() {
        let doc = artifact(r#"{"group":"hot_storm","id":"c64","metrics":{"rps":9000}}"#);
        let mut out = BenchCheckOutcome::default();
        check_service(
            "a",
            &metrics_entries(&doc),
            &service_baselines(5000.0, 5e7),
            &mut out,
        )
        .expect("policy present");
        assert_eq!(out.failures.len(), 1, "{:?}", out.failures);
    }

    #[test]
    fn missing_service_policy_is_an_error() {
        let doc = service_artifact(9000.0, 1e7, 0.0);
        let base = Value::parse(r#"{"floors":{}}"#).expect("parses");
        let mut out = BenchCheckOutcome::default();
        let err = check_service("a", &metrics_entries(&doc), &base, &mut out)
            .expect_err("missing floor must be a policy error");
        assert!(err.contains("service_rps"), "{err}");
    }

    #[test]
    fn service_floor_and_ceiling_survive_baseline_updates() {
        let doc = artifact(
            r#"{"group":"dataset","id":"graph","metrics":{"nodes":10,"edges":20}},
               {"group":"dataset","id":"snapshots","metrics":{"count":1,"sampling_ns":100}}"#,
        );
        let updated = updated_baselines(&service_baselines(5000.0, 5e7), &metrics_entries(&doc))
            .expect("update succeeds");
        assert_eq!(
            updated
                .get("floors")
                .and_then(|f| f.get("service_rps"))
                .and_then(Value::as_f64),
            Some(5000.0),
            "the service throughput floor must survive --update-baselines"
        );
        assert_eq!(
            updated
                .get("ceilings")
                .and_then(|c| c.get("service_hot_p99_ns"))
                .and_then(Value::as_f64),
            Some(5e7),
            "the service tail-latency ceiling must survive --update-baselines"
        );
    }

    #[test]
    fn update_inserts_and_replaces_workload_entries() {
        let doc = artifact(
            r#"{"group":"dataset","id":"graph","metrics":{"nodes":100,"edges":500}},
               {"group":"dataset","id":"snapshots","metrics":{"count":2,"sampling_ns":1000}}"#,
        );
        let entries = metrics_entries(&doc);
        let base = Value::parse(r#"{"floors":{"scale_wide_speedup":10}}"#).expect("parses");
        let updated = updated_baselines(&base, &entries).expect("update succeeds");
        assert_eq!(
            updated
                .get("sampling")
                .and_then(Value::as_array)
                .map(<[Value]>::len),
            Some(1)
        );
        // Floors survive the rewrite.
        assert_eq!(
            updated
                .get("floors")
                .and_then(|f| f.get("scale_wide_speedup"))
                .and_then(Value::as_f64),
            Some(10.0)
        );
        // A second update of the same workload replaces, not appends.
        let again = updated_baselines(&updated, &entries).expect("update succeeds");
        assert_eq!(
            again
                .get("sampling")
                .and_then(Value::as_array)
                .map(<[Value]>::len),
            Some(1)
        );
    }
}
