//! In-repo developer tooling for the isomit workspace.
//!
//! Two subcommands:
//!
//! * `lint` — a token-level static analysis pass enforcing the
//!   panic-freedom, determinism (lexical + transitive taint),
//!   documentation and unsafe/SAFETY contracts described in DESIGN.md
//!   §13 "Static analysis v2";
//! * `bench-check` — the CI bench-regression gate over the committed
//!   `BENCH_*.json` artifacts and the `bench_baselines.json` policy
//!   file (see [`bench_check`]).
//!
//! ```text
//! cargo run -p xtask -- lint                  # fail on unwaived diagnostics
//! cargo run -p xtask -- lint --report         # additionally write LINT_REPORT.json
//! cargo run -p xtask -- lint --diff-baseline  # also fail on findings new vs the committed report
//! cargo run -p xtask -- bench-check           # gate on the bench artifacts
//! cargo run -p xtask -- bench-check --update-baselines
//! ```
//!
//! The lint pipeline parses each file exactly once ([`scan::ParsedFile`]:
//! lexer → item tree → per-token context → waivers) and every rule —
//! including the cross-file determinism taint analysis — runs over that
//! shared parse.

pub mod bench_check;
pub mod items;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod scan;
pub mod taint;

use std::fs;
use std::path::{Path, PathBuf};

/// Locates the workspace root: the parent of the `xtask` manifest dir.
///
/// `cargo run` and `cargo test` set `CARGO_MANIFEST_DIR` at run time to
/// the checkout they were invoked in. That is read first, because the
/// compile-time value names the checkout the binary was built from: a
/// copy of the repository that reuses another checkout's target dir
/// would otherwise check the other checkout's files. The compile-time
/// value is the fallback for a binary started directly.
pub fn workspace_root() -> PathBuf {
    let manifest = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from);
    manifest
        .parent()
        .map_or_else(|| manifest.clone(), Path::to_path_buf)
}

/// Collects every `.rs` file under `crates/*/src` and the root `src/`,
/// sorted by workspace-relative path for deterministic output.
///
/// `xtask` itself is deliberately excluded: it is developer tooling, not
/// library code shipped in the simulation path.
pub fn collect_sources(root: &Path) -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = Vec::new();
    let mut roots: Vec<PathBuf> = vec![root.join("src")];
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            roots.push(entry.path().join("src"));
        }
    }
    for dir in roots {
        walk(&dir, root, &mut files);
    }
    files.sort_by(|a, b| a.0.cmp(&b.0));
    files
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<(String, String)>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            walk(&path, root, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            if let Ok(text) = fs::read_to_string(&path) {
                out.push((rel, text));
            }
        }
    }
}

/// Runs the full lint pass. Returns `(unwaived_diagnostic_count, report_json)`
/// and prints diagnostics to stderr.
pub fn run_lint(root: &Path, quiet: bool) -> (usize, String) {
    let sources = collect_sources(root);
    let files: Vec<scan::ParsedFile> = sources
        .iter()
        .map(|(path, text)| scan::ParsedFile::parse(path, text))
        .collect();
    let outcome = rules::scan_all(&files);
    if !quiet {
        for d in outcome.diagnostics.iter().filter(|d| !d.waived) {
            eprintln!("{}:{}: [{}] {}", d.path, d.line, d.rule, d.message);
        }
    }
    (outcome.unwaived(), report::render(&outcome))
}

/// Compares `report_json` against the committed `LINT_REPORT.json` and
/// returns the findings that are new relative to it.
///
/// # Errors
///
/// Returns an error when the committed report is missing, unreadable, or
/// has a mismatched format version.
pub fn diff_baseline(root: &Path, report_json: &str) -> Result<Vec<String>, String> {
    let path = root.join("LINT_REPORT.json");
    let baseline =
        fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    report::diff_baseline(report_json, &baseline)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_root_contains_crates() {
        assert!(workspace_root().join("crates").is_dir());
    }

    #[test]
    fn collect_sources_finds_graph_crate_and_skips_xtask() {
        let sources = collect_sources(&workspace_root());
        assert!(sources.iter().any(|(p, _)| p == "crates/graph/src/lib.rs"));
        assert!(sources.iter().all(|(p, _)| !p.starts_with("xtask/")));
        // Sorted and unique.
        let mut paths: Vec<&String> = sources.iter().map(|(p, _)| p).collect();
        let n = paths.len();
        paths.dedup();
        assert_eq!(paths.len(), n);
        assert!(paths.windows(2).all(|w| w[0] < w[1]));
    }
}
