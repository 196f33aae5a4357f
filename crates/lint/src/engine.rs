//! Workspace walking and orchestration.
//!
//! The per-file stage (read, UTF-8 decode, masking) fans out on
//! [`incite_core::parallel::map_indexed_coarse`] — one file per work unit
//! — and merges back in slot order, so the findings are byte-identical at
//! every thread count. The workspace passes then run over the merged
//! [`MaskedFile`]s: the two-pass graph rules (INC008–INC010), the taint
//! pass (INC011–INC013), and the invariant pass (INC014, INC016).
//! Everything ends sorted by `(file, line, rule)`; any finding fails the
//! run.

use crate::concurrency;
use crate::graph;
use crate::invariants;
use crate::lexer::MaskedFile;
use crate::rules::Finding;
use crate::taint;
use incite_core::parallel;
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Deterministic work budget for a full run, in fuel units (roughly:
/// bytes scanned per pass plus graph events processed). The whole
/// workspace burns about half of this (3,861,772 in the run that set it);
/// the budget is the analyzer's stand-in for a wall-clock ceiling,
/// counted the same way on every machine (no clocks — INC002 applies to
/// us too).
pub const FUEL_BUDGET: u64 = 8_000_000;

/// A full lint run over one workspace root.
#[derive(Debug, PartialEq, Eq)]
pub struct Report {
    /// Every current finding, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Number of files scanned (for the summary line).
    pub files_scanned: usize,
    /// Deterministic work performed, in fuel units (see [`FUEL_BUDGET`]).
    pub fuel: u64,
}

impl Report {
    /// The report exactly as `check` prints it to stderr: each finding
    /// (with its trace notes) followed by a blank line, then the summary
    /// line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.render());
            out.push_str("\n\n");
        }
        out.push_str(&format!(
            "incite-lint: {} file(s), {} finding(s)\n",
            self.files_scanned,
            self.findings.len()
        ));
        out
    }
}

/// Collects the repo-relative paths of all `.rs` files under `crates/*/src`,
/// sorted for determinism.
pub fn collect_sources(root: &Path) -> io::Result<Vec<String>> {
    let crates_dir = root.join("crates");
    let mut out = Vec::new();
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            walk(&src, &mut out)?;
        }
    }
    let mut rel: Vec<String> = out
        .into_iter()
        .filter_map(|p| {
            p.strip_prefix(root)
                .ok()
                .map(|r| r.to_string_lossy().replace('\\', "/"))
        })
        .collect();
    rel.sort();
    Ok(rel)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs every rule against `root`, sequentially. Equivalent to
/// [`run_with`] at one thread; the CLI uses [`run_with`] directly.
pub fn run(root: &Path) -> io::Result<Report> {
    run_with(root, 1)
}

/// Runs every rule against `root`, fanning the per-file stage out
/// over `threads` workers. Any thread count produces byte-identical
/// findings; `1` is fully sequential.
pub fn run_with(root: &Path, threads: usize) -> io::Result<Report> {
    let sources = collect_sources(root)?;

    // Per-file stage: read and mask every file. One file per work unit —
    // slot `i` always holds file `i`, so the merge below is independent
    // of the thread count. A `None` slot only survives if the closure
    // never ran (the executor needs `Default` slots).
    let slots = parallel::map_indexed_coarse(sources.len(), threads, 1, |i| {
        let rel = &sources[i];
        let text = fs::read(root.join(rel))
            .map_err(|err| format!("{rel}: {err}"))
            .and_then(|raw| String::from_utf8(raw).map_err(|err| format!("{rel}: {err}")));
        Some(text.map(|text| MaskedFile::new(&text)))
    })
    .map_err(|err| io::Error::other(format!("per-file stage failed: {err}")))?;

    // Deterministic sequential merge, in sorted-path (= slot) order.
    let mut fuel: u64 = 0;
    let mut masked: BTreeMap<String, MaskedFile> = BTreeMap::new();
    for (rel, slot) in sources.iter().zip(slots) {
        let file = slot
            .ok_or_else(|| io::Error::other(format!("{rel}: per-file stage produced no result")))?
            .map_err(io::Error::other)?;
        fuel += file.masked.len() as u64;
        masked.insert(rel.clone(), file);
    }

    // Two-pass graph rules: build the item graph (pass 1), then walk it
    // (pass 2). `masked` is a BTreeMap, so the build order is the sorted
    // path order and the graph is deterministic.
    let graph_sources: Vec<(String, &MaskedFile)> =
        masked.iter().map(|(p, m)| (p.clone(), m)).collect();
    let ws = graph::build(&graph_sources);
    fuel += ws.fuel;
    let mut findings = concurrency::check(&ws);

    // Pass 3: interprocedural taint & purity dataflow (INC011–INC013).
    let (taint_findings, taint_fuel) = taint::check(&ws);
    fuel += taint_fuel;
    findings.extend(taint_findings);

    // Pass 4: invariant enforcement (INC014, INC016).
    let (invariant_findings, invariant_fuel) = invariants::check(&ws);
    fuel += invariant_fuel;
    findings.extend(invariant_findings);

    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));

    Ok(Report {
        findings,
        files_scanned: sources.len(),
        fuel,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The repo root, from the lint crate's own manifest dir.
    fn repo_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("crates/lint has a workspace root two levels up")
            .to_path_buf()
    }

    #[test]
    fn collects_lint_crate_sources() {
        let sources = collect_sources(&repo_root()).unwrap();
        assert!(sources.contains(&"crates/lint/src/engine.rs".to_string()));
        assert!(sources.iter().all(|s| s.ends_with(".rs")));
        let mut sorted = sources.clone();
        sorted.sort();
        assert_eq!(sources, sorted, "source order must be deterministic");
    }

    /// Self-test: the repository has no findings. This is the same check
    /// CI's static-analysis job runs.
    #[test]
    fn repo_has_no_findings() {
        let report = run(&repo_root()).unwrap();
        let rendered: Vec<String> = report.findings.iter().map(Finding::render).collect();
        assert!(
            rendered.is_empty(),
            "lint violations:\n{}",
            rendered.join("\n")
        );
    }

    /// The performance contract for the full run, stated in deterministic
    /// fuel units rather than wall-clock (INC002 bans the clock for a
    /// reason: a loaded CI machine must not flake this). The budget is
    /// calibrated so that staying inside it keeps a full run comfortably
    /// under the 5-second wall-clock target on any hardware that builds
    /// the workspace at all.
    #[test]
    fn full_run_stays_inside_the_fuel_budget() {
        let report = run(&repo_root()).unwrap();
        assert!(report.fuel > 0, "fuel accounting must be wired up");
        assert!(
            report.fuel <= FUEL_BUDGET,
            "full run burned {} fuel, budget is {} — the item graph \
             or a fixpoint regressed",
            report.fuel,
            FUEL_BUDGET
        );
    }
}
