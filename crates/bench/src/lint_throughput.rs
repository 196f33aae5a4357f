//! The `lint_throughput` experiment: the incite-lint engine over its own
//! workspace.
//!
//! Times one full scan of the real repository at 4 threads and re-checks
//! the engine's determinism gate in-process: the report must be
//! byte-identical between 1 and 4 threads. Emits a `BENCH {...}` line for
//! CI's ratchet.

use crate::context::ReproContext;
use incite_lint::baseline::Baseline;
use incite_lint::engine;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// The machine-readable payload printed as the `BENCH {...}` line.
#[derive(serde::Serialize)]
struct BenchReport {
    experiment: &'static str,
    files: usize,
    findings: usize,
    files_per_sec: f64,
    byte_identical: bool,
}

pub fn run(_ctx: &mut ReproContext) -> String {
    let mut s = String::from(
        "\n================ lint_throughput — incite-lint engine self-scan ================\n",
    );

    // The bench crate sits at crates/bench; the workspace root is two up.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let baseline = Baseline::default();

    let start = Instant::now();
    let report = match engine::run_with(&root, &baseline, 4) {
        Ok(report) => report,
        Err(err) => {
            let _ = writeln!(s, "scan failed: {err}");
            return s;
        }
    };
    let secs = start.elapsed().as_secs_f64();
    let files_per_sec = report.files_scanned as f64 / secs.max(1e-9);
    let _ = writeln!(
        s,
        "scan: {} file(s) in {:.1} ms ({:>8.1} files/sec), {} finding(s), fuel {}",
        report.files_scanned,
        1e3 * secs,
        files_per_sec,
        report.findings.len(),
        report.fuel,
    );

    // Thread-invariance gate: the sequential report must match the
    // 4-thread report byte for byte.
    let sequential = match engine::run_with(&root, &baseline, 1) {
        Ok(report) => report,
        Err(err) => {
            let _ = writeln!(s, "sequential scan failed: {err}");
            return s;
        }
    };
    let byte_identical = engine::report_json(&sequential) == engine::report_json(&report);
    let _ = writeln!(
        s,
        "report byte-identical across 1/4 threads: {byte_identical}"
    );

    let bench = BenchReport {
        experiment: "lint_throughput",
        files: report.files_scanned,
        findings: report.findings.len(),
        files_per_sec,
        byte_identical,
    };
    crate::push_bench_line(&mut s, &bench);
    s
}
