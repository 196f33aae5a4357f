//! # incite-bench
//!
//! The reproduction harness: one regeneration entry point per table and
//! figure in the paper (see DESIGN.md §4 for the experiment index), the
//! DESIGN.md §5 ablations, and `swap_availability`, which prints a
//! `BENCH {...}` line that `scripts/bench_ratchet` holds against the
//! committed `BENCH_swap_availability.json` snapshot. Pipeline, serve and
//! watch throughput are measured by perfbench (`perfbench/README.md`).
//!
//! ```text
//! cargo run --release -p incite-bench --bin repro -- all --scale small
//! cargo run --release -p incite-bench --bin repro -- table5 figure2
//! ```

pub mod ablations;
pub mod context;
pub mod experiments;
pub mod swap_availability;

pub use context::{ReproContext, Scale};
pub use experiments::{run_experiment, EXPERIMENTS};

use std::fmt::Write as _;

/// Appends an experiment's machine-readable `BENCH {...}` line: `report`
/// serialized as one JSON object with sorted keys.
pub fn push_bench_line<T: serde::Serialize + ?Sized>(s: &mut String, report: &T) {
    match serde_json::to_string(report) {
        Ok(line) => {
            let _ = writeln!(s, "BENCH {line}");
        }
        Err(err) => {
            let _ = writeln!(s, "BENCH serialization failed: {err}");
        }
    }
}
