//! The `checkpoint_overhead` experiment: plain pipeline vs the
//! checkpointed, crash-recoverable pipeline.
//!
//! [`incite_core::run_pipeline_resumable`] persists a verified snapshot at
//! every step boundary (DESIGN.md §12): the RNG words, annotation ledger,
//! model weights, thresholds and engine stats, each written atomically with
//! an FNV-64 integrity footer and recorded in the run manifest. This
//! experiment times both entry points on the same corpus and
//! configuration, checks the two outcomes are byte-identical (`PartialEq`
//! plus [`incite_core::PipelineOutcome::digest`]), and emits a single
//! machine-readable `BENCH {...}` line that CI greps for
//! `"overhead_ok":true` — the acceptance bar is checkpointing costing
//! under 10 % of wall-clock on quick corpora.

use crate::context::ReproContext;
use incite_core::checkpoint::read_manifest;
use incite_core::{clear_run_dir, run_pipeline, run_pipeline_resumable, Task};
use std::fmt::Write as _;
use std::time::Instant;

/// The machine-readable payload printed as the `BENCH {...}` line.
#[derive(serde::Serialize)]
struct BenchReport {
    experiment: &'static str,
    task: &'static str,
    docs: usize,
    steps_checkpointed: usize,
    plain_secs: f64,
    resumable_secs: f64,
    overhead_frac: f64,
    overhead_ok: bool,
    outcome_identical: bool,
}

/// Wall-clock fraction the checkpoint funnel may add: under 10 % on quick
/// corpora.
const OVERHEAD_BUDGET: f64 = 0.10;

/// Minimum corpus size for the overhead measurement; below this the
/// wall-clock is fixed-latency-bound and the ratio is noise.
const MIN_MEASUREMENT_DOCS: usize = 20_000;

/// Timing repetitions; the median-free minimum over a few runs is stable
/// enough for a pass/fail ratio. Five repetitions because the measured
/// filesystems jitter individual runs by up to ±15 % — the minimum of
/// five keeps the ratio honest.
const REPS: usize = 5;

pub fn run(ctx: &mut ReproContext) -> String {
    let mut s = String::from(
        "\n================ checkpoint_overhead — resumable pipeline tax ================\n",
    );
    let task = Task::Dox;
    // The acceptance bar is phrased against quick corpora: the
    // `quick` pipeline configuration on a corpus large enough that the
    // measurement reflects checkpoint design rather than fixed per-file
    // filesystem latency. A tiny corpus finishes in tens of
    // milliseconds, where the fixed cost of creating a run's dozen or so
    // checkpoint files dominates any conceivable checkpoint
    // implementation; floor the corpus at small scale so the ratio is
    // meaningful.
    let config = incite_core::PipelineConfig::quick(1);
    let generated;
    let corpus = if ctx.corpus.len() >= MIN_MEASUREMENT_DOCS {
        &ctx.corpus
    } else {
        generated = incite_corpus::generate(&incite_corpus::CorpusConfig::small(1404));
        &generated
    };
    let run_dir = std::env::temp_dir().join(format!("incite-bench-ckpt-{}", std::process::id()));

    // Plain path: the in-memory pipeline, no persistence at all.
    let mut plain_secs = f64::INFINITY;
    let mut plain_outcome = None;
    for _ in 0..REPS {
        let start = Instant::now();
        let outcome = run_pipeline(corpus, task, &config);
        plain_secs = plain_secs.min(start.elapsed().as_secs_f64());
        plain_outcome = outcome.ok();
    }

    // Resumable path: a fresh run directory each repetition, so every run
    // pays the full cost of writing (never reading) each checkpoint.
    let mut resumable_secs = f64::INFINITY;
    let mut resumable_outcome = None;
    for _ in 0..REPS {
        if clear_run_dir(&run_dir).is_err() {
            s.push_str("checkpoint_overhead: cannot clear bench run dir; skipping\n");
            return s;
        }
        let start = Instant::now();
        let outcome = run_pipeline_resumable(corpus, task, &config, &run_dir);
        resumable_secs = resumable_secs.min(start.elapsed().as_secs_f64());
        resumable_outcome = outcome.ok();
    }
    let steps = read_manifest(&run_dir).map(|(manifest, _)| manifest.steps.len());
    clear_run_dir(&run_dir).ok();
    std::fs::remove_dir(&run_dir).ok();

    let (Some(plain), Some(resumable)) = (plain_outcome, resumable_outcome) else {
        s.push_str("checkpoint_overhead: a pipeline run failed; no BENCH line\n");
        return s;
    };
    let steps = match steps {
        Ok(steps) if steps > 0 => steps,
        Ok(_) => {
            s.push_str("checkpoint_overhead: the run checkpointed no steps; no BENCH line\n");
            return s;
        }
        Err(err) => {
            let _ = writeln!(
                s,
                "checkpoint_overhead: cannot read the run's manifest ({err}); no BENCH line"
            );
            return s;
        }
    };

    // The determinism contract (DESIGN.md §12): checkpointing must not
    // perturb the outcome by a single byte.
    let outcome_identical = plain == resumable && plain.digest() == resumable.digest();
    let overhead_frac = (resumable_secs - plain_secs).max(0.0) / plain_secs.max(1e-9);

    let _ = writeln!(
        s,
        "documents: {} | task: {} | checkpointed steps: {steps} | reps: {REPS} (min taken)",
        corpus.len(),
        task.slug(),
    );
    let _ = writeln!(s, "plain pipeline     : {plain_secs:>8.3}s");
    let _ = writeln!(s, "resumable pipeline : {resumable_secs:>8.3}s");
    let _ = writeln!(
        s,
        "checkpoint overhead: {:.1}% (budget {:.0}%) | outcome identical: {outcome_identical} | digest {:016x}",
        100.0 * overhead_frac,
        100.0 * OVERHEAD_BUDGET,
        resumable.digest(),
    );

    let bench = BenchReport {
        experiment: "checkpoint_overhead",
        task: task.slug(),
        docs: corpus.len(),
        steps_checkpointed: steps,
        plain_secs,
        resumable_secs,
        overhead_frac,
        overhead_ok: overhead_frac < OVERHEAD_BUDGET,
        outcome_identical,
    };
    crate::push_bench_line(&mut s, &bench);
    s
}
