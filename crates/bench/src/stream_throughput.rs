//! The `stream_throughput` experiment: the `incite watch` loop end to end.
//!
//! Simulates the amplification event stream over the repro corpus,
//! quick-trains a CTH classifier, and times [`incite_stream::run_watch`]
//! driving the two-axis threat ranker over the whole stream. Alongside
//! the throughput numbers it re-checks the subsystem's two determinism
//! gates in-process — rankings byte-identical across thread counts, and
//! a checkpoint/resume split byte-identical to the uninterrupted run —
//! and emits a `BENCH {...}` line for CI.

use crate::context::ReproContext;
use incite_ml::{FeaturizerConfig, TextClassifier, TrainConfig};
use incite_stream::{run_watch, simulate, RankerConfig, SimConfig, WatchConfig};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The machine-readable payload printed as the `BENCH {...}` line.
#[derive(serde::Serialize)]
struct BenchReport {
    experiment: &'static str,
    events: usize,
    epochs: u64,
    events_per_sec: f64,
    epoch_ms: f64,
    byte_identical: bool,
    resume_identical: bool,
}

fn config(threads: usize) -> WatchConfig {
    WatchConfig {
        ranker: RankerConfig {
            threads,
            epoch_len: 2048,
            ..RankerConfig::default()
        },
        ..WatchConfig::default()
    }
}

pub fn run(ctx: &mut ReproContext) -> String {
    let mut s = String::from(
        "\n================ stream_throughput — incite watch event loop ================\n",
    );

    let stream = simulate(&ctx.corpus, &SimConfig::default());
    let doc_texts: BTreeMap<u64, &str> = ctx
        .corpus
        .documents
        .iter()
        .map(|d| (d.id.0, d.text.as_str()))
        .collect();
    let labeled: Vec<(&str, bool)> = ctx
        .corpus
        .documents
        .iter()
        .take(800)
        .map(|d| (d.text.as_str(), d.truth.is_cth))
        .collect();
    let classifier = TextClassifier::train(
        labeled.iter().copied(),
        FeaturizerConfig::default(),
        TrainConfig {
            epochs: 3,
            ..TrainConfig::default()
        },
    );
    let _ = writeln!(
        s,
        "stream: {} event(s) over {} actor(s), digest {}",
        stream.events.len(),
        stream.actors.len(),
        stream.digest()
    );

    // Timed runs at 1 and 4 threads; the 4-thread run is the headline
    // number and the pair doubles as the thread-invariance gate.
    let mut rankings: Vec<String> = Vec::new();
    let mut timed_events = 0usize;
    let mut timed_epochs = 0u64;
    let mut timed_secs = 0.0f64;
    for threads in [1usize, 4] {
        let start = Instant::now();
        let outcome = match run_watch(&stream, &doc_texts, &classifier, &config(threads)) {
            Ok(outcome) => outcome,
            Err(err) => {
                let _ = writeln!(s, "watch run at {threads} thread(s) failed: {err}");
                return s;
            }
        };
        let elapsed = start.elapsed().as_secs_f64();
        let _ = writeln!(
            s,
            "{threads} thread(s): {} event(s) in {} epoch(s), {:>9.1} events/sec, {:.1} ms/epoch",
            outcome.events,
            outcome.epochs,
            outcome.events as f64 / elapsed.max(1e-9),
            1e3 * elapsed / outcome.epochs.max(1) as f64,
        );
        if threads == 4 {
            timed_events = outcome.events;
            timed_epochs = outcome.epochs;
            timed_secs = elapsed;
        }
        rankings.push(outcome.rankings);
    }
    let byte_identical = rankings[0] == rankings[1];
    let _ = writeln!(
        s,
        "rankings byte-identical across threads: {byte_identical}"
    );

    // Checkpoint/resume split: two epochs saved, fresh invocation resumes
    // and must land on the same bytes as the uninterrupted run.
    let dir = std::env::temp_dir().join(format!("incite-stream-bench-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut first = config(4);
    first.state_dir = Some(dir.clone());
    first.max_epochs = Some(2);
    let mut second = config(4);
    second.state_dir = Some(dir.clone());
    let resume_identical = match run_watch(&stream, &doc_texts, &classifier, &first)
        .and_then(|_| run_watch(&stream, &doc_texts, &classifier, &second))
    {
        Ok(resumed) => resumed.resumed_at.is_some() && resumed.rankings == rankings[1],
        Err(err) => {
            let _ = writeln!(s, "split run failed: {err}");
            false
        }
    };
    std::fs::remove_dir_all(&dir).ok();
    let _ = writeln!(s, "checkpoint/resume byte-identical: {resume_identical}");

    let bench = BenchReport {
        experiment: "stream_throughput",
        events: timed_events,
        epochs: timed_epochs,
        events_per_sec: timed_events as f64 / timed_secs.max(1e-9),
        epoch_ms: 1e3 * timed_secs / timed_epochs.max(1) as f64,
        byte_identical,
        resume_identical,
    };
    crate::push_bench_line(&mut s, &bench);
    s
}
