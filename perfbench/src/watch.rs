//! `watch_checkpointed`: `incite watch --state` as shipped.
//!
//! Setup generates a Tiny corpus, simulates its amplification stream,
//! round-trips the stream through the `incite-events-v1` wire format as
//! `incite watch --events` does, trains the classifier, and computes the
//! reference rankings with an uncheckpointed `run_watch`. One op is a full
//! `run_watch` pass into a fresh state dir at the default epoch length,
//! checkpointing every epoch; its rankings must equal the reference.

use crate::sys::{self, derive_seed, median, ms, quantile};
use crate::trace::Tracer;
use crate::{Ctx, Report, SETUP_REPS};
use incite_corpus::{generate, Corpus, CorpusConfig};
use incite_ml::{FeaturizerConfig, TextClassifier, TrainConfig};
use incite_stream::state::{load_state, save_state, STATE_FILE};
use incite_stream::{
    run_watch, simulate, EventStream, RankerConfig, SimConfig, ThreatRanker, WatchConfig,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Labeled documents the watch classifier trains on.
const TRAIN_DOCS: usize = 800;

/// Reopenings of the final state after each measured pass.
const RESUMES_PER_PASS: usize = 3;

/// `state::load_state` calls the traced run times.
const LOAD_REPS: usize = 9;

/// Stream prefix the self-test watches (the full stream is ~23k events).
const TINY_EVENTS: usize = 4096;

struct Setup {
    corpus: Corpus,
    stream: EventStream,
    classifier: TextClassifier,
    reference: String,
}

impl Setup {
    fn doc_texts(&self) -> BTreeMap<u64, &str> {
        self.corpus
            .documents
            .iter()
            .map(|d| (d.id.0, d.text.as_str()))
            .collect()
    }
}

fn ranker_config(ctx: &Ctx) -> RankerConfig {
    RankerConfig {
        threads: ctx.threads,
        ..RankerConfig::default()
    }
}

fn watch_config(ctx: &Ctx, state_dir: Option<PathBuf>, max_epochs: Option<u64>) -> WatchConfig {
    WatchConfig {
        ranker: ranker_config(ctx),
        state_dir,
        max_epochs,
        ..WatchConfig::default()
    }
}

fn prepare(ctx: &Ctx, tracer: &mut Tracer) -> Result<Setup, String> {
    let corpus = tracer.time("corpus.generate", 0, || {
        generate(&CorpusConfig::tiny(ctx.seed))
    });
    let sim = SimConfig {
        seed: derive_seed(ctx.seed, "watch-stream"),
        max_events: if ctx.tiny { TINY_EVENTS } else { 0 },
        ..SimConfig::default()
    };
    let simulated = tracer.time("stream.simulate", corpus.documents.len() as u64, || {
        simulate(&corpus, &sim)
    });
    let bytes = simulated
        .encode()
        .map_err(|e| format!("encode stream: {e}"))?;
    let stream = tracer
        .time("stream.decode", simulated.events.len() as u64, || {
            EventStream::decode(&bytes)
        })
        .map_err(|e| format!("decode stream: {e}"))?;
    let labeled: Vec<(&str, bool)> = corpus
        .documents
        .iter()
        .take(TRAIN_DOCS)
        .map(|d| (d.text.as_str(), d.truth.is_cth))
        .collect();
    let classifier = tracer.time("ml.train", labeled.len() as u64, || {
        TextClassifier::train(
            labeled.iter().copied(),
            FeaturizerConfig::default(),
            TrainConfig::default(),
        )
    });
    let mut setup = Setup {
        corpus,
        stream,
        classifier,
        reference: String::new(),
    };
    let outcome = run_watch(
        &setup.stream,
        &setup.doc_texts(),
        &setup.classifier,
        &watch_config(ctx, None, None),
    )
    .map_err(|e| format!("reference watch: {e}"))?;
    setup.reference = outcome.rankings;
    if ctx.plant {
        setup.reference.push('!');
    }
    Ok(setup)
}

/// One checkpointed pass into a fresh state dir: (events, seconds, rankings).
fn pass(
    ctx: &Ctx,
    setup: &Setup,
    texts: &BTreeMap<u64, &str>,
) -> Result<(usize, f64, String), String> {
    let dir = ctx.work.fresh("state").map_err(|e| e.to_string())?;
    let start = Instant::now();
    let outcome = run_watch(
        &setup.stream,
        texts,
        &setup.classifier,
        &watch_config(ctx, Some(dir), None),
    )
    .map_err(|e| format!("watch pass: {e}"))?;
    Ok((
        outcome.events,
        start.elapsed().as_secs_f64(),
        outcome.rankings,
    ))
}

/// Reopens the final state dir without processing an epoch.
fn resume(
    ctx: &Ctx,
    setup: &Setup,
    texts: &BTreeMap<u64, &str>,
    dir: &Path,
) -> Result<bool, String> {
    let outcome = run_watch(
        &setup.stream,
        texts,
        &setup.classifier,
        &watch_config(ctx, Some(dir.to_path_buf()), Some(0)),
    )
    .map_err(|e| format!("resume: {e}"))?;
    Ok(outcome.resumed_at.is_some() && outcome.rankings == setup.reference)
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let (setup, first_setup) = sys::timed_secs(|| prepare(ctx, &mut Tracer::off()))?;
    let mut setups = vec![first_setup];
    let texts = setup.doc_texts();
    let (_, _, first) = pass(ctx, &setup, &texts)?;
    report.check(first == setup.reference);

    let dir = ctx.work.path().join("state");
    let mut walls = Vec::new();
    let mut rates = Vec::new();
    let mut peaks = Vec::new();
    let mut resumes = Vec::new();
    let mut cpu_ms = 0.0;
    let started = Instant::now();
    while walls.is_empty() || started.elapsed() < ctx.seconds {
        sys::reset_peak_rss();
        let cpu_before = sys::process_cpu_ms();
        let (events, secs, rankings) = pass(ctx, &setup, &texts)?;
        cpu_ms += sys::process_cpu_ms() - cpu_before;
        peaks.push(sys::peak_rss_mb());
        report.check(rankings == setup.reference);
        walls.push(secs * 1e3);
        rates.push(events as f64 / secs);
        // Reopening after every pass, not only at the end, lets the
        // fastest reopening sample the host at several moments.
        for _ in 0..RESUMES_PER_PASS {
            let start = Instant::now();
            let ok = resume(ctx, &setup, &texts, &dir)?;
            resumes.push(ms(start.elapsed()));
            report.check(ok);
        }
    }
    for _ in 1..SETUP_REPS {
        setups.push(sys::timed_secs(|| prepare(ctx, &mut Tracer::off()))?.1);
    }
    println!(
        "ops: {} measured pass(es) (plus 1 warm-up) over {} event(s); pass ms {:?}; resume ms {:?}",
        walls.len(),
        setup.stream.events.len(),
        walls,
        resumes
    );
    report.metric("setup_s", median(&setups));
    report.metric("p50_ms", median(&walls));
    report.metric("p90_ms", quantile(&walls, 0.9));
    report.metric("throughput_per_s", median(&rates));
    report.metric("cpu_ms_per_op", cpu_ms / walls.len() as f64);
    report.metric("peak_rss_mb", median(&peaks));
    report.metric("resume_ms", sys::fastest(&resumes));
    Ok(report)
}

pub fn traced(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let mut tracer = Tracer::new();
    let setup = prepare(ctx, &mut tracer)?;
    let texts = setup.doc_texts();
    let (_, _, first) = pass(ctx, &setup, &texts)?;
    report.check(first == setup.reference);
    let (_, untraced_secs, rankings) = pass(ctx, &setup, &texts)?;
    report.check(rankings == setup.reference);

    // The traced pass drives the loop `run_watch` runs, one span per call:
    // process an epoch, then checkpoint it.
    let dir = ctx.work.fresh("state").map_err(|e| e.to_string())?;
    let config = ranker_config(ctx);
    let digest = setup.stream.digest();
    tracer.set_op(1);
    let start = Instant::now();
    let root = tracer.enter("watch.pass");
    let mut ranker = ThreatRanker::new(config.clone(), setup.stream.actors.len());
    let mut epochs = 0u64;
    loop {
        let consumed = tracer
            .time("stream.process_epoch", 0, || {
                ranker.process_epoch(&setup.stream, &texts, &setup.classifier)
            })
            .map_err(|e| format!("process epoch: {e}"))?;
        if consumed == 0 {
            break;
        }
        epochs += 1;
        tracer
            .time("stream.save_state", 1, || {
                save_state(&dir, &ranker, &digest)
            })
            .map_err(|e| format!("save state: {e}"))?;
    }
    let rankings = ranker.render_rankings(&setup.stream.actors);
    tracer.exit(root, ranker.next_event() as u64);
    let pass_ms = ms(start.elapsed());
    report.check(rankings == setup.reference);
    let state_bytes = std::fs::metadata(dir.join(STATE_FILE)).map_or(0, |m| m.len());

    tracer.set_op(2);
    let mut loads = Vec::new();
    for _ in 0..LOAD_REPS {
        let start = Instant::now();
        let loaded = tracer
            .time("stream.load_state", 1, || {
                load_state(&dir, config.clone(), setup.stream.actors.len(), &digest)
            })
            .map_err(|e| format!("load state: {e}"))?;
        loads.push(ms(start.elapsed()));
        report.check(loaded.render_rankings(&setup.stream.actors) == setup.reference);
    }

    let layers = tracer.layers();
    let stat = |name: &str| layers.get(name).cloned().unwrap_or_default();
    let (process, save) = (stat("stream.process_epoch"), stat("stream.save_state"));
    let covered = process.total_ms + save.total_ms;
    print!("{}", tracer.table());
    println!(
        "bases: {} event(s) in {epochs} epoch(s) of {}; process_epoch {} call(s) (the last finds the stream \
         exhausted), save_state {} call(s); final state {state_bytes} bytes",
        ranker.next_event(),
        config.epoch_len,
        process.calls,
        save.calls
    );
    println!(
        "reconciliation: pass {pass_ms:.1} ms; process_epoch {:.1} ms + save_state {:.1} ms = {covered:.1} ms \
         ({:.2}% of the pass); remainder {:.1} ms; traced rankings equal run_watch's: {}",
        process.total_ms,
        save.total_ms,
        100.0 * covered / pass_ms,
        pass_ms - covered,
        rankings == setup.reference
    );
    println!(
        "trace overhead: traced pass {pass_ms:.1} ms vs untraced pass {:.1} ms",
        untraced_secs * 1e3
    );
    report.metric("corpus.generate_ms", stat("corpus.generate").total_ms);
    report.metric("ml.train_ms", stat("ml.train").total_ms);
    report.metric("stream.simulate_ms", stat("stream.simulate").total_ms);
    report.metric("stream.decode_ms", stat("stream.decode").total_ms);
    report.metric("stream.process_epoch_ms", median(&process.durations_ms));
    report.metric(
        "stream.process_epoch_p90_ms",
        quantile(&process.durations_ms, 0.9),
    );
    report.metric("stream.process_epoch_total_ms", process.total_ms);
    report.metric("stream.save_state_ms", median(&save.durations_ms));
    report.metric(
        "stream.save_state_p90_ms",
        quantile(&save.durations_ms, 0.9),
    );
    report.metric("stream.save_state_total_ms", save.total_ms);
    report.metric("stream.state_bytes", state_bytes as f64);
    report.metric("stream.load_state_ms", median(&loads));
    report.metric(
        "trace.overhead_pct",
        100.0 * (pass_ms - untraced_secs * 1e3) / (untraced_secs * 1e3),
    );
    report.metric("trace.coverage_pct", 100.0 * covered / pass_ms);
    tracer
        .write_jsonl(&ctx.trace_out)
        .map_err(|e| format!("write trace: {e}"))?;
    println!("spans written to {}", ctx.trace_out.display());
    Ok(report)
}
