//! `paper_pipeline`: the paper's Figure 1 filtering pipeline, run for both
//! tasks over a paper-scale corpus read back from JSONL.
//!
//! Setup generates the corpus and writes it as JSONL. One op reads that
//! file and runs `run_pipeline_resumable` for CTH, then dox, into fresh
//! run directories. Both outcome digests must equal the first op's.

use crate::sys::{self, median, ms, quantile};
use crate::trace::Tracer;
use crate::{Ctx, Report, SETUP_REPS};
use incite_annotate::Annotator;
use incite_core::bootstrap::bootstrap;
use incite_core::checkpoint::{clear_run_dir, load_latest_classifier};
use incite_core::parallel::map_indexed;
use incite_core::threshold::select_threshold;
use incite_core::{run_pipeline_resumable, PipelineConfig, PipelineOutcome, ScoringEngine, Task};
use incite_corpus::jsonl::{read_jsonl, write_jsonl};
use incite_corpus::{generate, Corpus, CorpusConfig, Document};
use incite_ml::{FeatureMatrix, FeaturizerConfig, TextClassifier};
use incite_taxonomy::Platform;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const TASKS: [Task; 2] = [Task::Cth, Task::Dox];

/// Reopenings of both completed run dirs after each measured op.
const RESUMES_PER_OP: usize = 2;

fn corpus_config(ctx: &Ctx) -> CorpusConfig {
    if ctx.tiny {
        CorpusConfig::tiny(ctx.seed)
    } else {
        CorpusConfig {
            seed: ctx.seed,
            ..CorpusConfig::default()
        }
    }
}

fn pipeline_config(ctx: &Ctx) -> PipelineConfig {
    let base = if ctx.tiny {
        PipelineConfig::quick(ctx.seed)
    } else {
        PipelineConfig {
            seed: ctx.seed,
            ..PipelineConfig::default()
        }
    };
    PipelineConfig {
        threads: ctx.threads,
        ..base
    }
}

/// Generates the corpus and writes it as JSONL; returns the file's path.
fn setup(ctx: &Ctx, tracer: &mut Tracer) -> Result<PathBuf, String> {
    let path = ctx.work.path().join("corpus.jsonl");
    let corpus = tracer.time("corpus.generate", 0, || generate(&corpus_config(ctx)));
    let docs = corpus.documents.len() as u64;
    tracer
        .time("corpus.write_jsonl", docs, || {
            File::create(&path).and_then(|f| write_jsonl(f, &corpus.documents))
        })
        .map_err(|e| format!("write corpus: {e}"))?;
    Ok(path)
}

struct RunDirs {
    dirs: [PathBuf; 2],
}

impl RunDirs {
    fn new(ctx: &Ctx) -> Self {
        RunDirs {
            dirs: [
                ctx.work.path().join("run-cth"),
                ctx.work.path().join("run-dox"),
            ],
        }
    }

    fn clear(&self) -> Result<(), String> {
        for dir in &self.dirs {
            clear_run_dir(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
        }
        Ok(())
    }
}

/// One op's result: the corpus it read, both outcomes, and its wall time.
struct Op {
    corpus: Corpus,
    outcomes: Vec<PipelineOutcome>,
    wall: Duration,
}

impl Op {
    fn digests(&self) -> Vec<u64> {
        self.outcomes.iter().map(PipelineOutcome::digest).collect()
    }
}

/// Reads the corpus file and runs both tasks into fresh run dirs.
fn op(ctx: &Ctx, path: &Path, dirs: &RunDirs, tracer: &mut Tracer) -> Result<Op, String> {
    dirs.clear()?;
    let config = pipeline_config(ctx);
    let start = Instant::now();
    let root = tracer.enter("op");
    let documents = tracer
        .time("corpus.read_jsonl", 0, || {
            File::open(path)
                .map_err(|e| e.to_string())
                .and_then(|f| read_jsonl(f).map_err(|e| e.to_string()))
        })
        .map_err(|e| format!("read corpus: {e}"))?;
    let corpus = Corpus {
        documents,
        config: CorpusConfig::default(),
    };
    let mut outcomes = Vec::new();
    for (task, dir) in TASKS.iter().zip(&dirs.dirs) {
        let name = match task {
            Task::Cth => "core.pipeline_cth",
            Task::Dox => "core.pipeline_dox",
        };
        let outcome = tracer
            .time(name, corpus.documents.len() as u64, || {
                run_pipeline_resumable(&corpus, *task, &config, dir)
            })
            .map_err(|e| format!("{} pipeline: {e}", task.slug()))?;
        outcomes.push(outcome);
    }
    tracer.exit(root, corpus.documents.len() as u64);
    Ok(Op {
        corpus,
        outcomes,
        wall: start.elapsed(),
    })
}

/// Reopens both completed run dirs and returns the resumed digests.
fn resume(ctx: &Ctx, corpus: &Corpus, dirs: &RunDirs) -> Result<Vec<u64>, String> {
    let config = pipeline_config(ctx);
    TASKS
        .iter()
        .zip(&dirs.dirs)
        .map(|(task, dir)| {
            run_pipeline_resumable(corpus, *task, &config, dir)
                .map(|o| o.digest())
                .map_err(|e| format!("resume {}: {e}", task.slug()))
        })
        .collect()
}

/// The untimed first op: warms caches and fixes the expected digests.
fn warm_up(ctx: &Ctx, path: &Path, dirs: &RunDirs) -> Result<Vec<u64>, String> {
    let mut expected = op(ctx, path, dirs, &mut Tracer::off())?.digests();
    if ctx.plant {
        expected[1] ^= 1;
    }
    println!(
        "expected digests: cth {:016x}, dox {:016x}",
        expected[0], expected[1]
    );
    Ok(expected)
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let mut quiet = Tracer::off();
    let (path, first_setup) = sys::timed_secs(|| setup(ctx, &mut quiet))?;
    let mut setups = vec![first_setup];
    let dirs = RunDirs::new(ctx);
    let expected = warm_up(ctx, &path, &dirs)?;

    let mut walls = Vec::new();
    let mut rates = Vec::new();
    let mut peaks = Vec::new();
    let mut resumes = Vec::new();
    let mut cpu_ms = 0.0;
    let mut docs = 0;
    let started = Instant::now();
    while walls.is_empty() || started.elapsed() < ctx.seconds {
        sys::reset_peak_rss();
        let cpu_before = sys::process_cpu_ms();
        let done = op(ctx, &path, &dirs, &mut quiet)?;
        cpu_ms += sys::process_cpu_ms() - cpu_before;
        peaks.push(sys::peak_rss_mb());
        report.check(done.digests() == expected);
        walls.push(ms(done.wall));
        docs = done.corpus.documents.len();
        rates.push(docs as f64 / done.wall.as_secs_f64());
        // Reopening after every op, not only at the end, lets the fastest
        // reopening sample the host at several moments.
        for _ in 0..RESUMES_PER_OP {
            let start = Instant::now();
            let digests = resume(ctx, &done.corpus, &dirs)?;
            resumes.push(ms(start.elapsed()));
            report.check(digests == expected);
        }
    }
    for _ in 1..SETUP_REPS {
        setups.push(sys::timed_secs(|| setup(ctx, &mut quiet))?.1);
    }
    println!(
        "ops: {} measured (plus 1 warm-up), {} docs per op; op ms {:?}",
        walls.len(),
        docs,
        walls
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

/// Runs `f` inside a span, returning its result and milliseconds.
fn timed<T>(
    tracer: &mut Tracer,
    name: &'static str,
    items: u64,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let start = Instant::now();
    let out = tracer.time(name, items, f);
    (out, ms(start.elapsed()))
}

/// Per-task layer times from replaying each layer on the op's own inputs.
#[derive(Default)]
struct TaskLayers {
    normalize: f64,
    tokenize: f64,
    featurize: f64,
    csr: f64,
    build: f64,
    build_1t: f64,
    score_pass: f64,
    score_pass_1t: f64,
    passes: usize,
    train: f64,
    bootstrap: f64,
    threshold: f64,
    threshold_calls: usize,
    run_dir_bytes: u64,
}

fn replay_task(
    ctx: &Ctx,
    corpus: &Corpus,
    task: Task,
    outcome: &PipelineOutcome,
    run_dir: &Path,
    tracer: &mut Tracer,
) -> Result<TaskLayers, String> {
    let config = pipeline_config(ctx);
    let threads = ctx.threads;
    let mut l = TaskLayers {
        passes: config.al_rounds + 1,
        run_dir_bytes: sys::dir_bytes(run_dir),
        ..TaskLayers::default()
    };
    // The featurizer is fitted once per run and never refitted, so the
    // run dir's latest classifier carries the one `drive` used.
    let classifier =
        load_latest_classifier(run_dir).map_err(|e| format!("load classifier: {e}"))?;
    let featurizer = classifier.featurizer();
    let applicable: Vec<&Document> = corpus
        .documents
        .iter()
        .filter(|d| task.applies_to(d.platform))
        .collect();
    let n = applicable.len();
    let items = n as u64;
    let panic = |e: incite_core::ScoreError| e.to_string();

    let (normalized, t) = timed(tracer, "textkit.normalize", items, || {
        map_indexed(n, threads, |i| {
            incite_textkit::normalize(&applicable[i].text)
        })
    });
    l.normalize = t;
    let normalized = normalized.map_err(panic)?;
    let (tokens, t) = timed(tracer, "textkit.tokenize", items, || {
        map_indexed(n, threads, |i| {
            incite_textkit::tokenize(&normalized[i]).len()
        })
    });
    l.tokenize = t;
    tokens.map_err(panic)?;
    drop(normalized);
    let (rows, t) = timed(tracer, "ml.featurize", items, || {
        map_indexed(n, threads, |i| featurizer.features(&applicable[i].text))
    });
    l.featurize = t;
    let rows = rows.map_err(panic)?;
    let (matrix, t) = timed(tracer, "ml.csr_build", items, || {
        FeatureMatrix::from_rows(featurizer.dimensions(), rows.iter())
    });
    l.csr = t;
    drop((rows, matrix));

    let (engine, t) = timed(tracer, "core.engine_build_1t", items, || {
        ScoringEngine::build(featurizer, &applicable, 1)
    });
    l.build_1t = t;
    drop(engine.map_err(panic)?);
    let (engine, t) = timed(tracer, "core.engine_build", items, || {
        ScoringEngine::build(featurizer, &applicable, threads)
    });
    l.build = t;
    let mut engine = engine.map_err(panic)?;
    let model = classifier.model();
    let mut pass_ms = Vec::new();
    for _ in 0..l.passes {
        let (scores, t) = timed(tracer, "core.score_all", items, || {
            engine.score_all(model, threads)
        });
        scores.map_err(panic)?;
        pass_ms.push(t);
    }
    l.score_pass = median(&pass_ms);
    let mut pass_1t = Vec::new();
    for _ in 0..l.passes {
        let (scores, t) = timed(tracer, "core.score_all_1t", items, || {
            engine.score_all(model, 1)
        });
        scores.map_err(panic)?;
        pass_1t.push(t);
    }
    l.score_pass_1t = median(&pass_1t);
    drop(engine);

    // A training sample the size of the run's final ledger, spread evenly
    // over the applicable documents.
    let ledger = (outcome.counts.training_annotations as usize).clamp(1, n.max(1));
    let sample: Vec<(&str, bool)> = (0..ledger)
        .filter_map(|k| applicable.get(k * n / ledger))
        .map(|d| (d.text.as_str(), task.truth(d)))
        .collect();
    let featurizer_config = FeaturizerConfig {
        max_len: task.text_length(),
        mode: config.feature_mode,
        hash_bits: config.hash_bits,
        seed: config.seed,
        ..FeaturizerConfig::default()
    };
    let (_, t) = timed(tracer, "ml.train", sample.len() as u64, || {
        TextClassifier::train(sample.iter().copied(), featurizer_config, config.train)
    });
    l.train = t;

    let expert = Annotator::expert("expert");
    let mut rng = StdRng::seed_from_u64(config.seed ^ task.slug().len() as u64);
    let (_, t) = timed(tracer, "core.bootstrap", 1, || {
        bootstrap(corpus, task, config.max_seeds, &expert, &mut rng)
    });
    l.bootstrap = t;
    for platform in Platform::ALL.into_iter().filter(|p| task.applies_to(*p)) {
        let (_, t) = timed(tracer, "core.threshold", 1, || {
            select_threshold(
                corpus,
                task,
                platform,
                &outcome.scores,
                &expert,
                config.threshold,
                config.annotation_budget,
                &mut rng,
            )
        });
        l.threshold += t;
        l.threshold_calls += 1;
    }
    Ok(l)
}

pub fn traced(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let mut tracer = Tracer::new();
    let path = setup(ctx, &mut tracer)?;
    let dirs = RunDirs::new(ctx);
    let expected = warm_up(ctx, &path, &dirs)?;
    let untraced = op(ctx, &path, &dirs, &mut Tracer::off())?;
    report.check(untraced.digests() == expected);
    let untraced_ms = ms(untraced.wall);
    drop(untraced);

    tracer.set_op(1);
    let traced = op(ctx, &path, &dirs, &mut tracer)?;
    report.check(traced.digests() == expected);
    let op_ms = ms(traced.wall);
    tracer.set_op(2);
    let mut per_task = Vec::new();
    for ((task, outcome), dir) in TASKS.iter().zip(&traced.outcomes).zip(&dirs.dirs) {
        per_task.push(replay_task(
            ctx,
            &traced.corpus,
            *task,
            outcome,
            dir,
            &mut tracer,
        )?);
    }

    let layers = tracer.layers();
    let layer_ms = |name: &str| layers.get(name).map_or(0.0, |s| s.total_ms);
    let sum = |f: fn(&TaskLayers) -> f64| per_task.iter().map(f).sum::<f64>();
    let read_ms = layers["corpus.read_jsonl"]
        .durations_ms
        .last()
        .copied()
        .unwrap_or(0.0);
    let build = sum(|l| l.build);
    let score = sum(|l| l.score_pass * l.passes as f64);
    let train = sum(|l| l.train);
    let boot = sum(|l| l.bootstrap);
    let threshold = sum(|l| l.threshold);
    let attributed = read_ms + build + score + train + boot + threshold;
    let threads = ctx.threads as f64;

    print!("{}", tracer.table());
    for (task, l) in TASKS.iter().zip(&per_task) {
        println!(
            "{}: engine_build {:.1} ms x1 ({:.1} ms at 1 thread); score_all {:.2} ms x{} passes \
             ({:.2} ms at 1 thread); train {:.1} ms x1; bootstrap {:.1} ms x1; threshold {:.1} ms over {} platform(s); \
             run dir {} bytes",
            task.slug(),
            l.build,
            l.build_1t,
            l.score_pass,
            l.passes,
            l.score_pass_1t,
            l.train,
            l.bootstrap,
            l.threshold,
            l.threshold_calls,
            l.run_dir_bytes
        );
    }
    println!(
        "reconciliation: op {op_ms:.1} ms; read_jsonl + engine_build + score_all x passes + train + \
         bootstrap + threshold = {attributed:.1} ms ({:.1}% of the op); unattributed {:.1} ms \
         (AL annotation, retrains, checkpoint writes, eval, clones)",
        100.0 * attributed / op_ms,
        op_ms - attributed
    );
    println!("trace overhead: traced op {op_ms:.1} ms vs untraced op {untraced_ms:.1} ms");

    report.metric("corpus.generate_ms", layer_ms("corpus.generate"));
    report.metric("corpus.write_jsonl_ms", layer_ms("corpus.write_jsonl"));
    report.metric("corpus.read_jsonl_ms", read_ms);
    report.metric("textkit.normalize_ms", sum(|l| l.normalize));
    report.metric("textkit.tokenize_ms", sum(|l| l.tokenize));
    report.metric("ml.featurize_ms", sum(|l| l.featurize));
    report.metric("ml.csr_build_ms", sum(|l| l.csr));
    report.metric("core.engine_build_ms", build);
    report.metric("core.score_all_ms", score);
    report.metric(
        "core.engine_build_scaling",
        sum(|l| l.build_1t) / (threads * build),
    );
    report.metric(
        "core.score_all_scaling",
        sum(|l| l.score_pass_1t) / (threads * sum(|l| l.score_pass)),
    );
    report.metric("ml.train_ms", train);
    report.metric("core.bootstrap_ms", boot);
    report.metric("core.threshold_ms", threshold);
    report.metric(
        "core.run_dir_bytes",
        per_task.iter().map(|l| l.run_dir_bytes).sum::<u64>() as f64,
    );
    report.metric("pipeline.unattributed_ms", op_ms - attributed);
    report.metric(
        "trace.overhead_pct",
        100.0 * (op_ms - untraced_ms) / untraced_ms,
    );
    report.metric("trace.coverage_pct", 100.0 * attributed / op_ms);
    tracer
        .write_jsonl(&ctx.trace_out)
        .map_err(|e| format!("write trace: {e}"))?;
    println!("spans written to {}", ctx.trace_out.display());
    Ok(report)
}
