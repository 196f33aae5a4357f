//! # incite-cli
//!
//! The command-line face of the reproduction: train a detector from a
//! labeled JSONL corpus, score text, extract or redact PII, and infer
//! target gender — the operations a platform trust-and-safety team or an
//! anti-harassment group would actually run (paper §9.2).
//!
//! The logic lives here in the library so it is unit-testable; the `incite`
//! binary is a thin argument parser over [`run`].

// INC001 (DESIGN.md §10): library code returns typed errors, never panics.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)
)]

use incite_core::checkpoint::atomic_io::write_atomic;
use incite_core::checkpoint::{Resume, MANIFEST_FILE};
use incite_core::{
    clear_run_dir, load_latest_classifier_with_hash, run_pipeline_resumable, Checkpointer,
    PipelineConfig, ScoringEngine, Task,
};
use incite_corpus::jsonl::{self, QuarantineStats};
use incite_corpus::{Corpus, CorpusConfig};
use incite_ml::{
    load_model, save_model, FeatureMode, FeaturizerConfig, TextClassifier, TrainConfig,
};
use incite_pii::{infer_gender, redact, PiiExtractor};
use incite_serve::admission::TenantQuota;
use incite_serve::journal::read_journal;
use incite_serve::{ServeConfig, Server};
use incite_stream::{run_watch, simulate, EventStream, SimConfig, WatchConfig};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// CLI errors, printable to stderr.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(format!("I/O error: {e}"))
    }
}

impl From<std::string::FromUtf8Error> for CliError {
    fn from(e: std::string::FromUtf8Error) -> Self {
        CliError(format!("output is not UTF-8: {e}"))
    }
}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Usage text.
pub const USAGE: &str = "\
incite <command> [options]

commands:
  train   --corpus FILE.jsonl --task cth|dox --out MODEL.json [--max-len N]
          train a detector from a labeled JSONL corpus (corpus-gen format)
  run     --corpus FILE.jsonl --task cth|dox --resume DIR
          [--seed N] [--force true]
          run the full checkpointed pipeline with run directory DIR; a
          killed run resumes from its last completed step and finishes
          with a byte-identical outcome. `--force true` discards any
          existing checkpoints in DIR first.
  serve   (--run-dir DIR | --registry DIR) [--addr HOST:PORT]
          [--threads N] [--queue-depth Q] [--max-batch B]
          [--deadline-ms MS] [--io-window-ms MS] [--journal FILE]
          [--tenants FILE.json]
          serve the latest classifier checkpointed in run directory DIR
          (or in the newest run directory under a --registry root) over
          HTTP: POST /v1/score, POST /v1/redact, POST /v1/admin/swap,
          GET /healthz, GET /metrics. --tenants takes a JSON array of
          {name, key, capacity, refill_per_sec} token-bucket quotas;
          --journal appends every scored response for offline `replay`.
          SIGTERM / ctrl-c drains in-flight requests and exits 0.
          Defaults: 127.0.0.1:7878, queue depth 256, open admission.
  replay  --journal FILE [--run-dir DIR]
          re-score a serve request journal offline and verify every
          journaled response bit-for-bit against the checkpointed model;
          exits nonzero on any mismatch. --run-dir overrides the
          journaled run directory (for relocated checkpoints).
  events  --corpus FILE.jsonl --out EVENTS.jsonl [--seed N]
          [--max-events N]
          simulate a deterministic amplification-event stream (post /
          quote-repost / follower-edge) over the corpus' personas; the
          same seed and corpus always produce a byte-identical stream
  watch   --corpus FILE.jsonl --events EVENTS.jsonl --run-dir DIR
          [--state DIR] [--threads N] [--epoch-len N] [--top-k K]
          [--max-epochs N]
          consume the event stream with the classifier checkpointed in
          run directory DIR, maintaining ranked per-target threat lists
          on the toxicity x topic-overlap plane. --state DIR checkpoints
          every epoch into DIR (a STREAM.ckpt snapshot plus a STREAM.log
          of per-epoch deltas, compacted into the snapshot as it grows)
          and resumes from it; rankings are byte-identical at any
          --threads and across kill/resume.
  score   --model MODEL.json [--input FILE] [--threshold T]
          score one text per input line; prints `score<TAB>text`
  pii     [--input FILE]
          extract PII spans per input line; prints `kind<TAB>span`
  redact  [--input FILE]
          redact PII per input line; prints the redacted line
  gender  [--input FILE]
          pronoun-based target-gender inference per line

`--input` defaults to stdin.";

/// Parsed options: flag name → value.
fn parse_flags(args: &[String]) -> Result<std::collections::HashMap<String, String>, CliError> {
    let mut flags = std::collections::HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| err(format!("unexpected argument '{}'", args[i])))?;
        let value = args
            .get(i + 1)
            .ok_or_else(|| err(format!("--{key} requires a value")))?;
        flags.insert(key.to_string(), value.clone());
        i += 2;
    }
    Ok(flags)
}

fn input_lines(flags: &std::collections::HashMap<String, String>) -> Result<Vec<String>, CliError> {
    let reader: Box<dyn Read> = match flags.get("input") {
        Some(path) => {
            Box::new(std::fs::File::open(path).map_err(|e| err(format!("open {path}: {e}")))?)
        }
        None => Box::new(std::io::stdin()),
    };
    BufReader::new(reader)
        .lines()
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| err(format!("read input: {e}")))
}

/// Loads a JSONL corpus with the quarantining reader: one bad crawler
/// record never aborts a train or pipeline run. Any quarantined lines are
/// reported to `out` so silent data loss is impossible.
fn load_corpus_lines(
    corpus_path: &str,
    out: &mut dyn Write,
) -> Result<Vec<incite_corpus::Document>, CliError> {
    let file =
        std::fs::File::open(corpus_path).map_err(|e| err(format!("open {corpus_path}: {e}")))?;
    let (docs, stats): (_, QuarantineStats) =
        jsonl::read_jsonl_quarantine(file).map_err(|e| err(format!("parse corpus: {e}")))?;
    if stats.quarantined() > 0 {
        // `reason` names the line and byte offset itself and is redacted
        // at its source (corpus::redact_excerpt) — safe to print.
        let (_, reason) = stats
            .first_error
            .clone()
            .unwrap_or((0, "unknown".to_string()));
        writeln!(
            out,
            "warning: quarantined {} corpus line(s) ({} malformed, {} non-UTF-8, {} truncated); \
             first: {reason}",
            stats.quarantined(),
            stats.malformed,
            stats.non_utf8,
            stats.truncated
        )
        .map_err(|e| err(e.to_string()))?;
    }
    if docs.is_empty() {
        return Err(err(format!("{corpus_path} contains no readable documents")));
    }
    Ok(docs)
}

/// Picks the newest servable run directory under a registry root: the
/// lexically greatest immediate subdirectory holding a `MANIFEST.ckpt`.
/// Registries name runs sortably (`run-2026-08-09`, `v0007`, ...), so
/// lexical order is deployment order; directories without a manifest
/// (scratch space, half-copied runs) are skipped, not errors.
fn newest_run_dir(registry: &Path) -> Result<PathBuf, CliError> {
    let entries = std::fs::read_dir(registry)
        .map_err(|e| err(format!("read registry {}: {e}", registry.display())))?;
    let mut best: Option<PathBuf> = None;
    for entry in entries {
        let path = entry
            .map_err(|e| err(format!("read registry entry: {e}")))?
            .path();
        if !path.join(MANIFEST_FILE).is_file() {
            continue;
        }
        match &best {
            Some(current) if current.file_name() >= path.file_name() => {}
            _ => best = Some(path),
        }
    }
    best.ok_or_else(|| {
        err(format!(
            "{} holds no run directory with a {MANIFEST_FILE}",
            registry.display()
        ))
    })
}

/// Parses a `--tenants` file: a JSON array of token-bucket quotas.
fn load_tenants(path: &str) -> Result<Vec<TenantQuota>, CliError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| err(format!("open tenants {path}: {e}")))?;
    serde_json::from_str(&text)
        .map_err(|_| err(format!("{path} is not a JSON array of tenant quotas")))
}

/// Runs one CLI command, writing results to `out`.
pub fn run(command: &str, args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let flags = parse_flags(args)?;
    match command {
        "train" => {
            let corpus_path = flags
                .get("corpus")
                .ok_or_else(|| err("train requires --corpus"))?;
            let task = flags.get("task").map(|s| s.as_str()).unwrap_or("cth");
            let out_path = flags
                .get("out")
                .ok_or_else(|| err("train requires --out"))?;
            let max_len: usize = flags
                .get("max-len")
                .map(|s| s.parse().map_err(|_| err("--max-len takes a number")))
                .transpose()?
                .unwrap_or(if task == "dox" { 512 } else { 128 });

            let docs = load_corpus_lines(corpus_path, out)?;
            let labeled: Vec<(&str, bool)> = docs
                .iter()
                .map(|d| {
                    let label = match task {
                        "dox" => d.truth.is_dox,
                        "cth" => d.truth.is_cth,
                        other => return Err(err(format!("unknown task '{other}'"))),
                    };
                    Ok((d.text.as_str(), label))
                })
                .collect::<Result<_, _>>()?;
            let positives = labeled.iter().filter(|(_, l)| *l).count();
            if positives == 0 {
                return Err(err("corpus has no positive examples for this task"));
            }
            let clf = TextClassifier::train(
                labeled,
                FeaturizerConfig {
                    max_len,
                    mode: FeatureMode::Subword,
                    ..Default::default()
                },
                TrainConfig::default(),
            );
            // Model artifacts go through the checkpoint module's atomic
            // write-rename (INC006): a crash mid-save can never leave a
            // torn model file behind.
            let mut buf = Vec::new();
            save_model(&mut buf, &clf).map_err(|e| err(e.to_string()))?;
            write_atomic(Path::new(out_path), &buf)
                .map_err(|e| err(format!("write {out_path}: {e}")))?;
            writeln!(
                out,
                "trained {task} model on {} documents ({positives} positive) -> {out_path}",
                docs.len()
            )
            .map_err(|e| err(e.to_string()))?;
            Ok(())
        }
        "run" => {
            let corpus_path = flags
                .get("corpus")
                .ok_or_else(|| err("run requires --corpus"))?;
            let task = match flags.get("task").map(String::as_str).unwrap_or("cth") {
                "cth" => Task::Cth,
                "dox" => Task::Dox,
                other => return Err(err(format!("unknown task '{other}'"))),
            };
            let run_dir = flags
                .get("resume")
                .ok_or_else(|| err("run requires --resume DIR (the checkpoint directory)"))?;
            let seed: u64 = flags
                .get("seed")
                .map(|s| s.parse().map_err(|_| err("--seed takes a number")))
                .transpose()?
                .unwrap_or(1);
            let dir = Path::new(run_dir);
            if flags.get("force").map(String::as_str) == Some("true") {
                clear_run_dir(dir).map_err(|e| err(e.to_string()))?;
                writeln!(out, "discarded existing checkpoints in {run_dir}")
                    .map_err(|e| err(e.to_string()))?;
            }

            let docs = load_corpus_lines(corpus_path, out)?;
            let corpus = Corpus {
                documents: docs,
                config: CorpusConfig::default(),
            };
            let config = PipelineConfig::quick(seed);

            // Recovery progress: report what the run directory already
            // holds before the pipeline continues from it.
            let (ckpt, resume) = Checkpointer::open(dir, task.slug(), &config.fingerprint())
                .map_err(|e| err(e.to_string()))?;
            match resume {
                Resume::Fresh => {
                    writeln!(out, "starting fresh run in {run_dir}")
                        .map_err(|e| err(e.to_string()))?;
                }
                Resume::FromStep { completed } => {
                    let last = ckpt.step_names().last().unwrap_or("none");
                    writeln!(
                        out,
                        "resuming in {run_dir}: {completed} step(s) verified and checkpointed \
                         (last: {last})"
                    )
                    .map_err(|e| err(e.to_string()))?;
                }
            }
            drop(ckpt);

            let outcome = run_pipeline_resumable(&corpus, task, &config, dir)
                .map_err(|e| err(e.to_string()))?;
            writeln!(
                out,
                "{} pipeline complete: {} documents, {} above threshold, \
                 {} true positives (precision {:.3}), outcome digest {:016x}",
                task.slug(),
                outcome.counts.raw_documents,
                outcome.counts.above_threshold,
                outcome.counts.true_positives,
                outcome.counts.final_precision(),
                outcome.digest()
            )
            .map_err(|e| err(e.to_string()))?;
            for row in &outcome.thresholds {
                writeln!(
                    out,
                    "  {}: t={} above={} annotated={} precision={:.3}",
                    row.platform.slug(),
                    row.threshold,
                    row.above_threshold,
                    row.annotated,
                    row.precision()
                )
                .map_err(|e| err(e.to_string()))?;
            }
            Ok(())
        }
        "serve" => {
            let run_dir: PathBuf = match (flags.get("run-dir"), flags.get("registry")) {
                (Some(_), Some(_)) => {
                    return Err(err("serve takes --run-dir or --registry, not both"))
                }
                (Some(dir), None) => PathBuf::from(dir),
                (None, Some(root)) => newest_run_dir(Path::new(root))?,
                (None, None) => {
                    return Err(err(
                        "serve requires --run-dir DIR (a checkpointed run directory) \
                         or --registry DIR (a root of run directories)",
                    ))
                }
            };
            let mut config = ServeConfig::default();
            if let Some(addr) = flags.get("addr") {
                config.addr = addr.clone();
            }
            let parse_usize = |key: &str| -> Result<Option<usize>, CliError> {
                flags
                    .get(key)
                    .map(|s| {
                        s.parse()
                            .map_err(|_| err(format!("--{key} takes a number")))
                    })
                    .transpose()
            };
            if let Some(n) = parse_usize("threads")? {
                config.threads = n;
            }
            if let Some(q) = parse_usize("queue-depth")? {
                config.queue_depth = q;
            }
            if let Some(b) = parse_usize("max-batch")? {
                config.max_batch = b;
            }
            if let Some(ms) = parse_usize("deadline-ms")? {
                config.deadline = Duration::from_millis(ms as u64);
            }
            if let Some(ms) = parse_usize("io-window-ms")? {
                config.io_window = Duration::from_millis(ms as u64);
            }
            if let Some(path) = flags.get("journal") {
                config.journal = Some(PathBuf::from(path));
            }
            if let Some(path) = flags.get("tenants") {
                config.tenants = load_tenants(path)?;
            }

            incite_serve::signal::install();
            // The model is loaded and hash-verified BEFORE the port binds
            // (inside start_from_run_dir): a damaged run directory is a
            // typed refusal with nothing listening — no partially
            // initialized server.
            let handle =
                Server::start_from_run_dir(&run_dir, config).map_err(|e| err(e.to_string()))?;
            writeln!(
                out,
                "incite-serve listening on http://{} (run dir: {}); \
                 SIGTERM or ctrl-c drains and exits",
                handle.local_addr(),
                run_dir.display()
            )
            .map_err(|e| err(e.to_string()))?;
            out.flush().map_err(|e| err(e.to_string()))?;

            let report = handle.run_until(incite_serve::signal::shutdown_flag());
            writeln!(
                out,
                "drained: {} request(s) answered, {} document(s) scored, \
                 {} rejected for overload, {} stuck connection(s)",
                report.requests_total,
                report.documents_scored,
                report.rejected_overload,
                report.stuck_connections
            )
            .map_err(|e| err(e.to_string()))?;
            if report.panicked_threads > 0 {
                return Err(err(format!(
                    "{} server thread(s) panicked during drain",
                    report.panicked_threads
                )));
            }
            Ok(())
        }
        "replay" => {
            let journal_path = flags
                .get("journal")
                .ok_or_else(|| err("replay requires --journal FILE"))?;
            let override_dir = flags.get("run-dir").map(PathBuf::from);
            let (records, damage) = read_journal(Path::new(journal_path))
                .map_err(|e| err(format!("read journal {journal_path}: {e}")))?;
            if let Some(offset) = damage {
                writeln!(
                    out,
                    "warning: journal tail damaged at byte {offset}; \
                     replaying the {} intact record(s) before it",
                    records.len()
                )
                .map_err(|e| err(e.to_string()))?;
            }
            if records.is_empty() {
                writeln!(
                    out,
                    "replayed 0 record(s) from {journal_path}: nothing to verify"
                )
                .map_err(|e| err(e.to_string()))?;
                return Ok(());
            }

            // One load per distinct run directory; hash verification ties
            // each journaled response to the exact weights it came from.
            let mut models: BTreeMap<String, (TextClassifier, String)> = BTreeMap::new();
            let mut matched = 0usize;
            let mut mismatched: Vec<u64> = Vec::with_capacity(4);
            for record in &records {
                let dir = match &override_dir {
                    Some(p) => p.display().to_string(),
                    None => record.run_dir.clone(),
                };
                if dir.is_empty() {
                    return Err(err(format!(
                        "record seq {} names no run directory (the server booted \
                         from an in-memory model); pass --run-dir",
                        record.seq
                    )));
                }
                if !models.contains_key(&dir) {
                    let loaded = load_latest_classifier_with_hash(Path::new(&dir))
                        .map_err(|e| err(format!("load model for seq {}: {e}", record.seq)))?;
                    models.insert(dir.clone(), loaded);
                }
                let (classifier, hash) = &models[&dir];
                if !record.model_hash.is_empty() && record.model_hash != *hash {
                    return Err(err(format!(
                        "seq {}: journaled model hash does not match the checkpointed \
                         model — wrong run directory or a swapped checkpoint",
                        record.seq
                    )));
                }
                // The journaled texts feed the engine and nothing else:
                // request content never reaches replay output (INC011).
                let texts: Vec<&str> = record.texts.iter().map(String::as_str).collect();
                let scores = ScoringEngine::score_texts(classifier, &texts, 1)
                    .map_err(|e| err(format!("score seq {}: {}", record.seq, e.kind())))?;
                let bits: Vec<u32> = scores.iter().map(|s| s.to_bits()).collect();
                if bits == record.bits {
                    matched += 1;
                } else {
                    mismatched.push(record.seq);
                }
            }
            writeln!(
                out,
                "replayed {} record(s) from {journal_path}: {matched} matched, {} mismatched",
                records.len(),
                mismatched.len()
            )
            .map_err(|e| err(e.to_string()))?;
            if !mismatched.is_empty() {
                let seqs: Vec<String> = mismatched.iter().map(u64::to_string).collect();
                return Err(err(format!(
                    "replay does not reproduce the journaled bits at seq {}",
                    seqs.join(", ")
                )));
            }
            Ok(())
        }
        "events" => {
            let corpus_path = flags
                .get("corpus")
                .ok_or_else(|| err("events requires --corpus"))?;
            let out_path = flags
                .get("out")
                .ok_or_else(|| err("events requires --out"))?;
            let seed: u64 = flags
                .get("seed")
                .map(|s| s.parse().map_err(|_| err("--seed takes a number")))
                .transpose()?
                .unwrap_or(7);
            let max_events: usize = flags
                .get("max-events")
                .map(|s| s.parse().map_err(|_| err("--max-events takes a number")))
                .transpose()?
                .unwrap_or(0);

            let docs = load_corpus_lines(corpus_path, out)?;
            let corpus = Corpus {
                documents: docs,
                config: CorpusConfig::default(),
            };
            let stream = simulate(
                &corpus,
                &SimConfig {
                    seed,
                    max_events,
                    ..SimConfig::default()
                },
            );
            let bytes = stream.encode().map_err(|e| err(e.to_string()))?;
            // Event streams ride the same atomic write-rename funnel as
            // every other artifact: no torn stream files.
            write_atomic(Path::new(out_path), &bytes)
                .map_err(|e| err(format!("write {out_path}: {e}")))?;
            writeln!(
                out,
                "simulated {} event(s) over {} actor(s), digest {} -> {out_path}",
                stream.events.len(),
                stream.actors.len(),
                stream.digest()
            )
            .map_err(|e| err(e.to_string()))?;
            Ok(())
        }
        "watch" => {
            let corpus_path = flags
                .get("corpus")
                .ok_or_else(|| err("watch requires --corpus"))?;
            let events_path = flags
                .get("events")
                .ok_or_else(|| err("watch requires --events"))?;
            let run_dir = flags
                .get("run-dir")
                .ok_or_else(|| err("watch requires --run-dir (a checkpointed run directory)"))?;
            let parse_usize = |key: &str| -> Result<Option<usize>, CliError> {
                flags
                    .get(key)
                    .map(|s| {
                        s.parse()
                            .map_err(|_| err(format!("--{key} takes a number")))
                    })
                    .transpose()
            };

            let docs = load_corpus_lines(corpus_path, out)?;
            let bytes =
                std::fs::read(events_path).map_err(|e| err(format!("open {events_path}: {e}")))?;
            let stream = EventStream::decode(&bytes)
                .map_err(|e| err(format!("parse {events_path}: {e}")))?;
            let doc_texts: BTreeMap<u64, &str> =
                docs.iter().map(|d| (d.id.0, d.text.as_str())).collect();
            let (classifier, model_hash) = load_latest_classifier_with_hash(Path::new(run_dir))
                .map_err(|e| err(e.to_string()))?;

            let mut config = WatchConfig::default();
            if let Some(n) = parse_usize("threads")? {
                config.ranker.threads = n;
            }
            if let Some(n) = parse_usize("epoch-len")? {
                config.ranker.epoch_len = n.max(1);
            }
            if let Some(k) = parse_usize("top-k")? {
                config.ranker.top_k = k.max(1);
            }
            if let Some(n) = parse_usize("max-epochs")? {
                config.max_epochs = Some(n as u64);
            }
            config.state_dir = flags.get("state").map(PathBuf::from);

            let outcome = run_watch(&stream, &doc_texts, &classifier, &config)
                .map_err(|e| err(e.to_string()))?;
            if let Some(at) = outcome.resumed_at {
                writeln!(out, "resumed from checkpointed state at event {at}")
                    .map_err(|e| err(e.to_string()))?;
            }
            let written = outcome.checkpoint;
            writeln!(
                out,
                "watch complete: {} event(s) in {} epoch(s), model {model_hash}; \
                 checkpoint: {} snapshot(s), {} delta record(s), {} byte(s) written",
                outcome.events, outcome.epochs, written.snapshots, written.deltas, written.bytes
            )
            .map_err(|e| err(e.to_string()))?;
            out.write_all(outcome.rankings.as_bytes())
                .map_err(|e| err(e.to_string()))?;
            Ok(())
        }
        "score" => {
            let model_path = flags
                .get("model")
                .ok_or_else(|| err("score requires --model"))?;
            let threshold: f32 = flags
                .get("threshold")
                .map(|s| s.parse().map_err(|_| err("--threshold takes a number")))
                .transpose()?
                .unwrap_or(0.5);
            let f = std::fs::File::open(model_path)
                .map_err(|e| err(format!("open {model_path}: {e}")))?;
            let clf = load_model(f).map_err(|e| err(e.to_string()))?;
            for line in input_lines(&flags)? {
                if line.trim().is_empty() {
                    continue;
                }
                let score = clf.score(&line);
                let flag = if score > threshold { "FLAG" } else { "ok" };
                writeln!(out, "{score:.4}\t{flag}\t{line}").map_err(|e| err(e.to_string()))?;
            }
            Ok(())
        }
        "pii" => {
            let extractor = PiiExtractor::new();
            for (lineno, line) in input_lines(&flags)?.iter().enumerate() {
                for m in extractor.extract(line) {
                    writeln!(out, "{}\t{}\t{}", lineno + 1, m.kind.slug(), m.text)
                        .map_err(|e| err(e.to_string()))?;
                }
            }
            Ok(())
        }
        "redact" => {
            let extractor = PiiExtractor::new();
            for line in input_lines(&flags)? {
                let (clean, _) = redact(&extractor, &line);
                writeln!(out, "{clean}").map_err(|e| err(e.to_string()))?;
            }
            Ok(())
        }
        "gender" => {
            for line in input_lines(&flags)? {
                writeln!(out, "{}\t{}", infer_gender(&line).slug(), line)
                    .map_err(|e| err(e.to_string()))?;
            }
            Ok(())
        }
        other => Err(err(format!("unknown command '{other}'\n\n{USAGE}"))),
    }
}

#[cfg(test)]
mod tests {
    // The tests propagate failures as `Result<(), CliError>` with `?` —
    // the same error discipline as the library.
    use super::*;
    use incite_corpus::{generate, CorpusConfig};
    use std::path::Path;

    type TestResult = Result<(), CliError>;

    fn flags(pairs: &[(&str, &str)]) -> Vec<String> {
        pairs
            .iter()
            .flat_map(|(k, v)| [format!("--{k}"), v.to_string()])
            .collect()
    }

    fn path_str(p: &Path) -> Result<&str, CliError> {
        p.to_str().ok_or_else(|| err("non-UTF-8 temp path"))
    }

    #[test]
    fn parse_flags_roundtrip_and_errors() -> TestResult {
        let ok = parse_flags(&flags(&[("model", "m.json"), ("threshold", "0.7")]))?;
        assert_eq!(ok.get("model").map(String::as_str), Some("m.json"));
        assert!(parse_flags(&["--model".to_string()]).is_err());
        assert!(parse_flags(&["stray".to_string()]).is_err());
        Ok(())
    }

    #[test]
    #[allow(clippy::disallowed_methods)]
    fn train_then_score_end_to_end() -> TestResult {
        let dir = std::env::temp_dir().join(format!("incite-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        let corpus_path = dir.join("corpus.jsonl");
        let model_path = dir.join("model.json");

        let corpus = generate(&CorpusConfig::tiny(11));
        let f = std::fs::File::create(&corpus_path)?;
        jsonl::write_jsonl(f, &corpus.documents)?;

        let mut out = Vec::new();
        run(
            "train",
            &flags(&[
                ("corpus", path_str(&corpus_path)?),
                ("task", "cth"),
                ("out", path_str(&model_path)?),
            ]),
            &mut out,
        )?;
        assert!(String::from_utf8_lossy(&out).contains("trained cth model"));

        // Score a file of two lines.
        let input_path = dir.join("lines.txt");
        std::fs::write(
            &input_path,
            "we need to mass report his account right now\nlovely weather for a picnic\n",
        )?;
        let mut out = Vec::new();
        run(
            "score",
            &flags(&[
                ("model", path_str(&model_path)?),
                ("input", path_str(&input_path)?),
            ]),
            &mut out,
        )?;
        let text = String::from_utf8(out)?;
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let score_of = |line: &str| -> Result<f32, CliError> {
            line.split('\t')
                .next()
                .ok_or_else(|| err("empty score line"))?
                .parse()
                .map_err(|e| err(format!("bad score: {e}")))
        };
        let s0 = score_of(lines[0])?;
        let s1 = score_of(lines[1])?;
        assert!(s0 > s1, "CTH should outscore benign: {s0} vs {s1}");
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    #[allow(clippy::disallowed_methods)]
    fn pii_and_redact_commands() -> TestResult {
        let dir = std::env::temp_dir().join(format!("incite-cli-pii-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        let input_path = dir.join("in.txt");
        std::fs::write(&input_path, "call 212-555-0101 or mail a@example.com\n")?;

        let mut out = Vec::new();
        run(
            "pii",
            &flags(&[("input", path_str(&input_path)?)]),
            &mut out,
        )?;
        let text = String::from_utf8(out)?;
        assert!(text.contains("phone\t"));
        assert!(text.contains("email\t"));

        let mut out = Vec::new();
        run(
            "redact",
            &flags(&[("input", path_str(&input_path)?)]),
            &mut out,
        )?;
        let text = String::from_utf8(out)?;
        assert!(text.contains("[PHONE]"));
        assert!(!text.contains("555-0101"));
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    #[allow(clippy::disallowed_methods)]
    fn gender_command() -> TestResult {
        let dir = std::env::temp_dir().join(format!("incite-cli-g-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        let input_path = dir.join("in.txt");
        std::fs::write(&input_path, "she posted her schedule\nreport the account\n")?;
        let mut out = Vec::new();
        run(
            "gender",
            &flags(&[("input", path_str(&input_path)?)]),
            &mut out,
        )?;
        let text = String::from_utf8(out)?;
        assert!(text.starts_with("female\t"));
        assert!(text.contains("unknown\t"));
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    #[allow(clippy::disallowed_methods)]
    fn run_command_checkpoints_and_resumes() -> TestResult {
        let dir = std::env::temp_dir().join(format!("incite-cli-run-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        let corpus_path = dir.join("corpus.jsonl");
        let run_dir = dir.join("run");

        let corpus = generate(&CorpusConfig::tiny(404));
        let f = std::fs::File::create(&corpus_path)?;
        jsonl::write_jsonl(f, &corpus.documents)?;

        let args = flags(&[
            ("corpus", path_str(&corpus_path)?),
            ("task", "dox"),
            ("resume", path_str(&run_dir)?),
            ("seed", "3"),
        ]);
        let mut out = Vec::new();
        run("run", &args, &mut out)?;
        let text = String::from_utf8(out)?;
        assert!(text.contains("starting fresh run"), "{text}");
        assert!(text.contains("pipeline complete"), "{text}");
        let digest_line = |t: &str| -> Result<String, CliError> {
            t.lines()
                .find(|l| l.contains("outcome digest"))
                .map(str::to_string)
                .ok_or_else(|| err("no digest line"))
        };
        let first_digest = digest_line(&text)?;

        // Second invocation resumes from the completed checkpoints and
        // reports the identical outcome.
        let mut out = Vec::new();
        run("run", &args, &mut out)?;
        let text = String::from_utf8(out)?;
        assert!(text.contains("resuming in"), "{text}");
        assert!(text.contains("step(s) verified and checkpointed"), "{text}");
        assert_eq!(digest_line(&text)?, first_digest);

        // --force discards the checkpoints and starts fresh — same digest.
        let mut forced = args.clone();
        forced.extend(flags(&[("force", "true")]));
        let mut out = Vec::new();
        run("run", &forced, &mut out)?;
        let text = String::from_utf8(out)?;
        assert!(text.contains("discarded existing checkpoints"), "{text}");
        assert!(text.contains("starting fresh run"), "{text}");
        assert_eq!(digest_line(&text)?, first_digest);
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    #[allow(clippy::disallowed_methods)]
    fn events_then_watch_end_to_end() -> TestResult {
        let dir = std::env::temp_dir().join(format!("incite-cli-watch-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir)?;
        let corpus_path = dir.join("corpus.jsonl");
        let run_dir = dir.join("run");

        let corpus = generate(&CorpusConfig::tiny(404));
        let f = std::fs::File::create(&corpus_path)?;
        jsonl::write_jsonl(f, &corpus.documents)?;
        run_pipeline_resumable(&corpus, Task::Cth, &PipelineConfig::quick(3), &run_dir)
            .map_err(|e| err(e.to_string()))?;

        // Simulation is deterministic: same seed, byte-identical stream.
        let events_path = dir.join("events.jsonl");
        let events_path2 = dir.join("events2.jsonl");
        for path in [&events_path, &events_path2] {
            let mut out = Vec::new();
            run(
                "events",
                &flags(&[
                    ("corpus", path_str(&corpus_path)?),
                    ("out", path_str(path)?),
                    ("seed", "7"),
                ]),
                &mut out,
            )?;
            assert!(String::from_utf8(out)?.contains("simulated"), "no summary");
        }
        assert_eq!(
            std::fs::read(&events_path)?,
            std::fs::read(&events_path2)?,
            "same seed must produce a byte-identical stream file"
        );

        // One uninterrupted watch.
        let watch_flags = |extra: &[(&str, &str)]| -> Result<Vec<String>, CliError> {
            let mut all = vec![
                ("corpus".to_string(), path_str(&corpus_path)?.to_string()),
                ("events".to_string(), path_str(&events_path)?.to_string()),
                ("run-dir".to_string(), path_str(&run_dir)?.to_string()),
            ];
            all.extend(extra.iter().map(|(k, v)| (k.to_string(), v.to_string())));
            Ok(all
                .into_iter()
                .flat_map(|(k, v)| [format!("--{k}"), v])
                .collect())
        };
        let rankings_of = |text: &str| -> Result<String, CliError> {
            let at = text
                .find("threat rankings:")
                .ok_or_else(|| err("no rankings section"))?;
            Ok(text[at..].to_string())
        };
        let mut out = Vec::new();
        run("watch", &watch_flags(&[("threads", "2")])?, &mut out)?;
        let text = String::from_utf8(out)?;
        assert!(text.contains("watch complete"), "{text}");
        assert!(text.contains("\ntarget "), "no ranked targets:\n{text}");
        let reference = rankings_of(&text)?;

        // Split run: a few checkpointed epochs, then resume to the end —
        // byte-identical rankings.
        let state_dir = dir.join("state");
        let state = path_str(&state_dir)?.to_string();
        let mut out = Vec::new();
        run(
            "watch",
            &watch_flags(&[("state", &state), ("max-epochs", "3")])?,
            &mut out,
        )?;
        let mut out = Vec::new();
        run("watch", &watch_flags(&[("state", &state)])?, &mut out)?;
        let text = String::from_utf8(out)?;
        assert!(text.contains("resumed from checkpointed state"), "{text}");
        assert!(text.contains("checkpoint: "), "{text}");
        assert!(!text.contains(" 0 snapshot(s)"), "{text}");
        assert_eq!(std::fs::metadata(state_dir.join("STREAM.log"))?.len(), 0);
        assert_eq!(rankings_of(&text)?, reference);
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    #[allow(clippy::disallowed_methods)]
    fn events_and_watch_refuse_bad_inputs() -> TestResult {
        let mut out = Vec::new();
        assert!(run("events", &[], &mut out).is_err());
        assert!(run("watch", &[], &mut out).is_err());

        // A corpus file is not an event stream: typed refusal at decode.
        let dir = std::env::temp_dir().join(format!("incite-cli-badev-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir)?;
        let corpus_path = dir.join("corpus.jsonl");
        let corpus = generate(&CorpusConfig::tiny(11));
        let f = std::fs::File::create(&corpus_path)?;
        jsonl::write_jsonl(f, &corpus.documents)?;
        let Err(e) = run(
            "watch",
            &flags(&[
                ("corpus", path_str(&corpus_path)?),
                ("events", path_str(&corpus_path)?),
                ("run-dir", "/nonexistent"),
            ]),
            &mut out,
        ) else {
            return Err(err("watch on a non-stream file unexpectedly succeeded"));
        };
        assert!(e.0.contains("parse"), "{e}");
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    #[allow(clippy::disallowed_methods)]
    fn train_quarantines_dirty_corpus_lines() -> TestResult {
        let dir = std::env::temp_dir().join(format!("incite-cli-dirty-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        let corpus_path = dir.join("corpus.jsonl");
        let model_path = dir.join("model.json");

        let corpus = generate(&CorpusConfig::tiny(11));
        let mut buf = Vec::new();
        jsonl::write_jsonl(&mut buf, &corpus.documents)?;
        buf.extend_from_slice(b"{\"not\": \"a document\"}\n\xff\xfe broken \xff\n");
        std::fs::write(&corpus_path, &buf)?;

        let mut out = Vec::new();
        run(
            "train",
            &flags(&[
                ("corpus", path_str(&corpus_path)?),
                ("task", "cth"),
                ("out", path_str(&model_path)?),
            ]),
            &mut out,
        )?;
        let text = String::from_utf8(out)?;
        assert!(text.contains("quarantined 2 corpus line(s)"), "{text}");
        assert!(text.contains("trained cth model"), "{text}");
        assert!(model_path.exists());
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn serve_refuses_bad_boot_without_binding() -> TestResult {
        let mut out = Vec::new();
        // Missing --run-dir.
        let Err(e) = run("serve", &[], &mut out) else {
            return Err(err("serve without --run-dir unexpectedly succeeded"));
        };
        assert!(e.0.contains("--run-dir"), "{e}");

        // Nonexistent run directory: typed refusal before any bind.
        let Err(e) = run(
            "serve",
            &flags(&[("run-dir", "/nonexistent-run-dir"), ("addr", "127.0.0.1:0")]),
            &mut out,
        ) else {
            return Err(err("serve on missing run dir unexpectedly succeeded"));
        };
        assert!(e.0.contains("not a run directory"), "{e}");

        // Bad numeric flag.
        let Err(e) = run(
            "serve",
            &flags(&[("run-dir", "/tmp"), ("threads", "many")]),
            &mut out,
        ) else {
            return Err(err("serve with bad --threads unexpectedly succeeded"));
        };
        assert!(e.0.contains("--threads takes a number"), "{e}");
        assert!(out.is_empty(), "no listening line may be printed: {out:?}");
        Ok(())
    }

    #[test]
    fn serve_refuses_directory_without_model_step() -> TestResult {
        // A directory that exists but was never a run directory.
        let dir = std::env::temp_dir().join(format!("incite-cli-serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        let mut out = Vec::new();
        let Err(e) = run(
            "serve",
            &flags(&[("run-dir", path_str(&dir)?), ("addr", "127.0.0.1:0")]),
            &mut out,
        ) else {
            return Err(err("serve on empty dir unexpectedly succeeded"));
        };
        assert!(e.0.contains("not a run directory"), "{e}");
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    #[allow(clippy::disallowed_methods)]
    fn newest_run_dir_selects_lexically_greatest_manifest() -> TestResult {
        let dir = std::env::temp_dir().join(format!("incite-cli-reg-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        for (name, manifest) in [
            ("run-2026-01", true),
            ("run-2026-03", true),
            ("scratch", false),
            ("zz-notes", false),
        ] {
            let sub = dir.join(name);
            std::fs::create_dir_all(&sub)?;
            if manifest {
                std::fs::write(sub.join(MANIFEST_FILE), b"{}")?;
            }
        }
        let picked = newest_run_dir(&dir)?;
        assert_eq!(
            picked.file_name().and_then(|n| n.to_str()),
            Some("run-2026-03"),
            "lexically greatest manifest-bearing dir wins"
        );

        // A root with no servable runs is a typed refusal.
        let Err(e) = newest_run_dir(&dir.join("scratch")) else {
            return Err(err("empty registry unexpectedly yielded a run dir"));
        };
        assert!(e.0.contains("no run directory"), "{e}");
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    #[allow(clippy::disallowed_methods)]
    fn replay_reproduces_journal_and_fails_on_corrupt_bits() -> TestResult {
        use incite_core::checkpoint::atomic_io::AppendLog;
        use incite_serve::journal::JournalRecord;

        let dir = std::env::temp_dir().join(format!("incite-cli-replay-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let run_dir = dir.join("run");
        std::fs::create_dir_all(&run_dir)?;
        let corpus = generate(&CorpusConfig::tiny(404));
        let config = PipelineConfig::quick(3);
        run_pipeline_resumable(&corpus, Task::Cth, &config, &run_dir)
            .map_err(|e| err(e.to_string()))?;
        let (classifier, hash) =
            load_latest_classifier_with_hash(&run_dir).map_err(|e| err(e.to_string()))?;

        let record =
            |seq: u64, model_hash: &str, texts: Vec<String>, bits: Vec<u32>| JournalRecord {
                seq,
                generation: 1,
                model_hash: model_hash.to_string(),
                run_dir: run_dir.display().to_string(),
                tenant: "default".to_string(),
                texts,
                bits,
            };
        let texts: Vec<String> = corpus
            .documents
            .iter()
            .skip(700)
            .take(4)
            .map(|d| d.text.clone())
            .collect();
        let bits: Vec<u32> = texts
            .iter()
            .map(|t| classifier.score(t).to_bits())
            .collect();

        let good = dir.join("good.journal");
        {
            let mut log = AppendLog::open(&good).map_err(|e| err(e.to_string()))?;
            for (i, (t, b)) in texts.iter().zip(&bits).enumerate() {
                let line =
                    serde_json::to_string(&record(i as u64 + 1, &hash, vec![t.clone()], vec![*b]))
                        .map_err(|e| err(e.to_string()))?;
                log.append(line.as_bytes())
                    .map_err(|e| err(e.to_string()))?;
            }
        }
        let mut out = Vec::new();
        run("replay", &flags(&[("journal", path_str(&good)?)]), &mut out)?;
        let text = String::from_utf8(out)?;
        assert!(text.contains("4 matched, 0 mismatched"), "{text}");

        // A journaled bit pattern the model cannot produce: nonzero exit
        // naming the sequence number (never the text).
        let bad = dir.join("bad.journal");
        {
            let mut log = AppendLog::open(&bad).map_err(|e| err(e.to_string()))?;
            let line =
                serde_json::to_string(&record(7, &hash, vec![texts[0].clone()], vec![bits[0] ^ 1]))
                    .map_err(|e| err(e.to_string()))?;
            log.append(line.as_bytes())
                .map_err(|e| err(e.to_string()))?;
        }
        let mut out = Vec::new();
        let Err(e) = run("replay", &flags(&[("journal", path_str(&bad)?)]), &mut out) else {
            return Err(err("corrupt journal unexpectedly replayed clean"));
        };
        assert!(e.0.contains("seq 7"), "{e}");
        assert!(
            !e.0.contains(&texts[0]),
            "journaled text leaked into the error"
        );

        // A record whose hash names different weights is refused outright.
        let wrong = dir.join("wrong-model.journal");
        {
            let mut log = AppendLog::open(&wrong).map_err(|e| err(e.to_string()))?;
            let line = serde_json::to_string(&record(
                11,
                "0123456789abcdef",
                vec![texts[0].clone()],
                vec![bits[0]],
            ))
            .map_err(|e| err(e.to_string()))?;
            log.append(line.as_bytes())
                .map_err(|e| err(e.to_string()))?;
        }
        let mut out = Vec::new();
        let Err(e) = run(
            "replay",
            &flags(&[("journal", path_str(&wrong)?)]),
            &mut out,
        ) else {
            return Err(err("hash-mismatched journal unexpectedly replayed clean"));
        };
        assert!(e.0.contains("model hash does not match"), "{e}");

        // A torn tail (crash mid-append) is a warning plus the intact
        // prefix, never silent trust of damaged bytes.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new().append(true).open(&good)?;
            f.write_all(b"{\"seq\":99, torn mid-append")?;
        }
        let mut out = Vec::new();
        run("replay", &flags(&[("journal", path_str(&good)?)]), &mut out)?;
        let text = String::from_utf8(out)?;
        assert!(text.contains("journal tail damaged"), "{text}");
        assert!(text.contains("4 matched, 0 mismatched"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    #[allow(clippy::disallowed_methods)]
    fn replay_refuses_a_damaged_complete_record() -> TestResult {
        use incite_core::checkpoint::atomic_io::{framed_len, AppendLog};
        use incite_serve::journal::JournalRecord;

        let dir = std::env::temp_dir().join(format!("incite-cli-damaged-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let journal = dir.join("damaged.journal");
        let lines: Vec<String> = (1..=2)
            .map(|seq| {
                serde_json::to_string(&JournalRecord {
                    seq,
                    generation: 1,
                    model_hash: String::new(),
                    run_dir: String::new(),
                    tenant: "default".to_string(),
                    texts: vec!["report him".to_string()],
                    bits: vec![0x3f00_0000],
                })
            })
            .collect::<Result<_, _>>()
            .map_err(|e| err(e.to_string()))?;
        {
            let mut log = AppendLog::open(&journal).map_err(|e| err(e.to_string()))?;
            for line in &lines {
                log.append(line.as_bytes())
                    .map_err(|e| err(e.to_string()))?;
            }
        }
        // A flipped byte in the second, complete record: nonzero exit
        // naming the record's offset, not a replay of the first alone.
        let second = framed_len(lines[0].len());
        let mut bytes = std::fs::read(&journal)?;
        bytes[second as usize + 2] ^= 0x01;
        std::fs::write(&journal, &bytes)?;
        let mut out = Vec::new();
        let Err(e) = run(
            "replay",
            &flags(&[("journal", path_str(&journal)?)]),
            &mut out,
        ) else {
            return Err(err("a damaged journal record was replayed"));
        };
        assert!(e.0.contains(&format!("byte {second} is damaged")), "{e}");
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn unknown_command_reports_usage() -> TestResult {
        let mut out = Vec::new();
        let Err(e) = run("bogus", &[], &mut out) else {
            return Err(err("bogus command unexpectedly succeeded"));
        };
        assert!(e.0.contains("unknown command"));
        assert!(e.0.contains("incite <command>"));
        Ok(())
    }

    #[test]
    fn train_rejects_bad_inputs() -> TestResult {
        let mut out = Vec::new();
        assert!(run("train", &[], &mut out).is_err());
        let Err(e) = run(
            "train",
            &flags(&[("corpus", "/nonexistent.jsonl"), ("out", "/tmp/x.json")]),
            &mut out,
        ) else {
            return Err(err("train on missing corpus unexpectedly succeeded"));
        };
        assert!(e.0.contains("open"));
        Ok(())
    }
}
