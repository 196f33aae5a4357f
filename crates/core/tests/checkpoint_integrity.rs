//! Checkpoint integrity under corruption (satellite of DESIGN.md §12).
//!
//! The resume contract is "verified state or typed refusal": a single
//! flipped byte in any persisted file — model weights or any complete
//! record of the manifest log — must surface as a typed
//! [`CheckpointError`], never a panic and never a silent resume from
//! damaged state. The one damage a kill can leave, a torn final manifest
//! record, is a step that never committed: resume redoes it. After
//! [`clear_run_dir`] (the CLI's `--force`), a fresh run succeeds in the
//! same directory. These tests need no cargo feature: they corrupt real
//! files, not failpoints.

// Fixtures are staged and damaged with plain writes; the INC006 write
// ban is for library code.
#![allow(clippy::disallowed_methods)]

use incite_core::checkpoint::atomic_io::{framed_len, read_log_strict, write_hashed};
use incite_core::checkpoint::{read_manifest, Manifest, MANIFEST_FILE};
use incite_core::pipeline::PipelineError;
use incite_core::{
    clear_run_dir, load_latest_classifier_with_hash, run_pipeline_resumable, CheckpointError,
    PipelineConfig, Task,
};
use incite_corpus::{generate, Corpus, CorpusConfig};
use std::path::{Path, PathBuf};

fn corpus() -> Corpus {
    generate(&CorpusConfig::tiny(404))
}

fn run_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("incite-integrity-{tag}-{}", std::process::id()))
}

/// Completes a checkpointed run, leaving a full run directory behind.
fn checkpointed_run(dir: &Path, config: &PipelineConfig) {
    clear_run_dir(dir).expect("clean run dir");
    run_pipeline_resumable(&corpus(), Task::Dox, config, dir).expect("initial run");
}

fn find_file(dir: &Path, suffix: &str) -> PathBuf {
    let mut names: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read run dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(suffix))
        })
        .collect();
    names.sort();
    names
        .pop()
        .unwrap_or_else(|| panic!("no {suffix} file in {}", dir.display()))
}

fn flip_byte(path: &Path, offset: usize) {
    let mut raw = std::fs::read(path).expect("read file");
    let at = offset.min(raw.len() - 1);
    raw[at] ^= 0x01;
    std::fs::write(path, &raw).expect("write corrupted file");
}

/// Byte offset where each record of a clean manifest log starts, followed
/// by the log's length.
fn record_starts(manifest: &Path) -> Vec<usize> {
    let (records, torn) = read_log_strict(manifest).expect("read manifest log");
    assert_eq!(torn, None, "the manifest of a finished run is not torn");
    let mut starts = vec![0];
    for record in &records {
        let end = starts[starts.len() - 1] + framed_len(record.len()) as usize;
        starts.push(end);
    }
    starts
}

fn expect_integrity_refusal(result: Result<impl std::fmt::Debug, PipelineError>, what: &str) {
    match result {
        Err(PipelineError::Checkpoint(
            CheckpointError::HashMismatch { .. } | CheckpointError::Corrupt { .. },
        )) => {}
        other => panic!("{what}: expected integrity refusal, got {other:?}"),
    }
}

#[test]
fn corrupt_weights_file_refuses_resume() {
    let config = PipelineConfig::quick(21);
    let dir = run_dir("weights");
    checkpointed_run(&dir, &config);

    let model = find_file(&dir, ".model.ckpt");
    flip_byte(&model, 100);
    expect_integrity_refusal(
        run_pipeline_resumable(&corpus(), Task::Dox, &config, &dir),
        "corrupt weights",
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A flipped byte in the header, a middle step record or the last
/// complete record is damage to a committed record, never a torn tail.
#[test]
fn corrupt_manifest_refuses_resume() {
    let config = PipelineConfig::quick(22);
    let dir = run_dir("manifest");
    checkpointed_run(&dir, &config);

    let manifest = dir.join(MANIFEST_FILE);
    let clean = std::fs::read(&manifest).expect("read manifest");
    let starts = record_starts(&manifest);
    let records = starts.len() - 1;
    assert!(records >= 3, "header plus step records, got {records}");
    for (what, record) in [
        ("header", 0),
        ("middle record", records / 2),
        ("last record", records - 1),
    ] {
        flip_byte(&manifest, (starts[record] + starts[record + 1]) / 2);
        expect_integrity_refusal(
            run_pipeline_resumable(&corpus(), Task::Dox, &config, &dir),
            &format!("corrupt manifest {what}"),
        );
        std::fs::write(&manifest, &clean).expect("restore manifest");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A kill mid-append leaves the final manifest record cut at any offset.
/// At every cut the reader returns the steps before it and reports the
/// tear where the record starts; a resume redoes that step, cuts the torn
/// bytes off, and ends with the uninterrupted outcome and manifest.
#[test]
fn torn_final_manifest_record_rolls_back_one_step() {
    let config = PipelineConfig::quick(26);
    let dir = run_dir("torn");
    let corpus = corpus();
    clear_run_dir(&dir).expect("clean run dir");
    let reference = run_pipeline_resumable(&corpus, Task::Dox, &config, &dir).expect("initial run");

    let manifest = dir.join(MANIFEST_FILE);
    let clean = std::fs::read(&manifest).expect("read manifest");
    let (full, torn) = read_manifest(&dir).expect("read clean manifest");
    assert_eq!(torn, None);
    let starts = record_starts(&manifest);
    assert_eq!(
        starts.len() - 1,
        full.steps.len() + 1,
        "a fresh run's header holds no steps; each step is one record"
    );
    let last = starts[starts.len() - 2];
    let committed = &full.steps[..full.steps.len() - 1];
    // Shrink the file in place, longest cut first: rewriting it whole at
    // every cut stalls on ext4's flush of a file truncated to zero.
    let cut_manifest = |cut: usize| {
        std::fs::OpenOptions::new()
            .write(true)
            .open(&manifest)
            .and_then(|file| file.set_len(cut as u64))
            .expect("cut manifest");
    };
    for cut in (last + 1..clean.len()).rev() {
        cut_manifest(cut);
        let (read, torn) = read_manifest(&dir).unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
        assert_eq!(read.steps, committed, "cut at {cut}");
        assert_eq!(torn, Some(last as u64), "cut at {cut}");
    }

    let payload_len = clean.len() - last - framed_len(0) as usize;
    for cut in [last + 1, last + payload_len / 2, clean.len() - 5] {
        cut_manifest(cut);
        let resumed = run_pipeline_resumable(&corpus, Task::Dox, &config, &dir)
            .unwrap_or_else(|e| panic!("cut at {cut}: resume failed: {e}"));
        assert_eq!(resumed, reference, "cut at {cut}");
        assert_eq!(resumed.digest(), reference.digest(), "cut at {cut}");
        assert_eq!(read_manifest(&dir).expect("read").1, None, "cut at {cut}");
        assert!(
            std::fs::read(&manifest).expect("read manifest") == clean,
            "cut at {cut}: the redone step's record must replace the torn bytes"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A manifest written before the log format — the whole manifest as one
/// `write_hashed` payload — is a one-record log of the current format: a
/// finished run in that form resumes byte-identical and serves, and one
/// missing its final step resumes by appending that step after it.
#[test]
fn single_record_manifest_resumes_and_serves() {
    let config = PipelineConfig::quick(27);
    let dir = run_dir("single-record");
    let corpus = corpus();
    clear_run_dir(&dir).expect("clean run dir");
    let reference = run_pipeline_resumable(&corpus, Task::Dox, &config, &dir).expect("initial run");
    let (_, model_hash) = load_latest_classifier_with_hash(&dir).expect("serve the log form");
    let (full, _) = read_manifest(&dir).expect("read manifest");
    let manifest = dir.join(MANIFEST_FILE);
    let rewrite = |m: &Manifest| {
        let json = serde_json::to_string(m).expect("serialize manifest");
        write_hashed(&manifest, json.as_bytes()).expect("write single-record manifest");
    };

    rewrite(&full);
    assert_eq!(read_log_strict(&manifest).expect("read log").0.len(), 1);
    assert_eq!(read_manifest(&dir).expect("read"), (full.clone(), None));
    let resumed = run_pipeline_resumable(&corpus, Task::Dox, &config, &dir).expect("resume");
    assert_eq!(resumed, reference);
    assert_eq!(resumed.digest(), reference.digest());
    let (_, served_hash) = load_latest_classifier_with_hash(&dir).expect("serve");
    assert_eq!(served_hash, model_hash);

    let mut interrupted = full.clone();
    interrupted.steps.pop();
    rewrite(&interrupted);
    let resumed = run_pipeline_resumable(&corpus, Task::Dox, &config, &dir).expect("resume");
    assert_eq!(resumed.digest(), reference.digest());
    assert_eq!(read_log_strict(&manifest).expect("read log").0.len(), 2);
    assert_eq!(read_manifest(&dir).expect("read"), (full, None));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_ledger_section_refuses_resume() {
    let config = PipelineConfig::quick(23);
    let dir = run_dir("ledger");
    checkpointed_run(&dir, &config);

    let ledger = find_file(&dir, ".ledger.ckpt");
    flip_byte(&ledger, 200);
    expect_integrity_refusal(
        run_pipeline_resumable(&corpus(), Task::Dox, &config, &dir),
        "corrupt annotation ledger",
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The `--force` path: after corruption is detected, clearing the run
/// directory lets a fresh run succeed in the same location — and produce
/// the same outcome as an untouched directory would.
#[test]
fn force_clear_recovers_after_corruption() {
    let config = PipelineConfig::quick(24);
    let dir = run_dir("force");
    checkpointed_run(&dir, &config);
    let corpus = corpus();
    let reference = run_pipeline_resumable(&corpus, Task::Dox, &config, &dir).expect("reference");

    flip_byte(&dir.join("MANIFEST.ckpt"), 50);
    expect_integrity_refusal(
        run_pipeline_resumable(&corpus, Task::Dox, &config, &dir),
        "corrupt manifest before --force",
    );

    clear_run_dir(&dir).expect("force clear");
    let fresh = run_pipeline_resumable(&corpus, Task::Dox, &config, &dir).expect("fresh run");
    assert_eq!(fresh, reference);
    std::fs::remove_dir_all(&dir).ok();
}

/// A run directory checkpointed under one config must not silently serve
/// a different one.
#[test]
fn different_config_is_refused_not_reused() {
    let config = PipelineConfig::quick(25);
    let dir = run_dir("config-drift");
    checkpointed_run(&dir, &config);

    let mut drifted = PipelineConfig::quick(25);
    drifted.hash_bits = 14;
    match run_pipeline_resumable(&corpus(), Task::Dox, &drifted, &dir) {
        Err(PipelineError::Checkpoint(CheckpointError::Incompatible { .. })) => {}
        other => panic!("expected Incompatible, got {other:?}"),
    }
    // Same directory, wrong task: also refused.
    match run_pipeline_resumable(&corpus(), Task::Cth, &config, &dir) {
        Err(PipelineError::Checkpoint(CheckpointError::Incompatible { .. })) => {}
        other => panic!("expected Incompatible, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}
