//! Pins the bytes of a finished run directory.
//!
//! Resuming reads what older binaries of the same manifest version wrote,
//! so the manifest records and
//! the ledger, scores and model sections must keep their bytes: a renamed
//! snapshot field would leave every in-memory test green and still
//! strand every existing run directory. Each constant below is a
//! `(file name, length, FNV-1a 64)` row of the directory
//! [`run_pipeline_resumable`] leaves for `PipelineConfig::quick(5)` over
//! the tiny corpus of seed 404. The ledger and score rows were taken
//! before the pipeline's run state became one type; the model and
//! manifest rows when the classifier became a model frame (manifest
//! version 2). A run at 1 or 2 threads must match them. A failure prints
//! the directory's actual rows in this form.

use incite_core::{clear_run_dir, run_pipeline_resumable, PipelineConfig, Task};
use incite_corpus::{generate, CorpusConfig};
use incite_textkit::fnv1a;
use std::path::Path;

type Row = (&'static str, u64, u64);

const DOX_RUN_DIR: &[Row] = &[
    ("MANIFEST.ckpt", 17701, 0x2bf9ae0d67356013),
    ("step-00-bootstrap.ledger.ckpt", 40787, 0xed4048d113c6015a),
    ("step-01-featurize.model.ckpt", 131167, 0xafd8cd7071909104),
    ("step-02-round-0.ledger.ckpt", 47976, 0xd163c8125b677624),
    ("step-02-round-0.model.ckpt", 131167, 0x029469c5b060bda0),
    ("step-04-score.scores.ckpt", 70409, 0x24ed6b53dedceef3),
];

const CTH_RUN_DIR: &[Row] = &[
    ("MANIFEST.ckpt", 15125, 0xc2f094b770ef1c6f),
    ("step-00-bootstrap.ledger.ckpt", 4076, 0xb18f8e778a19ed70),
    ("step-01-featurize.model.ckpt", 131167, 0x518c0b9838efd212),
    ("step-02-round-0.ledger.ckpt", 13454, 0xd63b6879a5a506ee),
    ("step-02-round-0.model.ckpt", 131167, 0xc20cdbe7cfa845e8),
    ("step-04-score.scores.ckpt", 65753, 0xda0fd84404bf376c),
];

/// `(name, length, FNV-1a 64)` of every file in `dir`, sorted by name.
fn listing(dir: &Path) -> Vec<(String, u64, u64)> {
    let mut rows: Vec<(String, u64, u64)> = std::fs::read_dir(dir)
        .expect("read run dir")
        .map(|entry| {
            let path = entry.expect("dir entry").path();
            let bytes = std::fs::read(&path).expect("read run-dir file");
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .expect("utf-8 file name")
                .to_string();
            (name, bytes.len() as u64, fnv1a(&bytes, 0))
        })
        .collect();
    rows.sort();
    rows
}

fn render(rows: &[(String, u64, u64)]) -> String {
    rows.iter()
        .map(|(name, len, hash)| format!("    (\"{name}\", {len}, 0x{hash:016x}),\n"))
        .collect()
}

fn assert_pinned(task: Task, expected: &[Row]) {
    let corpus = generate(&CorpusConfig::tiny(404));
    let expected: Vec<(String, u64, u64)> = expected
        .iter()
        .map(|&(name, len, hash)| (name.to_string(), len, hash))
        .collect();
    for threads in [1, 2] {
        let mut config = PipelineConfig::quick(5);
        config.threads = threads;
        let dir = std::env::temp_dir().join(format!(
            "incite-run-dir-golden-{}-{threads}-{}",
            task.slug(),
            std::process::id()
        ));
        clear_run_dir(&dir).expect("clear run dir");
        run_pipeline_resumable(&corpus, task, &config, &dir).expect("checkpointed run");
        let actual = listing(&dir);
        std::fs::remove_dir_all(&dir).ok();
        assert!(
            actual == expected,
            "{} run dir at {threads} thread(s) moved; its rows are:\n{}",
            task.slug(),
            render(&actual)
        );
    }
}

#[test]
fn dox_run_dir_bytes_are_pinned() {
    assert_pinned(Task::Dox, DOX_RUN_DIR);
}

#[test]
fn cth_run_dir_bytes_are_pinned() {
    assert_pinned(Task::Cth, CTH_RUN_DIR);
}
