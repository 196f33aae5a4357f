//! The kill-point sweep: crash at every failpoint site, resume, and
//! demand a byte-identical outcome.
//!
//! This is the tentpole guarantee of the checkpoint subsystem (DESIGN.md
//! §12). An uninterrupted reference run logs every site it passes (each
//! step boundary plus the two mid-step positions) in its registry's
//! `FailpointRegistry::visited` list. For each of those sites the sweep
//! arms it, runs [`run_pipeline_resumable`] until the injected fault
//! aborts it exactly where a crash would, then resumes unarmed in the
//! same run directory and asserts the recovered `PipelineOutcome`
//! equals (`PartialEq` and digest) the reference. A site added to the
//! pipeline is swept with no list to edit.
//!
//! Requires `--features failpoints`; without it the registry compiles to
//! no-ops and arming does nothing, so the whole suite is gated.
#![cfg(feature = "failpoints")]

use incite_core::checkpoint::MANIFEST_FILE;
use incite_core::pipeline::PipelineError;
use incite_core::{clear_run_dir, run_pipeline, run_pipeline_resumable, PipelineConfig, Task};
use incite_corpus::{generate, Corpus, CorpusConfig};
use std::path::PathBuf;

fn corpus() -> Corpus {
    generate(&CorpusConfig::tiny(404))
}

fn run_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("incite-sweep-{tag}-{}", std::process::id()))
}

fn sweep(task: Task, seed: u64) {
    let corpus = corpus();
    let config = PipelineConfig::quick(seed);
    let reference = run_pipeline(&corpus, task, &config).expect("reference run");

    // Every site the reference run passed, in the order it passed them.
    let sites = config.failpoints.visited();
    assert!(
        sites.len() >= 6,
        "sweep must cover every boundary, got {sites:?}"
    );

    for site in &sites {
        let dir = run_dir(&format!("{}-{site}", task.slug()));
        clear_run_dir(&dir).expect("clean run dir");

        // Crash: armed registry aborts the run exactly at `site`.
        let mut armed = config.clone();
        armed.failpoints.arm(site);
        match run_pipeline_resumable(&corpus, task, &armed, &dir) {
            Err(PipelineError::Fault(fault)) => assert_eq!(&fault.site, site),
            other => panic!("site {site}: expected injected fault, got {other:?}"),
        }

        // Resume: same directory, unarmed config, identical outcome.
        let recovered = run_pipeline_resumable(&corpus, task, &config, &dir)
            .unwrap_or_else(|e| panic!("site {site}: resume failed: {e}"));
        assert_eq!(
            recovered, reference,
            "site {site}: resumed outcome diverged from the uninterrupted run"
        );
        assert_eq!(
            recovered.digest(),
            reference.digest(),
            "site {site}: digest diverged"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn dox_sweep_recovers_byte_identical_outcomes() {
    sweep(Task::Dox, 11);
}

#[test]
fn cth_sweep_recovers_byte_identical_outcomes() {
    sweep(Task::Cth, 12);
}

/// A crash mid-run followed by *another* crash later in the resumed run,
/// then a final resume: recovery must compose across multiple failures.
#[test]
fn double_crash_still_recovers() {
    let corpus = corpus();
    let task = Task::Dox;
    let config = PipelineConfig::quick(13);
    let reference = run_pipeline(&corpus, task, &config).expect("reference run");
    let dir = run_dir("double-crash");
    clear_run_dir(&dir).expect("clean run dir");

    let mut first = config.clone();
    first.failpoints.arm("after-featurize");
    assert!(matches!(
        run_pipeline_resumable(&corpus, task, &first, &dir),
        Err(PipelineError::Fault(_))
    ));

    let mut second = config.clone();
    second.failpoints.arm("after-score");
    assert!(matches!(
        run_pipeline_resumable(&corpus, task, &second, &dir),
        Err(PipelineError::Fault(_))
    ));

    let recovered = run_pipeline_resumable(&corpus, task, &config, &dir).expect("final resume");
    assert_eq!(recovered, reference);
    std::fs::remove_dir_all(&dir).ok();
}

/// Steps commit by appending to the manifest: the file the first step
/// committed to is still the manifest when the run ends, so no rename
/// ever replaced it.
#[cfg(unix)]
#[test]
fn manifest_is_appended_in_place() {
    use std::os::unix::fs::MetadataExt;
    let corpus = corpus();
    let task = Task::Dox;
    let config = PipelineConfig::quick(14);
    let dir = run_dir("append-in-place");
    clear_run_dir(&dir).expect("clean run dir");

    let mut first = config.clone();
    first.failpoints.arm("after-bootstrap");
    assert!(matches!(
        run_pipeline_resumable(&corpus, task, &first, &dir),
        Err(PipelineError::Fault(_))
    ));
    let manifest = dir.join(MANIFEST_FILE);
    let inode = std::fs::metadata(&manifest).expect("manifest").ino();

    run_pipeline_resumable(&corpus, task, &config, &dir).expect("finish the run");
    assert_eq!(std::fs::metadata(&manifest).expect("manifest").ino(), inode);
    std::fs::remove_dir_all(&dir).ok();
}
