//! The stream determinism contract, end to end:
//!
//! 1. rankings are byte-identical at 1, 2 and 8 threads;
//! 2. a split run (checkpoint after a few epochs, resume in a fresh
//!    invocation) reproduces the uninterrupted run byte for byte;
//! 3. with `--features failpoints`, a kill-point sweep crashes the watch
//!    loop at every failpoint site of the first three epochs, among them
//!    both sides of each checkpoint boundary (`stream-mid-epoch-N` before
//!    the save, `stream-after-epoch-N` after it), resumes unarmed, and
//!    demands byte-identical rankings — the same discipline as the core
//!    pipeline's crash-recovery sweep;
//! 4. at the CLI default epoch length the sweep also crashes inside
//!    every log compaction, the exit compaction included:
//!    `stream-compact-aside-N` with the old snapshot moved aside and no
//!    new one written, `stream-compact-renamed-N` between the snapshot
//!    rename and the log truncation, and `stream-compact-reset-N` after
//!    it.
//!
//! Both sweeps take their sites from the registry's visit log of an
//! uninterrupted checkpointed run, so a site added to the watch loop is
//! swept with no list to edit.

mod common;

use common::{state_dir, Fixture};
use incite_stream::run_watch;

#[test]
fn rankings_are_byte_identical_across_thread_counts() {
    let fx = Fixture::new();
    let doc_texts = fx.doc_texts();
    let mut rendered: Vec<String> = Vec::new();
    for threads in [1usize, 2, 8] {
        let outcome = run_watch(
            &fx.stream,
            &doc_texts,
            &fx.classifier,
            &fx.config(threads, 2048),
        )
        .expect("watch run");
        assert!(outcome.epochs > 2, "stream too short to exercise epochs");
        assert!(
            outcome.rankings.contains("target "),
            "no targets ranked at {threads} threads"
        );
        rendered.push(outcome.rankings);
    }
    assert_eq!(rendered[0], rendered[1], "1 vs 2 threads diverged");
    assert_eq!(rendered[0], rendered[2], "1 vs 8 threads diverged");
}

#[test]
fn split_run_resume_is_byte_identical() {
    let fx = Fixture::new();
    let doc_texts = fx.doc_texts();
    let reference = run_watch(&fx.stream, &doc_texts, &fx.classifier, &fx.config(2, 2048))
        .expect("uninterrupted run");

    let dir = state_dir("split");
    // First invocation: a few checkpointed epochs, then stop.
    let mut first = fx.config(1, 2048);
    first.state_dir = Some(dir.clone());
    first.max_epochs = Some(2);
    let partial = run_watch(&fx.stream, &doc_texts, &fx.classifier, &first).expect("partial run");
    assert_eq!(partial.epochs, 2);
    assert!(partial.resumed_at.is_none());

    // Second invocation: resumes from the checkpoint, different thread
    // count, runs to the end.
    let mut second = fx.config(4, 2048);
    second.state_dir = Some(dir.clone());
    let resumed = run_watch(&fx.stream, &doc_texts, &fx.classifier, &second).expect("resumed run");
    assert_eq!(resumed.resumed_at, Some(partial.events as u64));
    assert_eq!(resumed.epochs, reference.epochs);
    assert_eq!(
        resumed.rankings, reference.rankings,
        "resumed rankings diverged from the uninterrupted run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The failpoint sites an uninterrupted checkpointed run at `epoch_len`
/// passes, in order, and an uncheckpointed run's outcome, whose rankings
/// the checkpointed run must match.
#[cfg(feature = "failpoints")]
fn reference_run(fx: &Fixture, epoch_len: usize) -> (Vec<String>, incite_stream::WatchOutcome) {
    let doc_texts = fx.doc_texts();
    let plain = run_watch(
        &fx.stream,
        &doc_texts,
        &fx.classifier,
        &fx.config(2, epoch_len),
    )
    .expect("uninterrupted run");
    let dir = state_dir(&format!("reference-{epoch_len}"));
    let mut config = fx.config(2, epoch_len);
    config.state_dir = Some(dir.clone());
    let checkpointed = run_watch(&fx.stream, &doc_texts, &fx.classifier, &config)
        .expect("uninterrupted checkpointed run");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(checkpointed.rankings, plain.rankings);
    (config.failpoints.visited(), plain)
}

/// The epoch a `stream-*-N` site names.
#[cfg(feature = "failpoints")]
fn epoch_of(site: &str) -> u64 {
    site.rsplit('-')
        .next()
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("site {site} names no epoch"))
}

/// Every site of the first three epochs: both sides of each save, and
/// the steps of a compaction when the save compacts.
#[cfg(feature = "failpoints")]
fn is_early(site: &str) -> bool {
    epoch_of(site) <= 3
}

/// Runs a checkpointed watch at `epoch_len` with `site` armed until it
/// fires, then resumes unarmed from the same state directory and requires
/// the uninterrupted run's rankings byte for byte.
#[cfg(feature = "failpoints")]
fn crash_and_resume(fx: &Fixture, epoch_len: usize, site: &str, reference: &str) {
    use incite_stream::StreamError;

    let doc_texts = fx.doc_texts();
    let dir = state_dir(&format!("kill-{epoch_len}"));
    let mut config = fx.config(2, epoch_len);
    config.state_dir = Some(dir.clone());
    config.failpoints.arm(site);
    match run_watch(&fx.stream, &doc_texts, &fx.classifier, &config) {
        Err(StreamError::Fault(fault)) => assert_eq!(fault.site, site),
        other => panic!("site {site}: expected an injected fault, got {other:?}"),
    }

    // The fault consumed the arming, so the same config resumes unarmed.
    let recovered = run_watch(&fx.stream, &doc_texts, &fx.classifier, &config)
        .unwrap_or_else(|e| panic!("site {site}: resume failed: {e}"));
    // mid-epoch-1 dies before the first save, and compact-aside-1 before
    // the first snapshot is written: nothing to resume from.
    if site != "stream-mid-epoch-1" && site != "stream-compact-aside-1" {
        assert!(
            recovered.resumed_at.is_some(),
            "site {site}: expected a checkpoint to resume from"
        );
    }
    assert_eq!(
        recovered.rankings, reference,
        "site {site}: recovered rankings diverged from the uninterrupted run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Crash at every site of the first three epochs and resume.
/// `stream-mid-epoch-N` fires with epoch N computed but unsaved (resume
/// replays it); `stream-after-epoch-N` fires with epoch N durable
/// (resume skips it). Either way the final rankings must match the
/// uninterrupted run byte for byte.
#[cfg(feature = "failpoints")]
#[test]
fn kill_resume_sweep_is_byte_identical() {
    let fx = Fixture::new();
    let (sites, reference) = reference_run(&fx, 2048);
    let reference = reference.rankings;
    let early: Vec<&String> = sites.iter().filter(|site| is_early(site)).collect();
    assert!(
        early.len() >= 6,
        "sweep must cover both sides of three saves, got {early:?}"
    );
    for site in early {
        crash_and_resume(&fx, 2048, site, &reference);
    }
}

/// The sweep at the CLI default epoch length, where most epochs append a
/// log record and a few compact. Besides the sites of the first three
/// epochs (all appends here but the first), it crashes at each of the
/// three sites of every compaction of the run.
#[cfg(feature = "failpoints")]
#[test]
fn kill_resume_sweep_covers_appends_and_every_compaction() {
    const EPOCH_LEN: usize = 256;
    let fx = Fixture::new();
    let (sites, reference) = reference_run(&fx, EPOCH_LEN);
    let epochs = reference.epochs;
    let swept: Vec<&String> = sites
        .iter()
        .filter(|site| is_early(site) || site.starts_with("stream-compact-"))
        .collect();
    for site in &swept {
        crash_and_resume(&fx, EPOCH_LEN, site, &reference.rankings);
    }

    let compactions: Vec<u64> = swept
        .iter()
        .filter(|site| site.starts_with("stream-compact-aside-"))
        .map(|site| epoch_of(site))
        .collect();
    assert_eq!(compactions[0], 1, "the first save writes the snapshot");
    assert_eq!(compactions.last(), Some(&epochs), "the last epoch compacts");
    let in_run = compactions
        .iter()
        .filter(|&&epoch| epoch > 1 && epoch < epochs)
        .count();
    assert!(
        in_run >= 2,
        "{in_run} in-run compaction(s) in {compactions:?}"
    );
    assert!(
        !compactions.contains(&2) && !compactions.contains(&3),
        "the early sites should sit on appends: {compactions:?}"
    );
}
