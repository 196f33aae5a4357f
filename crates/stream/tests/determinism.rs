//! The stream determinism contract, end to end:
//!
//! 1. rankings are byte-identical at 1, 2 and 8 threads;
//! 2. a split run (checkpoint after a few epochs, resume in a fresh
//!    invocation) reproduces the uninterrupted run byte for byte;
//! 3. with `--features failpoints`, a kill-point sweep crashes the watch
//!    loop on both sides of every early checkpoint boundary
//!    (`stream-mid-epoch-N` before the save, `stream-after-epoch-N`
//!    after it), resumes disarmed, and demands byte-identical rankings —
//!    the same discipline as the core pipeline's crash-recovery sweep;
//! 4. at the CLI default epoch length the sweep also crashes inside
//!    every log compaction, the exit compaction included:
//!    `stream-compact-aside-N` with the old snapshot moved aside and no
//!    new one written, `stream-compact-renamed-N` between the snapshot
//!    rename and the log truncation, and `stream-compact-reset-N` after
//!    it.

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

/// Runs a checkpointed watch at `epoch_len` with every site in `armed`
/// armed. When one fires, resumes disarmed from the same state directory
/// and requires the uninterrupted run's rankings byte for byte. Returns
/// the site that fired, if any did.
#[cfg(feature = "failpoints")]
fn crash_and_resume(
    fx: &Fixture,
    epoch_len: usize,
    armed: &[String],
    reference: &str,
) -> Option<String> {
    use incite_stream::StreamError;

    let doc_texts = fx.doc_texts();
    let dir = state_dir(&format!("kill-{epoch_len}"));
    let mut config = fx.config(2, epoch_len);
    config.state_dir = Some(dir.clone());
    for site in armed {
        config.failpoints.arm(site);
    }
    let site = match run_watch(&fx.stream, &doc_texts, &fx.classifier, &config) {
        Err(StreamError::Fault(fault)) => fault.site,
        Ok(_) => {
            std::fs::remove_dir_all(&dir).ok();
            return None;
        }
        Err(other) => panic!("armed {armed:?}: expected an injected fault, got {other}"),
    };
    assert!(armed.contains(&site), "unarmed site {site} fired");

    config.failpoints = Default::default();
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
    Some(site)
}

/// Both sides of the first three checkpoint boundaries.
#[cfg(feature = "failpoints")]
fn early_sites() -> Vec<String> {
    (1..=3)
        .flat_map(|epoch| {
            [
                format!("stream-mid-epoch-{epoch}"),
                format!("stream-after-epoch-{epoch}"),
            ]
        })
        .collect()
}

/// Crash on both sides of each early checkpoint boundary and resume.
/// `stream-mid-epoch-N` fires with epoch N computed but unsaved (resume
/// replays it); `stream-after-epoch-N` fires with epoch N durable
/// (resume skips it). Either way the final rankings must match the
/// uninterrupted run byte for byte.
#[cfg(feature = "failpoints")]
#[test]
fn kill_resume_sweep_is_byte_identical() {
    let fx = Fixture::new();
    let reference = run_watch(
        &fx.stream,
        &fx.doc_texts(),
        &fx.classifier,
        &fx.config(2, 2048),
    )
    .expect("uninterrupted run");
    for site in early_sites() {
        let fired = crash_and_resume(&fx, 2048, std::slice::from_ref(&site), &reference.rankings);
        assert_eq!(fired, Some(site));
    }
}

/// The sweep at the CLI default epoch length, where most epochs append a
/// log record and a few compact. Besides the early boundary sites (all
/// appends here), it crashes at each of the three sites of every
/// compaction of the run. Compactions are found by arming the aside site
/// of every later epoch at once, so each crash names the next compaction;
/// its rename and reset sites are then armed one at a time.
#[cfg(feature = "failpoints")]
#[test]
fn kill_resume_sweep_covers_appends_and_every_compaction() {
    const EPOCH_LEN: usize = 256;
    let fx = Fixture::new();
    let reference = run_watch(
        &fx.stream,
        &fx.doc_texts(),
        &fx.classifier,
        &fx.config(2, EPOCH_LEN),
    )
    .expect("uninterrupted run");
    let epochs = reference.epochs;
    for site in early_sites() {
        let fired = crash_and_resume(
            &fx,
            EPOCH_LEN,
            std::slice::from_ref(&site),
            &reference.rankings,
        );
        assert_eq!(fired, Some(site));
    }

    let mut compactions: Vec<u64> = Vec::new();
    while compactions.last() != Some(&epochs) {
        let after = compactions.last().copied().unwrap_or(0);
        let armed: Vec<String> = (after + 1..=epochs)
            .map(|epoch| format!("stream-compact-aside-{epoch}"))
            .collect();
        let fired = crash_and_resume(&fx, EPOCH_LEN, &armed, &reference.rankings)
            .expect("the last epoch always compacts");
        let epoch: u64 = fired
            .rsplit('-')
            .next()
            .and_then(|n| n.parse().ok())
            .expect("site names its epoch");
        compactions.push(epoch);
        for step in ["renamed", "reset"] {
            let site = format!("stream-compact-{step}-{epoch}");
            let fired = crash_and_resume(
                &fx,
                EPOCH_LEN,
                std::slice::from_ref(&site),
                &reference.rankings,
            );
            assert_eq!(fired, Some(site));
        }
    }
    assert_eq!(compactions[0], 1, "the first save writes the snapshot");
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
