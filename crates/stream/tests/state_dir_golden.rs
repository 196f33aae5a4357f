//! Pins the bytes of a finished watch state directory.
//!
//! A resumed watch reads what an older binary of the same state version
//! wrote, so the snapshot layout must not drift unnoticed. After a full
//! checkpointed pass of the shared stream fixture at the default epoch
//! length, `STREAM.ckpt` must have the length and FNV-1a 64 below and the
//! pass must report the [`CheckpointStats`] below, at 1 and 2 threads; a
//! run stopped after 20 epochs and resumed at 4 threads must leave the
//! same snapshot. A failure prints the actual values in this form. A state
//! directory of format version 1 (JSON) is refused with a typed error.

// A version-1 snapshot is planted with a plain write; the INC006 write
// ban is for library code.
#![allow(clippy::disallowed_methods)]

mod common;

use common::{state_dir, Fixture};
use incite_core::checkpoint::{atomic_io, CheckpointError};
use incite_stream::state::STATE_FILE;
use incite_stream::{run_watch, CheckpointStats, StreamError};
use incite_textkit::fnv1a;

/// `STREAM.ckpt` after the pass: (length, FNV-1a 64).
const SNAPSHOT: (u64, u64) = (2627480, 0xef0db0cb18006918);

const STATS: CheckpointStats = CheckpointStats {
    snapshots: 4,
    deltas: 88,
    bytes: 9331083,
};

#[test]
fn a_full_pass_leaves_the_pinned_snapshot_at_every_thread_count() {
    let fx = Fixture::new();
    let doc_texts = fx.doc_texts();
    for threads in [1, 2] {
        let dir = state_dir(&format!("golden-{threads}"));
        let mut config = fx.config(threads, 256);
        config.state_dir = Some(dir.clone());
        let pass = run_watch(&fx.stream, &doc_texts, &fx.classifier, &config).expect("pass");
        let snapshot = std::fs::read(dir.join(STATE_FILE)).expect("snapshot");
        std::fs::remove_dir_all(&dir).ok();
        let actual = (snapshot.len() as u64, fnv1a(&snapshot, 0));
        assert!(
            actual == SNAPSHOT && pass.checkpoint == STATS,
            "the state dir at {threads} thread(s) moved; it is:\n\
             const SNAPSHOT: (u64, u64) = ({}, 0x{:016x});\n{:?}",
            actual.0,
            actual.1,
            pass.checkpoint
        );
    }

    let dir = state_dir("golden-split");
    let mut config = fx.config(1, 256);
    config.state_dir = Some(dir.clone());
    config.max_epochs = Some(20);
    run_watch(&fx.stream, &doc_texts, &fx.classifier, &config).expect("first 20 epochs");
    config.ranker.threads = 4;
    config.max_epochs = None;
    run_watch(&fx.stream, &doc_texts, &fx.classifier, &config).expect("resumed run");
    let snapshot = std::fs::read(dir.join(STATE_FILE)).expect("snapshot");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!((snapshot.len() as u64, fnv1a(&snapshot, 0)), SNAPSHOT);
}

#[test]
fn a_version_1_state_dir_is_refused_with_a_typed_error() {
    let fx = Fixture::new();
    let dir = state_dir("version-1");
    let config = {
        let mut config = fx.config(2, 256);
        config.state_dir = Some(dir.clone());
        config
    };
    // What a version-1 binary wrote for a ranker over no actors: the rows
    // as JSON, keys in the vendored serde's sorted order.
    let v1 = format!(
        "{{\"actors\":[],\"config_fingerprint\":\"{}\",\"docs\":[],\"epochs_done\":0,\
         \"follows\":[],\"next_event\":0,\"stream_digest\":\"{}\",\"targets\":[],\
         \"version\":1}}",
        config.ranker.fingerprint(),
        fx.stream.digest()
    );
    atomic_io::write_hashed(&dir.join(STATE_FILE), v1.as_bytes()).expect("plant v1 state");
    match run_watch(&fx.stream, &fx.doc_texts(), &fx.classifier, &config) {
        Err(StreamError::Checkpoint(CheckpointError::Incompatible { detail })) => {
            assert!(detail.contains("version 1"), "{detail}");
            assert!(
                detail.contains("rerun without the old state directory"),
                "{detail}"
            );
        }
        other => panic!("expected a typed refusal of version-1 state, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}
