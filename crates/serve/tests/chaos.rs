//! The serve chaos sweep: with each fault site armed, the service must
//! degrade gracefully — a typed error or one dropped connection, never a
//! hang, never a wrong byte — and recover to byte-identical scoring for
//! the rest of its lifetime. Mirrors the pipeline's kill-point sweep
//! (`crash_recovery.rs`), but the claim here is *availability*, not
//! resumability.
//!
//! Runs only with `--features failpoints`; the release build compiles the
//! sites out entirely.

#![cfg(feature = "failpoints")]

use incite_core::FailpointRegistry;
use incite_corpus::{generate, CorpusConfig};
use incite_ml::{FeaturizerConfig, TextClassifier, TrainConfig};
use incite_serve::chaos;
use incite_serve::client::HttpClient;
use incite_serve::{ServeConfig, Server, ServerHandle};
use std::time::Duration;

fn trained_classifier(seed: u64) -> (TextClassifier, Vec<String>) {
    let corpus = generate(&CorpusConfig::tiny(seed));
    let labeled: Vec<(&str, bool)> = corpus
        .documents
        .iter()
        .take(500)
        .map(|d| (d.text.as_str(), d.truth.is_cth))
        .collect();
    let classifier =
        TextClassifier::train(labeled, FeaturizerConfig::default(), TrainConfig::default());
    let texts: Vec<String> = corpus
        .documents
        .iter()
        .skip(600)
        .take(8)
        .map(|d| d.text.clone())
        .collect();
    (classifier, texts)
}

fn server_with_armed_site(site: &str, seed: u64) -> (ServerHandle, Vec<String>, Vec<u32>) {
    let (classifier, texts) = trained_classifier(seed);
    let expected: Vec<u32> = texts
        .iter()
        .map(|t| classifier.score(t).to_bits())
        .collect();
    let mut failpoints = FailpointRegistry::new();
    failpoints.arm(site);
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        deadline: Duration::from_secs(30),
        failpoints,
        ..ServeConfig::default()
    };
    let handle = Server::start(classifier, config).expect("server starts");
    (handle, texts, expected)
}

fn escaped(text: &str) -> String {
    text.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            '\n' => vec!['\\', 'n'],
            c => vec![c],
        })
        .collect()
}

fn single_body(text: &str) -> String {
    format!("{{\"text\": \"{}\"}}", escaped(text))
}

fn batch_body(texts: &[String]) -> String {
    let items: Vec<String> = texts
        .iter()
        .map(|t| format!("\"{}\"", escaped(t)))
        .collect();
    format!("{{\"texts\": [{}]}}", items.join(", "))
}

fn bits_of(body: &str) -> Vec<u32> {
    let value: serde::Value = serde_json::from_str(body).expect("response parses");
    let serde::Value::Object(map) = value else {
        panic!("response is not an object: {body}");
    };
    let serde::Value::Array(items) = map.get("bits").expect("bits field") else {
        panic!("bits is not an array: {body}");
    };
    items
        .iter()
        .map(|v| match v {
            serde::Value::UInt(u) => u32::try_from(*u).expect("u32 bits"),
            serde::Value::Int(i) => u32::try_from(*i).expect("u32 bits"),
            other => panic!("non-integer bits entry: {other:?}"),
        })
        .collect()
}

/// After the fault fired, the same server must score byte-identically.
fn assert_recovered(addr: std::net::SocketAddr, texts: &[String], expected: &[u32]) {
    let mut client = HttpClient::connect(addr).expect("reconnect after fault");
    for (text, want) in texts.iter().zip(expected) {
        let resp = client
            .post_json("/v1/score", &single_body(text))
            .expect("post-fault request");
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert_eq!(bits_of(&resp.body), vec![*want], "post-fault byte identity");
    }
}

#[test]
fn socket_reset_drops_one_connection_then_serves_identically() {
    let (handle, texts, expected) = server_with_armed_site(chaos::SOCKET_RESET, 81);
    let addr = handle.local_addr();
    let mut client = HttpClient::connect(addr).expect("connect");
    // The armed site consumes this response before any byte is written:
    // the client sees a dead socket, not a corrupt or hung exchange.
    let outcome = client.post_json("/v1/score", &single_body(&texts[0]));
    assert!(
        outcome.is_err(),
        "armed socket-reset must kill the connection, got {outcome:?}"
    );
    assert_recovered(addr, &texts, &expected);
    let report = handle.join();
    assert_eq!(report.panicked_threads, 0);
}

#[test]
fn short_write_truncates_one_response_then_serves_identically() {
    let (handle, texts, expected) = server_with_armed_site(chaos::SHORT_WRITE, 82);
    let addr = handle.local_addr();
    let mut client = HttpClient::connect(addr).expect("connect");
    // Half a response then EOF: the client's parser must fail cleanly
    // (truncated head or short body), never block forever.
    let outcome = client.post_json("/v1/score", &single_body(&texts[0]));
    assert!(
        outcome.is_err(),
        "armed short-write must yield an unparseable exchange, got {outcome:?}"
    );
    assert_recovered(addr, &texts, &expected);
    let report = handle.join();
    assert_eq!(report.panicked_threads, 0);
}

#[test]
fn worker_fault_fails_one_batch_typed_then_serves_identically() {
    let (handle, texts, expected) = server_with_armed_site(chaos::WORKER_FAULT, 83);
    let addr = handle.local_addr();
    let mut client = HttpClient::connect(addr).expect("connect");
    // The injected engine fault is a typed 500 on the same connection.
    // A single doc with a permit free is scored inline, so the fault fires
    // on the connection thread, which survives it.
    let resp = client
        .post_json("/v1/score", &single_body(&texts[0]))
        .expect("faulted request still gets a response");
    assert_eq!(resp.status, 500, "{}", resp.body);
    assert!(resp.body.contains("injected worker fault"), "{}", resp.body);
    assert_recovered(addr, &texts, &expected);
    let report = handle.join();
    // The one injected fault is the only worker error.
    assert_eq!(report.panicked_threads, 0);
}

#[test]
fn worker_fault_fails_one_queued_batch_typed_then_serves_identically() {
    let (handle, texts, expected) = server_with_armed_site(chaos::WORKER_FAULT, 85);
    let addr = handle.local_addr();
    let mut client = HttpClient::connect(addr).expect("connect");
    // A 2-doc request always takes the queue, so this fault fires on the
    // worker, not on the inline single-doc path.
    let body = batch_body(&texts[..2]);
    let resp = client
        .post_json("/v1/score", &body)
        .expect("faulted request still gets a response");
    assert_eq!(resp.status, 500, "{}", resp.body);
    assert!(resp.body.contains("injected worker fault"), "{}", resp.body);
    // The worker loop survived: the same batch now scores identically.
    let resp = client.post_json("/v1/score", &body).expect("retried batch");
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(bits_of(&resp.body), expected[..2].to_vec());
    assert_recovered(addr, &texts, &expected);
    let metrics = client.get("/metrics").expect("metrics");
    assert!(
        metrics.body.contains("incite_serve_worker_errors_total 1"),
        "{}",
        metrics.body
    );
    let report = handle.join();
    assert_eq!(report.panicked_threads, 0);
}

#[test]
fn journal_open_fault_refuses_boot_with_a_typed_error() {
    // An unopenable journal is a boot failure, not a silent runtime drop:
    // with the journal-open site armed, `Server::start` must return a
    // typed config error before any worker thread exists.
    let (classifier, _texts) = trained_classifier(84);
    let root = std::env::temp_dir().join(format!("incite-chaos-journal-{}", std::process::id()));
    std::fs::create_dir_all(&root).expect("journal dir");
    let mut failpoints = FailpointRegistry::new();
    failpoints.arm(chaos::JOURNAL_OPEN);
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        deadline: Duration::from_secs(30),
        failpoints,
        journal: Some(root.join("requests.journal")),
        ..ServeConfig::default()
    };
    let message = match Server::start(classifier, config) {
        Err(err) => err.to_string(),
        Ok(_) => panic!("armed journal-open must refuse boot"),
    };
    assert!(
        message.contains("cannot open journal") && message.contains("injected journal-open fault"),
        "boot refusal must name the journal fault, got: {message}"
    );
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn mid_swap_fault_keeps_the_old_generation_then_swap_succeeds() {
    use incite_serve::journal::read_journal;

    // Boot from a run dir so generations carry real hashes, arm the
    // mid-swap site, and journal throughout: the failed swap must leave
    // no trace in served bits.
    let root = std::env::temp_dir().join(format!("incite-chaos-midswap-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let dir_a = root.join("run-a");
    let dir_b = root.join("run-b");
    let corpus = generate(&CorpusConfig::tiny(404));
    for (dir, seed) in [(&dir_a, 3u64), (&dir_b, 5u64)] {
        std::fs::create_dir_all(dir).expect("run dir");
        let config = incite_core::PipelineConfig::quick(seed);
        incite_core::run_pipeline_resumable(&corpus, incite_core::Task::Cth, &config, dir)
            .expect("pipeline run");
    }
    let mut failpoints = FailpointRegistry::new();
    failpoints.arm(chaos::MID_SWAP);
    let journal_path = root.join("requests.journal");
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        deadline: Duration::from_secs(30),
        failpoints,
        journal: Some(journal_path.clone()),
        ..ServeConfig::default()
    };
    let handle = Server::start_from_run_dir(&dir_a, config).expect("server boots");
    let mut client = HttpClient::connect(handle.local_addr()).expect("connect");

    let text = &corpus.documents[700].text;
    let before = client
        .post_json("/v1/score", &single_body(text))
        .expect("pre-swap request");
    assert_eq!(before.status, 200, "{}", before.body);

    // The armed swap aborts after loading, before the flip: typed 503,
    // old generation intact.
    let swap_body = format!("{{\"run_dir\": \"{}\"}}", dir_b.display());
    let failed = client
        .post_json("/v1/admin/swap", &swap_body)
        .expect("swap request");
    assert_eq!(failed.status, 503, "{}", failed.body);
    let metrics = client.get("/metrics").expect("metrics");
    assert!(
        metrics.body.contains("incite_serve_model_generation 1"),
        "{}",
        metrics.body
    );
    assert!(
        metrics.body.contains("incite_serve_swap_failures_total 1"),
        "{}",
        metrics.body
    );
    let during = client
        .post_json("/v1/score", &single_body(text))
        .expect("post-fault request");
    assert_eq!(during.status, 200);
    assert_eq!(
        bits_of(&during.body),
        bits_of(&before.body),
        "the aborted swap changed served bits"
    );

    // The site tripped once; the retry goes through.
    let retried = client
        .post_json("/v1/admin/swap", &swap_body)
        .expect("swap retry");
    assert_eq!(retried.status, 200, "{}", retried.body);
    assert!(
        retried.body.contains("\"generation\":2"),
        "{}",
        retried.body
    );
    let after = client
        .post_json("/v1/score", &single_body(text))
        .expect("post-swap request");
    assert_eq!(after.status, 200);

    let report = handle.join();
    assert_eq!(report.panicked_threads, 0);
    // Every journaled response — across the fault and the swap — must
    // name a generation whose recorded bits it reproduces.
    let (records, damage) = read_journal(&journal_path).expect("journal reads back");
    assert_eq!(damage, None);
    assert_eq!(records.len(), 3);
    assert_eq!(records[0].generation, 1);
    assert_eq!(
        records[1].generation, 1,
        "failed swap must not advance generations"
    );
    assert_eq!(records[2].generation, 2);
    assert_eq!(records[0].bits, records[1].bits);
    std::fs::remove_dir_all(&root).ok();
}
