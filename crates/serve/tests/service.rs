//! End-to-end tests of the inference service over real loopback sockets:
//! byte-identity with the offline engine under concurrent clients,
//! backpressure, graceful drain, and booting from a (possibly damaged)
//! checkpointed run directory.

// Fixtures are staged and damaged with plain writes; the INC006 write
// ban is for library code.
#![allow(clippy::disallowed_methods)]

use incite_core::{load_latest_classifier, CheckpointError, ScoringEngine};
use incite_corpus::{generate, CorpusConfig};
use incite_ml::{FeaturizerConfig, TextClassifier, TrainConfig};
use incite_serve::client::HttpClient;
use incite_serve::{ServeConfig, Server};
use std::path::PathBuf;
use std::time::Duration;

fn trained_classifier(seed: u64) -> (TextClassifier, Vec<String>) {
    let corpus = generate(&CorpusConfig::tiny(seed));
    let labeled: Vec<(&str, bool)> = corpus
        .documents
        .iter()
        .take(600)
        .map(|d| (d.text.as_str(), d.truth.is_cth))
        .collect();
    let classifier =
        TextClassifier::train(labeled, FeaturizerConfig::default(), TrainConfig::default());
    let texts: Vec<String> = corpus
        .documents
        .iter()
        .skip(600)
        .take(48)
        .map(|d| d.text.clone())
        .collect();
    (classifier, texts)
}

fn config_on_free_port() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 3,
        deadline: Duration::from_secs(30),
        ..ServeConfig::default()
    }
}

fn score_body(texts: &[&str]) -> String {
    let escape = |t: &str| {
        t.chars()
            .flat_map(|c| match c {
                '"' => vec!['\\', '"'],
                '\\' => vec!['\\', '\\'],
                '\n' => vec!['\\', 'n'],
                c => vec![c],
            })
            .collect::<String>()
    };
    if let [one] = texts {
        format!("{{\"text\": \"{}\"}}", escape(one))
    } else {
        let items: Vec<String> = texts.iter().map(|t| format!("\"{}\"", escape(t))).collect();
        format!("{{\"texts\": [{}]}}", items.join(","))
    }
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

#[test]
fn served_scores_byte_identical_to_offline_engine_under_concurrent_clients() {
    let (classifier, texts) = trained_classifier(71);
    // The offline reference: the batch engine entry the server also uses,
    // which is itself pinned bit-identical to `classifier.score`.
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    let expected: Vec<u32> = ScoringEngine::score_texts(&classifier, &refs, 2)
        .expect("offline scoring")
        .iter()
        .map(|s| s.to_bits())
        .collect();

    const CLIENTS: usize = 8;
    const ROUNDS: usize = 6;
    // Each micro-batch is scored on one thread, then split across three.
    for threads in [1, 3] {
        let config = ServeConfig {
            threads,
            ..config_on_free_port()
        };
        let handle = Server::start(classifier.clone(), config).expect("server starts");
        let addr = handle.local_addr();
        std::thread::scope(|scope| {
            for c in 0..CLIENTS {
                let texts = &texts;
                let expected = &expected;
                scope.spawn(move || {
                    let mut client = HttpClient::connect(addr).expect("connect");
                    for round in 0..ROUNDS {
                        // Alternate single-document and batch requests, each
                        // client starting at a different offset, so batching
                        // and interleaving vary run to run.
                        if (c + round) % 2 == 0 {
                            let idx = (c * ROUNDS + round) % texts.len();
                            let resp = client
                                .post_json("/v1/score", &score_body(&[&texts[idx]]))
                                .expect("score request");
                            assert_eq!(resp.status, 200, "{}", resp.body);
                            assert_eq!(bits_of(&resp.body), vec![expected[idx]], "doc {idx}");
                        } else {
                            let start = (c * 5 + round) % (texts.len() - 7);
                            let batch: Vec<&str> =
                                texts[start..start + 7].iter().map(String::as_str).collect();
                            let resp = client
                                .post_json("/v1/score", &score_body(&batch))
                                .expect("batch request");
                            assert_eq!(resp.status, 200, "{}", resp.body);
                            assert_eq!(
                                bits_of(&resp.body),
                                expected[start..start + 7].to_vec(),
                                "batch at {start}"
                            );
                        }
                    }
                });
            }
        });

        let report = handle.join();
        assert_eq!(report.panicked_threads, 0, "threads {threads}");
        assert!(report.requests_total >= (CLIENTS * ROUNDS) as u64);
        assert_eq!(report.rejected_overload, 0, "threads {threads}");
    }
}

#[test]
fn overload_returns_429_with_retry_after_on_the_wire() {
    let (classifier, texts) = trained_classifier(72);
    let config = ServeConfig {
        queue_depth: 0,
        ..config_on_free_port()
    };
    let handle = Server::start(classifier, config).expect("server starts");
    let mut client = HttpClient::connect(handle.local_addr()).expect("connect");

    let resp = client
        .post_json("/v1/score", &score_body(&[&texts[0]]))
        .expect("request");
    assert_eq!(resp.status, 429);
    assert_eq!(resp.header("retry-after"), Some("1"));
    assert!(resp.body.contains("queue full"), "{}", resp.body);

    // Health stays green and metrics record the rejection — overload is
    // backpressure, not an outage.
    let health = client.get("/healthz").expect("healthz");
    assert_eq!(health.status, 200);
    let metrics = client.get("/metrics").expect("metrics");
    assert!(
        metrics
            .body
            .contains("incite_serve_rejected_overload_total 1"),
        "{}",
        metrics.body
    );

    let report = handle.join();
    assert_eq!(report.rejected_overload, 1);
    assert_eq!(report.panicked_threads, 0);
}

#[test]
fn graceful_drain_answers_accepted_requests_and_joins_clean() {
    let (classifier, texts) = trained_classifier(73);
    let handle = Server::start(classifier, config_on_free_port()).expect("server starts");
    let addr = handle.local_addr();

    let stop = std::sync::atomic::AtomicBool::new(false);
    let sigterm = std::sync::atomic::AtomicBool::new(false);
    let (outcomes, report) = std::thread::scope(|scope| {
        let server = scope.spawn(|| handle.run_until(&sigterm));
        let workers: Vec<_> = (0..4)
            .map(|c| {
                let texts = &texts;
                let stop = &stop;
                let sigterm = &sigterm;
                scope.spawn(move || {
                    let mut ok = 0usize;
                    let mut refused = 0usize;
                    let mut client = match HttpClient::connect(addr) {
                        Ok(client) => client,
                        Err(_) => return (ok, refused),
                    };
                    for i in 0.. {
                        if stop.load(std::sync::atomic::Ordering::Acquire) && i > 0 {
                            break;
                        }
                        let body = score_body(&[&texts[(c + i) % texts.len()]]);
                        match client.post_json("/v1/score", &body) {
                            // Accepted work is answered; refusals during
                            // the drain are clean 503s. Anything else —
                            // and any dropped (unanswered) request — is a
                            // connection error and fails below.
                            Ok(resp) if resp.status == 200 => ok += 1,
                            Ok(resp) if resp.status == 503 => {
                                refused += 1;
                                break;
                            }
                            Ok(resp) => panic!("unexpected status {}", resp.status),
                            // The server only closes a keep-alive socket
                            // between requests once draining has begun.
                            Err(e) => {
                                assert!(
                                    sigterm.load(std::sync::atomic::Ordering::Acquire),
                                    "connection error before drain: {e}"
                                );
                                break;
                            }
                        }
                    }
                    (ok, refused)
                })
            })
            .collect();

        // Let the clients build up in-flight traffic, then pull the plug
        // the way the SIGTERM handler does.
        std::thread::sleep(Duration::from_millis(150));
        sigterm.store(true, std::sync::atomic::Ordering::Release);
        // `run_until` polls every 25 ms: keep the load on while it drains.
        std::thread::sleep(Duration::from_millis(100));
        stop.store(true, std::sync::atomic::Ordering::Release);
        let outcomes: Vec<(usize, usize)> = workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect();
        (outcomes, server.join().expect("server thread"))
    });

    let total_ok: usize = outcomes.iter().map(|(ok, _)| ok).sum();
    assert!(total_ok > 0, "no requests completed before the drain");

    assert_eq!(report.panicked_threads, 0);
    assert_eq!(report.stuck_connections, 0, "drain left connections behind");
    assert!(report.requests_total >= total_ok as u64);
}

/// Creates a real checkpointed run directory by running the resumable
/// pipeline on a generated corpus, returning its path.
fn checkpointed_run_dir(tag: &str) -> (PathBuf, incite_corpus::Corpus) {
    let root = std::env::temp_dir().join(format!("incite-serve-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    std::fs::create_dir_all(&root).expect("temp dir");
    let corpus = generate(&CorpusConfig::tiny(404));
    let config = incite_core::PipelineConfig::quick(3);
    incite_core::run_pipeline_resumable(&corpus, incite_core::Task::Cth, &config, &root)
        .expect("pipeline run");
    (root, corpus)
}

#[test]
fn boots_from_a_run_directory_and_serves_the_checkpointed_model() {
    let (run_dir, corpus) = checkpointed_run_dir("boot");
    let classifier = load_latest_classifier(&run_dir).expect("load from run dir");

    let handle = Server::start(classifier.clone(), config_on_free_port()).expect("server starts");
    let mut client = HttpClient::connect(handle.local_addr()).expect("connect");
    for doc in corpus.documents.iter().take(5) {
        let resp = client
            .post_json("/v1/score", &score_body(&[&doc.text]))
            .expect("request");
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert_eq!(
            bits_of(&resp.body),
            vec![classifier.score(&doc.text).to_bits()],
            "served score differs from the checkpointed model"
        );
    }
    let report = handle.join();
    assert_eq!(report.panicked_threads, 0);
    std::fs::remove_dir_all(&run_dir).ok();
}

#[test]
fn damaged_run_directories_are_typed_refusals_with_no_partial_bind() {
    let (run_dir, _) = checkpointed_run_dir("damage");

    // A model section whose bytes differ from the manifest record: valid
    // frame, wrong content → HashMismatch.
    let model_file = std::fs::read_dir(&run_dir)
        .expect("read dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.to_string_lossy().ends_with(".model.ckpt"))
        .max()
        .expect("a model checkpoint exists");
    let original = std::fs::read(&model_file).expect("read model");
    incite_core::checkpoint::atomic_io::write_hashed(&model_file, b"not a model")
        .expect("overwrite");
    match load_latest_classifier(&run_dir) {
        Err(CheckpointError::HashMismatch { .. }) => {}
        other => panic!("expected HashMismatch, got {other:?}"),
    }

    // A torn write (no valid footer) → Corrupt, still typed.
    std::fs::write(&model_file, &original[..original.len() / 2]).expect("truncate");
    match load_latest_classifier(&run_dir) {
        Err(CheckpointError::Corrupt { .. } | CheckpointError::HashMismatch { .. }) => {}
        other => panic!("expected a typed corruption error, got {other:?}"),
    }

    // No manifest at all → Incompatible with a usable hint.
    std::fs::remove_file(run_dir.join("MANIFEST.ckpt")).expect("remove manifest");
    match load_latest_classifier(&run_dir) {
        Err(CheckpointError::Incompatible { detail }) => {
            assert!(detail.contains("not a run directory"), "{detail}");
        }
        other => panic!("expected Incompatible, got {other:?}"),
    }

    std::fs::remove_dir_all(&run_dir).ok();
}
