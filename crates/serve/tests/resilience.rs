//! Serve v2 resilience, end to end over real loopback sockets: atomic
//! model hot-swap under sustained concurrent load (zero dropped requests,
//! zero mixed generations), per-tenant admission control on the wire,
//! journal → offline replay byte-identity, and the slow-loris cutoff.

use incite_core::checkpoint::atomic_io::{write_hashed, AppendLog};
use incite_core::checkpoint::{read_manifest, MANIFEST_FILE};
use incite_core::{load_latest_classifier_with_hash, CheckpointError, ScoringEngine};
use incite_corpus::{generate, CorpusConfig};
use incite_serve::admission::TenantQuota;
use incite_serve::client::HttpClient;
use incite_serve::journal::read_journal;
use incite_serve::{ServeConfig, ServeError, Server};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

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

/// The provenance-tagged score payload of a v2 response.
#[derive(Debug)]
struct Scored {
    bits: Vec<u32>,
    generation: u64,
    model_hash: String,
}

fn parse_scored(body: &str) -> Scored {
    let value: serde::Value = serde_json::from_str(body).expect("response parses");
    let serde::Value::Object(map) = value else {
        panic!("response is not an object: {body}");
    };
    let serde::Value::Array(items) = map.get("bits").expect("bits field") else {
        panic!("bits is not an array: {body}");
    };
    let bits = items
        .iter()
        .map(|v| match v {
            serde::Value::UInt(u) => u32::try_from(*u).expect("u32 bits"),
            serde::Value::Int(i) => u32::try_from(*i).expect("u32 bits"),
            other => panic!("non-integer bits entry: {other:?}"),
        })
        .collect();
    let generation = match map.get("generation").expect("generation field") {
        serde::Value::UInt(u) => *u,
        serde::Value::Int(i) => u64::try_from(*i).expect("u64 generation"),
        other => panic!("non-integer generation: {other:?}"),
    };
    let serde::Value::Str(model_hash) = map.get("model_hash").expect("model_hash field") else {
        panic!("model_hash is not a string: {body}");
    };
    Scored {
        bits,
        generation,
        model_hash: model_hash.clone(),
    }
}

/// A real checkpointed run directory: the resumable pipeline over a
/// generated corpus. Different pipeline seeds produce different models
/// (and therefore different verified model hashes).
fn checkpointed_run_dir(tag: &str, pipeline_seed: u64) -> (PathBuf, incite_corpus::Corpus) {
    let root = std::env::temp_dir().join(format!("incite-resilience-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    std::fs::create_dir_all(&root).expect("temp dir");
    let corpus = generate(&CorpusConfig::tiny(404));
    let config = incite_core::PipelineConfig::quick(pipeline_seed);
    incite_core::run_pipeline_resumable(&corpus, incite_core::Task::Cth, &config, &root)
        .expect("pipeline run");
    (root, corpus)
}

/// Offline expected bits for `texts` under the model in `run_dir`, keyed
/// by that model's hash.
fn expected_bits(run_dir: &std::path::Path, texts: &[String]) -> (String, Vec<u32>) {
    let (classifier, hash) = load_latest_classifier_with_hash(run_dir).expect("load model");
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    let bits = ScoringEngine::score_texts(&classifier, &refs, 2)
        .expect("offline scoring")
        .iter()
        .map(|s| s.to_bits())
        .collect();
    (hash, bits)
}

#[test]
fn hot_swap_under_load_drops_nothing_and_never_mixes_generations() {
    let (dir_a, corpus) = checkpointed_run_dir("swap-a", 3);
    let (dir_b, _) = checkpointed_run_dir("swap-b", 5);
    let texts: Vec<String> = corpus
        .documents
        .iter()
        .skip(600)
        .take(24)
        .map(|d| d.text.clone())
        .collect();
    // Expected bits per model, keyed by verified hash: whatever hash a
    // response declares, its bits must match that model exactly.
    let (hash_a, bits_a) = expected_bits(&dir_a, &texts);
    let (hash_b, bits_b) = expected_bits(&dir_b, &texts);
    assert_ne!(
        hash_a, hash_b,
        "the two run dirs must hold different models"
    );
    let expected: BTreeMap<String, Vec<u32>> =
        [(hash_a.clone(), bits_a), (hash_b.clone(), bits_b)].into();

    let handle = Server::start_from_run_dir(&dir_a, config_on_free_port()).expect("server boots");
    let addr = handle.local_addr();

    const CLIENTS: usize = 6;
    let swap_body = format!("{{\"run_dir\": \"{}\"}}", dir_b.display());
    // Three deterministic phases: before the swap request (generation 1
    // only), concurrent with the swap (either generation, every response
    // internally consistent), and after the swap completed (generation 2
    // only). Barriers separate the phases; the middle phase is where the
    // flip lands under live concurrent load.
    let barrier = std::sync::Barrier::new(CLIENTS + 1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let texts = &texts;
                let expected = &expected;
                let barrier = &barrier;
                let (hash_a, hash_b) = (&hash_a, &hash_b);
                scope.spawn(move || {
                    let mut client = HttpClient::connect(addr).expect("connect");
                    let mut exchange = |round: usize| -> String {
                        // Mix single-doc and small batches so swaps land
                        // across micro-batch boundaries.
                        let (range, label) = if (c + round).is_multiple_of(3) {
                            let start = (c * 7 + round) % (texts.len() - 5);
                            (start..start + 5, "batch")
                        } else {
                            let idx = (c * 13 + round) % texts.len();
                            (idx..idx + 1, "single")
                        };
                        let batch: Vec<&str> =
                            texts[range.clone()].iter().map(String::as_str).collect();
                        let resp = client
                            .post_json("/v1/score", &score_body(&batch))
                            .expect("no request may be dropped during a swap");
                        assert_eq!(resp.status, 200, "{} {}", label, resp.body);
                        let scored = parse_scored(&resp.body);
                        let model_bits = expected
                            .get(&scored.model_hash)
                            .expect("response declares a known model hash");
                        assert_eq!(
                            scored.bits,
                            model_bits[range.clone()].to_vec(),
                            "bits must match the declared generation's model \
                             exactly (generation {} {label} at {range:?})",
                            scored.generation,
                        );
                        scored.model_hash
                    };
                    for round in 0..8 {
                        let hash = exchange(round);
                        assert_eq!(&hash, hash_a, "phase 1 precedes the swap request");
                    }
                    barrier.wait();
                    for round in 8..28 {
                        // Swap in flight somewhere in here: either model
                        // is legal, mixtures within a response are not
                        // (exchange checks that).
                        exchange(round);
                    }
                    barrier.wait();
                    for round in 28..33 {
                        let hash = exchange(round);
                        assert_eq!(&hash, hash_b, "phase 3 follows the completed swap");
                    }
                })
            })
            .collect();

        barrier.wait();
        let mut admin = HttpClient::connect(addr).expect("admin connect");
        let resp = admin
            .post_json("/v1/admin/swap", &swap_body)
            .expect("swap request");
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(resp.body.contains("\"generation\":2"), "{}", resp.body);
        barrier.wait();

        for worker in workers {
            worker.join().expect("client thread");
        }
    });

    let report = handle.join();
    assert_eq!(report.panicked_threads, 0);
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

/// A run directory from before the model frame, whose manifest header
/// says version 1, is refused before any section is read: at boot, and
/// by a hot swap, which keeps the serving generation. The old directory
/// holds only its manifest, so reading a section would fail otherwise.
#[test]
fn a_version_1_run_dir_is_refused_at_boot_and_by_hot_swap() {
    let (dir, _) = checkpointed_run_dir("version-2", 7);
    let old = dir.with_file_name(format!(
        "incite-resilience-version-1-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&old).ok();
    let (mut manifest, _) = read_manifest(&dir).expect("read manifest");
    manifest.version = 1;
    let json = serde_json::to_string(&manifest).expect("serialize manifest");
    write_hashed(&old.join(MANIFEST_FILE), json.as_bytes()).expect("write version-1 manifest");

    let refusal = "manifest version 1 (supported: 2)";
    match load_latest_classifier_with_hash(&old) {
        Err(CheckpointError::Incompatible { detail }) => assert!(detail.contains(refusal)),
        other => panic!(
            "expected Incompatible, got {:?}",
            other.map(|(_, hash)| hash)
        ),
    }
    match Server::start_from_run_dir(&old, config_on_free_port()) {
        Err(ServeError::Model(detail)) => assert!(detail.contains(refusal), "{detail}"),
        Err(other) => panic!("expected a model refusal, got {other}"),
        Ok(handle) => {
            handle.join();
            panic!("a version-1 run dir booted");
        }
    }

    let handle = Server::start_from_run_dir(&dir, config_on_free_port()).expect("server boots");
    let mut client = HttpClient::connect(handle.local_addr()).expect("connect");
    let swap_body = format!("{{\"run_dir\": \"{}\"}}", old.display());
    let resp = client
        .post_json("/v1/admin/swap", &swap_body)
        .expect("swap request");
    assert_eq!(resp.status, 422, "{}", resp.body);
    assert!(
        resp.body.contains("path is not a servable run directory"),
        "{}",
        resp.body
    );
    let resp = client
        .post_json("/v1/score", &score_body(&["report him"]))
        .expect("score request");
    assert_eq!(parse_scored(&resp.body).generation, 1);
    drop(client);
    assert_eq!(handle.join().panicked_threads, 0);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&old).ok();
}

#[test]
fn tenant_admission_is_enforced_per_key_on_the_wire() {
    let (classifier, _) = {
        let corpus = generate(&CorpusConfig::tiny(71));
        let labeled: Vec<(&str, bool)> = corpus
            .documents
            .iter()
            .take(400)
            .map(|d| (d.text.as_str(), d.truth.is_cth))
            .collect();
        (
            incite_ml::TextClassifier::train(
                labeled,
                incite_ml::FeaturizerConfig::default(),
                incite_ml::TrainConfig::default(),
            ),
            corpus,
        )
    };
    let config = ServeConfig {
        tenants: vec![
            TenantQuota {
                name: "alpha".to_string(),
                key: "alpha-key".to_string(),
                capacity: 2,
                refill_per_sec: 1,
            },
            TenantQuota {
                name: "beta".to_string(),
                key: "beta-key".to_string(),
                capacity: 10,
                refill_per_sec: 5,
            },
        ],
        ..config_on_free_port()
    };
    let handle = Server::start(classifier, config).expect("server starts");
    let mut client = HttpClient::connect(handle.local_addr()).expect("connect");
    let body = score_body(&["report him"]);

    // No key at all → 401, not queued, not scored.
    let resp = client.post_json("/v1/score", &body).expect("request");
    assert_eq!(resp.status, 401, "{}", resp.body);

    // Alpha's burst is 2: two served, the third rejected with a
    // deterministic Retry-After hint.
    for i in 0..2 {
        let resp = client
            .post_json_with_headers("/v1/score", &body, &[("x-api-key", "alpha-key")])
            .expect("request");
        assert_eq!(resp.status, 200, "grant {i}: {}", resp.body);
    }
    let resp = client
        .post_json_with_headers("/v1/score", &body, &[("x-api-key", "alpha-key")])
        .expect("request");
    assert_eq!(resp.status, 429, "{}", resp.body);
    let retry: u64 = resp
        .header("retry-after")
        .expect("429 carries retry-after")
        .parse()
        .expect("numeric retry-after");
    assert!(retry >= 1);

    // Beta is unaffected by alpha's exhaustion (fair share, not global).
    let resp = client
        .post_json_with_headers("/v1/score", &body, &[("x-api-key", "beta-key")])
        .expect("request");
    assert_eq!(resp.status, 200, "{}", resp.body);

    // The per-tenant counters are on /metrics.
    let metrics = client.get("/metrics").expect("metrics");
    for series in [
        "incite_serve_tenant_admitted_total{tenant=\"alpha\"} 2",
        "incite_serve_tenant_rejected_total{tenant=\"alpha\"} 1",
        "incite_serve_tenant_admitted_total{tenant=\"beta\"} 1",
    ] {
        assert!(
            metrics.body.contains(series),
            "missing {series:?} in:\n{}",
            metrics.body
        );
    }

    let report = handle.join();
    assert_eq!(report.panicked_threads, 0);
}

#[test]
fn journal_replays_offline_to_byte_identical_bits() {
    let (run_dir, corpus) = checkpointed_run_dir("journal", 3);
    let journal_path = run_dir.join("requests.journal");
    let config = ServeConfig {
        journal: Some(journal_path.clone()),
        ..config_on_free_port()
    };
    let handle = Server::start_from_run_dir(&run_dir, config).expect("server boots");
    let mut client = HttpClient::connect(handle.local_addr()).expect("connect");

    let texts: Vec<String> = corpus
        .documents
        .iter()
        .skip(700)
        .take(12)
        .map(|d| d.text.clone())
        .collect();
    // One client alternates 3-doc requests, which take the queue, with
    // single-doc ones, which are scored inline on its connection thread.
    // Each request's texts are its own, so they name its record.
    let mut served: BTreeMap<Vec<String>, Scored> = BTreeMap::new();
    for chunk in texts.chunks(4) {
        for request in [&chunk[..3], &chunk[3..]] {
            let refs: Vec<&str> = request.iter().map(String::as_str).collect();
            let resp = client
                .post_json("/v1/score", &score_body(&refs))
                .expect("request");
            assert_eq!(resp.status, 200, "{}", resp.body);
            served.insert(request.to_vec(), parse_scored(&resp.body));
        }
    }
    assert_eq!(served.len(), 6, "every request's texts are distinct");
    // Each request was one scoring pass: 3 batches of 3, 3 of 1.
    let metrics = client.get("/metrics").expect("metrics");
    for line in [
        "incite_serve_batches_total 6",
        "incite_serve_documents_scored_total 12",
    ] {
        assert!(
            metrics.body.lines().any(|l| l == line),
            "missing {line:?} in:\n{}",
            metrics.body
        );
    }
    // Joining drains the journal thread; only then is the file complete.
    let report = handle.join();
    assert_eq!(report.panicked_threads, 0);

    let (records, damage) = read_journal(&journal_path).expect("journal reads back");
    assert_eq!(damage, None, "clean shutdown leaves no torn tail");
    // One record per 200, whichever path scored it.
    assert_eq!(records.len(), served.len());

    // Offline replay: re-score every journaled input against the model
    // the record names and demand bit identity — the production score is
    // reproducible from the journal alone.
    let (classifier, hash) = load_latest_classifier_with_hash(&run_dir).expect("load model");
    let mut seqs = BTreeSet::new();
    for record in &records {
        let scored = served
            .remove(&record.texts)
            .expect("each record is one served request, journaled once");
        assert!(seqs.insert(record.seq), "duplicate seq {}", record.seq);
        assert_eq!(record.model_hash, hash);
        assert_eq!(record.model_hash, scored.model_hash);
        assert_eq!(record.generation, scored.generation);
        assert_eq!(record.tenant, "default");
        assert_eq!(record.bits, scored.bits, "journal holds the served bits");
        let refs: Vec<&str> = record.texts.iter().map(String::as_str).collect();
        let replayed: Vec<u32> = ScoringEngine::score_texts(&classifier, &refs, 1)
            .expect("replay scoring")
            .iter()
            .map(|s| s.to_bits())
            .collect();
        assert_eq!(
            replayed, record.bits,
            "offline replay of seq {} is not byte-identical",
            record.seq
        );
    }
    std::fs::remove_dir_all(&run_dir).ok();
}

/// A client text may hold the journal footer's marker text. A server
/// killed while appending such a record leaves it torn after that text:
/// replay reads the records before it, and the next server boots on the
/// journal, cuts the torn record and appends after the intact ones.
#[test]
fn a_journal_torn_after_marker_text_boots_and_replays() {
    let (run_dir, _) = checkpointed_run_dir("journal-marker", 3);
    let journal_path = run_dir.join("requests.journal");
    let serve = |text: &str| {
        let config = ServeConfig {
            journal: Some(journal_path.clone()),
            ..config_on_free_port()
        };
        let handle = Server::start_from_run_dir(&run_dir, config).expect("server boots");
        let mut client = HttpClient::connect(handle.local_addr()).expect("connect");
        let resp = client
            .post_json("/v1/score", &score_body(&[text]))
            .expect("request");
        assert_eq!(resp.status, 200, "{}", resp.body);
        let scored = parse_scored(&resp.body);
        assert_eq!(handle.join().panicked_threads, 0);
        scored
    };
    let texts = ["report him", "see #fnv64: here", "report him again"];
    let first = serve(texts[0]);
    let intact = std::fs::metadata(&journal_path).expect("journal").len();
    serve(texts[1]);
    let bytes = std::fs::read(&journal_path).expect("journal");
    let torn_text = b"#fnv64: here";
    let at = bytes
        .windows(torn_text.len())
        .rposition(|w| w == torn_text)
        .expect("the record holds the text");
    let mut log = AppendLog::open(&journal_path).expect("journal opens");
    log.cut_to((at + torn_text.len()) as u64).expect("tear");
    drop(log);
    let (records, damage) = read_journal(&journal_path).expect("replay reads a torn journal");
    assert_eq!((records.len(), damage), (1, Some(intact)));

    let third = serve(texts[2]);
    let (records, damage) = read_journal(&journal_path).expect("journal reads back");
    assert_eq!(damage, None);
    let (classifier, _) = load_latest_classifier_with_hash(&run_dir).expect("load model");
    let replayed: Vec<(Vec<String>, Vec<u32>)> = records
        .iter()
        .map(|record| {
            let refs: Vec<&str> = record.texts.iter().map(String::as_str).collect();
            let bits = ScoringEngine::score_texts(&classifier, &refs, 1)
                .expect("replay scoring")
                .iter()
                .map(|s| s.to_bits())
                .collect();
            assert_eq!(bits, record.bits, "replay of seq {}", record.seq);
            (record.texts.clone(), bits)
        })
        .collect();
    assert_eq!(
        replayed,
        [
            (vec![texts[0].to_string()], first.bits),
            (vec![texts[2].to_string()], third.bits)
        ]
    );
    std::fs::remove_dir_all(&run_dir).ok();
}

#[test]
fn slow_loris_connection_is_cut_without_starving_real_clients() {
    let corpus = generate(&CorpusConfig::tiny(72));
    let labeled: Vec<(&str, bool)> = corpus
        .documents
        .iter()
        .take(400)
        .map(|d| (d.text.as_str(), d.truth.is_cth))
        .collect();
    let classifier = incite_ml::TextClassifier::train(
        labeled,
        incite_ml::FeaturizerConfig::default(),
        incite_ml::TrainConfig::default(),
    );
    let config = ServeConfig {
        io_window: Duration::from_millis(300),
        ..config_on_free_port()
    };
    let handle = Server::start(classifier, config).expect("server starts");
    let addr = handle.local_addr();

    // The attacker: opens a connection, sends half a request line, stalls.
    let mut loris = TcpStream::connect(addr).expect("loris connect");
    loris
        .write_all(b"POST /v1/sc")
        .expect("partial request line");

    // A well-behaved client is served normally while the loris dangles.
    let mut client = HttpClient::connect(addr).expect("client connect");
    let resp = client
        .post_json("/v1/score", &score_body(&["report him"]))
        .expect("request");
    assert_eq!(resp.status, 200, "{}", resp.body);

    // The loris connection is closed by the server once the io window
    // expires — observed as EOF (or a reset) on the attacker's socket,
    // well before the 10s default window.
    loris
        .set_read_timeout(Some(Duration::from_secs(8)))
        .expect("read timeout");
    let started = Instant::now();
    let mut sink = [0u8; 64];
    let outcome = loris.read(&mut sink);
    let elapsed = started.elapsed();
    match outcome {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("loris got {n} response bytes for half a request line"),
    }
    assert!(
        elapsed < Duration::from_secs(6),
        "loris held its handler thread for {elapsed:?}"
    );

    let report = handle.join();
    assert_eq!(report.panicked_threads, 0);
    assert_eq!(
        report.stuck_connections, 0,
        "loris connection leaked into the drain"
    );
}
