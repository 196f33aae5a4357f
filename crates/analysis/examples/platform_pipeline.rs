//! End-to-end platform moderation pipeline: detect incitements, classify
//! *which* attack each one incites (§9.2 extension), check for exposed PII,
//! and emit a redacted action report — the full loop a trust-and-safety
//! system would run on top of this library.
//!
//! ```text
//! cargo run --release --example platform_pipeline
//! ```

use incite_core::attack_classifier::{default_featurizer, AttackTypeClassifier};
use incite_core::checkpoint::encode_model;
use incite_corpus::{generate, CorpusConfig};
use incite_ml::{FeatureMode, FeaturizerConfig, TextClassifier, TrainConfig};
use incite_pii::{redact, PiiExtractor};
use incite_taxonomy::{AttackType, LabelSet, Platform};

fn main() {
    let corpus = generate(&CorpusConfig::small(0xfeed));

    // ---- Stage 1: train the incitement detector on labeled history ------
    let history: Vec<(&str, bool)> = corpus
        .by_platform(Platform::Telegram)
        .chain(corpus.by_platform(Platform::Gab))
        .map(|d| (d.text.as_str(), d.truth.is_cth))
        .collect();
    println!(
        "Stage 1: training detector on {} labeled messages",
        history.len()
    );
    let detector = TextClassifier::train(
        history,
        FeaturizerConfig {
            max_len: 128,
            mode: FeatureMode::Subword,
            ..Default::default()
        },
        TrainConfig::default(),
    );
    // The §3 open-sourcing commitment: persist the model (no training text).
    let artifact = encode_model(&detector);
    println!(
        "         model artifact: {} KiB of weights+vocab, zero training text",
        artifact.len() / 1024
    );

    // ---- Stage 2: train the per-attack-type classifier ------------------
    let labeled_cth: Vec<(String, LabelSet)> = corpus
        .documents
        .iter()
        .filter(|d| d.truth.is_cth && d.platform != Platform::Blogs)
        .map(|d| (d.text.clone(), d.truth.labels))
        .collect();
    println!(
        "Stage 2: training {}-type attack classifier on {} incitements",
        10,
        labeled_cth.len()
    );
    let typer =
        AttackTypeClassifier::train(&labeled_cth, default_featurizer(), TrainConfig::default());
    println!(
        "         heads trained for {} attack types ({} skipped for sparse data)",
        typer.covered_types().len(),
        typer.skipped.len()
    );

    // ---- Stage 3: run the incoming stream through the full loop ---------
    let extractor = PiiExtractor::new();
    let stream: Vec<&incite_corpus::Document> = corpus.by_platform(Platform::Discord).collect();
    println!("\nStage 3: moderating {} incoming messages\n", stream.len());

    let mut flagged = 0;
    let mut with_pii = 0;
    let mut examples_shown = 0;
    for doc in &stream {
        let score = detector.score(&doc.text);
        if score <= 0.5 {
            continue;
        }
        flagged += 1;
        let attacks = typer.predict_labels(&doc.text);
        let (redacted, spans) = redact(&extractor, &doc.text);
        if !spans.is_empty() {
            with_pii += 1;
        }
        if examples_shown < 4 {
            examples_shown += 1;
            let attack_names: Vec<String> = attacks.iter().map(|a| a.to_string()).collect();
            let action = if attacks.contains(&AttackType::Reporting) {
                "harden reporting-abuse rate limits; review mass-report queue"
            } else if attacks.contains(&AttackType::Overloading) {
                "enable raid protection on the named target"
            } else if attacks.contains(&AttackType::ContentLeakage) {
                "remove + notify target (PII exposure)"
            } else {
                "standard review queue"
            };
            println!("⚑ score {score:.2} | attacks: {}", attack_names.join(", "));
            println!("  redacted : {}", redacted.lines().next().unwrap_or(""));
            println!("  action   : {action}\n");
        }
    }
    let truth_positives = stream.iter().filter(|d| d.truth.is_cth).count();
    println!("summary: {flagged} flagged ({} truly incitements in stream), {with_pii} carried extractable PII",
        truth_positives);
}
