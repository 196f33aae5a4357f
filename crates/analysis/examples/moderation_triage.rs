//! Moderation-triage scenario: a platform's trust-and-safety team trains
//! the incitement classifier on labeled history and uses it to triage an
//! incoming message stream — the deployment the paper's §9.2 recommends to
//! "online platforms".
//!
//! Demonstrates: training from labeled text, batch scoring, queue ordering,
//! precision@k, and how the §5.5 threshold trade-off plays out for a fixed
//! reviewer budget.
//!
//! ```text
//! cargo run --release --example moderation_triage
//! ```

use incite_corpus::{generate, CorpusConfig};
use incite_ml::{FeatureMode, FeaturizerConfig, TextClassifier, TrainConfig};
use incite_taxonomy::Platform;

fn main() {
    // Yesterday's labeled moderation decisions = training data.
    let corpus = generate(&CorpusConfig::small(99));
    let history: Vec<(&str, bool)> = corpus
        .by_platform(Platform::Telegram)
        .map(|d| (d.text.as_str(), d.truth.is_cth))
        .collect();
    let n_pos = history.iter().filter(|(_, l)| *l).count();
    println!(
        "Training on {} labeled chat messages ({} incitements) ...",
        history.len(),
        n_pos
    );
    let clf = TextClassifier::train(
        history.clone(),
        FeaturizerConfig {
            max_len: 128, // the Table 3 CTH hyperparameter
            mode: FeatureMode::Subword,
            ..Default::default()
        },
        TrainConfig::default(),
    );

    // Today's stream = a different platform slice (cross-channel drift).
    let stream: Vec<&incite_corpus::Document> = corpus.by_platform(Platform::Discord).collect();
    println!("Scoring {} incoming messages ...\n", stream.len());
    let mut scored: Vec<(f32, &incite_corpus::Document)> =
        stream.iter().map(|d| (clf.score(&d.text), *d)).collect();
    scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());

    // Precision at several queue depths.
    println!("Review queue quality (messages sorted by score):");
    for k in [10usize, 25, 50, 100] {
        let k = k.min(scored.len());
        let hits = scored[..k].iter().filter(|(_, d)| d.truth.is_cth).count();
        println!(
            "  top {k:>4}: {hits:>3} true incitements  (precision@{k} = {:.0}%)",
            100.0 * hits as f64 / k as f64
        );
    }

    // Reviewer-budget view of the threshold trade-off (§5.5).
    println!("\nThreshold trade-off for a fixed reviewer budget:");
    let total_true = stream.iter().filter(|d| d.truth.is_cth).count().max(1);
    for t in [0.5f32, 0.7, 0.9] {
        let flagged: Vec<_> = scored.iter().filter(|(s, _)| *s > t).collect();
        let tp = flagged.iter().filter(|(_, d)| d.truth.is_cth).count();
        println!(
            "  t={t}: {:>4} flagged, precision {:>5.1}%, recall {:>5.1}%",
            flagged.len(),
            100.0 * tp as f64 / flagged.len().max(1) as f64,
            100.0 * tp as f64 / total_true as f64,
        );
    }
    println!("\n(The paper raises t until expert annotation is worthwhile, then");
    println!(" lowers it again while precision holds — see §5.5 / Table 4.)");
}
