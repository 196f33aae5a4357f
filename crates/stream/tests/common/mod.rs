//! The fixture the stream integration tests share: the tiny corpus, its
//! simulated amplification stream and a quick-trained classifier.

use incite_corpus::{generate, CorpusConfig};
use incite_ml::{FeaturizerConfig, TextClassifier, TrainConfig};
use incite_stream::{simulate, EventStream, RankerConfig, SimConfig, WatchConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// A per-test state directory under the system temp dir, emptied first.
pub fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("incite-stream-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

pub struct Fixture {
    pub stream: EventStream,
    pub texts: BTreeMap<u64, String>,
    pub classifier: TextClassifier,
}

impl Fixture {
    pub fn new() -> Self {
        let corpus = generate(&CorpusConfig::tiny(404));
        let stream = simulate(&corpus, &SimConfig::default());
        let texts: BTreeMap<u64, String> = corpus
            .documents
            .iter()
            .map(|d| (d.id.0, d.text.clone()))
            .collect();
        let labeled: Vec<(String, bool)> = corpus
            .documents
            .iter()
            .take(800)
            .map(|d| (d.text.clone(), d.truth.is_cth))
            .collect();
        let refs: Vec<(&str, bool)> = labeled.iter().map(|(t, y)| (t.as_str(), *y)).collect();
        let classifier = TextClassifier::train(
            refs.iter().copied(),
            FeaturizerConfig::default(),
            TrainConfig {
                epochs: 3,
                ..TrainConfig::default()
            },
        );
        Fixture {
            stream,
            texts,
            classifier,
        }
    }

    pub fn doc_texts(&self) -> BTreeMap<u64, &str> {
        self.texts.iter().map(|(id, t)| (*id, t.as_str())).collect()
    }

    /// A watch over the whole stream without persistence.
    pub fn config(&self, threads: usize, epoch_len: usize) -> WatchConfig {
        WatchConfig {
            ranker: RankerConfig {
                threads,
                epoch_len,
                ..RankerConfig::default()
            },
            ..WatchConfig::default()
        }
    }
}
