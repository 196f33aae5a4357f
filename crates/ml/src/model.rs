//! The end-to-end text classifier: featurizer + linear model.
//!
//! This is the unit the filtering pipeline trains, retrains during active
//! learning, and applies to the full corpus — the role the fine-tuned
//! distilBERT plays in Figure 1.

use crate::batch::FeatureCache;
use crate::data::Dataset;
use crate::featurize::{Featurizer, FeaturizerConfig, SPAN_CAP};
use crate::logreg::{LogisticRegression, TrainConfig};
use incite_stats::classify::{auc_roc, BinaryConfusion, MultiMetrics};
use incite_textkit::WordPieceVocab;
use std::fmt;

/// A text-in, probability-out binary classifier.
///
/// ```
/// use incite_ml::{FeatureMode, FeaturizerConfig, TextClassifier, TrainConfig};
///
/// let labeled = vec![
///     ("we need to mass report his account", true),
///     ("everyone flag her videos now", true),
///     ("lovely weather for a picnic", false),
///     ("the new patch notes look good", false),
/// ];
/// let clf = TextClassifier::train(
///     labeled,
///     FeaturizerConfig { mode: FeatureMode::Word, hash_bits: 12, ..Default::default() },
///     TrainConfig::default(),
/// );
/// assert!(clf.score("report his account to the platform") > clf.score("picnic weather"));
/// ```
/// A text-in, probability-out binary classifier.
#[derive(Debug, Clone)]
pub struct TextClassifier {
    featurizer: Featurizer,
    model: LogisticRegression,
}

impl TextClassifier {
    /// Trains from labeled raw documents. The WordPiece vocabulary (in
    /// subword mode) is fitted on the training texts themselves, mirroring
    /// the paper's pre-training-on-corpus step.
    pub fn train<'a, I>(
        labeled: I,
        featurizer_config: FeaturizerConfig,
        train_config: TrainConfig,
    ) -> Self
    where
        I: IntoIterator<Item = (&'a str, bool)> + Clone,
    {
        let featurizer = Featurizer::fit(
            featurizer_config,
            labeled.clone().into_iter().map(|(text, _)| text),
        );
        let mut data = Dataset::new();
        for (text, label) in labeled {
            data.push(featurizer.features(text), label);
        }
        let model = LogisticRegression::train(&data, featurizer.dimensions(), train_config);
        TextClassifier { featurizer, model }
    }

    /// Trains like [`Self::train`], but produces every feature vector
    /// through `cache` (keyed by the caller's ids) so that later
    /// [`Self::retrain_features`] calls on a grown training set reuse them
    /// instead of re-tokenizing. Each text is featurized exactly once for
    /// the lifetime of the cache.
    pub fn train_with_cache<'a, I>(
        labeled: I,
        featurizer_config: FeaturizerConfig,
        train_config: TrainConfig,
        cache: &mut FeatureCache,
    ) -> Self
    where
        I: IntoIterator<Item = (u64, &'a str, bool)> + Clone,
    {
        let featurizer = Featurizer::fit(
            featurizer_config,
            labeled.clone().into_iter().map(|(_, text, _)| text),
        );
        let data = cache.dataset(&featurizer, labeled);
        let model = LogisticRegression::train(&data, featurizer.dimensions(), train_config);
        TextClassifier { featurizer, model }
    }

    /// Retrains the linear model on already-featurized examples while
    /// keeping the fitted featurizer — one active-learning iteration
    /// (§5.3). Callers holding a [`crate::batch::FeatureCache`] featurize
    /// each text once across arbitrarily many retrains.
    pub fn retrain_features(&mut self, data: &Dataset, train_config: TrainConfig) {
        self.model = LogisticRegression::train(data, self.featurizer.dimensions(), train_config);
    }

    /// The classifier whose persisted parts are these: the featurizer
    /// configuration, the WordPiece pieces in id order (empty unless the
    /// mode is `Subword`), the weights and the bias. A model file holds
    /// exactly these (§3: weights and vocabulary, no training text); the
    /// hasher, the vocabulary's indexes and the piece-gram table are
    /// rebuilt here. Parts that no trained classifier has are refused:
    /// `hash_bits` outside `1..=30`, `max_spans` above [`SPAN_CAP`], other
    /// than `2^hash_bits` weights, and pieces missing in `Subword` mode,
    /// present in another mode, or not a list a vocabulary writes (`[UNK]`
    /// first, no piece twice).
    pub fn from_parts(
        config: FeaturizerConfig,
        pieces: Vec<String>,
        weights: Vec<f32>,
        bias: f32,
    ) -> Result<Self, PartsError> {
        if !(1..=30).contains(&config.hash_bits) {
            return Err(PartsError::HashBits);
        }
        if config.max_spans > SPAN_CAP {
            return Err(PartsError::MaxSpans);
        }
        if weights.len() != 1usize << config.hash_bits {
            return Err(PartsError::WeightCount);
        }
        let vocab = if pieces.is_empty() {
            None
        } else {
            Some(WordPieceVocab::from_list(pieces).ok_or(PartsError::Pieces)?)
        };
        let featurizer = Featurizer::with_vocab(config, vocab).ok_or(PartsError::Pieces)?;
        Ok(TextClassifier {
            featurizer,
            model: LogisticRegression::from_weights(weights, bias),
        })
    }

    /// Positive-class probability for a document.
    pub fn score(&self, text: &str) -> f32 {
        self.model.predict_proba(&self.featurizer.features(text))
    }

    /// The fitted featurizer.
    pub fn featurizer(&self) -> &Featurizer {
        &self.featurizer
    }

    /// The trained linear model.
    pub fn model(&self) -> &LogisticRegression {
        &self.model
    }

    /// Evaluates on held-out labeled documents at a decision threshold,
    /// producing the Table 3 metric block plus AUC-ROC. Each text is
    /// featurized exactly once (batch path).
    pub fn evaluate<'a, I>(&self, labeled: I, threshold: f32) -> EvalReport
    where
        I: IntoIterator<Item = (&'a str, bool)>,
    {
        let mut data = Dataset::new();
        for (text, label) in labeled {
            data.push(self.featurizer.features(text), label);
        }
        self.evaluate_features(&data, threshold)
    }

    /// Evaluates already-featurized examples — the cached counterpart of
    /// [`Self::evaluate`], used by the pipeline to reuse training-set
    /// features across the eval/final retrains.
    pub fn evaluate_features(&self, data: &Dataset, threshold: f32) -> EvalReport {
        let mut confusion = BinaryConfusion::default();
        let mut scores = Vec::new();
        let mut labels = Vec::new();
        for example in &data.examples {
            let score = self.model.predict_proba(&example.features);
            confusion.record(example.label, score > threshold);
            scores.push(score as f64);
            labels.push(example.label);
        }
        EvalReport {
            metrics: confusion.table_metrics(),
            confusion,
            auc: auc_roc(&scores, &labels),
        }
    }
}

/// Why [`TextClassifier::from_parts`] refused its parts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartsError {
    /// `hash_bits` is outside `1..=30`.
    HashBits,
    /// `max_spans` is above [`SPAN_CAP`].
    MaxSpans,
    /// The weight vector's length is not `2^hash_bits`.
    WeightCount,
    /// The pieces do not fit the feature mode, or are not a vocabulary's
    /// list.
    Pieces,
}

impl PartsError {
    /// A static description, fit for a decoder's error at an offset.
    pub fn describe(self) -> &'static str {
        match self {
            PartsError::HashBits => "hash_bits is outside 1..=30",
            PartsError::MaxSpans => "max_spans exceeds the span cap of 64",
            PartsError::WeightCount => "weight count is not 2^hash_bits",
            PartsError::Pieces => "pieces do not fit the feature mode",
        }
    }
}

impl fmt::Display for PartsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.describe())
    }
}

impl std::error::Error for PartsError {}

/// Evaluation output: confusion counts, Table 3 metrics, AUC.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EvalReport {
    pub confusion: BinaryConfusion,
    pub metrics: MultiMetrics,
    /// `None` when the evaluation set is single-class.
    pub auc: Option<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::featurize::FeatureMode;

    fn labeled_corpus() -> Vec<(&'static str, bool)> {
        vec![
            ("we need to mass report his account get him banned", true),
            ("lets all flag her videos until they remove them", true),
            ("everyone report this profile to the platform now", true),
            ("we should raid his stream and spam the chat", true),
            ("post her address so people can show up", true),
            ("dox him and spread it everywhere", true),
            ("report the bug tracker issue to the maintainers", false),
            ("i love this recipe for banana bread", false),
            ("the weather has been great this week", false),
            ("new episode drops tonight cant wait", false),
            ("can someone help me fix my printer", false),
            ("great game last night what a comeback", false),
        ]
    }

    fn quick_config() -> FeaturizerConfig {
        FeaturizerConfig {
            mode: FeatureMode::Word,
            hash_bits: 14,
            max_len: 128,
            ..Default::default()
        }
    }

    #[test]
    fn learns_to_separate_cth_from_benign() {
        let clf = TextClassifier::train(labeled_corpus(), quick_config(), TrainConfig::default());
        assert!(clf.score("we need to report him and get his account banned") > 0.5);
        assert!(clf.score("what a lovely sunset today") < 0.5);
    }

    #[test]
    fn scores_are_probabilities() {
        let clf = TextClassifier::train(labeled_corpus(), quick_config(), TrainConfig::default());
        for (text, _) in labeled_corpus() {
            let s = clf.score(text);
            assert!((0.0..=1.0).contains(&s));
        }
    }

    #[test]
    fn evaluate_reports_consistent_counts() {
        let clf = TextClassifier::train(labeled_corpus(), quick_config(), TrainConfig::default());
        let report = clf.evaluate(labeled_corpus(), 0.5);
        assert_eq!(report.confusion.total(), 12);
        assert!(report.auc.unwrap() > 0.8);
        assert!(report.metrics.positive.f1 > 0.6);
    }

    #[test]
    fn retrain_keeps_featurizer_but_updates_model() {
        let mut clf =
            TextClassifier::train(labeled_corpus(), quick_config(), TrainConfig::default());
        let before = clf.score("report him to the platform");
        // Retrain with flipped labels; the score must move.
        let mut flipped = Dataset::new();
        for (text, label) in labeled_corpus() {
            flipped.push(clf.featurizer().features(text), !label);
        }
        clf.retrain_features(&flipped, TrainConfig::default());
        let after = clf.score("report him to the platform");
        assert!(after < before);
    }

    #[test]
    fn cached_feature_paths_match_text_paths() {
        let clf = TextClassifier::train(labeled_corpus(), quick_config(), TrainConfig::default());
        let mut data = Dataset::new();
        for (text, label) in labeled_corpus() {
            data.push(clf.featurizer().features(text), label);
        }
        // evaluate == evaluate_features on the same examples.
        let by_text = clf.evaluate(labeled_corpus(), 0.5);
        let by_features = clf.evaluate_features(&data, 0.5);
        assert_eq!(by_text.confusion, by_features.confusion);
        assert_eq!(by_text.auc, by_features.auc);
    }

    #[test]
    fn fitting_clamps_max_spans_to_the_cap_that_from_parts_enforces() {
        use incite_textkit::SpanStrategy;

        let config = FeaturizerConfig {
            max_spans: SPAN_CAP + 10,
            strategy: SpanStrategy::RandomLength { min_len: 8 },
            ..quick_config()
        };
        let clf = TextClassifier::train(labeled_corpus(), config, TrainConfig::default());
        let fitted = clf.featurizer().config().clone();
        assert_eq!(fitted.max_spans, SPAN_CAP);
        let weights = clf.model().weights().to_vec();
        let bias = clf.model().bias();
        let back = TextClassifier::from_parts(fitted.clone(), Vec::new(), weights.clone(), bias)
            .expect("a fitted model round-trips");
        let long = "report him to the platform ".repeat(40);
        assert_eq!(back.score(&long).to_bits(), clf.score(&long).to_bits());

        let over = FeaturizerConfig {
            max_spans: SPAN_CAP + 1,
            ..fitted
        };
        let refused = TextClassifier::from_parts(over, Vec::new(), weights, bias).map(|_| ());
        assert_eq!(refused, Err(PartsError::MaxSpans));
        assert!(PartsError::MaxSpans
            .describe()
            .ends_with(&format!(" {SPAN_CAP}")));
    }
}
