//! The end-to-end text classifier: featurizer + linear model.
//!
//! This is the unit the filtering pipeline trains, retrains during active
//! learning, and applies to the full corpus — the role the fine-tuned
//! distilBERT plays in Figure 1.

use crate::batch::{FeatureCache, FeatureMatrix};
use crate::data::Dataset;
use crate::featurize::{FeaturizeScratch, Featurizer, FeaturizerConfig};
use crate::logreg::{LogisticRegression, TrainConfig};
use incite_stats::classify::{auc_roc, BinaryConfusion, MultiMetrics};

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
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
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

    /// Retrains the linear model on new labels while keeping the fitted
    /// featurizer — one active-learning iteration (§5.3).
    pub fn retrain<'a, I>(&mut self, labeled: I, train_config: TrainConfig)
    where
        I: IntoIterator<Item = (&'a str, bool)>,
    {
        let mut data = Dataset::new();
        for (text, label) in labeled {
            data.push(self.featurizer.features(text), label);
        }
        self.retrain_features(&data, train_config);
    }

    /// Retrains from already-featurized examples — the featurize-once path:
    /// callers holding a [`crate::batch::FeatureCache`] featurize each text
    /// once across arbitrarily many retrains.
    pub fn retrain_features(&mut self, data: &Dataset, train_config: TrainConfig) {
        self.model = LogisticRegression::train(data, self.featurizer.dimensions(), train_config);
    }

    /// Positive-class probability for a document.
    pub fn score(&self, text: &str) -> f32 {
        self.model.predict_proba(&self.featurizer.features(text))
    }

    /// Scores a batch through the featurize-once path: each text is
    /// featurized exactly once into a CSR [`FeatureMatrix`], then scored as
    /// sparse dot products. Bit-identical to per-text [`Self::score`].
    pub fn score_batch<'a, I: IntoIterator<Item = &'a str>>(&self, texts: I) -> Vec<f32> {
        self.features_matrix(texts).score_all(&self.model)
    }

    /// Featurizes a batch of texts (once each) into a CSR matrix whose row
    /// order matches the input order.
    pub fn features_matrix<'a, I: IntoIterator<Item = &'a str>>(&self, texts: I) -> FeatureMatrix {
        let texts = texts.into_iter();
        let mut scratch = FeaturizeScratch::for_docs(texts.size_hint().0);
        let mut matrix = FeatureMatrix::new(self.featurizer.dimensions());
        for text in texts {
            matrix.push_row(self.featurizer.features_into(text, &mut scratch));
        }
        matrix
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
        let flipped: Vec<(&str, bool)> =
            labeled_corpus().into_iter().map(|(t, l)| (t, !l)).collect();
        clf.retrain(
            flipped.iter().map(|(t, l)| (*t, *l)),
            TrainConfig::default(),
        );
        let after = clf.score("report him to the platform");
        assert!(after < before);
    }

    #[test]
    fn batch_scoring_matches_single() {
        let clf = TextClassifier::train(labeled_corpus(), quick_config(), TrainConfig::default());
        let texts = ["report him", "nice weather"];
        let batch = clf.score_batch(texts);
        assert_eq!(batch[0], clf.score("report him"));
        assert_eq!(batch[1], clf.score("nice weather"));
    }

    #[test]
    fn cached_feature_paths_match_text_paths() {
        let mut clf =
            TextClassifier::train(labeled_corpus(), quick_config(), TrainConfig::default());
        let mut data = Dataset::new();
        for (text, label) in labeled_corpus() {
            data.push(clf.featurizer().features(text), label);
        }
        // evaluate == evaluate_features on the same examples.
        let by_text = clf.evaluate(labeled_corpus(), 0.5);
        let by_features = clf.evaluate_features(&data, 0.5);
        assert_eq!(by_text.confusion, by_features.confusion);
        assert_eq!(by_text.auc, by_features.auc);
        // retrain == retrain_features from the cached features.
        let mut twin = clf.clone();
        clf.retrain(labeled_corpus(), TrainConfig::default());
        twin.retrain_features(&data, TrainConfig::default());
        for (text, _) in labeled_corpus() {
            assert_eq!(clf.score(text), twin.score(text));
        }
    }
}
