//! The active-learning loop (§5.3).
//!
//! "This cyclical process involved training fine-tuned classifiers with a
//! subset of very precise data, using these fine-tuned classifiers to
//! predict the entire data set, and then sampling from the fully classified
//! data set across the distribution of the predicted scores. … We segmented
//! the predicted data into 10 ranges between 0.0 and 1.0 and sampled evenly
//! from each range."

use crate::failpoint::{FailpointRegistry, InjectedFault};
use crate::task::Task;
use incite_annotate::{annotate_batch, Annotator};
use incite_corpus::{DocId, Document};
use incite_ml::{FeatureCache, TextClassifier};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use std::collections::BTreeSet;

/// Statistics from one active-learning round.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RoundStats {
    /// Documents sampled and crowd-annotated this round.
    pub sampled: usize,
    /// Crowd disagreement rate on the round's batch.
    pub disagreement_rate: f64,
    /// Cohen's kappa between the two primary crowd annotators.
    pub kappa: Option<f64>,
    /// Positive labels added to the training set.
    pub positives_added: usize,
}

/// Samples `per_decile` positions into `scores` from each of the ten
/// score deciles, skipping already-labeled documents.
fn decile_sample(
    scores: &[(DocId, f32)],
    per_decile: usize,
    already_labeled: &BTreeSet<DocId>,
    rng: &mut StdRng,
) -> Vec<usize> {
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); 10];
    for (pos, &(id, score)) in scores.iter().enumerate() {
        if already_labeled.contains(&id) {
            continue;
        }
        let bucket = ((score.clamp(0.0, 1.0) * 10.0) as usize).min(9);
        buckets[bucket].push(pos);
    }
    let mut sampled = Vec::new();
    for bucket in &mut buckets {
        bucket.shuffle(rng);
        sampled.extend(bucket.iter().take(per_decile).copied());
    }
    sampled
}

/// Runs one active-learning round: score → decile-sample → crowd-annotate →
/// extend training set → retrain. `scores[i]` is the score of `docs[i]`,
/// as a scoring-engine pass over `docs` returns them.
///
/// Retraining goes through `cache`: only the documents added this round
/// are featurized; everything already in the round set is reused.
///
/// The `mid-annotation-batch` failpoint sits between crowd annotation and
/// the training-set mutation — the worst possible crash position, with a
/// full paid batch in flight. An injected fault here discards the batch;
/// the crash-recovery sweep proves a resume replays the round identically
/// from the previous boundary.
#[allow(clippy::too_many_arguments)]
pub fn active_learning_round(
    docs: &[&Document],
    task: Task,
    classifier: &mut TextClassifier,
    cache: &mut FeatureCache,
    training: &mut Vec<(DocId, String, bool)>,
    scores: &[(DocId, f32)],
    per_decile: usize,
    crowd: (&Annotator, &Annotator, &Annotator),
    train_config: incite_ml::TrainConfig,
    failpoints: &FailpointRegistry,
    rng: &mut StdRng,
) -> Result<RoundStats, InjectedFault> {
    let labeled: BTreeSet<DocId> = training.iter().map(|(id, _, _)| *id).collect();
    let sampled_docs: Vec<&Document> = decile_sample(scores, per_decile, &labeled, rng)
        .into_iter()
        .filter_map(|pos| docs.get(pos).copied())
        .collect();

    // Crowd annotation with the two + tie-break protocol.
    let truths: Vec<bool> = sampled_docs.iter().map(|d| task.truth(d)).collect();
    let outcome = annotate_batch(&truths, crowd.0, crowd.1, crowd.2, rng);
    failpoints.check("mid-annotation-batch")?;

    let mut positives_added = 0;
    for (doc, &label) in sampled_docs.iter().zip(&outcome.labels) {
        if label {
            positives_added += 1;
        }
        training.push((doc.id, doc.text.clone(), label));
    }

    let data = cache.dataset(
        classifier.featurizer(),
        training
            .iter()
            .map(|(id, text, label)| (id.0, text.as_str(), *label)),
    );
    classifier.retrain_features(&data, train_config);

    Ok(RoundStats {
        sampled: sampled_docs.len(),
        disagreement_rate: outcome.disagreement_rate(),
        kappa: outcome.kappa,
        positives_added,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn scores(n: usize) -> Vec<(DocId, f32)> {
        (0..n)
            .map(|i| (DocId(i as u64), i as f32 / n as f32))
            .collect()
    }

    #[test]
    fn decile_sampling_covers_all_ranges() {
        let mut rng = StdRng::seed_from_u64(4);
        let s = scores(1000);
        let sampled = decile_sample(&s, 5, &BTreeSet::new(), &mut rng);
        assert_eq!(sampled.len(), 50);
        // Every decile contributes: positions 0..100 → decile 0, 900..1000 → 9.
        let mut deciles: BTreeSet<usize> = sampled.iter().map(|pos| pos / 100).collect();
        deciles.remove(&10); // score exactly 1.0 edge
        assert_eq!(deciles.len(), 10, "{deciles:?}");
    }

    #[test]
    fn decile_sampling_skips_labeled() {
        let mut rng = StdRng::seed_from_u64(4);
        let s = scores(100);
        let labeled: BTreeSet<DocId> = (0..50).map(DocId).collect();
        let sampled = decile_sample(&s, 10, &labeled, &mut rng);
        assert!(sampled.iter().all(|&pos| s[pos].0 >= DocId(50)));
    }

    #[test]
    fn sparse_deciles_yield_fewer_samples() {
        let mut rng = StdRng::seed_from_u64(4);
        // All scores near zero: only decile 0 is populated.
        let s: Vec<(DocId, f32)> = (0..100).map(|i| (DocId(i), 0.01)).collect();
        let sampled = decile_sample(&s, 5, &BTreeSet::new(), &mut rng);
        assert_eq!(sampled.len(), 5);
    }

    #[test]
    fn scores_above_one_clamp_to_top_decile() {
        let mut rng = StdRng::seed_from_u64(4);
        let s = vec![(DocId(0), 1.0), (DocId(1), 0.999)];
        let sampled = decile_sample(&s, 5, &BTreeSet::new(), &mut rng);
        assert_eq!(sampled.len(), 2);
    }
}
