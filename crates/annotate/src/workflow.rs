//! The consensus annotation protocol (§5.3).
//!
//! "At least two annotators annotated each document … When the two
//! annotators did not agree, the document was annotated by a third
//! annotator to break the tie." The batch outcome carries the §5.3
//! diagnostics: raw disagreement rate and Cohen's kappa over the first two
//! passes.

use crate::annotator::Annotator;
use incite_stats::kappa::cohen_kappa_from_labels;
use rand::rngs::StdRng;

/// The result of annotating one batch.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Consensus label per document (same order as the input).
    pub labels: Vec<bool>,
    /// Number of documents where the first two annotators disagreed.
    pub disagreements: usize,
    /// Total documents.
    pub total: usize,
    /// Cohen's kappa between the first two annotators (`None` when
    /// degenerate).
    pub kappa: Option<f64>,
}

impl BatchOutcome {
    /// Disagreement rate in `[0, 1]`.
    pub fn disagreement_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.disagreements as f64 / self.total as f64
        }
    }
}

/// Annotates a batch of documents (given their planted truths) with the
/// two-plus-tie-break protocol.
pub fn annotate_batch(
    truths: &[bool],
    first: &Annotator,
    second: &Annotator,
    tie_breaker: &Annotator,
    rng: &mut StdRng,
) -> BatchOutcome {
    let mut labels = Vec::with_capacity(truths.len());
    let mut first_votes = Vec::with_capacity(truths.len());
    let mut second_votes = Vec::with_capacity(truths.len());
    let mut disagreements = 0;
    for &truth in truths {
        let a = first.annotate(truth, rng);
        let b = second.annotate(truth, rng);
        first_votes.push(a);
        second_votes.push(b);
        if a == b {
            labels.push(a);
        } else {
            disagreements += 1;
            labels.push(tie_breaker.annotate(truth, rng));
        }
    }
    let kappa = cohen_kappa_from_labels(&first_votes, &second_votes);
    BatchOutcome {
        labels,
        disagreements,
        total: truths.len(),
        kappa,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(321)
    }

    fn truths(n: usize, every: usize) -> Vec<bool> {
        (0..n).map(|i| i % every == 0).collect()
    }

    #[test]
    fn oracles_agree_everywhere() {
        let o = Annotator::oracle("o");
        let mut r = rng();
        let t = truths(200, 5);
        let out = annotate_batch(&t, &o, &o, &o, &mut r);
        assert_eq!(out.disagreements, 0);
        assert_eq!(out.labels, t);
        assert_eq!(out.kappa, Some(1.0));
    }

    #[test]
    fn consensus_beats_single_annotator() {
        let crowd = Annotator::crowd_cth("c");
        let mut r = rng();
        let t = truths(20_000, 10);
        let out = annotate_batch(&t, &crowd, &crowd, &crowd, &mut r);
        let consensus_errors = out.labels.iter().zip(&t).filter(|(l, t)| l != t).count();
        let mut single_errors = 0;
        for &truth in &t {
            if crowd.annotate(truth, &mut r) != truth {
                single_errors += 1;
            }
        }
        assert!(
            consensus_errors < single_errors,
            "consensus {consensus_errors} vs single {single_errors}"
        );
    }

    #[test]
    fn cth_crowd_kappa_in_paper_band() {
        let a = Annotator::crowd_cth("a");
        let b = Annotator::crowd_cth("b");
        let mut r = rng();
        let t = truths(30_000, 15);
        let out = annotate_batch(&t, &a, &b, &a, &mut r);
        let kappa = out.kappa.unwrap();
        // Paper: 0.350 (fair agreement). Accept the band.
        assert!((0.2..0.5).contains(&kappa), "kappa = {kappa}");
        assert!((out.disagreement_rate() - 0.1866).abs() < 0.04);
    }

    #[test]
    fn dox_crowd_kappa_in_paper_band() {
        let a = Annotator::crowd_dox("a");
        let b = Annotator::crowd_dox("b");
        let mut r = rng();
        let t = truths(30_000, 20);
        let out = annotate_batch(&t, &a, &b, &a, &mut r);
        let kappa = out.kappa.unwrap();
        // Paper: 0.519 (moderate agreement).
        assert!((0.4..0.7).contains(&kappa), "kappa = {kappa}");
        assert!((out.disagreement_rate() - 0.0394).abs() < 0.02);
    }

    #[test]
    fn empty_batch_is_clean() {
        let o = Annotator::oracle("o");
        let mut r = rng();
        let out = annotate_batch(&[], &o, &o, &o, &mut r);
        assert_eq!(out.total, 0);
        assert_eq!(out.disagreement_rate(), 0.0);
        assert!(out.kappa.is_none());
    }
}
