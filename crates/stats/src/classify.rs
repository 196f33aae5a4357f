//! Classifier evaluation: confusion matrices, precision/recall/F1 and AUC.
//!
//! Table 3 reports per-label F1/precision/recall plus weighted and macro
//! averages; §5.4 tunes hyperparameters "for better AUC-ROC scores". Both
//! live here.

use serde::{Deserialize, Serialize};

/// Binary confusion counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BinaryConfusion {
    pub true_positive: u64,
    pub false_positive: u64,
    pub true_negative: u64,
    pub false_negative: u64,
}

/// Precision / recall / F1 for one label.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PrfScores {
    pub precision: f64,
    pub recall: f64,
    pub f1: f64,
    /// Number of true instances of the label.
    pub support: u64,
}

impl BinaryConfusion {
    /// Accumulates one prediction.
    pub fn record(&mut self, actual: bool, predicted: bool) {
        match (actual, predicted) {
            (true, true) => self.true_positive += 1,
            (false, true) => self.false_positive += 1,
            (false, false) => self.true_negative += 1,
            (true, false) => self.false_negative += 1,
        }
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.true_positive + self.false_positive + self.true_negative + self.false_negative
    }

    /// Accuracy. `NaN` when empty.
    pub fn accuracy(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            return f64::NAN;
        }
        (self.true_positive + self.true_negative) as f64 / t as f64
    }

    /// Scores for the positive label. Precision/recall are 0 when undefined.
    pub fn positive_scores(&self) -> PrfScores {
        prf(self.true_positive, self.false_positive, self.false_negative)
    }

    /// Scores for the negative label (treating "negative" as the target).
    fn negative_scores(&self) -> PrfScores {
        prf(self.true_negative, self.false_negative, self.false_positive)
    }

    /// Table 3-style metrics: positive, negative, weighted avg, macro avg.
    pub fn table_metrics(&self) -> MultiMetrics {
        let pos = self.positive_scores();
        let neg = self.negative_scores();
        let total_support = pos.support + neg.support;
        let weight = |a: f64, b: f64| {
            if total_support == 0 {
                f64::NAN
            } else {
                (a * pos.support as f64 + b * neg.support as f64) / total_support as f64
            }
        };
        MultiMetrics {
            positive: pos,
            negative: neg,
            weighted: PrfScores {
                precision: weight(pos.precision, neg.precision),
                recall: weight(pos.recall, neg.recall),
                f1: weight(pos.f1, neg.f1),
                support: pos.support + neg.support,
            },
            macro_avg: PrfScores {
                precision: (pos.precision + neg.precision) / 2.0,
                recall: (pos.recall + neg.recall) / 2.0,
                f1: (pos.f1 + neg.f1) / 2.0,
                support: pos.support + neg.support,
            },
        }
    }
}

fn prf(tp: u64, fp: u64, fn_: u64) -> PrfScores {
    let precision = if tp + fp == 0 {
        0.0
    } else {
        tp as f64 / (tp + fp) as f64
    };
    let recall = if tp + fn_ == 0 {
        0.0
    } else {
        tp as f64 / (tp + fn_) as f64
    };
    // Exact-zero guard against 0/0: both terms are nonnegative ratios, so
    // the sum is 0.0 iff both are identically zero.
    let f1 = if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    };
    PrfScores {
        precision,
        recall,
        f1,
        support: tp + fn_,
    }
}

/// The four Table 3 rows for one classifier.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MultiMetrics {
    pub positive: PrfScores,
    pub negative: PrfScores,
    pub weighted: PrfScores,
    pub macro_avg: PrfScores,
}

/// Area under the ROC curve from scores and binary labels, computed via the
/// Mann–Whitney U relation with proper tie handling (average ranks).
///
/// Returns `None` when either class is absent.
pub fn auc_roc(scores: &[f64], labels: &[bool]) -> Option<f64> {
    if scores.len() != labels.len() || scores.is_empty() {
        return None;
    }
    let n_pos = labels.iter().filter(|&&l| l).count();
    let n_neg = labels.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return None;
    }
    // Rank scores ascending with average ranks for ties.
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&i, &j| {
        scores[i]
            .partial_cmp(&scores[j])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut rank_sum_pos = 0.0;
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        // Exact ties are intended: only bit-equal scores share a rank, so
        // an epsilon would merge distinct neighbouring scores.
        #[allow(clippy::float_cmp)]
        while j + 1 < order.len() && scores[order[j + 1]] == scores[order[i]] {
            j += 1;
        }
        let avg_rank = (i + j + 2) as f64 / 2.0; // ranks are 1-based
        for &idx in &order[i..=j] {
            if labels[idx] {
                rank_sum_pos += avg_rank;
            }
        }
        i = j + 1;
    }
    let u = rank_sum_pos - (n_pos * (n_pos + 1)) as f64 / 2.0;
    Some(u / (n_pos as f64 * n_neg as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confusion_accumulates() {
        let actual = [true, true, false, false, true];
        let pred = [true, false, false, true, true];
        let mut c = BinaryConfusion::default();
        for (&a, &p) in actual.iter().zip(&pred) {
            c.record(a, p);
        }
        assert_eq!(c.true_positive, 2);
        assert_eq!(c.false_negative, 1);
        assert_eq!(c.false_positive, 1);
        assert_eq!(c.true_negative, 1);
        assert_eq!(c.total(), 5);
        assert!((c.accuracy() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn prf_basic() {
        let c = BinaryConfusion {
            true_positive: 8,
            false_positive: 2,
            false_negative: 4,
            true_negative: 86,
        };
        let s = c.positive_scores();
        assert!((s.precision - 0.8).abs() < 1e-12);
        assert!((s.recall - 8.0 / 12.0).abs() < 1e-12);
        assert_eq!(s.support, 12);
    }

    #[test]
    fn degenerate_prf_is_zero_not_nan() {
        let c = BinaryConfusion::default();
        let s = c.positive_scores();
        assert_eq!(s.precision, 0.0);
        assert_eq!(s.recall, 0.0);
        assert_eq!(s.f1, 0.0);
    }

    #[test]
    fn weighted_average_leans_to_majority_class() {
        // Strong negative class, weak positive class — Table 3's shape.
        let c = BinaryConfusion {
            true_positive: 60,
            false_positive: 40,
            false_negative: 40,
            true_negative: 9860,
        };
        let m = c.table_metrics();
        assert!(m.weighted.f1 > m.macro_avg.f1);
        assert!(m.negative.f1 > 0.99);
        assert!((m.positive.f1 - 0.6).abs() < 1e-9);
    }

    #[test]
    fn perfect_classifier_auc_is_one() {
        let scores = [0.9, 0.8, 0.2, 0.1];
        let labels = [true, true, false, false];
        assert!((auc_roc(&scores, &labels).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn random_scores_auc_is_half() {
        // Deterministic interleave: alternating labels at identical spacing.
        let scores: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let labels: Vec<bool> = (0..100).map(|i| i % 2 == 0).collect();
        let auc = auc_roc(&scores, &labels).unwrap();
        assert!((auc - 0.5).abs() < 0.02, "auc = {auc}");
    }

    #[test]
    fn auc_handles_ties() {
        let scores = [0.5, 0.5, 0.5, 0.5];
        let labels = [true, false, true, false];
        assert!((auc_roc(&scores, &labels).unwrap() - 0.5).abs() < 1e-12);
        // Ties are exact: a score one ULP above 0.5 ranks strictly higher,
        // where an epsilon comparison would tie it and report 0.5.
        let up = f64::from_bits(0.5f64.to_bits() + 1);
        let scores = [0.5, up, 0.5, up];
        let labels = [false, true, false, true];
        assert_eq!(auc_roc(&scores, &labels), Some(1.0));
    }

    #[test]
    fn auc_single_class_is_none() {
        assert!(auc_roc(&[0.1, 0.2], &[true, true]).is_none());
        assert!(auc_roc(&[], &[]).is_none());
    }

    #[test]
    fn auc_reference_value() {
        // sklearn.metrics.roc_auc_score([0,0,1,1], [0.1,0.4,0.35,0.8]) = 0.75.
        let scores = [0.1, 0.4, 0.35, 0.8];
        let labels = [false, false, true, true];
        assert!((auc_roc(&scores, &labels).unwrap() - 0.75).abs() < 1e-12);
    }
}
