//! Multinomial naive Bayes baseline.
//!
//! The paper compares only transformer variants, but an open-source release
//! needs a cheap baseline; naive Bayes over the same hashed features is the
//! classic text-classification floor, and the classifier section of
//! `repro ablations` reports how much the discriminative model buys.

use crate::data::Dataset;
use crate::sparse::SparseVec;

/// A trained multinomial naive Bayes model over hashed features.
///
/// Feature values are treated as (possibly fractional) counts; negative
/// hashed values contribute their magnitude.
#[derive(Debug, Clone)]
pub struct NaiveBayes {
    log_prior_pos: f64,
    log_prior_neg: f64,
    log_like_pos: Vec<f64>,
    log_like_neg: Vec<f64>,
}

impl NaiveBayes {
    /// Trains with Laplace smoothing `alpha`.
    pub fn train(data: &Dataset, dimensions: usize, alpha: f64) -> Self {
        let alpha = if alpha > 0.0 { alpha } else { 1.0 };
        let mut count_pos = vec![0.0f64; dimensions];
        let mut count_neg = vec![0.0f64; dimensions];
        let mut n_pos = 0usize;
        let mut n_neg = 0usize;
        for ex in &data.examples {
            let target = if ex.label {
                n_pos += 1;
                &mut count_pos
            } else {
                n_neg += 1;
                &mut count_neg
            };
            for &(i, v) in &ex.features {
                if let Some(c) = target.get_mut(i as usize) {
                    *c += v.abs() as f64;
                }
            }
        }
        let total = (n_pos + n_neg).max(1) as f64;
        let log_prior_pos = ((n_pos.max(1)) as f64 / total).ln();
        let log_prior_neg = ((n_neg.max(1)) as f64 / total).ln();
        let sum_pos: f64 = count_pos.iter().sum::<f64>() + alpha * dimensions as f64;
        let sum_neg: f64 = count_neg.iter().sum::<f64>() + alpha * dimensions as f64;
        let log_like_pos = count_pos
            .iter()
            .map(|c| ((c + alpha) / sum_pos).ln())
            .collect();
        let log_like_neg = count_neg
            .iter()
            .map(|c| ((c + alpha) / sum_neg).ln())
            .collect();
        NaiveBayes {
            log_prior_pos,
            log_prior_neg,
            log_like_pos,
            log_like_neg,
        }
    }

    /// Positive-class posterior probability.
    pub fn predict_proba(&self, features: &SparseVec) -> f32 {
        let mut lp = self.log_prior_pos;
        let mut ln = self.log_prior_neg;
        for &(i, v) in features {
            let w = v.abs() as f64;
            if let (Some(p), Some(n)) = (
                self.log_like_pos.get(i as usize),
                self.log_like_neg.get(i as usize),
            ) {
                lp += w * p;
                ln += w * n;
            }
        }
        // Softmax over the two log-joints.
        let m = lp.max(ln);
        let ep = (lp - m).exp();
        let en = (ln - m).exp();
        (ep / (ep + en)) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let mut d = Dataset::new();
        for _ in 0..50 {
            d.push(vec![(0, 2.0), (2, 1.0)], true);
            d.push(vec![(1, 2.0), (2, 1.0)], false);
        }
        d
    }

    #[test]
    fn separates_signature_features() {
        let nb = NaiveBayes::train(&toy(), 8, 1.0);
        assert!(nb.predict_proba(&vec![(0, 1.0)]) > 0.5);
        assert!(nb.predict_proba(&vec![(1, 1.0)]) < 0.5);
        assert!(nb.predict_proba(&vec![(0, 3.0)]) > 0.5);
    }

    #[test]
    fn shared_feature_is_neutral() {
        let nb = NaiveBayes::train(&toy(), 8, 1.0);
        let p = nb.predict_proba(&vec![(2, 1.0)]);
        assert!((p - 0.5).abs() < 0.05, "p = {p}");
    }

    #[test]
    fn empty_features_fall_back_to_prior() {
        let mut d = toy();
        // Skew prior: 3:1 positive.
        for _ in 0..100 {
            d.push(vec![(0, 1.0)], true);
        }
        let nb = NaiveBayes::train(&d, 8, 1.0);
        assert!(nb.predict_proba(&vec![]) > 0.5);
    }

    #[test]
    fn probabilities_bounded() {
        let nb = NaiveBayes::train(&toy(), 8, 1.0);
        for f in [vec![(0, 100.0)], vec![(1, 100.0)], vec![(7, 1.0)]] {
            let p = nb.predict_proba(&f);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn smoothing_handles_unseen_features() {
        let nb = NaiveBayes::train(&toy(), 8, 1.0);
        // Feature 7 never appeared; prediction must stay finite and neutral-ish.
        let p = nb.predict_proba(&vec![(7, 5.0)]);
        assert!(p.is_finite());
        assert!((p - 0.5).abs() < 0.2, "p = {p}");
    }

    #[test]
    fn single_class_training_is_stable() {
        let mut d = Dataset::new();
        for _ in 0..10 {
            d.push(vec![(0, 1.0)], true);
        }
        let nb = NaiveBayes::train(&d, 4, 1.0);
        let p = nb.predict_proba(&vec![(0, 1.0)]);
        assert!(p.is_finite());
        assert!(p > 0.5);
    }
}
