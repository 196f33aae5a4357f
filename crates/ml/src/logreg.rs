//! L2-regularized logistic regression with AdaGrad SGD.
//!
//! Plays the role of distilBERT's fine-tuned classification head: a scored
//! binary classifier whose probability output drives the active-learning
//! decile sampling (§5.3) and threshold selection (§5.5).

use crate::data::Dataset;
use crate::sparse::{dot, SparseVec};
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Training hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Passes over the training data.
    pub epochs: usize,
    /// Base learning rate (per-coordinate scaled by AdaGrad).
    pub learning_rate: f32,
    /// L2 regularization strength.
    pub l2: f32,
    /// Weight applied to positive-class gradients, compensating the heavy
    /// class imbalance of the harassment data (Table 2 is ~1:20).
    pub positive_weight: f32,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 12,
            learning_rate: 0.3,
            l2: 1e-6,
            positive_weight: 2.0,
            seed: 0xda7a,
        }
    }
}

/// A trained logistic-regression model.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    weights: Vec<f32>,
    bias: f32,
}

fn sigmoid(z: f32) -> f32 {
    if z >= 0.0 {
        let e = (-z).exp();
        1.0 / (1.0 + e)
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

impl LogisticRegression {
    /// A model of `weights` and `bias` as a model file holds them.
    pub(crate) fn from_weights(weights: Vec<f32>, bias: f32) -> Self {
        LogisticRegression { weights, bias }
    }

    /// Trains on a dataset whose feature indices live in `[0, dimensions)`.
    pub fn train(data: &Dataset, dimensions: usize, config: TrainConfig) -> Self {
        let mut weights = vec![0.0f32; dimensions];
        let mut bias = 0.0f32;
        let mut grad_sq = vec![1e-8f32; dimensions];
        let mut bias_grad_sq = 1e-8f32;
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);

        for _ in 0..config.epochs {
            order.shuffle(&mut rng);
            for &idx in &order {
                let ex = &data.examples[idx];
                let z = dot(&ex.features, &weights) + bias;
                let p = sigmoid(z);
                let y = if ex.label { 1.0 } else { 0.0 };
                let class_weight = if ex.label {
                    config.positive_weight
                } else {
                    1.0
                };
                let err = (p - y) * class_weight;
                for &(i, v) in &ex.features {
                    let g = err * v + config.l2 * weights[i as usize];
                    grad_sq[i as usize] += g * g;
                    weights[i as usize] -= config.learning_rate * g / grad_sq[i as usize].sqrt();
                }
                let g = err;
                bias_grad_sq += g * g;
                bias -= config.learning_rate * g / bias_grad_sq.sqrt();
            }
        }
        LogisticRegression { weights, bias }
    }

    /// Positive-class probability.
    pub fn predict_proba(&self, features: &SparseVec) -> f32 {
        sigmoid(dot(features, &self.weights) + self.bias)
    }

    /// Positive-class probability for one CSR row (parallel `indices` /
    /// `values` slices). Accumulates in exactly the order [`dot`] does, so
    /// the result is bit-identical to
    /// `predict_proba(&zip(indices, values).collect())`.
    pub fn predict_proba_row(&self, indices: &[u32], values: &[f32]) -> f32 {
        let mut sum = 0.0;
        for (&i, &v) in indices.iter().zip(values) {
            if let Some(w) = self.weights.get(i as usize) {
                sum += v * w;
            }
        }
        self.proba_from_margin(sum)
    }

    /// Finishes a dot product into a probability: `sigmoid(margin + bias)`.
    ///
    /// Public so external spmv kernels (the tiled scorer in
    /// `batch::FeatureMatrix`) can accumulate margins themselves and still
    /// produce bit-identical probabilities to [`Self::predict_proba_row`].
    #[inline]
    pub fn proba_from_margin(&self, margin: f32) -> f32 {
        sigmoid(margin + self.bias)
    }

    /// The fitted weight vector.
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// The fitted intercept.
    pub fn bias(&self) -> f32 {
        self.bias
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Linearly separable toy data: positives fire feature 0, negatives
    /// feature 1, with shared noise features.
    fn separable(n: usize) -> Dataset {
        let mut d = Dataset::new();
        for i in 0..n {
            let noise = (i % 7) as u32 + 2;
            d.push(vec![(0, 1.0), (noise, 0.5)], true);
            d.push(vec![(1, 1.0), (noise, 0.5)], false);
        }
        d
    }

    #[test]
    fn learns_separable_data() {
        let data = separable(100);
        let model = LogisticRegression::train(&data, 16, TrainConfig::default());
        assert!(model.predict_proba(&vec![(0, 1.0)]) > 0.9);
        assert!(model.predict_proba(&vec![(1, 1.0)]) < 0.1);
    }

    #[test]
    fn probabilities_in_unit_interval() {
        let data = separable(20);
        let model = LogisticRegression::train(&data, 16, TrainConfig::default());
        for f in [vec![(0, 100.0)], vec![(1, 100.0)], vec![], vec![(5, -3.0)]] {
            let p = model.predict_proba(&f);
            assert!((0.0..=1.0).contains(&p), "p = {p}");
        }
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert!((sigmoid(100.0) - 1.0).abs() < 1e-6);
        assert!(sigmoid(-100.0) < 1e-6);
        assert_eq!(sigmoid(0.0), 0.5);
    }

    #[test]
    fn training_is_deterministic() {
        let data = separable(50);
        let m1 = LogisticRegression::train(&data, 16, TrainConfig::default());
        let m2 = LogisticRegression::train(&data, 16, TrainConfig::default());
        let probe = vec![(0, 1.0), (3, 0.5)];
        assert_eq!(m1.predict_proba(&probe), m2.predict_proba(&probe));
    }

    #[test]
    fn positive_weight_shifts_recall() {
        // Imbalanced data: few positives. Higher positive_weight should give
        // the rare class a higher score on its signature feature.
        let mut data = Dataset::new();
        for i in 0..200 {
            data.push(vec![(1, 1.0), ((i % 5 + 2) as u32, 1.0)], false);
        }
        for _ in 0..10 {
            data.push(vec![(0, 1.0)], true);
        }
        let low = LogisticRegression::train(
            &data,
            16,
            TrainConfig {
                positive_weight: 1.0,
                ..Default::default()
            },
        );
        let high = LogisticRegression::train(
            &data,
            16,
            TrainConfig {
                positive_weight: 8.0,
                ..Default::default()
            },
        );
        let probe = vec![(0, 1.0)];
        assert!(high.predict_proba(&probe) > low.predict_proba(&probe));
    }

    #[test]
    fn row_prediction_matches_sparse_prediction() {
        let data = separable(40);
        let model = LogisticRegression::train(&data, 16, TrainConfig::default());
        let sparse: SparseVec = vec![(0, 1.0), (3, 0.5), (100, 2.0)];
        let indices: Vec<u32> = sparse.iter().map(|(i, _)| *i).collect();
        let values: Vec<f32> = sparse.iter().map(|(_, v)| *v).collect();
        assert_eq!(
            model.predict_proba(&sparse),
            model.predict_proba_row(&indices, &values)
        );
    }

    #[test]
    fn empty_model_predicts_near_prior() {
        let mut data = Dataset::new();
        for _ in 0..50 {
            data.push(vec![(2, 1.0)], true);
            data.push(vec![(2, 1.0)], false);
        }
        let model = LogisticRegression::train(&data, 8, TrainConfig::default());
        // Feature 2 carries no signal; the probability should hover near the
        // (weighted) prior, away from the extremes.
        let p = model.predict_proba(&vec![(2, 1.0)]);
        assert!(p > 0.2 && p < 0.9, "p = {p}");
    }
}
