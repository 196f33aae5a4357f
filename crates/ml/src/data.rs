//! Labeled datasets and resampling utilities.

use crate::sparse::SparseVec;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// One labeled example.
#[derive(Debug, Clone)]
pub struct Example {
    pub features: SparseVec,
    pub label: bool,
}

/// A labeled dataset.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    pub examples: Vec<Example>,
}

impl Dataset {
    /// Creates an empty dataset.
    pub fn new() -> Self {
        Dataset::default()
    }

    /// Adds an example.
    pub fn push(&mut self, features: SparseVec, label: bool) {
        self.examples.push(Example { features, label });
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.examples.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.examples.is_empty()
    }
}

/// Stratified train/test split: the positive rate is preserved on both
/// sides. `test_fraction` is clamped to `(0, 1)`; splitting is seeded.
pub fn train_test_split(data: &Dataset, test_fraction: f64, seed: u64) -> (Dataset, Dataset) {
    let test_fraction = test_fraction.clamp(0.01, 0.99);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut pos: Vec<&Example> = data.examples.iter().filter(|e| e.label).collect();
    let mut neg: Vec<&Example> = data.examples.iter().filter(|e| !e.label).collect();
    pos.shuffle(&mut rng);
    neg.shuffle(&mut rng);
    let mut train = Dataset::new();
    let mut test = Dataset::new();
    for group in [pos, neg] {
        let n_test = ((group.len() as f64) * test_fraction).round() as usize;
        for (i, ex) in group.into_iter().enumerate() {
            if i < n_test {
                test.examples.push(ex.clone());
            } else {
                train.examples.push(ex.clone());
            }
        }
    }
    (train, test)
}

/// K-fold cross-validation splits: returns `k` (train, validation) pairs.
/// Folds are contiguous over a seeded shuffle, so every example appears in
/// exactly one validation fold.
pub fn kfold(data: &Dataset, k: usize, seed: u64) -> Vec<(Dataset, Dataset)> {
    let k = k.max(2).min(data.len().max(2));
    let mut order: Vec<usize> = (0..data.len()).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    order.shuffle(&mut rng);
    let mut folds = Vec::with_capacity(k);
    for fold in 0..k {
        let mut train = Dataset::new();
        let mut val = Dataset::new();
        for (i, &idx) in order.iter().enumerate() {
            if i % k == fold {
                val.examples.push(data.examples[idx].clone());
            } else {
                train.examples.push(data.examples[idx].clone());
            }
        }
        folds.push((train, val));
    }
    folds
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n_pos: usize, n_neg: usize) -> Dataset {
        let mut d = Dataset::new();
        for i in 0..n_pos {
            d.push(vec![(i as u32, 1.0)], true);
        }
        for i in 0..n_neg {
            d.push(vec![(i as u32, -1.0)], false);
        }
        d
    }

    #[test]
    fn split_is_stratified() {
        let d = toy(20, 80);
        let (train, test) = train_test_split(&d, 0.25, 7);
        assert_eq!(train.len() + test.len(), 100);
        let positives = |d: &Dataset| d.examples.iter().filter(|e| e.label).count();
        assert_eq!(positives(&test), 5);
        assert_eq!(positives(&train), 15);
    }

    #[test]
    fn split_is_seeded() {
        let d = toy(10, 10);
        let (t1, _) = train_test_split(&d, 0.5, 42);
        let (t2, _) = train_test_split(&d, 0.5, 42);
        let f1: Vec<_> = t1.examples.iter().map(|e| e.features.clone()).collect();
        let f2: Vec<_> = t2.examples.iter().map(|e| e.features.clone()).collect();
        assert_eq!(f1, f2);
    }

    #[test]
    fn split_fraction_is_clamped() {
        let d = toy(4, 4);
        let (train, test) = train_test_split(&d, 5.0, 1);
        assert!(!train.is_empty() || !test.is_empty());
        assert_eq!(train.len() + test.len(), 8);
    }

    #[test]
    fn kfold_partitions_validation() {
        let d = toy(6, 14);
        let folds = kfold(&d, 4, 3);
        assert_eq!(folds.len(), 4);
        let total_val: usize = folds.iter().map(|(_, v)| v.len()).sum();
        assert_eq!(total_val, 20);
        for (train, val) in &folds {
            assert_eq!(train.len() + val.len(), 20);
        }
    }

    #[test]
    fn kfold_minimum_k() {
        let d = toy(2, 2);
        let folds = kfold(&d, 1, 0);
        assert_eq!(folds.len(), 2);
    }
}
