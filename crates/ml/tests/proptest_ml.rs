//! Property tests on the ML substrate.

use incite_ml::logreg::{LogisticRegression, TrainConfig};
use incite_ml::naive_bayes::NaiveBayes;
use incite_ml::sparse::{merge, SparseVec};
use incite_ml::Dataset;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn arb_sparse(dim: u32, max_nnz: usize) -> impl Strategy<Value = SparseVec> {
    prop::collection::btree_map(0..dim, -10.0f32..10.0, 0..max_nnz)
        .prop_map(|m| m.into_iter().filter(|(_, v)| *v != 0.0).collect())
}

proptest! {
    #[test]
    fn merge_matches_map_model(a in arb_sparse(64, 20), b in arb_sparse(64, 20)) {
        let merged = merge(&a, &b);
        let mut model: BTreeMap<u32, f32> = BTreeMap::new();
        for &(i, v) in a.iter().chain(b.iter()) {
            *model.entry(i).or_default() += v;
        }
        model.retain(|_, v| *v != 0.0);
        let expected: SparseVec = model.into_iter().collect();
        prop_assert_eq!(merged, expected);
    }

    #[test]
    fn merge_is_commutative(a in arb_sparse(64, 16), b in arb_sparse(64, 16)) {
        prop_assert_eq!(merge(&a, &b), merge(&b, &a));
    }

    #[test]
    fn logreg_probabilities_bounded(
        examples in prop::collection::vec((arb_sparse(16, 6), any::<bool>()), 4..40),
        probe in arb_sparse(16, 6),
    ) {
        let mut data = Dataset::new();
        for (f, l) in examples {
            data.push(f, l);
        }
        let model = LogisticRegression::train(
            &data,
            16,
            TrainConfig { epochs: 3, ..Default::default() },
        );
        let p = model.predict_proba(&probe);
        prop_assert!((0.0..=1.0).contains(&p), "p = {p}");
        prop_assert!(p.is_finite());
    }

    #[test]
    fn naive_bayes_probabilities_bounded(
        examples in prop::collection::vec((arb_sparse(16, 6), any::<bool>()), 1..40),
        probe in arb_sparse(16, 6),
    ) {
        let mut data = Dataset::new();
        for (f, l) in examples {
            data.push(f, l);
        }
        let nb = NaiveBayes::train(&data, 16, 1.0);
        let p = nb.predict_proba(&probe);
        prop_assert!((0.0..=1.0).contains(&p), "p = {p}");
        prop_assert!(p.is_finite());
    }

    #[test]
    fn training_is_reproducible(
        examples in prop::collection::vec((arb_sparse(16, 6), any::<bool>()), 4..30),
    ) {
        let mut data = Dataset::new();
        for (f, l) in examples {
            data.push(f, l);
        }
        let config = TrainConfig { epochs: 2, ..Default::default() };
        let m1 = LogisticRegression::train(&data, 16, config);
        let m2 = LogisticRegression::train(&data, 16, config);
        let probe: SparseVec = vec![(0, 1.0), (7, -2.0)];
        prop_assert_eq!(m1.predict_proba(&probe), m2.predict_proba(&probe));
    }
}
