//! Property tests on the statistics substrate.

use incite_stats::classify::{auc_roc, BinaryConfusion};
use incite_stats::correction::benjamini_hochberg;
use incite_stats::descriptive::{mean, median, quantile, std_dev};
use incite_stats::kappa::cohen_kappa_from_labels;
use incite_stats::special::{chi_square_sf, normal_cdf, student_t_two_sided};
use incite_stats::ttest::welch_t_test;
use incite_stats::Ecdf;
use proptest::prelude::*;

fn finite_vec(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, 0..max_len)
}

proptest! {
    #[test]
    fn mean_between_min_and_max(data in finite_vec(50)) {
        prop_assume!(!data.is_empty());
        let m = mean(&data);
        let lo = data.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
    }

    #[test]
    fn quantiles_are_monotone(data in finite_vec(50), a in 0.0f64..1.0, b in 0.0f64..1.0) {
        prop_assume!(!data.is_empty());
        let (lo_q, hi_q) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(quantile(&data, lo_q) <= quantile(&data, hi_q) + 1e-9);
        prop_assert_eq!(quantile(&data, 0.5), median(&data));
    }

    #[test]
    fn std_dev_nonnegative(data in finite_vec(50)) {
        prop_assume!(data.len() >= 2);
        prop_assert!(std_dev(&data) >= 0.0 || std_dev(&data).is_nan());
    }

    #[test]
    fn welch_p_value_in_unit_interval(a in finite_vec(30), b in finite_vec(30)) {
        if let Some(r) = welch_t_test(&a, &b) {
            prop_assert!((0.0..=1.0).contains(&r.p_value), "p = {}", r.p_value);
            prop_assert!(r.df > 0.0);
        }
    }

    #[test]
    fn t_test_is_antisymmetric(a in finite_vec(20), b in finite_vec(20)) {
        if let (Some(ab), Some(ba)) = (welch_t_test(&a, &b), welch_t_test(&b, &a)) {
            prop_assert!((ab.t + ba.t).abs() < 1e-9);
            prop_assert!((ab.p_value - ba.p_value).abs() < 1e-9);
        }
    }

    #[test]
    fn tail_probabilities_are_probabilities(x in -50.0f64..50.0, df in 1.0f64..100.0) {
        let p = student_t_two_sided(x, df);
        prop_assert!((0.0..=1.0).contains(&p));
        let c = chi_square_sf(x.abs(), df);
        prop_assert!((0.0..=1.0).contains(&c));
        let n = normal_cdf(x);
        prop_assert!((0.0..=1.0).contains(&n));
    }

    #[test]
    fn normal_cdf_is_monotone(a in -10.0f64..10.0, b in -10.0f64..10.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(normal_cdf(lo) <= normal_cdf(hi) + 1e-12);
    }

    #[test]
    fn bh_rejections_grow_with_q(pvals in prop::collection::vec(0.0f64..1.0, 1..30)) {
        let strict = benjamini_hochberg(&pvals, 0.01);
        let loose = benjamini_hochberg(&pvals, 0.2);
        for (s, l) in strict.iter().zip(&loose) {
            prop_assert!(!s || *l, "rejection lost when loosening q");
        }
    }

    #[test]
    fn kappa_is_at_most_one(labels in prop::collection::vec((any::<bool>(), any::<bool>()), 1..100)) {
        let a: Vec<bool> = labels.iter().map(|(x, _)| *x).collect();
        let b: Vec<bool> = labels.iter().map(|(_, y)| *y).collect();
        if let Some(k) = cohen_kappa_from_labels(&a, &b) {
            prop_assert!(k <= 1.0 + 1e-12, "kappa = {k}");
            prop_assert!(k >= -1.0 - 1e-12, "kappa = {k}");
        }
    }

    #[test]
    fn auc_in_unit_interval(scored in prop::collection::vec((0.0f64..1.0, any::<bool>()), 2..100)) {
        let scores: Vec<f64> = scored.iter().map(|(s, _)| *s).collect();
        let labels: Vec<bool> = scored.iter().map(|(_, l)| *l).collect();
        if let Some(auc) = auc_roc(&scores, &labels) {
            prop_assert!((0.0..=1.0).contains(&auc));
            // Inverting scores inverts AUC.
            let inv: Vec<f64> = scores.iter().map(|s| 1.0 - s).collect();
            let auc_inv = auc_roc(&inv, &labels).unwrap();
            prop_assert!((auc + auc_inv - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn confusion_metrics_bounded(pairs in prop::collection::vec((any::<bool>(), any::<bool>()), 0..200)) {
        let actual: Vec<bool> = pairs.iter().map(|(a, _)| *a).collect();
        let predicted: Vec<bool> = pairs.iter().map(|(_, p)| *p).collect();
        let mut c = BinaryConfusion::default();
        for (&a, &p) in actual.iter().zip(&predicted) {
            c.record(a, p);
        }
        prop_assert_eq!(c.total() as usize, pairs.len());
        let m = c.table_metrics();
        for s in [m.positive, m.negative, m.macro_avg] {
            prop_assert!((0.0..=1.0).contains(&s.precision));
            prop_assert!((0.0..=1.0).contains(&s.recall));
            prop_assert!((0.0..=1.0).contains(&s.f1));
        }
    }

    #[test]
    fn ecdf_is_monotone_cdf(data in finite_vec(60), probes in prop::collection::vec(-1e6f64..1e6, 1..20)) {
        prop_assume!(!data.is_empty());
        let e = Ecdf::new(&data);
        let mut sorted = probes.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut last = 0.0;
        for p in sorted {
            let v = e.eval(p);
            prop_assert!((0.0..=1.0).contains(&v));
            prop_assert!(v >= last - 1e-12);
            last = v;
        }
    }
}
