//! Mann–Whitney U test (Wilcoxon rank-sum).
//!
//! The §6.3 thread-size comparisons use t-tests on log-transformed sizes;
//! the rank-sum test is the standard nonparametric robustness check for the
//! same question (are responses to one attack type stochastically larger
//! than the baseline?) without any distributional assumption. The
//! `sec6_3`-adjacent analyses use it to confirm the t-test conclusions.

use crate::special::normal_cdf;

/// The outcome of a Mann–Whitney U test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MannWhitneyResult {
    /// The U statistic for the first sample.
    pub u: f64,
    /// Normal-approximation z score (tie-corrected).
    pub z: f64,
    /// Two-sided p-value (normal approximation; requires n ≳ 8 per group).
    pub p_value: f64,
    /// Common-language effect size: P(a > b) + ½P(a = b).
    pub effect_size: f64,
}

/// Runs the two-sided Mann–Whitney U test. Returns `None` when either
/// sample is empty or all values are identical.
pub fn mann_whitney_u(a: &[f64], b: &[f64]) -> Option<MannWhitneyResult> {
    let (na, nb) = (a.len() as f64, b.len() as f64);
    if a.is_empty() || b.is_empty() {
        return None;
    }
    // Rank the pooled sample with average ranks for ties.
    let mut pooled: Vec<(f64, bool)> = a
        .iter()
        .map(|&x| (x, true))
        .chain(b.iter().map(|&x| (x, false)))
        .collect();
    pooled.sort_by(|x, y| x.0.partial_cmp(&y.0).unwrap_or(std::cmp::Ordering::Equal));

    let n = pooled.len();
    let mut rank_sum_a = 0.0;
    let mut tie_term = 0.0;
    let mut i = 0;
    while i < n {
        let mut j = i;
        // Exact ties are intended: only bit-equal values share a rank, so
        // an epsilon would merge distinct neighbouring values.
        #[allow(clippy::float_cmp)]
        while j + 1 < n && pooled[j + 1].0 == pooled[i].0 {
            j += 1;
        }
        let avg_rank = (i + j + 2) as f64 / 2.0;
        let tie_size = (j - i + 1) as f64;
        if tie_size > 1.0 {
            tie_term += tie_size.powi(3) - tie_size;
        }
        for item in &pooled[i..=j] {
            if item.1 {
                rank_sum_a += avg_rank;
            }
        }
        i = j + 1;
    }

    let u = rank_sum_a - na * (na + 1.0) / 2.0;
    let mean_u = na * nb / 2.0;
    let n_total = na + nb;
    let variance = na * nb / 12.0 * ((n_total + 1.0) - tie_term / (n_total * (n_total - 1.0)));
    if variance <= 0.0 {
        return None; // all values tied
    }
    let z = (u - mean_u) / variance.sqrt();
    let p = 2.0 * (1.0 - normal_cdf(z.abs()));
    Some(MannWhitneyResult {
        u,
        z,
        p_value: p.clamp(0.0, 1.0),
        effect_size: u / (na * nb),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_distributions_are_null() {
        let a: Vec<f64> = (0..40).map(|i| (i % 10) as f64).collect();
        let r = mann_whitney_u(&a, &a).unwrap();
        assert!(r.z.abs() < 1e-9, "z = {}", r.z);
        assert!((r.p_value - 1.0).abs() < 1e-9);
        assert!((r.effect_size - 0.5).abs() < 1e-9);
    }

    #[test]
    fn shifted_distributions_are_significant() {
        let a: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..30).map(|i| i as f64 + 50.0).collect();
        let r = mann_whitney_u(&a, &b).unwrap();
        assert!(r.p_value < 1e-6, "p = {}", r.p_value);
        assert_eq!(r.effect_size, 0.0); // every a below every b
        let r2 = mann_whitney_u(&b, &a).unwrap();
        assert_eq!(r2.effect_size, 1.0);
    }

    #[test]
    fn reference_value() {
        // Hand-checkable: a = [1,2,3], b = [4,5,6] → U_a = 0.
        let r = mann_whitney_u(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]).unwrap();
        assert_eq!(r.u, 0.0);
        // a = [1,4], b = [2,3] → ranks a = {1,4}, U_a = 5 - 3 = 2.
        let r = mann_whitney_u(&[1.0, 4.0], &[2.0, 3.0]).unwrap();
        assert_eq!(r.u, 2.0);
    }

    #[test]
    fn ties_are_handled() {
        let a = [1.0, 1.0, 1.0, 2.0];
        let b = [1.0, 2.0, 2.0, 2.0];
        let r = mann_whitney_u(&a, &b).unwrap();
        assert!(r.p_value > 0.05); // small samples, mild shift
        assert!(r.effect_size < 0.5);
        // Tied values share the average rank: the 1s rank 2.5, the 2s 6.5.
        assert_eq!(r.u, 3.0 * 2.5 + 6.5 - 10.0);
        // Ties are exact: values one ULP apart are distinct, so `a` lies
        // entirely above `b`. An epsilon comparison would tie every value
        // and return None (zero variance).
        let up = f64::from_bits(0.5f64.to_bits() + 1);
        let r = mann_whitney_u(&[up; 4], &[0.5; 4]).unwrap();
        assert_eq!(r.effect_size, 1.0);
    }

    #[test]
    fn degenerate_inputs_return_none() {
        assert!(mann_whitney_u(&[], &[1.0]).is_none());
        assert!(mann_whitney_u(&[1.0], &[]).is_none());
        assert!(mann_whitney_u(&[3.0, 3.0], &[3.0, 3.0]).is_none());
    }

    #[test]
    fn agrees_with_t_test_on_clean_shift() {
        use crate::ttest::welch_t_test;
        let a: Vec<f64> = (0..50).map(|i| (i % 7) as f64).collect();
        let b: Vec<f64> = (0..50).map(|i| (i % 7) as f64 + 3.0).collect();
        let u = mann_whitney_u(&a, &b).unwrap();
        let t = welch_t_test(&a, &b).unwrap();
        assert_eq!(u.p_value < 0.01, t.p_value < 0.01);
        assert_eq!(u.z < 0.0, t.t < 0.0);
    }
}
