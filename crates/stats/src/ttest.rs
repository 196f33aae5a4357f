//! Two-sample t-tests.
//!
//! §6.3: "We ran a pairwise t-test on the log of the size of the threads in
//! order to ensure symmetric distribution" — each attack-type group is
//! compared against the 5,000-post random baseline. The thread analysis
//! uses Welch's unequal-variance t-test on log-transformed sizes.

use crate::descriptive::{mean, variance};
use crate::special::student_t_two_sided;

/// The outcome of a two-sample t-test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TTestResult {
    /// The t statistic (group `a` minus group `b` in the numerator).
    pub t: f64,
    /// Degrees of freedom (Welch–Satterthwaite for the unequal-variance test).
    pub df: f64,
    /// Two-sided p-value.
    pub p_value: f64,
    /// Difference of sample means `mean(a) - mean(b)`.
    pub mean_difference: f64,
}

/// Welch's unequal-variance two-sample t-test.
///
/// Returns `None` when either sample has fewer than two observations or when
/// both variances are zero.
///
/// ```
/// use incite_stats::welch_t_test;
///
/// let a = [1.0, 2.0, 3.0, 4.0];
/// let b = [6.0, 7.0, 8.0, 9.0];
/// let r = welch_t_test(&a, &b).unwrap();
/// assert!(r.t < 0.0);
/// assert!(r.p_value < 0.01);
/// ```
pub fn welch_t_test(a: &[f64], b: &[f64]) -> Option<TTestResult> {
    if a.len() < 2 || b.len() < 2 {
        return None;
    }
    let (ma, mb) = (mean(a), mean(b));
    let (va, vb) = (variance(a), variance(b));
    let (na, nb) = (a.len() as f64, b.len() as f64);
    let se2 = va / na + vb / nb;
    if se2 <= 0.0 {
        return None;
    }
    let t = (ma - mb) / se2.sqrt();
    let df = se2 * se2 / ((va / na) * (va / na) / (na - 1.0) + (vb / nb) * (vb / nb) / (nb - 1.0));
    let p = student_t_two_sided(t, df);
    Some(TTestResult {
        t,
        df,
        p_value: p,
        mean_difference: ma - mb,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_samples_give_t_zero() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let r = welch_t_test(&a, &a).unwrap();
        assert!(r.t.abs() < 1e-12);
        assert!((r.p_value - 1.0).abs() < 1e-9);
        assert_eq!(r.mean_difference, 0.0);
    }

    #[test]
    fn clearly_different_samples_are_significant() {
        let a: Vec<f64> = (0..50).map(|i| 10.0 + (i % 3) as f64).collect();
        let b: Vec<f64> = (0..50).map(|i| 20.0 + (i % 3) as f64).collect();
        let r = welch_t_test(&a, &b).unwrap();
        assert!(r.p_value < 1e-6, "p = {}", r.p_value);
        assert!(r.t < 0.0);
        assert!((r.mean_difference + 10.0).abs() < 1e-9);
    }

    #[test]
    fn welch_reference_value() {
        // Hand computation: a = [1,2,3,4], b = [2,3,4,5]. Both variances are
        // 5/3, se² = 5/6, t = -1/√(5/6) ≈ -1.0954, Welch df = 6 exactly,
        // two-sided p ≈ 0.3153 (t-table).
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 3.0, 4.0, 5.0];
        let r = welch_t_test(&a, &b).unwrap();
        assert!((r.t - (-1.0954)).abs() < 1e-3, "t = {}", r.t);
        assert!((r.df - 6.0).abs() < 1e-9, "df = {}", r.df);
        assert!((r.p_value - 0.3153).abs() < 1e-2, "p = {}", r.p_value);
    }

    #[test]
    fn too_small_samples_return_none() {
        assert!(welch_t_test(&[1.0], &[1.0, 2.0]).is_none());
        assert!(welch_t_test(&[], &[]).is_none());
    }

    #[test]
    fn zero_variance_everywhere_returns_none() {
        assert!(welch_t_test(&[5.0, 5.0], &[5.0, 5.0]).is_none());
    }

    #[test]
    fn welch_df_between_min_and_sum() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [1.0, 4.0, 9.0, 16.0, 25.0, 36.0];
        let r = welch_t_test(&a, &b).unwrap();
        assert!(r.df >= 4.0 && r.df <= 9.0, "df = {}", r.df);
    }
}
