//! Multiple-testing corrections.
//!
//! §6.3: thread-size comparisons are "corrected for multiple comparisons
//! using Benjamini Hochberg with a default error rate of 0.1".

/// Benjamini–Hochberg FDR procedure.
///
/// Given raw p-values and a false-discovery rate `q`, returns a boolean per
/// input (in the original order) saying whether that hypothesis is rejected.
///
/// ```
/// use incite_stats::benjamini_hochberg;
///
/// let p = [0.001, 0.02, 0.8];
/// assert_eq!(benjamini_hochberg(&p, 0.05), vec![true, true, false]);
/// ```
pub fn benjamini_hochberg(p_values: &[f64], q: f64) -> Vec<bool> {
    let m = p_values.len();
    if m == 0 {
        return Vec::new();
    }
    let mut order: Vec<usize> = (0..m).collect();
    order.sort_by(|&i, &j| {
        p_values[i]
            .partial_cmp(&p_values[j])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    // Find the largest k with p_(k) <= (k/m) q.
    let mut cutoff_rank: Option<usize> = None;
    for (rank, &idx) in order.iter().enumerate() {
        let threshold = (rank + 1) as f64 / m as f64 * q;
        if p_values[idx] <= threshold {
            cutoff_rank = Some(rank);
        }
    }
    let mut rejected = vec![false; m];
    if let Some(k) = cutoff_rank {
        for &idx in &order[..=k] {
            rejected[idx] = true;
        }
    }
    rejected
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bh_rejects_everything_below_threshold_chain() {
        // m=5, q=0.05; sorted thresholds are k/m·q = .01 .02 .03 .04 .05.
        // 0.005≤.01, 0.01≤.02, 0.03≤.03, 0.04≤.04 all pass; 0.55 fails.
        let p = [0.01, 0.04, 0.03, 0.005, 0.55];
        let rej = benjamini_hochberg(&p, 0.05);
        assert_eq!(rej, vec![true, true, true, true, false]);
        // Tightening q to 0.04 drops the 0.04 and rescues nothing above it.
        let rej2 = benjamini_hochberg(&p, 0.03);
        assert_eq!(rej2, vec![true, false, false, true, false]);
    }

    #[test]
    fn bh_all_significant() {
        let p = [0.001, 0.002, 0.003];
        assert_eq!(benjamini_hochberg(&p, 0.05), vec![true, true, true]);
    }

    #[test]
    fn bh_none_significant() {
        let p = [0.5, 0.6, 0.9];
        assert_eq!(benjamini_hochberg(&p, 0.05), vec![false, false, false]);
    }

    #[test]
    fn bh_step_up_rescues_earlier_pvalues() {
        // 0.04 alone at rank 1 would fail (threshold 0.025) but rank-2 0.045
        // passes its threshold 0.05, rescuing both.
        let p = [0.04, 0.045];
        assert_eq!(benjamini_hochberg(&p, 0.05), vec![true, true]);
    }

    #[test]
    fn bh_empty_input() {
        assert!(benjamini_hochberg(&[], 0.1).is_empty());
    }
}
