//! Cohen's kappa inter-annotator agreement.
//!
//! §5.3 reports kappa for crowd annotators (0.519 dox / 0.350 CTH —
//! "moderate" and "fair" agreement) and for domain experts (0.893 / 0.845 —
//! "strong"). Kappa corrects raw agreement for the agreement expected by
//! chance given each annotator's marginal label distribution.

/// Cohen's kappa from a square confusion matrix `counts[i][j]` = number of
/// items annotator A labeled `i` and annotator B labeled `j`.
///
/// Returns `None` for an empty or non-square matrix or zero total. A
/// degenerate case where chance agreement is 1 (both annotators constant and
/// identical) yields `Some(1.0)` when observed agreement is also 1.
pub fn cohen_kappa(counts: &[Vec<f64>]) -> Option<f64> {
    let k = counts.len();
    if k == 0 || counts.iter().any(|row| row.len() != k) {
        return None;
    }
    let total: f64 = counts.iter().flatten().sum();
    if total <= 0.0 {
        return None;
    }
    let observed: f64 = (0..k).map(|i| counts[i][i]).sum::<f64>() / total;
    let mut expected = 0.0;
    for i in 0..k {
        let row: f64 = counts[i].iter().sum();
        let col: f64 = counts.iter().map(|r| r[i]).sum();
        expected += (row / total) * (col / total);
    }
    if (1.0 - expected).abs() < 1e-12 {
        return Some(if (1.0 - observed).abs() < 1e-12 {
            1.0
        } else {
            0.0
        });
    }
    Some((observed - expected) / (1.0 - expected))
}

/// Cohen's kappa straight from two parallel label sequences.
///
/// Labels can be any equatable, hashable type. Returns `None` when the
/// sequences are empty or of different lengths.
pub fn cohen_kappa_from_labels<T: Eq + std::hash::Hash + Clone>(a: &[T], b: &[T]) -> Option<f64> {
    if a.is_empty() || a.len() != b.len() {
        return None;
    }
    // Build the label universe deterministically by first appearance.
    let mut universe: Vec<T> = Vec::new();
    let mut index = std::collections::HashMap::new();
    for label in a.iter().chain(b.iter()) {
        if !index.contains_key(label) {
            index.insert(label.clone(), universe.len());
            universe.push(label.clone());
        }
    }
    let k = universe.len();
    let mut counts = vec![vec![0.0; k]; k];
    for (x, y) in a.iter().zip(b) {
        counts[index[x]][index[y]] += 1.0;
    }
    cohen_kappa(&counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_agreement_is_one() {
        let counts = vec![vec![20.0, 0.0], vec![0.0, 30.0]];
        assert!((cohen_kappa(&counts).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn chance_level_agreement_is_zero() {
        // Marginals 50/50 for both; diagonal exactly at chance.
        let counts = vec![vec![25.0, 25.0], vec![25.0, 25.0]];
        assert!(cohen_kappa(&counts).unwrap().abs() < 1e-12);
    }

    #[test]
    fn textbook_example() {
        // Wikipedia example: [[20, 5], [10, 15]] → kappa = 0.4.
        let counts = vec![vec![20.0, 5.0], vec![10.0, 15.0]];
        assert!((cohen_kappa(&counts).unwrap() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn systematic_disagreement_is_negative() {
        let counts = vec![vec![0.0, 25.0], vec![25.0, 0.0]];
        assert!(cohen_kappa(&counts).unwrap() < 0.0);
    }

    #[test]
    fn from_labels_matches_matrix() {
        let a = vec![1, 1, 0, 1, 0, 0, 1, 0];
        let b = vec![1, 1, 0, 0, 0, 1, 1, 0];
        let from_labels = cohen_kappa_from_labels(&a, &b).unwrap();
        // a=1,b=1: 3; a=1,b=0: 1; a=0,b=1: 1; a=0,b=0: 3.
        let counts = vec![vec![3.0, 1.0], vec![1.0, 3.0]];
        let from_matrix = cohen_kappa(&counts).unwrap();
        assert!((from_labels - from_matrix).abs() < 1e-12);
    }

    #[test]
    fn invalid_inputs() {
        assert!(cohen_kappa(&[]).is_none());
        assert!(cohen_kappa(&[vec![1.0, 2.0]]).is_none());
        let empty: Vec<u8> = vec![];
        assert!(cohen_kappa_from_labels(&empty, &empty).is_none());
        assert!(cohen_kappa_from_labels(&[1, 2], &[1]).is_none());
    }

    #[test]
    fn constant_identical_annotators() {
        let a = vec!["x"; 10];
        assert_eq!(cohen_kappa_from_labels(&a, &a), Some(1.0));
    }

    #[test]
    fn multiclass_kappa() {
        let a = vec![0, 1, 2, 0, 1, 2, 0, 1, 2, 0];
        let b = vec![0, 1, 2, 0, 1, 1, 0, 2, 2, 0];
        let k = cohen_kappa_from_labels(&a, &b).unwrap();
        assert!(k > 0.5 && k < 1.0, "kappa = {k}");
    }
}
