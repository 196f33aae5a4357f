//! Sparse feature vectors.
//!
//! A feature vector is a sorted list of `(index, value)` pairs produced by
//! the feature hasher. Indices are unique and strictly increasing, which
//! the dot and merge kernels rely on.

/// A sparse vector: sorted, de-duplicated `(index, value)` pairs.
pub type SparseVec = Vec<(u32, f32)>;

/// Dot product of a sparse vector with dense weights. Out-of-range indices
/// contribute nothing (they cannot occur when the hasher dimension matches
/// the weight vector length).
pub fn dot(sparse: &SparseVec, dense: &[f32]) -> f32 {
    let mut sum = 0.0;
    for &(i, v) in sparse {
        if let Some(w) = dense.get(i as usize) {
            sum += v * w;
        }
    }
    sum
}

/// Merges two sparse vectors by summing coincident indices.
pub fn merge(a: &SparseVec, b: &SparseVec) -> SparseVec {
    let mut out = SparseVec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                let v = a[i].1 + b[j].1;
                // Sparse invariant: exactly-zero entries are not stored, so
                // an exact comparison is the intended filter here.
                if v != 0.0 {
                    out.push((a[i].0, v));
                }
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_product() {
        let s: SparseVec = vec![(0, 1.0), (2, 2.0), (5, -1.0)];
        let d = vec![1.0, 10.0, 0.5, 0.0, 0.0, 4.0];
        assert_eq!(dot(&s, &d), 1.0 + 1.0 - 4.0);
    }

    #[test]
    fn dot_ignores_out_of_range() {
        let s: SparseVec = vec![(100, 5.0)];
        let d = vec![1.0; 3];
        assert_eq!(dot(&s, &d), 0.0);
    }

    #[test]
    fn merge_sums_coincident() {
        let a: SparseVec = vec![(0, 1.0), (2, 1.0)];
        let b: SparseVec = vec![(2, 2.0), (3, 1.0)];
        assert_eq!(merge(&a, &b), vec![(0, 1.0), (2, 3.0), (3, 1.0)]);
    }

    #[test]
    fn merge_drops_cancellations() {
        let a: SparseVec = vec![(1, 1.0)];
        let b: SparseVec = vec![(1, -1.0)];
        assert!(merge(&a, &b).is_empty());
    }
}
