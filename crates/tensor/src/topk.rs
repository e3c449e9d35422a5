//! Exact Top-k selection: quickselect the k-th largest magnitude (expected
//! `O(d)`, the closest CPU analogue of PyTorch's radix select), then one
//! threshold scan.

use crate::sparse::SparseGradient;
use std::cmp::Ordering;

/// Selects the `k` elements of `grad` with the largest absolute value.
///
/// Ties at the selection boundary are broken by ascending index, and exactly
/// `min(k, d)` elements are always returned. `k = 0` returns an empty sparse
/// gradient.
///
/// # Example
///
/// ```
/// use sidco_tensor::topk::top_k;
///
/// let grad = [0.1f32, -5.0, 0.3, 2.0];
/// let s = top_k(&grad, 2);
/// let mut idx: Vec<u32> = s.indices().to_vec();
/// idx.sort();
/// assert_eq!(idx, vec![1, 3]);
/// ```
pub fn top_k(grad: &[f32], k: usize) -> SparseGradient {
    let k = k.min(grad.len());
    if k == 0 {
        return SparseGradient::empty(grad.len());
    }
    if k == grad.len() {
        let indices: Vec<u32> = (0..grad.len() as u32).collect();
        return SparseGradient::new(indices, grad.to_vec(), grad.len());
    }
    let threshold = kth_largest_magnitude(grad, k);
    // Collect strictly-above first, then fill with ties at the threshold until we
    // have exactly k elements.
    let mut indices: Vec<u32> = Vec::with_capacity(k);
    for (i, &g) in grad.iter().enumerate() {
        if g.abs() > threshold {
            indices.push(i as u32);
        }
    }
    if indices.len() < k {
        for (i, &g) in grad.iter().enumerate() {
            if g.abs() == threshold {
                indices.push(i as u32);
                if indices.len() == k {
                    break;
                }
            }
        }
    }
    indices.truncate(k);
    let values: Vec<f32> = indices.iter().map(|&i| grad[i as usize]).collect();
    SparseGradient::new(indices, values, grad.len())
}

/// Returns the magnitude of the k-th largest element (the exact Top-k threshold):
/// exactly `k` elements have `|g| >= kth_largest_magnitude(g, k)` up to ties.
///
/// Returns 0 when `k == 0` or the gradient is empty; if `k >= d` returns the
/// smallest magnitude.
pub fn kth_largest_magnitude(grad: &[f32], k: usize) -> f32 {
    if grad.is_empty() || k == 0 {
        return 0.0;
    }
    let k = k.min(grad.len());
    let mut mags: Vec<f32> = grad.iter().map(|x| x.abs()).collect();
    let idx = k - 1;
    mags.select_nth_unstable_by(idx, |a, b| b.partial_cmp(a).unwrap_or(Ordering::Equal));
    mags[idx]
}

#[cfg(test)]
#[path = "../../../tests/oracle/topk.rs"]
pub(crate) mod oracle;

#[cfg(test)]
mod tests {
    use super::oracle::top_k_full_sort;
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Quickselect's indices, ascending, for comparison with the oracle.
    fn selected(grad: &[f32], k: usize) -> Vec<u32> {
        let mut indices = top_k(grad, k).indices().to_vec();
        indices.sort_unstable();
        indices
    }

    #[test]
    fn quickselect_matches_the_full_sort_oracle() {
        let mut rng = SmallRng::seed_from_u64(101);
        let grad: Vec<f32> = (0..5_000).map(|_| rng.gen_range(-1.0..1.0)).collect();
        for &k in &[1usize, 7, 50, 499, 2_500] {
            assert_eq!(selected(&grad, k), top_k_full_sort(&grad, k), "k={k}");
        }
    }

    #[test]
    fn edge_cases() {
        let grad = [1.0f32, -2.0, 3.0];
        for k in [0, 1, 3, 10] {
            assert_eq!(selected(&grad, k), top_k_full_sort(&grad, k), "k={k}");
        }
        assert_eq!(top_k(&grad, 0).nnz(), 0);
        assert_eq!(top_k(&grad, 10).nnz(), 3);
        assert_eq!(top_k(&[], 5).nnz(), 0);
    }

    #[test]
    fn values_match_original_positions() {
        let grad = [0.5f32, -3.0, 0.1, 2.0, -0.7];
        let s = top_k(&grad, 2);
        for (i, v) in s.iter() {
            assert_eq!(grad[i as usize], v);
        }
        let mut idx: Vec<u32> = s.indices().to_vec();
        idx.sort();
        assert_eq!(idx, vec![1, 3]);
    }

    #[test]
    fn kth_largest_magnitude_matches_sorted_order() {
        let mut rng = SmallRng::seed_from_u64(102);
        let grad: Vec<f32> = (0..2_000).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let mut sorted: Vec<f32> = grad.iter().map(|x| x.abs()).collect();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        for &k in &[1usize, 13, 100, 1999] {
            assert_eq!(kth_largest_magnitude(&grad, k), sorted[k - 1]);
        }
        assert_eq!(kth_largest_magnitude(&grad, 0), 0.0);
        assert_eq!(kth_largest_magnitude(&[], 5), 0.0);
        assert_eq!(kth_largest_magnitude(&grad, 10_000), sorted[1999]);
    }

    #[test]
    fn handles_ties_exactly() {
        // Exactly k elements on ties, and the lowest tied indices win, as in
        // the oracle's stable sort.
        let grad = [1.0f32; 10];
        assert_eq!(selected(&grad, 4), top_k_full_sort(&grad, 4));
        assert_eq!(selected(&grad, 4), vec![0, 1, 2, 3]);
        let mixed = [0.5f32, -1.0, 0.5, 2.0, -0.5, 0.5];
        for k in 1..=mixed.len() {
            assert_eq!(selected(&mixed, k), top_k_full_sort(&mixed, k), "k={k}");
        }
    }
}
