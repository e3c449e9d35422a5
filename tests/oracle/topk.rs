//! The full-sort Top-k selector: `O(d log d)`, the naive baseline every
//! quickselect path must agree with. It uses only `std`, so the tensor
//! crate's unit tests include this file by path as well (`mod oracle;` in
//! `crates/tensor/src/topk.rs`).

/// The indices of the `min(k, d)` largest magnitudes of `grad`, ascending.
///
/// One stable descending sort of every magnitude, then a cut at `k`: ties at
/// the cut go to the lower index, the contract `top_k` and `top_k_on` keep.
pub fn top_k_full_sort(grad: &[f32], k: usize) -> Vec<u32> {
    let mut order: Vec<u32> = (0..grad.len() as u32).collect();
    order.sort_by(|&a, &b| grad[b as usize].abs().total_cmp(&grad[a as usize].abs()));
    order.truncate(k);
    order.sort_unstable();
    order
}
