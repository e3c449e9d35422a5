//! Linear-time threshold scans.
//!
//! Every threshold-estimation compressor (SIDCo, RedSync, GaussianKSGD, and the
//! threshold stage of DGC) finishes with one of these scans, so they are kept
//! allocation-lean and branch-simple.
//!
//! # Boundary semantics
//!
//! Every operator in this module (and the exceedance moments in `sidco-stats`)
//! uses the **inclusive** comparison `|g| >= threshold`, evaluated in `f32`
//! with the threshold rounded once. The count, the selection operator `C_η`,
//! and the exceedance set the multi-stage PoT refit fits are therefore always
//! the *same* set of finite elements, even when gradient values tie the fitted
//! threshold exactly — an inconsistency (`>` in the exceedance path vs `>=` in
//! selection) previously made the refit see fewer elements than the selection
//! would transmit. (The one intentional exception: non-finite magnitudes are
//! transmitted by the selection but skipped by every moment pass in
//! `sidco-stats`, which guards the statistical fits against `inf`/`NaN`.)

use crate::sparse::SparseGradient;

/// Counts how many elements satisfy `|g| >= threshold` without materialising them.
pub fn count_above_threshold(grad: &[f32], threshold: f64) -> usize {
    let t = threshold as f32;
    grad.iter().filter(|g| g.abs() >= t).count()
}

/// Selects all elements with `|g| >= threshold` into a sparse gradient
/// (the `C_η` operator of the paper).
pub fn select_above_threshold(grad: &[f32], threshold: f64) -> SparseGradient {
    let (mut indices, mut values) = (Vec::new(), Vec::new());
    let keep = KeepAbove::new(threshold);
    extend_kept(grad, |i| i as u32, keep, &mut indices, &mut values);
    SparseGradient::new(indices, values, grad.len())
}

/// The selection test `|g| >= threshold as f32`, run on the bits of `|g|`.
///
/// For non-negative `f32`s the bit patterns order like the values, `+Inf`
/// sits at `INFINITY.to_bits()` and every NaN above it. So the test is the
/// single unsigned range test `bits(|g|) - lo < width` (wrapping), keeping
/// `lo <= bits(|g|) <= bits(INFINITY)`: `lo` is the bits of a positive `t`
/// and 0 for a `t <= 0` (which every non-NaN `|g|` passes). A NaN `t` keeps
/// nothing (`width` 0), like the float comparison. `±Inf` elements are kept
/// by every non-NaN threshold up to `+Inf`; NaN elements never are.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KeepAbove {
    lo: u32,
    width: u32,
}

impl KeepAbove {
    /// The test for `|g| >= threshold as f32`.
    pub(crate) fn new(threshold: f64) -> Self {
        let t = threshold as f32;
        if t.is_nan() {
            return Self { lo: 0, width: 0 };
        }
        let lo = if t > 0.0 { t.to_bits() } else { 0 };
        Self {
            lo,
            width: f32::INFINITY.to_bits() + 1 - lo,
        }
    }

    #[inline(always)]
    fn keeps(self, g: f32) -> bool {
        g.abs().to_bits().wrapping_sub(self.lo) < self.width
    }
}

/// Elements per any-test probe of [`keep_pairs`]: a probe with no kept
/// element is skipped without writing, so a sparse (≤ 0.1 %) selection pays
/// about one vectorised compare per element.
const PROBE: usize = 64;

/// Pairs per block when [`extend_kept`] and [`retain_kept`] keep pairs on
/// the stack (8 KiB).
const KEEP_BLOCK: usize = 1 << 10;

/// The selection kernel: writes `(index(i), values[i])` for every
/// `values[i]` that `keep` keeps, in order, to the front of `out_indices`
/// and `out_values`, and returns how many it wrote.
///
/// Branch-free inside a probe: every pair is written at the cursor and the
/// cursor advances only if the element is kept, so a 25 % selection does
/// not mispredict on every fourth element. A probe of [`PROBE`] elements
/// with nothing kept (a vectorisable any-test) is skipped.
///
/// # Panics
///
/// Panics if either output is shorter than `values`.
#[inline]
fn keep_pairs(
    values: &[f32],
    index: impl Fn(usize) -> u32,
    keep: KeepAbove,
    out_indices: &mut [u32],
    out_values: &mut [f32],
) -> usize {
    let out_indices = &mut out_indices[..values.len()];
    let out_values = &mut out_values[..values.len()];
    let mut len = 0;
    for (p, probe) in values.chunks(PROBE).enumerate() {
        if !probe.iter().fold(false, |any, &v| any | keep.keeps(v)) {
            continue;
        }
        let base = p * PROBE;
        for (i, &v) in probe.iter().enumerate() {
            // The cursor never passes the element being read, so it is in
            // range of outputs at least as long as `values`.
            out_indices[len] = index(base + i);
            out_values[len] = v;
            len += usize::from(keep.keeps(v));
        }
    }
    len
}

/// Appends the pairs of `values` that `keep` keeps, in order, to `indices`
/// and `kept_values`: [`keep_pairs`] block by block through a stack buffer.
pub(crate) fn extend_kept(
    values: &[f32],
    index: impl Fn(usize) -> u32,
    keep: KeepAbove,
    indices: &mut Vec<u32>,
    kept_values: &mut Vec<f32>,
) {
    let mut block_indices = [0u32; KEEP_BLOCK];
    let mut block_values = [0.0f32; KEEP_BLOCK];
    for (b, block) in values.chunks(KEEP_BLOCK).enumerate() {
        let base = b * KEEP_BLOCK;
        let len = keep_pairs(
            block,
            |i| index(base + i),
            keep,
            &mut block_indices,
            &mut block_values,
        );
        indices.extend_from_slice(&block_indices[..len]);
        kept_values.extend_from_slice(&block_values[..len]);
    }
}

/// Keeps, in place, the pairs whose value `keep` keeps, and returns how
/// many: each block is compacted on the stack by [`keep_pairs`] and written
/// back at the cursor, which never passes the block it read.
pub(crate) fn retain_kept(indices: &mut [u32], values: &mut [f32], keep: KeepAbove) -> usize {
    let mut block_indices = [0u32; KEEP_BLOCK];
    let mut block_values = [0.0f32; KEEP_BLOCK];
    let mut len = 0;
    for start in (0..values.len()).step_by(KEEP_BLOCK) {
        let end = (start + KEEP_BLOCK).min(values.len());
        let kept = keep_pairs(
            &values[start..end],
            |i| indices[start + i],
            keep,
            &mut block_indices,
            &mut block_values,
        );
        indices[len..len + kept].copy_from_slice(&block_indices[..kept]);
        values[len..len + kept].copy_from_slice(&block_values[..kept]);
        len += kept;
    }
    len
}

/// Keeps only the `max_elements` largest-magnitude entries of `sparse`
/// (deterministic: ties at the cut are broken by ascending index), returning the
/// survivors in ascending index order. A selection already within the cap is
/// returned unchanged.
///
/// Uses an `O(nnz)` expected-time partition (`select_nth_unstable_by`) rather
/// than a full sort, so capping never reintroduces the `O(n log n)` cost the
/// threshold estimators exist to avoid.
pub fn cap_largest(sparse: SparseGradient, max_elements: usize) -> SparseGradient {
    if sparse.nnz() <= max_elements {
        return sparse;
    }
    let dense_len = sparse.dense_len();
    let mut pairs: Vec<(u32, f32)> = sparse.iter().collect();
    if max_elements == 0 {
        return SparseGradient::empty(dense_len);
    }
    // Total order: magnitude descending, then index ascending — the cut at
    // `max_elements` is unique even with tied magnitudes.
    pairs.select_nth_unstable_by(max_elements - 1, |a, b| {
        b.1.abs()
            .partial_cmp(&a.1.abs())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    });
    pairs.truncate(max_elements);
    pairs.sort_by_key(|&(i, _)| i);
    SparseGradient::from_pairs(pairs, dense_len)
}

/// Collects the absolute values of the elements with `|g| >= threshold` (the
/// exceedance set used by the multi-stage estimator when it needs the raw values
/// rather than just moments).
///
/// Inclusive on purpose: this is exactly the set [`select_above_threshold`]
/// transmits, so a refit over these values reasons about the same elements the
/// selection operator keeps (see the module docs on boundary semantics).
pub fn exceedance_magnitudes(grad: &[f32], threshold: f64) -> Vec<f32> {
    let t = threshold as f32;
    grad.iter().map(|g| g.abs()).filter(|&a| a >= t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const GRAD: [f32; 6] = [0.1, -0.5, 0.25, -0.05, 0.9, -0.3];

    #[test]
    fn count_matches_select() {
        for &t in &[0.0, 0.05, 0.2, 0.5, 1.0] {
            let count = count_above_threshold(&GRAD, t);
            let selected = select_above_threshold(&GRAD, t);
            assert_eq!(count, selected.nnz(), "mismatch at threshold {t}");
        }
    }

    #[test]
    fn select_preserves_signs_and_positions() {
        // >= semantics: |-0.3| == 0.3 is included.
        let s = select_above_threshold(&GRAD, 0.3);
        assert_eq!(s.indices(), &[1, 4, 5]);
        assert_eq!(s.values(), &[-0.5, 0.9, -0.3]);
        assert_eq!(s.dense_len(), 6);
        let strict = select_above_threshold(&GRAD, 0.31);
        assert_eq!(strict.indices(), &[1, 4]);
    }

    #[test]
    fn threshold_zero_selects_everything() {
        let s = select_above_threshold(&GRAD, 0.0);
        assert_eq!(s.nnz(), GRAD.len());
    }

    #[test]
    fn threshold_above_max_selects_nothing() {
        let s = select_above_threshold(&GRAD, 2.0);
        assert_eq!(s.nnz(), 0);
        assert_eq!(count_above_threshold(&GRAD, 2.0), 0);
    }

    #[test]
    fn capped_selection_keeps_largest() {
        let s = cap_largest(select_above_threshold(&GRAD, 0.0), 2);
        assert_eq!(s.nnz(), 2);
        let mut mags: Vec<f32> = s.values().iter().map(|v| v.abs()).collect();
        mags.sort_by(|a, b| b.partial_cmp(a).unwrap());
        assert_eq!(mags, vec![0.9, 0.5]);
        // Cap not binding: identical to the plain selection.
        let uncapped = cap_largest(select_above_threshold(&GRAD, 0.31), 10);
        assert_eq!(uncapped.nnz(), 2);
        // Zero cap: empty selection.
        assert_eq!(cap_largest(select_above_threshold(&GRAD, 0.0), 0).nnz(), 0);
    }

    #[test]
    fn capped_selection_is_deterministic_on_ties() {
        // Eight tied magnitudes, cap at 3: the lowest three indices must win, and
        // the result must be in ascending index order.
        let tied = [0.5f32, -0.5, 0.5, 0.5, -0.5, 0.5, 0.5, -0.5];
        let s = cap_largest(select_above_threshold(&tied, 0.1), 3);
        assert_eq!(s.indices(), &[0, 1, 2]);
        assert_eq!(s.values(), &[0.5, -0.5, 0.5]);
        // Mixed magnitudes with ties at the cut: 0.9 wins outright, then the two
        // lowest-indexed 0.5s.
        let mixed = [0.5f32, 0.9, -0.5, 0.5, 0.5];
        let s = cap_largest(select_above_threshold(&mixed, 0.0), 3);
        assert_eq!(s.indices(), &[0, 1, 2]);
    }

    #[test]
    fn exceedances_are_inclusive_and_absolute() {
        let ex = exceedance_magnitudes(&GRAD, 0.25);
        let mut sorted = ex.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(sorted, vec![0.25, 0.3, 0.5, 0.9]);
        assert!(exceedance_magnitudes(&GRAD, 1.0).is_empty());
    }

    #[test]
    fn boundary_semantics_agree_on_exact_ties() {
        // Regression: values tying the threshold exactly must be seen by *all*
        // three operators, so the PoT refit set equals the transmitted set.
        let grad = [0.25f32, -0.25, 0.1, 0.7, -0.25, 0.25];
        let t = 0.25;
        let count = count_above_threshold(&grad, t);
        let selected = select_above_threshold(&grad, t);
        let exceedances = exceedance_magnitudes(&grad, t);
        assert_eq!(count, 5);
        assert_eq!(selected.nnz(), count);
        assert_eq!(exceedances.len(), count);
        // The PoT refit input must agree with the selection even when the f64
        // threshold is not representable in f32 (0.35 rounds down, so the
        // 0.35f32 elements tie the rounded threshold and are transmitted).
        let irrational = [0.35f32, -0.35, 0.1, 0.7];
        let eta = 0.35f64;
        let refit = sidco_stats::moments::AbsMoments::compute_exceedances(&irrational, eta);
        assert_eq!(count_above_threshold(&irrational, eta), 3);
        assert_eq!(select_above_threshold(&irrational, eta).nnz(), 3);
        assert_eq!(exceedance_magnitudes(&irrational, eta).len(), 3);
        assert_eq!(refit.count, 3);
    }

    #[test]
    fn select_keeps_infinities_and_drops_nan() {
        let grad = [
            f32::NAN,
            f32::INFINITY,
            0.5,
            f32::NEG_INFINITY,
            -0.0,
            f32::MIN_POSITIVE / 2.0,
        ];
        let indices = |t: f64| select_above_threshold(&grad, t).indices().to_vec();
        assert_eq!(indices(0.25), [1, 2, 3]);
        assert_eq!(indices(f64::INFINITY), [1, 3]);
        assert_eq!(indices(1e300), [1, 3]);
        assert_eq!(indices(0.0), [1, 2, 3, 4, 5]);
        assert_eq!(indices(-1.0), [1, 2, 3, 4, 5]);
        assert_eq!(indices(1e-40), [1, 2, 3, 5]);
        assert!(indices(f64::NAN).is_empty());
        for t in [0.25, f64::INFINITY, 0.0, -1.0, 1e-40, f64::NAN] {
            assert_eq!(count_above_threshold(&grad, t), indices(t).len(), "{t}");
        }
    }

    #[test]
    fn sparse_selections_span_probes_and_blocks() {
        // One survivor every 997 elements: most probes are skipped, and the
        // kept pairs cross block boundaries.
        let grad: Vec<f32> = (0..10_000)
            .map(|i| if i % 997 == 3 { -2.0 } else { 0.5 })
            .collect();
        let s = select_above_threshold(&grad, 1.0);
        let expected: Vec<u32> = (0..10_000).filter(|i| i % 997 == 3).collect();
        assert_eq!(s.indices(), expected.as_slice());
        assert!(s.values().iter().all(|&v| v == -2.0));
        assert_eq!(select_above_threshold(&grad, 0.5).nnz(), grad.len());
    }

    #[test]
    fn empty_gradient() {
        assert_eq!(count_above_threshold(&[], 0.1), 0);
        assert_eq!(select_above_threshold(&[], 0.1).nnz(), 0);
        assert!(exceedance_magnitudes(&[], 0.1).is_empty());
    }
}
