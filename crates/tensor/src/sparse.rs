//! Sparse gradient representation — the wire format produced by every compressor.

use crate::dense::GradientVector;

/// A sparsified gradient: the selected indices and their values, plus the length of
/// the original dense vector.
///
/// This mirrors what an all-gather of compressed gradients actually transmits:
/// `nnz` `(u32 index, f32 value)` pairs, i.e. 8 bytes per retained element.
///
/// # Example
///
/// ```
/// use sidco_tensor::SparseGradient;
///
/// let s = SparseGradient::from_pairs(vec![(1, 0.5), (3, -0.25)], 4);
/// assert_eq!(s.nnz(), 2);
/// assert_eq!(s.to_dense().as_slice(), &[0.0, 0.5, 0.0, -0.25]);
/// assert_eq!(s.wire_bytes(), 2 * 8);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SparseGradient {
    indices: Vec<u32>,
    values: Vec<f32>,
    dense_len: usize,
}

impl SparseGradient {
    /// Creates an empty sparse gradient for a dense vector of length `dense_len`.
    pub fn empty(dense_len: usize) -> Self {
        Self {
            indices: Vec::new(),
            values: Vec::new(),
            dense_len,
        }
    }

    /// Creates a sparse gradient from parallel index/value buffers.
    ///
    /// # Panics
    ///
    /// Panics if the buffers have different lengths or any index is out of range.
    pub fn new(indices: Vec<u32>, values: Vec<f32>, dense_len: usize) -> Self {
        assert_eq!(
            indices.len(),
            values.len(),
            "index and value buffers must have equal lengths"
        );
        assert!(
            indices.iter().all(|&i| (i as usize) < dense_len),
            "sparse index out of range of the dense length {dense_len}"
        );
        Self {
            indices,
            values,
            dense_len,
        }
    }

    /// Creates a sparse gradient from `(index, value)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn from_pairs(pairs: Vec<(u32, f32)>, dense_len: usize) -> Self {
        let (indices, values): (Vec<u32>, Vec<f32>) = pairs.into_iter().unzip();
        Self::new(indices, values, dense_len)
    }

    /// The index and value buffers, so a caller can refill them without
    /// reallocating.
    pub fn into_parts(self) -> (Vec<u32>, Vec<f32>) {
        (self.indices, self.values)
    }

    /// Number of retained (non-zero) elements.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Length of the original dense gradient.
    pub fn dense_len(&self) -> usize {
        self.dense_len
    }

    /// Achieved compression ratio `k̂ / d` (0 for an empty dense vector).
    pub fn achieved_ratio(&self) -> f64 {
        if self.dense_len == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.dense_len as f64
        }
    }

    /// The selected indices.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// The selected values.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Iterator over `(index, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f32)> + '_ {
        self.indices
            .iter()
            .copied()
            .zip(self.values.iter().copied())
    }

    /// Number of bytes this gradient occupies on the wire
    /// (4-byte index + 4-byte value per retained element).
    pub fn wire_bytes(&self) -> usize {
        self.nnz() * (std::mem::size_of::<u32>() + std::mem::size_of::<f32>())
    }

    /// Scatters the sparse values into a fresh dense vector.
    // lint: test-only doc examples and round-trip tests compare payloads densely
    pub fn to_dense(&self) -> GradientVector {
        let mut dense = GradientVector::zeros(self.dense_len);
        let slice = dense.as_mut_slice();
        for (&i, &v) in self.indices.iter().zip(self.values.iter()) {
            slice[i as usize] = v;
        }
        dense
    }

    /// Adds the sparse values into an existing dense accumulator
    /// (`acc[i] += value` for every retained element).
    ///
    /// # Panics
    ///
    /// Panics if the accumulator length differs from [`dense_len`](Self::dense_len).
    pub fn add_into(&self, acc: &mut GradientVector) {
        assert_eq!(
            acc.len(),
            self.dense_len,
            "accumulator length must match the dense length"
        );
        let slice = acc.as_mut_slice();
        for (&i, &v) in self.indices.iter().zip(self.values.iter()) {
            slice[i as usize] += v;
        }
    }

    /// The sparsification residual `g - ĝ`: the dense gradient with the retained
    /// positions zeroed out. This is what the error-feedback mechanism carries to the
    /// next iteration.
    ///
    /// # Panics
    ///
    /// Panics if `original` has a different length.
    pub fn residual(&self, original: &GradientVector) -> GradientVector {
        let mut residual = GradientVector::zeros(self.dense_len);
        self.residual_into(original, &mut residual);
        residual
    }

    /// [`residual`](Self::residual) written into an existing buffer, which
    /// is overwritten — the allocation-free form error feedback uses to
    /// update its memory in place.
    ///
    /// # Panics
    ///
    /// Panics if `original` or `out` has a different length.
    pub fn residual_into(&self, original: &GradientVector, out: &mut GradientVector) {
        assert_eq!(
            original.len(),
            self.dense_len,
            "original length must match the dense length"
        );
        assert_eq!(
            out.len(),
            self.dense_len,
            "residual buffer length must match the dense length"
        );
        let slice = out.as_mut_slice();
        slice.copy_from_slice(original.as_slice());
        for &i in &self.indices {
            slice[i as usize] = 0.0;
        }
    }

    /// L2 norm of the retained values.
    pub fn l2_norm(&self) -> f64 {
        self.values
            .iter()
            .map(|&v| (v as f64) * (v as f64))
            .sum::<f64>()
            .sqrt()
    }
}

impl FromIterator<(u32, f32)> for SparseGradient {
    /// Collects `(index, value)` pairs; the dense length is set to one past the
    /// largest index (use [`SparseGradient::from_pairs`] to control it explicitly).
    fn from_iter<I: IntoIterator<Item = (u32, f32)>>(iter: I) -> Self {
        let pairs: Vec<(u32, f32)> = iter.into_iter().collect();
        let dense_len = pairs
            .iter()
            .map(|&(i, _)| i as usize + 1)
            .max()
            .unwrap_or(0);
        Self::from_pairs(pairs, dense_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let s = SparseGradient::new(vec![0, 2], vec![1.0, -1.0], 3);
        assert_eq!(s.nnz(), 2);
        assert_eq!(s.dense_len(), 3);
        assert_eq!(s.indices(), &[0, 2]);
        assert_eq!(s.values(), &[1.0, -1.0]);
        assert!((s.achieved_ratio() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.wire_bytes(), 16);
        let pairs: Vec<(u32, f32)> = s.iter().collect();
        assert_eq!(pairs, vec![(0, 1.0), (2, -1.0)]);
        assert_eq!(SparseGradient::empty(5).nnz(), 0);
        assert_eq!(SparseGradient::empty(0).achieved_ratio(), 0.0);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn mismatched_buffers_panic() {
        SparseGradient::new(vec![0], vec![1.0, 2.0], 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        SparseGradient::new(vec![5], vec![1.0], 3);
    }

    #[test]
    fn dense_roundtrip_and_residual() {
        let original = GradientVector::from_vec(vec![0.5, -0.1, 0.9, 0.0]);
        let s = SparseGradient::from_pairs(vec![(0, 0.5), (2, 0.9)], 4);
        assert_eq!(s.to_dense().as_slice(), &[0.5, 0.0, 0.9, 0.0]);
        let residual = s.residual(&original);
        assert_eq!(residual.as_slice(), &[0.0, -0.1, 0.0, 0.0]);
        // The in-place form overwrites whatever its buffer held.
        let mut reused = GradientVector::from_vec(vec![7.0; 4]);
        s.residual_into(&original, &mut reused);
        assert_eq!(reused, residual);
        // residual + sparse == original
        let mut recon = s.to_dense();
        recon.add_assign(&residual);
        assert_eq!(recon.as_slice(), original.as_slice());
    }

    #[test]
    fn add_into_accumulates() {
        let mut acc = GradientVector::from_vec(vec![1.0, 1.0, 1.0]);
        let s = SparseGradient::from_pairs(vec![(1, 2.0)], 3);
        s.add_into(&mut acc);
        assert_eq!(acc.as_slice(), &[1.0, 3.0, 1.0]);
    }

    #[test]
    fn from_iterator_infers_len() {
        let s: SparseGradient = vec![(4u32, 1.0f32), (1, 2.0)].into_iter().collect();
        assert_eq!(s.dense_len(), 5);
        assert_eq!(s.nnz(), 2);
        let empty: SparseGradient = Vec::<(u32, f32)>::new().into_iter().collect();
        assert_eq!(empty.dense_len(), 0);
    }

    #[test]
    fn l2_norm_of_values() {
        let s = SparseGradient::from_pairs(vec![(0, 3.0), (1, 4.0)], 2);
        assert!((s.l2_norm() - 5.0).abs() < 1e-9);
    }
}
