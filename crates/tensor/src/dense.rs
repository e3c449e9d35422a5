//! Dense gradient vectors and BLAS-1 style operations.

use std::ops::{Index, IndexMut};

/// An owned dense gradient vector (`f32`, matching the wire precision of the
/// frameworks the paper targets).
///
/// The type is a thin wrapper over `Vec<f32>` that adds the reductions and update
/// operations the distributed-SGD simulator needs; it intentionally stays `f32`
/// end-to-end while all statistical accumulation happens in `f64` inside
/// `sidco-stats`.
///
/// # Example
///
/// ```
/// use sidco_tensor::GradientVector;
///
/// let mut g = GradientVector::zeros(4);
/// g.as_mut_slice().copy_from_slice(&[1.0, -2.0, 3.0, 0.0]);
/// assert_eq!(g.len(), 4);
/// assert!((g.l2_norm() - 14.0f64.sqrt()).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GradientVector {
    data: Vec<f32>,
}

impl GradientVector {
    /// Creates a zero-filled gradient of length `len`.
    pub fn zeros(len: usize) -> Self {
        Self {
            data: vec![0.0; len],
        }
    }

    /// Wraps an existing buffer without copying.
    pub fn from_vec(data: Vec<f32>) -> Self {
        Self { data }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the vector and returns the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Euclidean norm, accumulated in `f64`.
    pub fn l2_norm(&self) -> f64 {
        self.data
            .iter()
            .map(|&x| (x as f64) * (x as f64))
            .sum::<f64>()
            .sqrt()
    }

    /// Sum of absolute values, accumulated in `f64`.
    pub fn l1_norm(&self) -> f64 {
        self.data.iter().map(|&x| x.abs() as f64).sum()
    }

    /// Scales every element by `factor`.
    pub fn scale(&mut self, factor: f32) {
        self.data.iter_mut().for_each(|x| *x *= factor);
    }

    /// `self += alpha * other`, element-wise.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn axpy(&mut self, alpha: f32, other: &GradientVector) {
        assert_eq!(
            self.len(),
            other.len(),
            "axpy requires equal lengths ({} vs {})",
            self.len(),
            other.len()
        );
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// `self += other`, element-wise.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn add_assign(&mut self, other: &GradientVector) {
        self.axpy(1.0, other);
    }

    /// Clips in place so the L2 norm does not exceed `max_norm` (gradient
    /// clipping as used by the RNN benchmarks in Table 1).
    pub fn clip_to_norm(&mut self, max_norm: f64) {
        let norm = self.l2_norm();
        if norm > max_norm && norm > 0.0 {
            self.scale((max_norm / norm) as f32);
        }
    }
}

impl From<Vec<f32>> for GradientVector {
    fn from(data: Vec<f32>) -> Self {
        Self::from_vec(data)
    }
}

impl AsRef<[f32]> for GradientVector {
    fn as_ref(&self) -> &[f32] {
        &self.data
    }
}

impl Index<usize> for GradientVector {
    type Output = f32;

    fn index(&self, index: usize) -> &f32 {
        &self.data[index]
    }
}

impl IndexMut<usize> for GradientVector {
    fn index_mut(&mut self, index: usize) -> &mut f32 {
        &mut self.data[index]
    }
}

impl FromIterator<f32> for GradientVector {
    fn from_iter<I: IntoIterator<Item = f32>>(iter: I) -> Self {
        Self {
            data: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_views() {
        let g = GradientVector::zeros(3);
        assert_eq!(g.len(), 3);
        assert!(!g.is_empty());
        assert_eq!(g.as_slice(), &[0.0, 0.0, 0.0]);
        let g = GradientVector::from_vec(vec![1.0, 2.0]);
        assert_eq!(g.into_vec(), vec![1.0, 2.0]);
        let g: GradientVector = vec![1.0f32, 2.0].into();
        assert_eq!(g[1], 2.0);
        let g: GradientVector = [3.0f32, 4.0].into_iter().collect();
        assert_eq!(g.as_ref(), &[3.0, 4.0]);
    }

    #[test]
    fn norms() {
        let g = GradientVector::from_vec(vec![3.0, -4.0]);
        assert!((g.l2_norm() - 5.0).abs() < 1e-9);
        assert!((g.l1_norm() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn scale_axpy_add() {
        let mut a = GradientVector::from_vec(vec![1.0, 2.0]);
        let b = GradientVector::from_vec(vec![10.0, 20.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[6.0, 12.0]);
        a.scale(2.0);
        assert_eq!(a.as_slice(), &[12.0, 24.0]);
        a.add_assign(&b);
        assert_eq!(a.as_slice(), &[22.0, 44.0]);
        a.fill_zero();
        assert_eq!(a.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn axpy_length_mismatch_panics() {
        let mut a = GradientVector::zeros(2);
        let b = GradientVector::zeros(3);
        a.axpy(1.0, &b);
    }

    #[test]
    fn clipping() {
        let g = GradientVector::from_vec(vec![3.0, 4.0]);
        let mut clipped = g.clone();
        clipped.clip_to_norm(1.0);
        assert!((clipped.l2_norm() - 1.0).abs() < 1e-6);
        // Already inside the ball: unchanged.
        let mut clipped = g.clone();
        clipped.clip_to_norm(10.0);
        assert_eq!(clipped, g);
    }
}
