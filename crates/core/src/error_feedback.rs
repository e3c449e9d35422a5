//! Error feedback (EC) — the memory mechanism that adds the previous iteration's
//! sparsification residual back into the gradient before compression
//! (Karimireddy et al. 2019; Appendix B.2 of the paper).

use crate::compressor::{CompressionResult, Compressor};
use sidco_tensor::{GradientVector, SparseGradient};

/// Error-feedback memory for one worker.
///
/// Usage per iteration:
///
/// 1. [`corrected`](Self::corrected) — add the stored residual to the fresh
///    gradient: `g ← g + e`;
/// 2. compress the corrected gradient with any [`Compressor`];
/// 3. [`update`](Self::update) — store the new residual `e ← g - ĝ`.
///
/// [`compress_with`](Self::compress_with) performs all three steps.
///
/// # Example
///
/// ```
/// use sidco_core::prelude::*;
///
/// let mut ec = ErrorFeedback::new(4);
/// let mut topk = TopKCompressor::new();
/// let grad = GradientVector::from_vec(vec![0.5, -0.1, 0.3, -0.05]);
/// let result = ec.compress_with(&mut topk, &grad, 0.5);
/// assert_eq!(result.sparse.nnz(), 2);
/// // The dropped coordinates are remembered...
/// assert!(ec.memory().l1_norm() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorFeedback {
    memory: GradientVector,
}

impl ErrorFeedback {
    /// Creates an error-feedback memory for gradients of dimension `dim`,
    /// initialised to zero.
    pub fn new(dim: usize) -> Self {
        Self {
            memory: GradientVector::zeros(dim),
        }
    }

    /// The current residual memory.
    pub fn memory(&self) -> &GradientVector {
        &self.memory
    }

    /// Adds another worker's residual into this memory — the migration
    /// primitive elastic rescaling uses to fold a departing worker's error
    /// feedback into a survivor, so the departing residual's gradient mass
    /// re-enters training instead of being lost.
    ///
    /// # Panics
    ///
    /// Panics if `residual` has a different dimension than the memory.
    pub fn fold_in(&mut self, residual: &GradientVector) {
        assert_eq!(
            residual.len(),
            self.memory.len(),
            "residual dimension {} does not match error-feedback memory {}",
            residual.len(),
            self.memory.len()
        );
        self.memory.add_assign(residual);
    }

    /// Returns the error-corrected gradient `g + e` without modifying the memory.
    ///
    /// # Panics
    ///
    /// Panics if `grad` has a different dimension than the memory.
    pub fn corrected(&self, grad: &GradientVector) -> GradientVector {
        assert_eq!(
            grad.len(),
            self.memory.len(),
            "gradient dimension {} does not match error-feedback memory {}",
            grad.len(),
            self.memory.len()
        );
        let mut corrected = grad.clone();
        corrected.add_assign(&self.memory);
        corrected
    }

    /// Stores the residual of `compressed` with respect to the `corrected` gradient:
    /// `e ← corrected - ĝ`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions do not match.
    pub fn update(&mut self, corrected: &GradientVector, compressed: &CompressionResult) {
        self.update_sparse(corrected, &compressed.sparse);
    }

    /// Like [`update`](Self::update) but takes the transmitted sparse gradient
    /// directly — used by the bucketed trainer, which assembles one combined
    /// sparse gradient out of several per-bucket compression results. The
    /// residual overwrites the existing memory without allocating.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions do not match.
    pub fn update_sparse(&mut self, corrected: &GradientVector, transmitted: &SparseGradient) {
        assert_eq!(
            corrected.len(),
            self.memory.len(),
            "corrected gradient dimension {} does not match error-feedback memory {}",
            corrected.len(),
            self.memory.len()
        );
        transmitted.residual_into(corrected, &mut self.memory);
    }

    /// Convenience wrapper running correction → compression → memory update.
    ///
    /// # Panics
    ///
    /// Panics if `grad` has a different dimension than the memory.
    pub fn compress_with<C: Compressor + ?Sized>(
        &mut self,
        compressor: &mut C,
        grad: &GradientVector,
        delta: f64,
    ) -> CompressionResult {
        let corrected = self.corrected(grad);
        let result = compressor.compress(corrected.as_slice(), delta);
        self.update(&corrected, &result);
        result
    }

    /// Clears the memory (e.g. at epoch boundaries when the learning-rate schedule
    /// resets, or between experiments).
    pub fn clear(&mut self) {
        self.memory.fill_zero();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topk::TopKCompressor;

    #[test]
    fn residual_is_carried_to_next_iteration() {
        let mut ec = ErrorFeedback::new(4);
        let mut topk = TopKCompressor::new();
        let grad = GradientVector::from_vec(vec![1.0, 0.4, 0.3, 0.2]);

        let r1 = ec.compress_with(&mut topk, &grad, 0.25);
        assert_eq!(r1.sparse.nnz(), 1);
        // The largest element (1.0) was sent; 0.4, 0.3, 0.2 remain in memory.
        assert_eq!(ec.memory().as_slice(), &[0.0, 0.4, 0.3, 0.2]);

        // Next iteration with the same raw gradient: the corrected gradient doubles
        // the remembered coordinates, so 0.4 + 0.4 = 0.8 gets closer to being sent.
        let r2 = ec.compress_with(&mut topk, &grad, 0.25);
        assert_eq!(r2.sparse.nnz(), 1);
        let sent_index = r2.sparse.indices()[0];
        assert_eq!(sent_index, 0, "1.0 + 0.0 is still the largest");
        assert_eq!(ec.memory().as_slice(), &[0.0, 0.8, 0.6, 0.4]);

        // Eventually the accumulated small coordinates win.
        let r3 = ec.compress_with(&mut topk, &grad, 0.25);
        assert_eq!(
            r3.sparse.indices(),
            &[1],
            "0.4*3 = 1.2 > 1.0 must be selected"
        );
    }

    #[test]
    fn sum_of_sent_and_memory_preserves_mass() {
        // Invariant: corrected = sent + new_memory, so no gradient signal is lost.
        let mut ec = ErrorFeedback::new(5);
        let mut topk = TopKCompressor::new();
        let grad = GradientVector::from_vec(vec![0.9, -0.7, 0.5, -0.3, 0.1]);
        let corrected = ec.corrected(&grad);
        let result = ec.compress_with(&mut topk, &grad, 0.4);
        let mut reconstructed = result.sparse.to_dense();
        reconstructed.add_assign(ec.memory());
        for (a, b) in reconstructed.as_slice().iter().zip(corrected.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn in_place_update_keeps_the_residual_bits() {
        let corrected = GradientVector::from_vec(vec![0.5, -0.0, f32::NAN, -2.0, 1e-30]);
        let transmitted = SparseGradient::new(vec![0, 3], vec![0.5, -2.0], 5);
        let mut ec = ErrorFeedback::new(5);
        ec.fold_in(&GradientVector::from_vec(vec![9.0; 5]));
        ec.update_sparse(&corrected, &transmitted);
        // The old memory is gone; unsent entries keep their exact bits
        // (signed zero and NaN included), sent ones are +0.
        let expected = [0.0, -0.0, f32::NAN, 0.0, 1e-30];
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(ec.memory().as_slice()), bits(&expected));
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn update_rejects_a_mismatched_gradient() {
        let mut ec = ErrorFeedback::new(3);
        ec.update_sparse(&GradientVector::zeros(4), &SparseGradient::empty(4));
    }

    #[test]
    fn clear_resets_memory() {
        let mut ec = ErrorFeedback::new(3);
        let mut topk = TopKCompressor::new();
        let grad = GradientVector::from_vec(vec![0.5, 0.4, 0.3]);
        ec.compress_with(&mut topk, &grad, 0.34);
        assert!(ec.memory().l1_norm() > 0.0);
        ec.clear();
        assert_eq!(ec.memory().l1_norm(), 0.0);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn dimension_mismatch_panics() {
        let ec = ErrorFeedback::new(3);
        ec.corrected(&GradientVector::zeros(4));
    }
}
