//! The [`DifferentiableModel`] trait implemented by every trainable workload.

use sidco_tensor::GradientVector;

/// A model that the distributed-SGD simulator can train.
///
/// The trait deliberately mirrors what a data-parallel framework sees: given the
/// current flat parameter vector and a mini-batch of example indices, produce the
/// mini-batch loss and the flat gradient. Implementations own their (synthetic)
/// dataset, so a worker only needs its shard of example indices.
///
/// The required gradient method is
/// [`loss_and_gradient_into`](Self::loss_and_gradient_into), which writes into
/// a caller-owned buffer so a trainer can keep one gradient buffer per worker
/// across iterations; [`loss_and_gradient`](Self::loss_and_gradient) is the
/// allocating convenience form over it. Every method takes `&self`, and the
/// trait is `Sync`, so several workers may compute gradients concurrently.
pub trait DifferentiableModel: Send + Sync {
    /// Total number of trainable parameters (the gradient dimension `d`).
    fn num_parameters(&self) -> usize;

    /// Sizes of the model's consecutive parameter tensors (layers), in flat
    /// parameter order. Must be non-empty, all-positive, and sum to
    /// [`num_parameters`](Self::num_parameters). The distributed trainer uses
    /// these shapes to lay gradient buckets out along real layer boundaries.
    /// Defaults to a single layer covering every parameter.
    fn layer_sizes(&self) -> Vec<usize> {
        vec![self.num_parameters()]
    }

    /// Relative backward-pass cost of each layer, aligned with
    /// [`layer_sizes`](Self::layer_sizes) (same length, all positive). Only
    /// the *ratios* matter: the distributed simulator normalises the weights
    /// against its modelled backward-pass duration to derive the time at
    /// which each layer's gradient becomes available. The backward pass runs
    /// output-to-input, so the **last** layer's gradient materialises first
    /// and layer 0's last. Defaults to flop-proportional weights (one unit of
    /// backward work per parameter), which is exact for the dense blocks all
    /// bundled workloads are built from.
    fn layer_backward_costs(&self) -> Vec<f64> {
        self.layer_sizes().iter().map(|&s| s as f64).collect()
    }

    /// Number of training examples in the dataset.
    fn num_examples(&self) -> usize;

    /// Deterministic parameter initialisation.
    fn initial_parameters(&self, seed: u64) -> GradientVector;

    /// Mini-batch loss at `params` over the given example indices; the
    /// mini-batch gradient *overwrites* `grad` (whatever it held before is
    /// ignored, NaN included).
    ///
    /// # Panics
    ///
    /// Implementations panic if `params.len() != num_parameters()`,
    /// `grad.len() != num_parameters()`, `examples` is empty or an example
    /// index is out of range.
    fn loss_and_gradient_into(&self, params: &[f32], examples: &[usize], grad: &mut [f32]) -> f64;

    /// Mini-batch loss and a freshly allocated gradient at `params` over the
    /// given example indices — [`loss_and_gradient_into`](Self::loss_and_gradient_into)
    /// on a new buffer, with the same bits.
    ///
    /// # Panics
    ///
    /// As [`loss_and_gradient_into`](Self::loss_and_gradient_into).
    fn loss_and_gradient(&self, params: &[f32], examples: &[usize]) -> (f64, GradientVector) {
        let mut grad = GradientVector::zeros(self.num_parameters());
        let loss = self.loss_and_gradient_into(params, examples, grad.as_mut_slice());
        (loss, grad)
    }

    /// Evaluation metric over the full dataset (by convention: the mean loss, so
    /// "lower is better" uniformly across workloads). Used for the
    /// loss-vs-time/iteration curves of Figures 4 and 10. The bundled models
    /// compute it forward-only, summing the per-example losses in the order
    /// [`loss_and_gradient`](Self::loss_and_gradient) over every example
    /// would, so the result has exactly the bits of that call's loss.
    ///
    /// # Panics
    ///
    /// The bundled models panic if `params.len() != num_parameters()` or
    /// the dataset is empty.
    fn evaluate(&self, params: &[f32]) -> f64;

    /// Optional accuracy-style metric in `[0, 1]` ("higher is better"), for the
    /// workloads where the paper reports top-1 accuracy. Defaults to `None`.
    fn accuracy(&self, _params: &[f32]) -> Option<f64> {
        None
    }

    /// Short name used in reports.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Constant;

    impl DifferentiableModel for Constant {
        fn num_parameters(&self) -> usize {
            1
        }
        fn num_examples(&self) -> usize {
            1
        }
        fn initial_parameters(&self, _seed: u64) -> GradientVector {
            GradientVector::zeros(1)
        }
        fn loss_and_gradient_into(
            &self,
            params: &[f32],
            _examples: &[usize],
            grad: &mut [f32],
        ) -> f64 {
            grad[0] = 1.0;
            params[0] as f64
        }
        fn evaluate(&self, params: &[f32]) -> f64 {
            params[0] as f64
        }
        fn name(&self) -> &'static str {
            "constant"
        }
    }

    #[test]
    fn default_accuracy_is_none_and_trait_is_object_safe() {
        let model: Box<dyn DifferentiableModel> = Box::new(Constant);
        assert_eq!(model.accuracy(&[0.0]), None);
        assert_eq!(model.layer_sizes(), vec![1]);
        assert_eq!(model.layer_backward_costs(), vec![1.0]);
        assert_eq!(model.name(), "constant");
        let (loss, grad) = model.loss_and_gradient(&[2.0], &[0]);
        assert_eq!(loss, 2.0);
        assert_eq!(grad.as_slice(), &[1.0]);
    }
}
