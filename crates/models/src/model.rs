//! The [`DifferentiableModel`] trait implemented by every trainable workload.

use sidco_tensor::GradientVector;
use std::sync::Mutex;

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
/// allocating convenience form over it. The required metric method is
/// [`example_metrics_into`](Self::example_metrics_into), one forward pass per
/// example; [`evaluate`](Self::evaluate) and [`accuracy`](Self::accuracy)
/// are provided over it, and [`dataset_metrics`] runs it sharded over a
/// fan-out. Every method takes `&self`, and the trait is `Sync`, so several
/// workers may compute gradients and metrics concurrently.
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

    /// Per-example metrics over the examples `first..first + losses.len()`,
    /// one forward pass each: `losses[k]` receives example `first + k`'s
    /// signed loss term — what the full-dataset loss adds for it, so the
    /// mean of the terms summed in example order from `+0.0` has exactly
    /// the bits of [`loss_and_gradient`](Self::loss_and_gradient)'s loss
    /// over every example — and, for a classifier, `correct[k]` whether its
    /// predicted class is its label. Returns whether the model is a
    /// classifier; a model without an accuracy metric leaves `correct`
    /// untouched and returns `false`.
    ///
    /// [`evaluate`](Self::evaluate), [`accuracy`](Self::accuracy) and
    /// [`dataset_metrics`] are built on this one method.
    ///
    /// # Panics
    ///
    /// Implementations panic if `params.len() != num_parameters()`, the two
    /// buffers differ in length, or the range runs past the dataset.
    fn example_metrics_into(
        &self,
        params: &[f32],
        first: usize,
        losses: &mut [f64],
        correct: &mut [bool],
    ) -> bool;

    /// Evaluation metric over the full dataset (by convention: the mean loss, so
    /// "lower is better" uniformly across workloads). Used for the
    /// loss-vs-time/iteration curves of Figures 4 and 10. Forward-only, over
    /// [`example_metrics_into`](Self::example_metrics_into), so the result
    /// has exactly the bits of [`loss_and_gradient`](Self::loss_and_gradient)'s
    /// loss over every example.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty, or as
    /// [`example_metrics_into`](Self::example_metrics_into).
    fn evaluate(&self, params: &[f32]) -> f64 {
        assert!(
            self.num_examples() > 0,
            "cannot evaluate on an empty dataset"
        );
        dataset_metrics(self, params, 1, serial).loss
    }

    /// Accuracy-style metric in `[0, 1]` ("higher is better") — the share of
    /// correctly classified examples, `Some(0.0)` on an empty dataset — for
    /// the classifiers, where the paper reports top-1 accuracy; `None` for
    /// every other model.
    ///
    /// # Panics
    ///
    /// As [`example_metrics_into`](Self::example_metrics_into).
    fn accuracy(&self, params: &[f32]) -> Option<f64> {
        dataset_metrics(self, params, 1, serial).accuracy
    }
}

/// The full-dataset metrics of one forward pass per example: what
/// [`DifferentiableModel::evaluate`] and [`DifferentiableModel::accuracy`]
/// return.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetMetrics {
    /// The mean loss ([`DifferentiableModel::evaluate`]; NaN on an empty
    /// dataset).
    pub loss: f64,
    /// The share of correctly classified examples
    /// ([`DifferentiableModel::accuracy`]).
    pub accuracy: Option<f64>,
}

/// One shard's per-example metrics in a [`dataset_metrics`] pass.
#[derive(Default)]
struct Shard {
    losses: Vec<f64>,
    correct: Vec<bool>,
    classifies: bool,
}

/// Runs every job of a fan-out in index order on the calling thread.
fn serial(jobs: usize, job: &(dyn Fn(usize) + Sync)) {
    (0..jobs).for_each(job);
}

/// The full-dataset metrics of `model` at `params`, with the dataset cut into
/// at most `shards` contiguous equal-size ranges. `fan_out(count, job)` must
/// call `job(s)` exactly once for every shard `s < count`, in any order and
/// on any threads — a pool's indexed fan-out, say. Each job runs
/// [`DifferentiableModel::example_metrics_into`] over its range into its own
/// buffers; after the fan-out the loss terms are summed in example order and
/// the correct predictions counted, so the result has the same bits for
/// every shard count and execution order.
///
/// # Panics
///
/// Panics if `shards == 0`, or as
/// [`DifferentiableModel::example_metrics_into`].
pub fn dataset_metrics<M: DifferentiableModel + ?Sized>(
    model: &M,
    params: &[f32],
    shards: usize,
    fan_out: impl FnOnce(usize, &(dyn Fn(usize) + Sync)),
) -> DatasetMetrics {
    assert!(shards > 0, "the dataset needs at least one shard");
    let n = model.num_examples();
    let size = n.div_ceil(shards).max(1);
    // An empty dataset still runs one (empty) shard, which reports whether
    // the model classifies.
    let count = n.div_ceil(size).max(1);
    let slots: Vec<Mutex<Shard>> = (0..count).map(|_| Mutex::default()).collect();
    fan_out(count, &|index| {
        let first = index * size;
        let len = size.min(n - first);
        let mut shard = Shard {
            losses: vec![0.0; len],
            correct: vec![false; len],
            classifies: false,
        };
        shard.classifies =
            model.example_metrics_into(params, first, &mut shard.losses, &mut shard.correct);
        // INVARIANT: each slot has exactly one writer, this job.
        *slots[index].lock().expect("shard slot poisoned") = shard;
    });
    let (mut loss, mut right, mut classifies) = (0.0f64, 0usize, false);
    for slot in slots {
        // INVARIANT: the fan-out returned, so no job holds a lock.
        let shard = slot.into_inner().expect("shard slot poisoned");
        for term in shard.losses {
            loss += term;
        }
        right += shard.correct.iter().filter(|&&c| c).count();
        classifies |= shard.classifies;
    }
    DatasetMetrics {
        loss: loss / n as f64,
        accuracy: classifies.then(|| right as f64 / n.max(1) as f64),
    }
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
        fn example_metrics_into(
            &self,
            params: &[f32],
            _first: usize,
            losses: &mut [f64],
            _correct: &mut [bool],
        ) -> bool {
            losses.fill(params[0] as f64);
            false
        }
    }

    #[test]
    fn default_accuracy_is_none_and_trait_is_object_safe() {
        let model: Box<dyn DifferentiableModel> = Box::new(Constant);
        assert_eq!(model.accuracy(&[0.0]), None);
        assert_eq!(model.evaluate(&[3.0]), 3.0);
        assert_eq!(model.layer_sizes(), vec![1]);
        assert_eq!(model.layer_backward_costs(), vec![1.0]);
        let (loss, grad) = model.loss_and_gradient(&[2.0], &[0]);
        assert_eq!(loss, 2.0);
        assert_eq!(grad.as_slice(), &[1.0]);
    }
}
