//! Softmax (multinomial logistic) classification — the stand-in for the paper's
//! image-classification workloads, with a reportable top-1 accuracy.

use crate::dataset::ClassificationDataset;
use crate::kernel::{argmax, f32_term, row_chains, softmax_in_place, sum_seed};
use crate::model::DifferentiableModel;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sidco_tensor::GradientVector;

/// Softmax classifier `p(c|x) ∝ exp(W_c · x + b_c)` trained with cross-entropy.
///
/// Parameters are stored flat as `[W (classes × dim) | b (classes)]`.
///
/// # Example
///
/// ```
/// use sidco_models::dataset::ClassificationDataset;
/// use sidco_models::logistic::SoftmaxClassifier;
/// use sidco_models::DifferentiableModel;
///
/// let data = ClassificationDataset::gaussian_blobs(120, 6, 3, 4.0, 1);
/// let model = SoftmaxClassifier::new(data);
/// assert_eq!(model.num_parameters(), 3 * 6 + 3);
/// ```
#[derive(Debug, Clone)]
pub struct SoftmaxClassifier {
    data: ClassificationDataset,
}

impl SoftmaxClassifier {
    /// Wraps a classification dataset.
    pub fn new(data: ClassificationDataset) -> Self {
        Self { data }
    }

    fn dim(&self) -> usize {
        self.data.dim()
    }

    fn classes(&self) -> usize {
        self.data.classes()
    }

    /// Writes the class logits of one example into `logits` (`classes` long):
    /// `Σ_j (W[c,j]·x_j) as f64 + b_c`, the sum seeded as `Sum for f64` seeds
    /// it.
    fn logits_into(&self, params: &[f32], example: usize, logits: &mut [f64]) {
        let weights = self.classes() * self.dim();
        logits.fill(sum_seed());
        row_chains(
            logits,
            &params[..weights],
            self.data.features(example),
            f32_term,
        );
        for (logit, &b) in logits.iter_mut().zip(&params[weights..]) {
            *logit += b as f64;
        }
    }

    /// Softmax probabilities of one example, written into `probs`.
    fn probs_into(&self, params: &[f32], example: usize, probs: &mut [f64]) {
        self.logits_into(params, example, probs);
        softmax_in_place(probs);
    }
}

impl DifferentiableModel for SoftmaxClassifier {
    fn num_parameters(&self) -> usize {
        self.classes() * self.dim() + self.classes()
    }

    fn layer_sizes(&self) -> Vec<usize> {
        vec![self.classes() * self.dim(), self.classes()]
    }

    fn num_examples(&self) -> usize {
        self.data.len()
    }

    fn initial_parameters(&self, seed: u64) -> GradientVector {
        let mut rng = SmallRng::seed_from_u64(seed);
        GradientVector::from_vec(
            (0..self.num_parameters())
                .map(|_| rng.gen_range(-0.01f32..0.01))
                .collect(),
        )
    }

    fn loss_and_gradient_into(&self, params: &[f32], examples: &[usize], grad: &mut [f32]) -> f64 {
        assert_eq!(
            params.len(),
            self.num_parameters(),
            "parameter dimension mismatch"
        );
        assert_eq!(grad.len(), params.len(), "gradient dimension mismatch");
        assert!(!examples.is_empty(), "mini-batch must not be empty");
        let dim = self.dim();
        let classes = self.classes();
        let bias_offset = classes * dim;
        let m = examples.len() as f64;
        grad.fill(0.0);
        let mut probs = vec![0.0f64; classes];
        let mut loss = 0.0f64;
        for &i in examples {
            self.probs_into(params, i, &mut probs);
            let label = self.data.label(i);
            loss -= probs[label].max(1e-12).ln();
            let x = self.data.features(i);
            for c in 0..classes {
                let err = (probs[c] - if c == label { 1.0 } else { 0.0 }) / m;
                let errf = err as f32;
                let row = &mut grad[c * dim..(c + 1) * dim];
                for (gj, &xj) in row.iter_mut().zip(x) {
                    *gj += errf * xj;
                }
                grad[bias_offset + c] += errf;
            }
        }
        loss / m
    }

    fn example_metrics_into(
        &self,
        params: &[f32],
        first: usize,
        losses: &mut [f64],
        correct: &mut [bool],
    ) -> bool {
        assert_eq!(
            params.len(),
            self.num_parameters(),
            "parameter dimension mismatch"
        );
        assert_eq!(
            losses.len(),
            correct.len(),
            "metric buffers differ in length"
        );
        let mut values = vec![0.0f64; self.classes()];
        for (k, (loss, right)) in losses.iter_mut().zip(correct).enumerate() {
            let i = first + k;
            // The prediction is read off the logits, the loss off the
            // probabilities the same logits turn into.
            self.logits_into(params, i, &mut values);
            *right = argmax(&values) == self.data.label(i);
            softmax_in_place(&mut values);
            *loss = -values[self.data.label(i)].max(1e-12).ln();
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> SoftmaxClassifier {
        SoftmaxClassifier::new(ClassificationDataset::gaussian_blobs(240, 10, 4, 5.0, 31))
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let m = model();
        let params = m.initial_parameters(1);
        let batch: Vec<usize> = (0..24).collect();
        let (_, grad) = m.loss_and_gradient(params.as_slice(), &batch);
        let h = 1e-3f32;
        for j in [0usize, 17, m.num_parameters() - 1] {
            let mut plus = params.clone();
            plus[j] += h;
            let mut minus = params.clone();
            minus[j] -= h;
            let numeric = (m.loss_and_gradient(plus.as_slice(), &batch).0
                - m.loss_and_gradient(minus.as_slice(), &batch).0)
                / (2.0 * h as f64);
            assert!(
                (grad[j] as f64 - numeric).abs() < 1e-3,
                "coordinate {j}: analytic {} vs numeric {numeric}",
                grad[j]
            );
        }
    }

    #[test]
    fn training_improves_accuracy_well_above_chance() {
        let m = model();
        let mut params = m.initial_parameters(2);
        let initial_acc = m.accuracy(params.as_slice()).unwrap();
        let all: Vec<usize> = (0..m.num_examples()).collect();
        for _ in 0..200 {
            let (_, grad) = m.loss_and_gradient(params.as_slice(), &all);
            params.axpy(-1.0, &grad);
        }
        let final_acc = m.accuracy(params.as_slice()).unwrap();
        assert!(
            final_acc > 0.9,
            "separable blobs should be nearly perfectly classified, got {final_acc} (from {initial_acc})"
        );
    }

    #[test]
    fn loss_at_uniform_prediction_is_log_classes() {
        let m = model();
        let params = vec![0.0f32; m.num_parameters()];
        let loss = m.evaluate(&params);
        assert!((loss - (4.0f64).ln()).abs() < 1e-6);
    }

    #[test]
    fn metadata() {
        let m = model();
        assert_eq!(m.num_parameters(), 4 * 10 + 4);
        assert_eq!(m.layer_sizes(), vec![4 * 10, 4]);
        assert_eq!(m.num_examples(), 240);
        assert_eq!(m.data.classes(), 4);
    }
}
