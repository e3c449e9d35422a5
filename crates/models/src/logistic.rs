//! Softmax (multinomial logistic) classification — the stand-in for the paper's
//! image-classification workloads, with a reportable top-1 accuracy.

use crate::dataset::ClassificationDataset;
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

    /// The underlying dataset.
    pub fn dataset(&self) -> &ClassificationDataset {
        &self.data
    }

    fn dim(&self) -> usize {
        self.data.dim()
    }

    fn classes(&self) -> usize {
        self.data.classes()
    }

    /// Writes the class logits of one example into `logits` (`classes` long).
    fn logits_into(&self, params: &[f32], example: usize, logits: &mut [f64]) {
        let dim = self.dim();
        let x = self.data.features(example);
        let bias_offset = self.classes() * dim;
        for (c, logit) in logits.iter_mut().enumerate() {
            let w = &params[c * dim..(c + 1) * dim];
            let dot: f64 = w.iter().zip(x).map(|(&wj, &xj)| (wj * xj) as f64).sum();
            *logit = dot + params[bias_offset + c] as f64;
        }
    }

    /// Turns logits into softmax probabilities in place (numerically
    /// stabilised).
    fn softmax_in_place(values: &mut [f64]) {
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for v in values.iter_mut() {
            *v = (*v - max).exp();
        }
        let sum: f64 = values.iter().sum();
        for v in values.iter_mut() {
            *v /= sum;
        }
    }

    /// Softmax probabilities of one example, written into `probs`.
    fn probs_into(&self, params: &[f32], example: usize, probs: &mut [f64]) {
        self.logits_into(params, example, probs);
        Self::softmax_in_place(probs);
    }

    /// Predicted class of one example.
    pub fn predict(&self, params: &[f32], example: usize) -> usize {
        self.predict_with(params, example, &mut vec![0.0; self.classes()])
    }

    /// [`predict`](Self::predict) over a caller-owned logit buffer.
    fn predict_with(&self, params: &[f32], example: usize, logits: &mut [f64]) -> usize {
        self.logits_into(params, example, logits);
        logits
            .iter()
            .enumerate()
            // INVARIANT: logits are dot products of finite weights and
            // finite features, never NaN.
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
            .map(|(c, _)| c)
            .unwrap_or(0)
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

    fn evaluate(&self, params: &[f32]) -> f64 {
        assert_eq!(
            params.len(),
            self.num_parameters(),
            "parameter dimension mismatch"
        );
        assert!(!self.data.is_empty(), "cannot evaluate on an empty dataset");
        let mut probs = vec![0.0f64; self.classes()];
        let mut loss = 0.0f64;
        for i in 0..self.data.len() {
            self.probs_into(params, i, &mut probs);
            loss -= probs[self.data.label(i)].max(1e-12).ln();
        }
        loss / self.data.len() as f64
    }

    fn accuracy(&self, params: &[f32]) -> Option<f64> {
        if self.data.is_empty() {
            return Some(0.0);
        }
        let mut logits = vec![0.0f64; self.classes()];
        let correct = (0..self.data.len())
            .filter(|&i| self.predict_with(params, i, &mut logits) == self.data.label(i))
            .count();
        Some(correct as f64 / self.data.len() as f64)
    }

    fn name(&self) -> &'static str {
        "softmax-classifier"
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
    fn metadata_and_prediction_bounds() {
        let m = model();
        assert_eq!(m.name(), "softmax-classifier");
        assert_eq!(m.num_parameters(), 4 * 10 + 4);
        assert_eq!(m.layer_sizes(), vec![4 * 10, 4]);
        assert_eq!(m.num_examples(), 240);
        let params = m.initial_parameters(3);
        let p = m.predict(params.as_slice(), 0);
        assert!(p < 4);
        assert_eq!(m.dataset().classes(), 4);
    }
}
