//! One-hidden-layer multilayer perceptron with hand-written backpropagation — the
//! non-convex CNN stand-in.

use crate::dataset::ClassificationDataset;
use crate::model::DifferentiableModel;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sidco_tensor::GradientVector;

/// A `dim → hidden → classes` network with tanh activations and a softmax
/// cross-entropy head.
///
/// Parameter layout (flat): `[W1 (hidden × dim) | b1 (hidden) | W2 (classes × hidden) | b2 (classes)]`.
///
/// # Example
///
/// ```
/// use sidco_models::dataset::ClassificationDataset;
/// use sidco_models::mlp::Mlp;
/// use sidco_models::DifferentiableModel;
///
/// let data = ClassificationDataset::gaussian_blobs(60, 5, 3, 4.0, 1);
/// let model = Mlp::new(data, 16);
/// assert_eq!(model.num_parameters(), 16 * 5 + 16 + 3 * 16 + 3);
/// ```
#[derive(Debug, Clone)]
pub struct Mlp {
    data: ClassificationDataset,
    hidden: usize,
}

impl Mlp {
    /// Wraps a classification dataset with the given hidden-layer width.
    ///
    /// # Panics
    ///
    /// Panics if `hidden == 0`.
    pub fn new(data: ClassificationDataset, hidden: usize) -> Self {
        assert!(hidden > 0, "hidden width must be positive");
        Self { data, hidden }
    }

    /// Hidden-layer width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    fn dim(&self) -> usize {
        self.data.dim()
    }

    fn classes(&self) -> usize {
        self.data.classes()
    }

    fn w1_offset(&self) -> usize {
        0
    }
    fn b1_offset(&self) -> usize {
        self.hidden * self.dim()
    }
    fn w2_offset(&self) -> usize {
        self.b1_offset() + self.hidden
    }
    fn b2_offset(&self) -> usize {
        self.w2_offset() + self.classes() * self.hidden
    }

    /// Forward pass for one example: writes the hidden activations into `h`
    /// (`hidden` long) and the class probabilities into `probs` (`classes`
    /// long), so a caller looping over examples reuses one pair of buffers.
    fn forward_into(&self, params: &[f32], example: usize, h: &mut [f64], probs: &mut [f64]) {
        let dim = self.dim();
        let hidden = self.hidden;
        let x = self.data.features(example);
        let w1 = &params[self.w1_offset()..self.b1_offset()];
        let b1 = &params[self.b1_offset()..self.w2_offset()];
        let w2 = &params[self.w2_offset()..self.b2_offset()];
        let b2 = &params[self.b2_offset()..];

        for (j, hj) in h.iter_mut().enumerate() {
            let row = &w1[j * dim..(j + 1) * dim];
            let pre: f64 = row
                .iter()
                .zip(x)
                .map(|(&w, &xi)| (w * xi) as f64)
                .sum::<f64>()
                + b1[j] as f64;
            *hj = pre.tanh();
        }
        // `probs` holds the logits, then their shifted exponentials, then
        // the normalised probabilities.
        for (c, logit) in probs.iter_mut().enumerate() {
            let row = &w2[c * hidden..(c + 1) * hidden];
            *logit = row
                .iter()
                .zip(&*h)
                .map(|(&w, &hj)| w as f64 * hj)
                .sum::<f64>()
                + b2[c] as f64;
        }
        let max = probs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for p in probs.iter_mut() {
            *p = (*p - max).exp();
        }
        let sum: f64 = probs.iter().sum();
        for p in probs.iter_mut() {
            *p /= sum;
        }
    }

    /// Predicted class of one example.
    pub fn predict(&self, params: &[f32], example: usize) -> usize {
        let (mut h, mut probs) = (vec![0.0; self.hidden], vec![0.0; self.classes()]);
        self.predict_with(params, example, &mut h, &mut probs)
    }

    /// [`predict`](Self::predict) over caller-owned forward buffers.
    fn predict_with(
        &self,
        params: &[f32],
        example: usize,
        h: &mut [f64],
        probs: &mut [f64],
    ) -> usize {
        self.forward_into(params, example, h, probs);
        probs
            .iter()
            .enumerate()
            // INVARIANT: softmax outputs are finite by construction
            // (inputs are shifted by the max logit), never NaN.
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite probabilities"))
            .map(|(c, _)| c)
            .unwrap_or(0)
    }
}

impl DifferentiableModel for Mlp {
    fn num_parameters(&self) -> usize {
        self.hidden * self.dim() + self.hidden + self.classes() * self.hidden + self.classes()
    }

    fn layer_sizes(&self) -> Vec<usize> {
        vec![
            self.hidden * self.dim(),
            self.hidden,
            self.classes() * self.hidden,
            self.classes(),
        ]
    }

    fn num_examples(&self) -> usize {
        self.data.len()
    }

    fn initial_parameters(&self, seed: u64) -> GradientVector {
        let mut rng = SmallRng::seed_from_u64(seed);
        // Xavier-ish uniform initialisation keyed off the fan-in of each block.
        let dim = self.dim();
        let hidden = self.hidden;
        let classes = self.classes();
        let mut params = Vec::with_capacity(self.num_parameters());
        let limit1 = (6.0f64 / (dim + hidden) as f64).sqrt() as f32;
        for _ in 0..hidden * dim {
            params.push(rng.gen_range(-limit1..limit1));
        }
        params.extend(std::iter::repeat_n(0.0f32, hidden));
        let limit2 = (6.0f64 / (hidden + classes) as f64).sqrt() as f32;
        for _ in 0..classes * hidden {
            params.push(rng.gen_range(-limit2..limit2));
        }
        params.extend(std::iter::repeat_n(0.0f32, classes));
        GradientVector::from_vec(params)
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
        let hidden = self.hidden;
        let classes = self.classes();
        let m = examples.len() as f64;
        let w2 = &params[self.w2_offset()..self.b2_offset()];

        grad.fill(0.0);
        let (mut h, mut probs, mut dlogits) = (
            vec![0.0f64; hidden],
            vec![0.0f64; classes],
            vec![0.0f64; classes],
        );
        let mut loss = 0.0f64;
        for &i in examples {
            self.forward_into(params, i, &mut h, &mut probs);
            let label = self.data.label(i);
            loss -= probs[label].max(1e-12).ln();
            let x = self.data.features(i);

            // dL/dlogit_c = p_c - 1{c = label}
            for (c, d) in dlogits.iter_mut().enumerate() {
                *d = (probs[c] - if c == label { 1.0 } else { 0.0 }) / m;
            }

            // Output layer gradients.
            for c in 0..classes {
                let base = self.w2_offset() + c * hidden;
                for j in 0..hidden {
                    grad[base + j] += (dlogits[c] * h[j]) as f32;
                }
                grad[self.b2_offset() + c] += dlogits[c] as f32;
            }

            // Back-propagate into the hidden layer: dL/dh_j = Σ_c dlogit_c · W2[c,j],
            // then through tanh: dL/dpre_j = dL/dh_j · (1 - h_j²).
            for j in 0..hidden {
                let mut dh = 0.0f64;
                for c in 0..classes {
                    dh += dlogits[c] * w2[c * hidden + j] as f64;
                }
                let dpre = dh * (1.0 - h[j] * h[j]);
                let base = self.w1_offset() + j * dim;
                for (offset, &xj) in x.iter().enumerate() {
                    grad[base + offset] += (dpre * xj as f64) as f32;
                }
                grad[self.b1_offset() + j] += dpre as f32;
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
        let (mut h, mut probs) = (vec![0.0f64; self.hidden], vec![0.0f64; self.classes()]);
        let mut loss = 0.0f64;
        for i in 0..self.data.len() {
            self.forward_into(params, i, &mut h, &mut probs);
            loss -= probs[self.data.label(i)].max(1e-12).ln();
        }
        loss / self.data.len() as f64
    }

    fn accuracy(&self, params: &[f32]) -> Option<f64> {
        if self.data.is_empty() {
            return Some(0.0);
        }
        let (mut h, mut probs) = (vec![0.0f64; self.hidden], vec![0.0f64; self.classes()]);
        let correct = (0..self.data.len())
            .filter(|&i| self.predict_with(params, i, &mut h, &mut probs) == self.data.label(i))
            .count();
        Some(correct as f64 / self.data.len() as f64)
    }

    fn name(&self) -> &'static str {
        "mlp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> Mlp {
        Mlp::new(
            ClassificationDataset::gaussian_blobs(160, 8, 3, 4.0, 41),
            12,
        )
    }

    #[test]
    fn parameter_layout_adds_up() {
        let m = model();
        assert_eq!(m.num_parameters(), 12 * 8 + 12 + 3 * 12 + 3);
        assert_eq!(m.layer_sizes(), vec![12 * 8, 12, 3 * 12, 3]);
        assert_eq!(m.layer_sizes().iter().sum::<usize>(), m.num_parameters());
        assert_eq!(m.hidden(), 12);
        let params = m.initial_parameters(1);
        assert_eq!(params.len(), m.num_parameters());
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let m = model();
        let params = m.initial_parameters(2);
        let batch: Vec<usize> = (0..16).collect();
        let (_, grad) = m.loss_and_gradient(params.as_slice(), &batch);
        let h = 1e-3f32;
        // One coordinate from each parameter block.
        let probes = [0usize, 12 * 8 + 3, 12 * 8 + 12 + 5, m.num_parameters() - 1];
        for &j in &probes {
            let mut plus = params.clone();
            plus[j] += h;
            let mut minus = params.clone();
            minus[j] -= h;
            let numeric = (m.loss_and_gradient(plus.as_slice(), &batch).0
                - m.loss_and_gradient(minus.as_slice(), &batch).0)
                / (2.0 * h as f64);
            assert!(
                (grad[j] as f64 - numeric).abs() < 2e-3,
                "coordinate {j}: analytic {} vs numeric {numeric}",
                grad[j]
            );
        }
    }

    #[test]
    fn training_improves_accuracy() {
        let m = model();
        let mut params = m.initial_parameters(3);
        let all: Vec<usize> = (0..m.num_examples()).collect();
        let initial = m.evaluate(params.as_slice());
        for _ in 0..300 {
            let (_, grad) = m.loss_and_gradient(params.as_slice(), &all);
            params.axpy(-1.0, &grad);
        }
        let final_loss = m.evaluate(params.as_slice());
        assert!(
            final_loss < initial,
            "loss should decrease: {initial} -> {final_loss}"
        );
        assert!(m.accuracy(params.as_slice()).unwrap() > 0.85);
    }

    #[test]
    #[should_panic(expected = "hidden width")]
    fn rejects_zero_hidden() {
        Mlp::new(ClassificationDataset::gaussian_blobs(10, 4, 2, 1.0, 1), 0);
    }

    #[test]
    fn metadata() {
        let m = model();
        assert_eq!(m.name(), "mlp");
        assert_eq!(m.num_examples(), 160);
        let params = m.initial_parameters(4);
        assert!(m.predict(params.as_slice(), 0) < 3);
    }
}
