//! One-hidden-layer multilayer perceptron with hand-written backpropagation — the
//! non-convex CNN stand-in.

use crate::dataset::ClassificationDataset;
use crate::kernel::{
    argmax, f32_term, f64_term, row_chains, row_chains_x2, softmax_in_place, sum_seed,
};
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

    /// Forward pass for one or two examples (`examples.len()` is 1 or 2):
    /// writes each example's hidden activations into its `hidden`-long row
    /// of `h` and its class probabilities into its `classes`-long row of
    /// `probs`, so a caller looping over examples reuses one pair of
    /// buffers. Two examples share every `W1` load; each keeps its own
    /// chains, so both get the bits of a one-example pass.
    fn forward_into(&self, params: &[f32], examples: &[usize], h: &mut [f64], probs: &mut [f64]) {
        let hidden = self.hidden;
        let classes = self.classes();
        let w1 = &params[self.w1_offset()..self.b1_offset()];
        let b1 = &params[self.b1_offset()..self.w2_offset()];
        let w2 = &params[self.w2_offset()..self.b2_offset()];
        let b2 = &params[self.b2_offset()..];
        let h = &mut h[..examples.len() * hidden];
        let probs = &mut probs[..examples.len() * classes];

        // Each hidden pre-activation is `Σ_k (W1[j,k]·x_k) as f64 + b1[j]`,
        // the sum seeded as `Sum for f64` seeds it.
        h.fill(sum_seed());
        match *examples {
            [i] => row_chains(h, w1, self.data.features(i), f32_term),
            [i0, i1] => {
                let (h0, h1) = h.split_at_mut(hidden);
                let x = [self.data.features(i0), self.data.features(i1)];
                row_chains_x2([h0, h1], w1, x, f32_term);
            }
            _ => panic!("a forward pass covers one or two examples"),
        }
        for row in h.chunks_exact_mut(hidden) {
            for (hj, &b) in row.iter_mut().zip(b1) {
                *hj = (*hj + b as f64).tanh();
            }
        }
        // Each `probs` row holds the logits, then their shifted
        // exponentials, then the normalised probabilities.
        for (row, p) in h.chunks_exact(hidden).zip(probs.chunks_exact_mut(classes)) {
            p.fill(sum_seed());
            row_chains(p, w2, row, f64_term);
            for (logit, &b) in p.iter_mut().zip(b2) {
                *logit += b as f64;
            }
            softmax_in_place(p);
        }
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
            vec![0.0f64; 2 * hidden],
            vec![0.0f64; 2 * classes],
            vec![0.0f64; classes],
        );
        let mut loss = 0.0f64;
        // Two examples share each forward pass; the loss and the backward
        // pass still run one example at a time, in batch order.
        for pair in examples.chunks(2) {
            self.forward_into(params, pair, &mut h, &mut probs);
            for ((&i, h), probs) in pair
                .iter()
                .zip(h.chunks_exact(hidden))
                .zip(probs.chunks_exact(classes))
            {
                let label = self.data.label(i);
                loss -= probs[label].max(1e-12).ln();
                let x = self.data.features(i);

                // dL/dlogit_c = p_c - 1{c = label}
                for (c, d) in dlogits.iter_mut().enumerate() {
                    *d = (probs[c] - if c == label { 1.0 } else { 0.0 }) / m;
                }

                // Output layer gradients.
                for (c, &d) in dlogits.iter().enumerate() {
                    let base = self.w2_offset() + c * hidden;
                    for (g, &hj) in grad[base..base + hidden].iter_mut().zip(h) {
                        *g += (d * hj) as f32;
                    }
                    grad[self.b2_offset() + c] += d as f32;
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
                    for (g, &xj) in grad[base..base + dim].iter_mut().zip(x) {
                        *g += (dpre * xj as f64) as f32;
                    }
                    grad[self.b1_offset() + j] += dpre as f32;
                }
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
        let (hidden, classes) = (self.hidden, self.classes());
        let (mut h, mut probs) = (vec![0.0f64; 2 * hidden], vec![0.0f64; 2 * classes]);
        for (pair, (losses, correct)) in losses.chunks_mut(2).zip(correct.chunks_mut(2)).enumerate()
        {
            let i = first + 2 * pair;
            let examples = &[i, i + 1][..losses.len()];
            self.forward_into(params, examples, &mut h, &mut probs);
            for (k, probs) in probs.chunks_exact(classes).take(examples.len()).enumerate() {
                let label = self.data.label(i + k);
                losses[k] = -probs[label].max(1e-12).ln();
                correct[k] = argmax(probs) == label;
            }
        }
        true
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
        assert_eq!(m.hidden, 12);
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
        assert_eq!(m.num_examples(), 160);
    }
}
