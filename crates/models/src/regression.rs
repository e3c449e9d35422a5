//! Linear regression — the convex workload used by the convergence tests
//! (Lemma 3 / Appendix C) where the optimum is known analytically.

use crate::dataset::RegressionDataset;
use crate::model::DifferentiableModel;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sidco_tensor::GradientVector;

/// Mean-squared-error linear regression over a [`RegressionDataset`].
///
/// Loss: `L(w) = 1/(2m) Σ (xᵢ·w - yᵢ)²`, gradient: `1/m Σ (xᵢ·w - yᵢ) xᵢ`.
///
/// # Example
///
/// ```
/// use sidco_models::dataset::RegressionDataset;
/// use sidco_models::regression::LinearRegression;
/// use sidco_models::DifferentiableModel;
///
/// let data = RegressionDataset::generate(64, 8, 0.01, 1);
/// let model = LinearRegression::new(data);
/// let params = model.initial_parameters(0);
/// let (loss, grad) = model.loss_and_gradient(params.as_slice(), &[0, 1, 2, 3]);
/// assert!(loss > 0.0);
/// assert_eq!(grad.len(), 8);
/// ```
#[derive(Debug, Clone)]
// lint: test-only the convex workload only tests train (tests/convergence.rs, tests/overlap_golden.rs)
pub struct LinearRegression {
    data: RegressionDataset,
}

impl LinearRegression {
    /// Wraps a regression dataset.
    // lint: test-only the trainer's unit tests and the overlap goldens train it (tests/overlap_golden.rs)
    pub fn new(data: RegressionDataset) -> Self {
        Self { data }
    }

    /// Prediction error `xᵢ·w - yᵢ` of one example.
    fn residual(&self, params: &[f32], example: usize) -> f64 {
        self.data
            .features(example)
            .iter()
            .zip(params)
            .map(|(&xj, &wj)| (xj * wj) as f64)
            .sum::<f64>()
            - self.data.target(example) as f64
    }
}

impl DifferentiableModel for LinearRegression {
    fn num_parameters(&self) -> usize {
        self.data.dim()
    }

    fn num_examples(&self) -> usize {
        self.data.len()
    }

    fn initial_parameters(&self, seed: u64) -> GradientVector {
        let mut rng = SmallRng::seed_from_u64(seed);
        GradientVector::from_vec(
            (0..self.data.dim())
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
        let m = examples.len() as f64;
        grad.fill(0.0);
        let mut loss = 0.0f64;
        for &i in examples {
            let x = self.data.features(i);
            let residual = self.residual(params, i);
            loss += 0.5 * residual * residual;
            let scale = (residual / m) as f32;
            for (gj, &xj) in grad.iter_mut().zip(x) {
                *gj += scale * xj;
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
        for (k, loss) in losses.iter_mut().enumerate() {
            let residual = self.residual(params, first + k);
            *loss = 0.5 * residual * residual;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> LinearRegression {
        LinearRegression::new(RegressionDataset::generate(200, 16, 0.01, 21))
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let m = model();
        let params = m.initial_parameters(1);
        let batch: Vec<usize> = (0..32).collect();
        let (_, grad) = m.loss_and_gradient(params.as_slice(), &batch);
        let h = 1e-3f32;
        for j in [0usize, 5, 15] {
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
    fn full_batch_gradient_descent_converges_to_truth() {
        let m = model();
        let mut params = m.initial_parameters(2);
        let all: Vec<usize> = (0..m.num_examples()).collect();
        let initial_loss = m.evaluate(params.as_slice());
        for _ in 0..300 {
            let (_, grad) = m.loss_and_gradient(params.as_slice(), &all);
            params.axpy(-0.05, &grad);
        }
        let final_loss = m.evaluate(params.as_slice());
        assert!(
            final_loss < initial_loss * 0.05,
            "loss {initial_loss} -> {final_loss}"
        );
        params.axpy(-1.0, &m.data.true_weights().iter().copied().collect());
        assert!(params.l2_norm() < 0.5, "distance to the true weights");
    }

    #[test]
    fn zero_gradient_at_exact_solution_without_noise() {
        let data = RegressionDataset::generate(100, 8, 0.0, 22);
        let truth: Vec<f32> = data.true_weights().to_vec();
        let m = LinearRegression::new(data);
        let all: Vec<usize> = (0..m.num_examples()).collect();
        let (loss, grad) = m.loss_and_gradient(&truth, &all);
        assert!(loss < 1e-6);
        assert!(grad.l2_norm() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "mini-batch")]
    fn empty_batch_panics() {
        let m = model();
        let params = m.initial_parameters(0);
        m.loss_and_gradient(params.as_slice(), &[]);
    }

    #[test]
    fn metadata() {
        let m = model();
        assert_eq!(m.num_parameters(), 16);
        // A single dense weight vector: the default single-layer export.
        assert_eq!(m.layer_sizes(), vec![16]);
        assert_eq!(m.num_examples(), 200);
        assert!(m.accuracy(&[0.0; 16]).is_none());
        assert_eq!(m.data.dim(), 16);
    }
}
