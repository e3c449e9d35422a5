//! Elman recurrent network with backpropagation through time — the RNN-class
//! workload standing in for the paper's LSTM benchmarks.

use crate::dataset::SequenceDataset;
use crate::kernel::{f32_term, f64_term, row_chains};
use crate::model::DifferentiableModel;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sidco_tensor::GradientVector;

/// A single-layer Elman RNN regressor:
///
/// `h_t = tanh(W_ih x_t + W_hh h_{t-1} + b_h)`, prediction `ŷ = w_o · h_T + b_o`,
/// trained with squared error against the sequence target.
///
/// Parameter layout (flat):
/// `[W_ih (hidden × input) | W_hh (hidden × hidden) | b_h (hidden) | w_o (hidden) | b_o]`.
///
/// # Example
///
/// ```
/// use sidco_models::dataset::SequenceDataset;
/// use sidco_models::rnn::ElmanRnn;
/// use sidco_models::DifferentiableModel;
///
/// let data = SequenceDataset::generate(16, 8, 2, 1);
/// let model = ElmanRnn::new(data, 6);
/// assert_eq!(model.num_parameters(), 6 * 2 + 6 * 6 + 6 + 6 + 1);
/// ```
#[derive(Debug, Clone)]
pub struct ElmanRnn {
    data: SequenceDataset,
    hidden: usize,
}

impl ElmanRnn {
    /// Wraps a sequence dataset with the given hidden-state width.
    ///
    /// # Panics
    ///
    /// Panics if `hidden == 0`.
    pub fn new(data: SequenceDataset, hidden: usize) -> Self {
        assert!(hidden > 0, "hidden width must be positive");
        Self { data, hidden }
    }

    fn input_dim(&self) -> usize {
        self.data.input_dim()
    }

    fn wih_offset(&self) -> usize {
        0
    }
    fn whh_offset(&self) -> usize {
        self.hidden * self.input_dim()
    }
    fn bh_offset(&self) -> usize {
        self.whh_offset() + self.hidden * self.hidden
    }
    fn wo_offset(&self) -> usize {
        self.bh_offset() + self.hidden
    }
    fn bo_offset(&self) -> usize {
        self.wo_offset() + self.hidden
    }

    /// Runs the forward pass for one sequence and returns the prediction.
    /// `states` (`(seq_len + 1) × hidden` long) receives the per-step hidden
    /// states row by row, row 0 being the initial zero state, so a caller
    /// looping over sequences reuses one buffer.
    fn forward_into(&self, params: &[f32], sequence: usize, states: &mut [f64]) -> f64 {
        let hidden = self.hidden;
        let w_ih = &params[self.wih_offset()..self.whh_offset()];
        let w_hh = &params[self.whh_offset()..self.bh_offset()];
        let b_h = &params[self.bh_offset()..self.wo_offset()];
        let w_o = &params[self.wo_offset()..self.bo_offset()];
        let b_o = params[self.bo_offset()] as f64;

        states[..hidden].fill(0.0);
        for t in 0..self.data.seq_len() {
            let x = self.data.step(sequence, t);
            let (done, rest) = states.split_at_mut((t + 1) * hidden);
            let prev = &done[t * hidden..];
            // Each chain starts at `b_h[j]`, adds the input terms, then the
            // recurrent ones.
            let next = &mut rest[..hidden];
            for (nj, &b) in next.iter_mut().zip(b_h) {
                *nj = b as f64;
            }
            row_chains(next, w_ih, x, f32_term);
            row_chains(next, w_hh, prev, f64_term);
            for nj in next {
                *nj = nj.tanh();
            }
        }
        let last = &states[self.data.seq_len() * hidden..];
        w_o.iter()
            .zip(last)
            .map(|(&w, &h)| w as f64 * h)
            .sum::<f64>()
            + b_o
    }

    /// Length of the hidden-state buffer [`forward_into`](Self::forward_into)
    /// fills.
    fn states_len(&self) -> usize {
        (self.data.seq_len() + 1) * self.hidden
    }
}

impl DifferentiableModel for ElmanRnn {
    fn num_parameters(&self) -> usize {
        self.hidden * self.input_dim() + self.hidden * self.hidden + self.hidden + self.hidden + 1
    }

    fn layer_sizes(&self) -> Vec<usize> {
        vec![
            self.hidden * self.input_dim(),
            self.hidden * self.hidden,
            self.hidden,
            self.hidden,
            1,
        ]
    }

    fn num_examples(&self) -> usize {
        self.data.len()
    }

    fn initial_parameters(&self, seed: u64) -> GradientVector {
        let mut rng = SmallRng::seed_from_u64(seed);
        let limit = (1.0f64 / self.hidden as f64).sqrt() as f32;
        GradientVector::from_vec(
            (0..self.num_parameters())
                .map(|_| rng.gen_range(-limit..limit))
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
        let hidden = self.hidden;
        let input = self.input_dim();
        let seq_len = self.data.seq_len();
        let m = examples.len() as f64;
        let w_hh = &params[self.whh_offset()..self.bh_offset()];
        let w_o = &params[self.wo_offset()..self.bo_offset()];

        grad.fill(0.0);
        let mut states = vec![0.0f64; self.states_len()];
        let (mut dh, mut dpre, mut dh_prev) = (
            vec![0.0f64; hidden],
            vec![0.0f64; hidden],
            vec![0.0f64; hidden],
        );
        let mut loss = 0.0f64;
        for &i in examples {
            let prediction = self.forward_into(params, i, &mut states);
            let target = self.data.target(i) as f64;
            let err = prediction - target;
            loss += 0.5 * err * err;
            let derr = err / m;

            // Output layer.
            let last = &states[seq_len * hidden..];
            for j in 0..hidden {
                grad[self.wo_offset() + j] += (derr * last[j]) as f32;
            }
            grad[self.bo_offset()] += derr as f32;

            // Backpropagation through time: dL/dh_T = derr * w_o.
            for (d, &w) in dh.iter_mut().zip(w_o) {
                *d = derr * w as f64;
            }
            for t in (0..seq_len).rev() {
                let h_t = &states[(t + 1) * hidden..(t + 2) * hidden];
                let h_prev = &states[t * hidden..(t + 1) * hidden];
                let x = self.data.step(i, t);
                // Through the tanh.
                for ((p, &d), &h) in dpre.iter_mut().zip(&dh).zip(h_t) {
                    *p = d * (1.0 - h * h);
                }
                for j in 0..hidden {
                    let base_ih = self.wih_offset() + j * input;
                    for (offset, &xj) in x.iter().enumerate() {
                        grad[base_ih + offset] += (dpre[j] * xj as f64) as f32;
                    }
                    let base_hh = self.whh_offset() + j * hidden;
                    for (offset, &hp) in h_prev.iter().enumerate() {
                        grad[base_hh + offset] += (dpre[j] * hp) as f32;
                    }
                    grad[self.bh_offset() + j] += dpre[j] as f32;
                }
                // Propagate to the previous hidden state: dh_prev = W_hhᵀ dpre.
                dh_prev.fill(0.0);
                for (j, &d) in dpre.iter().enumerate() {
                    let row = &w_hh[j * hidden..(j + 1) * hidden];
                    for (p, dh_p) in dh_prev.iter_mut().enumerate() {
                        *dh_p += row[p] as f64 * d;
                    }
                }
                std::mem::swap(&mut dh, &mut dh_prev);
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
        let mut states = vec![0.0f64; self.states_len()];
        for (k, loss) in losses.iter_mut().enumerate() {
            let err = self.forward_into(params, first + k, &mut states)
                - self.data.target(first + k) as f64;
            *loss = 0.5 * err * err;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ElmanRnn {
        ElmanRnn::new(SequenceDataset::generate(60, 10, 3, 51), 8)
    }

    #[test]
    fn parameter_layout_adds_up() {
        let m = model();
        assert_eq!(m.num_parameters(), 8 * 3 + 8 * 8 + 8 + 8 + 1);
        assert_eq!(m.layer_sizes(), vec![8 * 3, 8 * 8, 8, 8, 1]);
        assert_eq!(m.layer_sizes().iter().sum::<usize>(), m.num_parameters());
        assert_eq!(m.hidden, 8);
        assert_eq!(m.initial_parameters(1).len(), m.num_parameters());
    }

    #[test]
    fn gradient_matches_finite_differences_through_time() {
        let m = model();
        let params = m.initial_parameters(2);
        let batch: Vec<usize> = (0..8).collect();
        let (_, grad) = m.loss_and_gradient(params.as_slice(), &batch);
        let h = 1e-3f32;
        // Probe one coordinate in each block: W_ih, W_hh, b_h, w_o, b_o.
        let probes = [
            1usize,
            8 * 3 + 5,
            8 * 3 + 8 * 8 + 2,
            8 * 3 + 8 * 8 + 8 + 4,
            m.num_parameters() - 1,
        ];
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
    fn training_reduces_loss() {
        let m = model();
        let mut params = m.initial_parameters(3);
        let all: Vec<usize> = (0..m.num_examples()).collect();
        let initial = m.evaluate(params.as_slice());
        for _ in 0..200 {
            let (_, grad) = m.loss_and_gradient(params.as_slice(), &all);
            params.axpy(-0.5, &grad);
        }
        let final_loss = m.evaluate(params.as_slice());
        assert!(
            final_loss < initial * 0.6,
            "BPTT training should reduce the loss: {initial} -> {final_loss}"
        );
    }

    #[test]
    fn prediction_depends_on_sequence_order() {
        // The target is a decayed moving average, so the recurrent state matters;
        // two different sequences should (generically) yield different predictions.
        let m = model();
        let params = m.initial_parameters(4);
        let mut states = vec![0.0; m.states_len()];
        let p0 = m.forward_into(params.as_slice(), 0, &mut states);
        let p1 = m.forward_into(params.as_slice(), 1, &mut states);
        assert!((p0 - p1).abs() > 1e-9);
    }

    #[test]
    #[should_panic(expected = "hidden width")]
    fn rejects_zero_hidden() {
        ElmanRnn::new(SequenceDataset::generate(4, 4, 2, 1), 0);
    }

    #[test]
    fn metadata() {
        let m = model();
        assert_eq!(m.num_examples(), 60);
        assert!(m.accuracy(&vec![0.0; m.num_parameters()]).is_none());
    }
}
