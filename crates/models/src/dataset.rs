//! Synthetic datasets standing in for PTB / AN4 / CIFAR-10 / ImageNet.
//!
//! All generators are deterministic given a seed so that every worker in the
//! simulator (and every rerun of an experiment) sees the same data.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A dense regression dataset `y = X·w* + ε`.
#[derive(Debug, Clone)]
pub struct RegressionDataset {
    features: Vec<f32>,
    targets: Vec<f32>,
    // lint: test-only backs `true_weights`, the regression unit tests' ground truth
    true_weights: Vec<f32>,
    dim: usize,
}

impl RegressionDataset {
    /// Generates `n` examples of dimension `dim` with Gaussian features, a sparse
    /// ground-truth weight vector and additive noise of standard deviation `noise`.
    // lint: test-only the data of `LinearRegression`, which only tests train (tests/overlap_golden.rs)
    pub fn generate(n: usize, dim: usize, noise: f64, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        // Sparse ground truth: ~20% non-zero weights, emulating the compressible
        // structure that makes gradient sparsification attractive.
        let true_weights: Vec<f32> = (0..dim)
            .map(|_| {
                if rng.gen::<f64>() < 0.2 {
                    rng.gen_range(-1.0f32..1.0)
                } else {
                    0.0
                }
            })
            .collect();
        let mut features = Vec::with_capacity(n * dim);
        let mut targets = Vec::with_capacity(n);
        for _ in 0..n {
            let mut dot = 0.0f64;
            for &w in &true_weights {
                let x = sample_standard_normal(&mut rng) as f32;
                features.push(x);
                dot += (x * w) as f64;
            }
            targets.push((dot + noise * sample_standard_normal(&mut rng)) as f32);
        }
        Self {
            features,
            targets,
            true_weights,
            dim,
        }
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Returns `true` if the dataset holds no examples.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The feature row of example `i`.
    pub fn features(&self, i: usize) -> &[f32] {
        &self.features[i * self.dim..(i + 1) * self.dim]
    }

    /// The target of example `i`.
    pub fn target(&self, i: usize) -> f32 {
        self.targets[i]
    }

    /// The ground-truth weights the targets were generated from.
    // lint: test-only ground truth the regression unit tests compare against (regression.rs, dataset.rs)
    pub fn true_weights(&self) -> &[f32] {
        &self.true_weights
    }
}

/// A multi-class classification dataset of Gaussian blobs.
#[derive(Debug, Clone)]
pub struct ClassificationDataset {
    features: Vec<f32>,
    labels: Vec<usize>,
    dim: usize,
    classes: usize,
}

impl ClassificationDataset {
    /// Generates `n` examples of dimension `dim` split evenly across `classes`
    /// Gaussian blobs whose centres are `separation` apart.
    ///
    /// # Panics
    ///
    /// Panics if `classes == 0` or `dim == 0`.
    pub fn gaussian_blobs(
        n: usize,
        dim: usize,
        classes: usize,
        separation: f64,
        seed: u64,
    ) -> Self {
        assert!(classes > 0 && dim > 0, "classes and dim must be positive");
        let mut rng = SmallRng::seed_from_u64(seed);
        // Random unit directions for the class centres.
        let centers: Vec<Vec<f32>> = (0..classes)
            .map(|_| {
                let raw: Vec<f64> = (0..dim).map(|_| sample_standard_normal(&mut rng)).collect();
                let norm = raw.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-9);
                raw.iter()
                    .map(|&x| (x / norm * separation) as f32)
                    .collect()
            })
            .collect();
        let mut features = Vec::with_capacity(n * dim);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let label = i % classes;
            for &center in &centers[label] {
                features.push(center + sample_standard_normal(&mut rng) as f32);
            }
            labels.push(label);
        }
        Self {
            features,
            labels,
            dim,
            classes,
        }
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` if the dataset holds no examples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// The feature row of example `i`.
    pub fn features(&self, i: usize) -> &[f32] {
        &self.features[i * self.dim..(i + 1) * self.dim]
    }

    /// The label of example `i`.
    pub fn label(&self, i: usize) -> usize {
        self.labels[i]
    }
}

/// A synthetic sequence-regression dataset for the RNN workload: each example is a
/// sequence of scalar-feature steps and the target is a weighted moving average of
/// the inputs, so the recurrent state genuinely matters.
#[derive(Debug, Clone)]
pub struct SequenceDataset {
    inputs: Vec<f32>,
    targets: Vec<f32>,
    seq_len: usize,
    input_dim: usize,
}

impl SequenceDataset {
    /// Generates `n` sequences of length `seq_len` with `input_dim` features per
    /// step.
    pub fn generate(n: usize, seq_len: usize, input_dim: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut inputs = Vec::with_capacity(n * seq_len * input_dim);
        let mut targets = Vec::with_capacity(n);
        for _ in 0..n {
            let mut running = 0.0f64;
            let mut decay_weight = 1.0f64;
            for t in 0..seq_len {
                let mut step_sum = 0.0f64;
                for _ in 0..input_dim {
                    let x = sample_standard_normal(&mut rng) as f32 * 0.5;
                    inputs.push(x);
                    step_sum += x as f64;
                }
                // Exponentially decayed contribution: later steps matter more.
                decay_weight = 0.9 * decay_weight + 0.1;
                running = 0.8 * running + 0.2 * step_sum * decay_weight;
                let _ = t;
            }
            targets.push(running.tanh() as f32);
        }
        Self {
            inputs,
            targets,
            seq_len,
            input_dim,
        }
    }

    /// Number of sequences.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Returns `true` if the dataset holds no sequences.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Sequence length.
    pub fn seq_len(&self) -> usize {
        self.seq_len
    }

    /// Per-step input dimension.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// The inputs of step `t` of sequence `i`.
    pub fn step(&self, i: usize, t: usize) -> &[f32] {
        let start = (i * self.seq_len + t) * self.input_dim;
        &self.inputs[start..start + self.input_dim]
    }

    /// The regression target of sequence `i`.
    pub fn target(&self, i: usize) -> f32 {
        self.targets[i]
    }
}

/// Standard-normal sample via Box–Muller (keeps the dependency surface to `rand`'s
/// uniform generator only).
fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regression_dataset_shapes_and_determinism() {
        let a = RegressionDataset::generate(100, 20, 0.1, 9);
        let b = RegressionDataset::generate(100, 20, 0.1, 9);
        assert_eq!(a.len(), 100);
        assert!(!a.is_empty());
        assert_eq!(a.dim(), 20);
        assert_eq!(a.features(3), b.features(3));
        assert_eq!(a.target(7), b.target(7));
        assert_eq!(a.true_weights().len(), 20);
    }

    #[test]
    fn regression_targets_follow_true_weights() {
        // With zero noise the target equals the dot product exactly.
        let d = RegressionDataset::generate(50, 10, 0.0, 10);
        for i in 0..d.len() {
            let dot: f64 = d
                .features(i)
                .iter()
                .zip(d.true_weights())
                .map(|(&x, &w)| (x * w) as f64)
                .sum();
            assert!((dot - d.target(i) as f64).abs() < 1e-4);
        }
    }

    #[test]
    fn classification_blobs_are_separable_by_construction() {
        let d = ClassificationDataset::gaussian_blobs(200, 8, 4, 6.0, 11);
        assert_eq!(d.len(), 200);
        assert_eq!(d.classes(), 4);
        assert_eq!(d.dim(), 8);
        // Labels cycle through classes.
        assert_eq!(d.label(0), 0);
        assert_eq!(d.label(5), 1);
        // Same-class examples are closer to their own centre than to another class's
        // examples on average (weak separability check).
        let dist = |a: &[f32], b: &[f32]| -> f64 {
            a.iter()
                .zip(b)
                .map(|(&x, &y)| ((x - y) as f64).powi(2))
                .sum::<f64>()
        };
        let same = dist(d.features(0), d.features(4));
        let diff = dist(d.features(0), d.features(1));
        assert!(same < diff * 4.0, "blobs should have some structure");
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn classification_rejects_zero_classes() {
        ClassificationDataset::gaussian_blobs(10, 4, 0, 1.0, 1);
    }

    #[test]
    fn sequence_dataset_shapes_and_bounded_targets() {
        let d = SequenceDataset::generate(30, 12, 3, 13);
        assert_eq!(d.len(), 30);
        assert_eq!(d.seq_len(), 12);
        assert_eq!(d.input_dim(), 3);
        assert_eq!(d.step(2, 5).len(), 3);
        for i in 0..d.len() {
            assert!(d.target(i).abs() <= 1.0, "tanh target must be bounded");
        }
    }

    #[test]
    fn box_muller_produces_reasonable_moments() {
        let mut rng = SmallRng::seed_from_u64(17);
        let xs: Vec<f64> = (0..50_000)
            .map(|_| sample_standard_normal(&mut rng))
            .collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.02);
        assert!((var - 1.0).abs() < 0.05);
    }
}
