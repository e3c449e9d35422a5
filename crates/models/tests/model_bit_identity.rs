//! Bit-identity properties of the model numerics the data-parallel trainer
//! relies on, over random parameters and mini-batches:
//!
//! 1. **Forward-only evaluate** — for all four trainable models,
//!    `evaluate(p)` has exactly the bits of the full-dataset gradient call's
//!    loss, `loss_and_gradient(p, 0..n).0`.
//! 2. **Overwriting gradient buffer** — `loss_and_gradient_into` on a
//!    NaN-prefilled buffer, and again on the buffer a previous call left
//!    behind, matches the allocating `loss_and_gradient` bit for bit, for
//!    random batches, a length-1 batch and a batch of repeated indices.
//! 3. **Register-blocked kernels** — `Mlp`, `SoftmaxClassifier` and
//!    `ElmanRnn` run their dense layers several rows (and, in the MLP, two
//!    examples) at a time. Their loss, gradient, `evaluate` and `accuracy`
//!    equal those of the serial one-row-at-a-time code the kernels replaced,
//!    kept below in [`oracle`], for blocked widths 1–9 (whole blocks and
//!    remainders), input width 1, odd batch lengths including 1, and
//!    batches of repeated indices.
//! 4. **Sharded metrics** — `dataset_metrics` over 1, 2, 3 and 7 shards,
//!    run in reverse order, equals the serial `evaluate` and `accuracy`.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sidco_models::dataset::{ClassificationDataset, RegressionDataset, SequenceDataset};
use sidco_models::logistic::SoftmaxClassifier;
use sidco_models::mlp::Mlp;
use sidco_models::regression::LinearRegression;
use sidco_models::rnn::ElmanRnn;
use sidco_models::{dataset_metrics, DifferentiableModel};

/// The four trainable models on small datasets drawn from `seed`, each with
/// the label its failures name.
fn models(seed: u64) -> Vec<(&'static str, Box<dyn DifferentiableModel>)> {
    vec![
        (
            "mlp",
            Box::new(Mlp::new(
                ClassificationDataset::gaussian_blobs(37, 6, 3, 2.0, seed),
                5,
            )),
        ),
        (
            "softmax-classifier",
            Box::new(SoftmaxClassifier::new(
                ClassificationDataset::gaussian_blobs(41, 7, 4, 2.0, seed),
            )),
        ),
        (
            "linear-regression",
            Box::new(LinearRegression::new(RegressionDataset::generate(
                29, 9, 0.1, seed,
            ))),
        ),
        (
            "elman-rnn",
            Box::new(ElmanRnn::new(SequenceDataset::generate(23, 6, 3, seed), 4)),
        ),
    ]
}

/// The model's initial parameters, perturbed by uniform noise of width
/// `scale` so the properties also see large, saturating weights.
fn random_params(model: &dyn DifferentiableModel, seed: u64, scale: f32) -> Vec<f32> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED);
    let mut params = model.initial_parameters(seed).into_vec();
    for p in &mut params {
        *p += scale * rng.gen_range(-1.0f32..1.0);
    }
    params
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Property 1: forward-only `evaluate` keeps the bits of the full-batch
    /// gradient call's loss.
    #[test]
    fn evaluate_has_the_bits_of_the_full_batch_loss(
        seed in 0u64..u64::MAX,
        scale in 0.0f32..3.0,
    ) {
        for (label, model) in models(seed) {
            let params = random_params(model.as_ref(), seed, scale);
            let all: Vec<usize> = (0..model.num_examples()).collect();
            let oracle = model.loss_and_gradient(&params, &all).0;
            let evaluated = model.evaluate(&params);
            prop_assert!(
                evaluated.to_bits() == oracle.to_bits(),
                "{}: evaluate {evaluated} vs full-batch loss {oracle}",
                label
            );
        }
    }

    /// Property 2: the in-place gradient overwrites whatever its buffer
    /// held, with the allocating form's bits.
    #[test]
    fn gradient_into_overwrites_its_buffer(
        seed in 0u64..u64::MAX,
        scale in 0.0f32..3.0,
        raw_batch in prop::collection::vec(0usize..1000, 1..24),
    ) {
        for (label, model) in models(seed) {
            let params = random_params(model.as_ref(), seed, scale);
            let n = model.num_examples();
            let batch: Vec<usize> = raw_batch.iter().map(|&i| i % n).collect();
            let single = vec![batch[0]];
            let repeated = vec![batch[0], batch[batch.len() - 1], batch[0], batch[0]];
            let mut buffer = vec![f32::NAN; model.num_parameters()];
            for examples in [&batch, &single, &repeated] {
                let (loss, grad) = model.loss_and_gradient(&params, examples);
                // The first pass writes over NaN, later ones over the previous
                // batch's gradient.
                let into = model.loss_and_gradient_into(&params, examples, &mut buffer);
                prop_assert!(
                    into.to_bits() == loss.to_bits(),
                    "{}: loss {into} vs {loss}",
                    label
                );
                prop_assert!(
                    bits(&buffer) == bits(grad.as_slice()),
                    "{}: gradient bits diverged on batch {examples:?}",
                    label
                );
            }
        }
    }
}

/// The pre-blocking serial model code, one `.sum()` chain per row, kept as
/// the oracle of the register-blocked kernels.
mod oracle {
    use sidco_models::dataset::{ClassificationDataset, SequenceDataset};

    /// Softmax in place, numerically stabilised.
    fn softmax(values: &mut [f64]) {
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for v in values.iter_mut() {
            *v = (*v - max).exp();
        }
        let sum: f64 = values.iter().sum();
        for v in values.iter_mut() {
            *v /= sum;
        }
    }

    fn argmax(values: &[f64]) -> usize {
        values
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite scores"))
            .map(|(c, _)| c)
            .unwrap_or(0)
    }

    /// `Mlp` with layout `[W1 | b1 | W2 | b2]`.
    pub struct Mlp<'a> {
        pub data: &'a ClassificationDataset,
        pub hidden: usize,
    }

    impl Mlp<'_> {
        fn forward(&self, params: &[f32], example: usize) -> (Vec<f64>, Vec<f64>) {
            let (dim, hidden, classes) = (self.data.dim(), self.hidden, self.data.classes());
            let x = self.data.features(example);
            let w1 = &params[..hidden * dim];
            let b1 = &params[hidden * dim..hidden * dim + hidden];
            let w2 = &params[hidden * dim + hidden..hidden * dim + hidden + classes * hidden];
            let b2 = &params[hidden * dim + hidden + classes * hidden..];
            let h: Vec<f64> = (0..hidden)
                .map(|j| {
                    let row = &w1[j * dim..(j + 1) * dim];
                    let pre: f64 = row
                        .iter()
                        .zip(x)
                        .map(|(&w, &xi)| (w * xi) as f64)
                        .sum::<f64>()
                        + b1[j] as f64;
                    pre.tanh()
                })
                .collect();
            let mut probs: Vec<f64> = (0..classes)
                .map(|c| {
                    let row = &w2[c * hidden..(c + 1) * hidden];
                    row.iter()
                        .zip(&h)
                        .map(|(&w, &hj)| w as f64 * hj)
                        .sum::<f64>()
                        + b2[c] as f64
                })
                .collect();
            softmax(&mut probs);
            (h, probs)
        }

        pub fn loss_and_gradient(&self, params: &[f32], examples: &[usize]) -> (f64, Vec<f32>) {
            let (dim, hidden, classes) = (self.data.dim(), self.hidden, self.data.classes());
            let (b1_offset, w2_offset) = (hidden * dim, hidden * dim + hidden);
            let b2_offset = w2_offset + classes * hidden;
            let w2 = &params[w2_offset..b2_offset];
            let m = examples.len() as f64;
            let mut grad = vec![0.0f32; params.len()];
            let mut loss = 0.0f64;
            for &i in examples {
                let (h, probs) = self.forward(params, i);
                let label = self.data.label(i);
                loss -= probs[label].max(1e-12).ln();
                let x = self.data.features(i);
                let dlogits: Vec<f64> = (0..classes)
                    .map(|c| (probs[c] - if c == label { 1.0 } else { 0.0 }) / m)
                    .collect();
                for c in 0..classes {
                    let base = w2_offset + c * hidden;
                    for j in 0..hidden {
                        grad[base + j] += (dlogits[c] * h[j]) as f32;
                    }
                    grad[b2_offset + c] += dlogits[c] as f32;
                }
                for j in 0..hidden {
                    let mut dh = 0.0f64;
                    for c in 0..classes {
                        dh += dlogits[c] * w2[c * hidden + j] as f64;
                    }
                    let dpre = dh * (1.0 - h[j] * h[j]);
                    let base = j * dim;
                    for (offset, &xj) in x.iter().enumerate() {
                        grad[base + offset] += (dpre * xj as f64) as f32;
                    }
                    grad[b1_offset + j] += dpre as f32;
                }
            }
            (loss / m, grad)
        }

        pub fn evaluate(&self, params: &[f32]) -> f64 {
            let mut loss = 0.0f64;
            for i in 0..self.data.len() {
                loss -= self.forward(params, i).1[self.data.label(i)]
                    .max(1e-12)
                    .ln();
            }
            loss / self.data.len() as f64
        }

        pub fn accuracy(&self, params: &[f32]) -> f64 {
            let correct = (0..self.data.len())
                .filter(|&i| argmax(&self.forward(params, i).1) == self.data.label(i))
                .count();
            correct as f64 / self.data.len() as f64
        }
    }

    /// `SoftmaxClassifier` with layout `[W | b]`.
    pub struct Softmax<'a> {
        pub data: &'a ClassificationDataset,
    }

    impl Softmax<'_> {
        fn logits(&self, params: &[f32], example: usize) -> Vec<f64> {
            let (dim, classes) = (self.data.dim(), self.data.classes());
            let x = self.data.features(example);
            (0..classes)
                .map(|c| {
                    let w = &params[c * dim..(c + 1) * dim];
                    let dot: f64 = w.iter().zip(x).map(|(&wj, &xj)| (wj * xj) as f64).sum();
                    dot + params[classes * dim + c] as f64
                })
                .collect()
        }

        fn probs(&self, params: &[f32], example: usize) -> Vec<f64> {
            let mut probs = self.logits(params, example);
            softmax(&mut probs);
            probs
        }

        pub fn loss_and_gradient(&self, params: &[f32], examples: &[usize]) -> (f64, Vec<f32>) {
            let (dim, classes) = (self.data.dim(), self.data.classes());
            let m = examples.len() as f64;
            let mut grad = vec![0.0f32; params.len()];
            let mut loss = 0.0f64;
            for &i in examples {
                let probs = self.probs(params, i);
                let label = self.data.label(i);
                loss -= probs[label].max(1e-12).ln();
                let x = self.data.features(i);
                for c in 0..classes {
                    let errf = ((probs[c] - if c == label { 1.0 } else { 0.0 }) / m) as f32;
                    let row = &mut grad[c * dim..(c + 1) * dim];
                    for (gj, &xj) in row.iter_mut().zip(x) {
                        *gj += errf * xj;
                    }
                    grad[classes * dim + c] += errf;
                }
            }
            (loss / m, grad)
        }

        pub fn evaluate(&self, params: &[f32]) -> f64 {
            let mut loss = 0.0f64;
            for i in 0..self.data.len() {
                loss -= self.probs(params, i)[self.data.label(i)].max(1e-12).ln();
            }
            loss / self.data.len() as f64
        }

        pub fn accuracy(&self, params: &[f32]) -> f64 {
            let correct = (0..self.data.len())
                .filter(|&i| argmax(&self.logits(params, i)) == self.data.label(i))
                .count();
            correct as f64 / self.data.len() as f64
        }
    }

    /// `ElmanRnn` with layout `[W_ih | W_hh | b_h | w_o | b_o]`.
    pub struct Rnn<'a> {
        pub data: &'a SequenceDataset,
        pub hidden: usize,
    }

    impl Rnn<'_> {
        fn offsets(&self) -> [usize; 5] {
            let (hidden, input) = (self.hidden, self.data.input_dim());
            let whh = hidden * input;
            let bh = whh + hidden * hidden;
            [0, whh, bh, bh + hidden, bh + 2 * hidden]
        }

        fn forward(&self, params: &[f32], sequence: usize, states: &mut [f64]) -> f64 {
            let (hidden, input) = (self.hidden, self.data.input_dim());
            let [wih, whh, bh, wo, bo] = self.offsets();
            let (w_ih, w_hh) = (&params[wih..whh], &params[whh..bh]);
            let (b_h, w_o) = (&params[bh..wo], &params[wo..bo]);
            states[..hidden].fill(0.0);
            for t in 0..self.data.seq_len() {
                let x = self.data.step(sequence, t);
                let (done, rest) = states.split_at_mut((t + 1) * hidden);
                let prev = &done[t * hidden..];
                for (j, nj) in rest[..hidden].iter_mut().enumerate() {
                    let mut pre = b_h[j] as f64;
                    for (&w, &xi) in w_ih[j * input..(j + 1) * input].iter().zip(x) {
                        pre += (w * xi) as f64;
                    }
                    for (&w, &hp) in w_hh[j * hidden..(j + 1) * hidden].iter().zip(prev) {
                        pre += w as f64 * hp;
                    }
                    *nj = pre.tanh();
                }
            }
            let last = &states[self.data.seq_len() * hidden..];
            w_o.iter()
                .zip(last)
                .map(|(&w, &h)| w as f64 * h)
                .sum::<f64>()
                + params[bo] as f64
        }

        pub fn loss_and_gradient(&self, params: &[f32], examples: &[usize]) -> (f64, Vec<f32>) {
            let (hidden, input, seq_len) =
                (self.hidden, self.data.input_dim(), self.data.seq_len());
            let [wih, whh, bh, wo, bo] = self.offsets();
            let (w_hh, w_o) = (&params[whh..bh], &params[wo..bo]);
            let m = examples.len() as f64;
            let mut grad = vec![0.0f32; params.len()];
            let mut states = vec![0.0f64; (seq_len + 1) * hidden];
            let (mut dh, mut dpre, mut dh_prev) = (
                vec![0.0f64; hidden],
                vec![0.0f64; hidden],
                vec![0.0f64; hidden],
            );
            let mut loss = 0.0f64;
            for &i in examples {
                let err = self.forward(params, i, &mut states) - self.data.target(i) as f64;
                loss += 0.5 * err * err;
                let derr = err / m;
                let last = &states[seq_len * hidden..];
                for j in 0..hidden {
                    grad[wo + j] += (derr * last[j]) as f32;
                }
                grad[bo] += derr as f32;
                for (d, &w) in dh.iter_mut().zip(w_o) {
                    *d = derr * w as f64;
                }
                for t in (0..seq_len).rev() {
                    let h_t = &states[(t + 1) * hidden..(t + 2) * hidden];
                    let h_prev = &states[t * hidden..(t + 1) * hidden];
                    let x = self.data.step(i, t);
                    for ((p, &d), &h) in dpre.iter_mut().zip(&dh).zip(h_t) {
                        *p = d * (1.0 - h * h);
                    }
                    for j in 0..hidden {
                        for (offset, &xj) in x.iter().enumerate() {
                            grad[wih + j * input + offset] += (dpre[j] * xj as f64) as f32;
                        }
                        for (offset, &hp) in h_prev.iter().enumerate() {
                            grad[whh + j * hidden + offset] += (dpre[j] * hp) as f32;
                        }
                        grad[bh + j] += dpre[j] as f32;
                    }
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
            (loss / m, grad)
        }

        pub fn evaluate(&self, params: &[f32]) -> f64 {
            let mut states = vec![0.0f64; (self.data.seq_len() + 1) * self.hidden];
            let mut loss = 0.0f64;
            for i in 0..self.data.len() {
                let err = self.forward(params, i, &mut states) - self.data.target(i) as f64;
                loss += 0.5 * err * err;
            }
            loss / self.data.len() as f64
        }
    }
}

/// A random mini-batch over `n` examples from `raw`, plus a length-1 batch
/// and a batch of repeated indices.
fn batches(raw: &[usize], n: usize) -> [Vec<usize>; 3] {
    let batch: Vec<usize> = raw.iter().map(|&i| i % n).collect();
    let single = vec![batch[0]];
    let repeated = vec![
        batch[0],
        batch[batch.len() - 1],
        batch[0],
        batch[0],
        batch[0],
    ];
    [batch, single, repeated]
}

/// Asserts that `model` has the oracle's bits for every batch, `evaluate`
/// and `accuracy`.
fn assert_matches_oracle(
    label: &str,
    model: &dyn DifferentiableModel,
    params: &[f32],
    raw_batch: &[usize],
    oracle_loss_and_gradient: impl Fn(&[usize]) -> (f64, Vec<f32>),
    oracle_evaluate: f64,
    oracle_accuracy: Option<f64>,
) -> Result<(), TestCaseError> {
    for examples in batches(raw_batch, model.num_examples()) {
        let (loss, grad) = model.loss_and_gradient(params, &examples);
        let (want_loss, want_grad) = oracle_loss_and_gradient(&examples);
        prop_assert!(
            loss.to_bits() == want_loss.to_bits(),
            "{}: loss {loss} vs serial {want_loss} on {examples:?}",
            label
        );
        prop_assert!(
            bits(grad.as_slice()) == bits(&want_grad),
            "{}: gradient bits diverged on {examples:?}",
            label
        );
    }
    let evaluated = model.evaluate(params);
    prop_assert!(
        evaluated.to_bits() == oracle_evaluate.to_bits(),
        "{}: evaluate {evaluated} vs serial {oracle_evaluate}",
        label
    );
    let accuracy = model.accuracy(params);
    prop_assert!(
        accuracy.map(f64::to_bits) == oracle_accuracy.map(f64::to_bits),
        "{}: accuracy {accuracy:?} vs serial {oracle_accuracy:?}",
        label
    );
    Ok(())
}

// The oracle properties run the default case count, which `PROPTEST_CASES`
// sets.
proptest! {
    /// Property 3: the blocked MLP keeps the serial oracle's bits, for
    /// hidden widths 1-9 and input widths down to 1.
    #[test]
    fn blocked_mlp_matches_the_serial_oracle(
        seed in 0u64..u64::MAX,
        scale in 0.0f32..3.0,
        hidden in 1usize..=9,
        dim in prop_oneof![Just(1usize), 1usize..12],
        classes in 1usize..6,
        n in 1usize..20,
        raw_batch in prop::collection::vec(0usize..1000, 1..24),
    ) {
        let data = ClassificationDataset::gaussian_blobs(n, dim, classes, 2.0, seed);
        let model = Mlp::new(data.clone(), hidden);
        let params = random_params(&model, seed, scale);
        let oracle = oracle::Mlp { data: &data, hidden };
        assert_matches_oracle(
            "mlp",
            &model,
            &params,
            &raw_batch,
            |examples| oracle.loss_and_gradient(&params, examples),
            oracle.evaluate(&params),
            Some(oracle.accuracy(&params)),
        )?;
    }

    /// Property 3: the blocked softmax classifier keeps the serial oracle's
    /// bits, for 1-9 classes (its blocked rows) and input widths down to 1.
    #[test]
    fn blocked_softmax_matches_the_serial_oracle(
        seed in 0u64..u64::MAX,
        scale in 0.0f32..3.0,
        classes in 1usize..=9,
        dim in prop_oneof![Just(1usize), 1usize..12],
        n in 1usize..20,
        raw_batch in prop::collection::vec(0usize..1000, 1..24),
    ) {
        let data = ClassificationDataset::gaussian_blobs(n, dim, classes, 2.0, seed);
        let model = SoftmaxClassifier::new(data.clone());
        let params = random_params(&model, seed, scale);
        let oracle = oracle::Softmax { data: &data };
        assert_matches_oracle(
            "softmax-classifier",
            &model,
            &params,
            &raw_batch,
            |examples| oracle.loss_and_gradient(&params, examples),
            oracle.evaluate(&params),
            Some(oracle.accuracy(&params)),
        )?;
    }

    /// Property 3: the blocked Elman RNN keeps the serial oracle's bits, for
    /// hidden widths 1-9 and input widths down to 1.
    #[test]
    fn blocked_rnn_matches_the_serial_oracle(
        seed in 0u64..u64::MAX,
        scale in 0.0f32..3.0,
        hidden in 1usize..=9,
        input in prop_oneof![Just(1usize), 1usize..6],
        seq_len in 1usize..6,
        n in 1usize..12,
        raw_batch in prop::collection::vec(0usize..1000, 1..24),
    ) {
        let data = SequenceDataset::generate(n, seq_len, input, seed);
        let model = ElmanRnn::new(data.clone(), hidden);
        let params = random_params(&model, seed, scale);
        let oracle = oracle::Rnn { data: &data, hidden };
        assert_matches_oracle(
            "elman-rnn",
            &model,
            &params,
            &raw_batch,
            |examples| oracle.loss_and_gradient(&params, examples),
            oracle.evaluate(&params),
            None,
        )?;
    }

    /// Property 4: the sharded full-dataset metrics equal the serial
    /// `evaluate` and `accuracy`, whatever the shard count and job order.
    #[test]
    fn sharded_metrics_equal_the_serial_ones(
        seed in 0u64..u64::MAX,
        scale in 0.0f32..3.0,
    ) {
        for (label, model) in models(seed) {
            let params = random_params(model.as_ref(), seed, scale);
            let (loss, accuracy) = (model.evaluate(&params), model.accuracy(&params));
            for shards in [1, 2, 3, 7] {
                let metrics = dataset_metrics(model.as_ref(), &params, shards, |count, job| {
                    (0..count).rev().for_each(job);
                });
                prop_assert!(
                    metrics.loss.to_bits() == loss.to_bits(),
                    "{}: {shards} shards give loss {} vs serial {loss}",
                    label,
                    metrics.loss
                );
                prop_assert!(
                    metrics.accuracy.map(f64::to_bits) == accuracy.map(f64::to_bits),
                    "{}: {shards} shards give accuracy {:?} vs serial {accuracy:?}",
                    label,
                    metrics.accuracy
                );
            }
        }
    }
}
