//! Bit-identity properties of the model numerics the data-parallel trainer
//! relies on, for all four trainable models over random parameters and
//! mini-batches:
//!
//! 1. **Forward-only evaluate** — `evaluate(p)` has exactly the bits of the
//!    full-dataset gradient call's loss, `loss_and_gradient(p, 0..n).0`,
//!    which is how every model defined `evaluate` before it went
//!    forward-only (kept here as the oracle).
//! 2. **Overwriting gradient buffer** — `loss_and_gradient_into` on a
//!    NaN-prefilled buffer, and again on the buffer a previous call left
//!    behind, matches the allocating `loss_and_gradient` bit for bit, for
//!    random batches, a length-1 batch and a batch of repeated indices.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sidco_models::dataset::{ClassificationDataset, RegressionDataset, SequenceDataset};
use sidco_models::logistic::SoftmaxClassifier;
use sidco_models::mlp::Mlp;
use sidco_models::regression::LinearRegression;
use sidco_models::rnn::ElmanRnn;
use sidco_models::DifferentiableModel;

/// The four trainable models on small datasets drawn from `seed`.
fn models(seed: u64) -> Vec<Box<dyn DifferentiableModel>> {
    vec![
        Box::new(Mlp::new(
            ClassificationDataset::gaussian_blobs(37, 6, 3, 2.0, seed),
            5,
        )),
        Box::new(SoftmaxClassifier::new(
            ClassificationDataset::gaussian_blobs(41, 7, 4, 2.0, seed),
        )),
        Box::new(LinearRegression::new(RegressionDataset::generate(
            29, 9, 0.1, seed,
        ))),
        Box::new(ElmanRnn::new(SequenceDataset::generate(23, 6, 3, seed), 4)),
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
        for model in models(seed) {
            let params = random_params(model.as_ref(), seed, scale);
            let all: Vec<usize> = (0..model.num_examples()).collect();
            let oracle = model.loss_and_gradient(&params, &all).0;
            let evaluated = model.evaluate(&params);
            prop_assert!(
                evaluated.to_bits() == oracle.to_bits(),
                "{}: evaluate {evaluated} vs full-batch loss {oracle}",
                model.name()
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
        for model in models(seed) {
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
                    model.name()
                );
                prop_assert!(
                    bits(&buffer) == bits(grad.as_slice()),
                    "{}: gradient bits diverged on batch {examples:?}",
                    model.name()
                );
            }
        }
    }
}
