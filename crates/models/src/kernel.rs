//! Register-blocked matrix–vector chains that keep every chain's order.
//!
//! Each output row of a dense layer is one serial f64 add chain over its
//! inputs, so a row-at-a-time loop is bound by add latency, not by FLOPs.
//! The kernels here advance [`ROWS`] rows side by side (and
//! [`row_chains_x2`] two inputs' worth of them, so every weight load serves
//! both): each chain still adds its own terms in index order onto its own
//! running value, so every result has exactly the bits of the serial loop
//! while the independent chains hide the latency. This is register blocking
//! as in GEMM micro-kernels, without reassociating any sum. Rows past the
//! last full block run the serial loop. The softmax and argmax the two
//! classifiers share live here too.

/// Rows advanced side by side.
const ROWS: usize = 4;

/// The value `Sum for f64` folds from, so a chain seeded with it and then
/// continued by [`row_chains`] has the bits of `.sum::<f64>()` over the same
/// terms.
pub(crate) fn sum_seed() -> f64 {
    std::iter::empty::<f64>().sum()
}

/// The product of an `f32` weight and an `f32` input, rounded in `f32`
/// before widening — the input-layer term.
pub(crate) fn f32_term(w: f32, x: f32) -> f64 {
    (w * x) as f64
}

/// A widened `f32` weight times an `f64` activation — the term of a layer
/// fed by `f64` activations.
pub(crate) fn f64_term(w: f32, h: f64) -> f64 {
    w as f64 * h
}

/// The `ROWS` consecutive rows of the row-major `w` (rows `width` long)
/// starting at row `first`.
fn block(w: &[f32], width: usize, first: usize) -> [&[f32]; ROWS] {
    std::array::from_fn(|r| &w[(first + r) * width..(first + r + 1) * width])
}

/// Continues one chain per row of the row-major matrix `w` over the input
/// `x`: `acc[j] += term(w[j][k], x[k])` for `k` in index order, where row
/// `j` is `w[j * x.len()..(j + 1) * x.len()]`.
///
/// # Panics
///
/// Panics if `w` holds fewer than `acc.len()` rows of `x.len()` weights.
pub(crate) fn row_chains<T: Copy>(
    acc: &mut [f64],
    w: &[f32],
    x: &[T],
    term: impl Fn(f32, T) -> f64,
) {
    let width = x.len();
    let first = acc.len() - acc.len() % ROWS;
    let mut blocks = acc.chunks_exact_mut(ROWS);
    for (b, out) in blocks.by_ref().enumerate() {
        let [r0, r1, r2, r3] = block(w, width, b * ROWS);
        let (mut a0, mut a1, mut a2, mut a3) = (out[0], out[1], out[2], out[3]);
        for ((((&xk, &w0), &w1), &w2), &w3) in x.iter().zip(r0).zip(r1).zip(r2).zip(r3) {
            a0 += term(w0, xk);
            a1 += term(w1, xk);
            a2 += term(w2, xk);
            a3 += term(w3, xk);
        }
        out.copy_from_slice(&[a0, a1, a2, a3]);
    }
    for (j, a) in blocks.into_remainder().iter_mut().enumerate() {
        let row = &w[(first + j) * width..(first + j + 1) * width];
        for (&wk, &xk) in row.iter().zip(x) {
            *a += term(wk, xk);
        }
    }
}

/// [`row_chains`] for two inputs at once: `acc[e][j] += term(w[j][k],
/// x[e][k])` for `k` in index order. Each weight load serves both inputs;
/// each input's chains keep their own order, so both get the bits of a
/// one-input [`row_chains`] call.
///
/// # Panics
///
/// Panics if the inputs differ in length, the chain buffers differ in
/// length, or `w` holds too few rows.
pub(crate) fn row_chains_x2<T: Copy>(
    acc: [&mut [f64]; 2],
    w: &[f32],
    x: [&[T]; 2],
    term: impl Fn(f32, T) -> f64,
) {
    let [acc0, acc1] = acc;
    let [x0, x1] = x;
    assert_eq!(x0.len(), x1.len(), "inputs must have equal widths");
    assert_eq!(
        acc0.len(),
        acc1.len(),
        "chain buffers must have equal lengths"
    );
    let width = x0.len();
    let first = acc0.len() - acc0.len() % ROWS;
    let mut blocks0 = acc0.chunks_exact_mut(ROWS);
    let mut blocks1 = acc1.chunks_exact_mut(ROWS);
    for (b, (out0, out1)) in blocks0.by_ref().zip(blocks1.by_ref()).enumerate() {
        let [r0, r1, r2, r3] = block(w, width, b * ROWS);
        let (mut a0, mut a1, mut a2, mut a3) = (out0[0], out0[1], out0[2], out0[3]);
        let (mut c0, mut c1, mut c2, mut c3) = (out1[0], out1[1], out1[2], out1[3]);
        for (((((&y0, &y1), &w0), &w1), &w2), &w3) in
            x0.iter().zip(x1).zip(r0).zip(r1).zip(r2).zip(r3)
        {
            a0 += term(w0, y0);
            c0 += term(w0, y1);
            a1 += term(w1, y0);
            c1 += term(w1, y1);
            a2 += term(w2, y0);
            c2 += term(w2, y1);
            a3 += term(w3, y0);
            c3 += term(w3, y1);
        }
        out0.copy_from_slice(&[a0, a1, a2, a3]);
        out1.copy_from_slice(&[c0, c1, c2, c3]);
    }
    let tail = blocks0.into_remainder().iter_mut();
    for (j, (a, c)) in tail.zip(blocks1.into_remainder()).enumerate() {
        let row = &w[(first + j) * width..(first + j + 1) * width];
        for ((&wk, &y0), &y1) in row.iter().zip(x0).zip(x1) {
            *a += term(wk, y0);
            *c += term(wk, y1);
        }
    }
}

/// Turns logits into softmax probabilities in place (numerically
/// stabilised).
pub(crate) fn softmax_in_place(values: &mut [f64]) {
    let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    for v in values.iter_mut() {
        *v = (*v - max).exp();
    }
    let sum: f64 = values.iter().sum();
    for v in values.iter_mut() {
        *v /= sum;
    }
}

/// Index of the largest value, the last one on a tie (`Iterator::max_by`).
///
/// # Panics
///
/// Panics if a value is NaN.
pub(crate) fn argmax(values: &[f64]) -> usize {
    values
        .iter()
        .enumerate()
        // INVARIANT: callers pass logits or softmax probabilities of finite
        // weights and features, which are never NaN.
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite scores"))
        .map_or(0, |(c, _)| c)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The serial loop the kernels replace: one `.sum()` chain per row.
    fn serial(w: &[f32], x: &[f32]) -> Vec<f64> {
        w.chunks(x.len().max(1))
            .map(|row| row.iter().zip(x).map(|(&wk, &xk)| f32_term(wk, xk)).sum())
            .collect()
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn seed_matches_sum_on_negative_zero_terms() {
        // Every term is -0.0, so only the seed decides the sign of the sum.
        let (w, x) = (vec![0.0f32; 5], vec![-1.0f32]);
        let mut acc = vec![sum_seed(); 5];
        row_chains(&mut acc, &w, &x, f32_term);
        assert_eq!(bits(&acc), bits(&serial(&w, &x)));
    }

    #[test]
    fn argmax_takes_the_last_maximum() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 2);
        assert_eq!(argmax(&[]), 0);
    }
}
