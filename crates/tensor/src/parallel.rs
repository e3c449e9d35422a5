//! Chunked multi-threaded primitives for large gradient vectors.
//!
//! The ImageNet-scale benchmarks in the paper compress vectors with up to 144M
//! elements; a single pass is memory-bandwidth bound, so these helpers split the
//! buffer into contiguous chunks and execute them on an explicit [`Runtime`]
//! — in production the persistent worker pool
//! ([`WorkerPool`](sidco_runtime::WorkerPool)), whose workers and caller
//! claim chunk indices from one shared counter, or, at one thread, the
//! inline runtime, both obtained from [`sidco_runtime::handle`]. Each
//! primitive has exactly one form, `*_on`, taking the runtime as its last
//! argument (before any algorithm choice).
//!
//! # Determinism contract
//!
//! Every function here partitions its input into chunks of a **fixed chunk size**
//! ([`DEFAULT_CHUNK_SIZE`] unless the caller picks another), *never* a size derived
//! from the requested thread count or runtime. Each chunk writes its partial
//! result into its own slot, and slots are always merged in chunk order. The
//! runtime therefore only decides *where and when* the (identical) chunk list
//! executes, so every reduction and selection below is **bit-identical across
//! runtimes, thread counts, and claim orders**. The engine in `sidco-core`
//! builds on this to guarantee that compressors produce the same
//! `SparseGradient` at 1, 2 or 64 threads, whatever runtime runs the chunks.
//! (Across *machines* the guarantee holds up to platform `libm` rounding in
//! the passes that still take a per-element `ln` — SIDCo-GP's first stage
//! and the all-fields absolute moments — whose last bit may
//! differ between libc implementations, which can move a fitted threshold by
//! one ulp. The mean- and variance-only passes of SIDCo-E, SIDCo-P and
//! SIDCo-GP's later stages use only IEEE-exact arithmetic.)

use crate::sparse::SparseGradient;
use crate::threshold::{cap_largest, extend_kept, retain_kept, KeepAbove};
use crate::topk::top_k;
use sidco_runtime::Runtime;
use sidco_stats::moments::{AbsMoments, MomentNeeds, SignedMoments};
use std::sync::Mutex;

/// Default number of elements per chunk (64Ki). Small enough to expose
/// parallelism on megabyte-scale gradients, large enough that the per-chunk
/// bookkeeping is negligible.
pub const DEFAULT_CHUNK_SIZE: usize = 1 << 16;

/// Applies `f` to every fixed-size chunk of `data` on an explicit
/// [`Runtime`], and returns the per-chunk results **in chunk order**.
///
/// The chunk decomposition depends only on `chunk_size`, and every chunk
/// writes its result into its own pre-allocated slot, so the result vector is
/// identical for every runtime, worker count, and claim order.
///
/// `f` receives the chunk index and the chunk slice; the element offset of chunk
/// `c` is `c * chunk_size`.
///
/// # Panics
///
/// Panics if `chunk_size == 0`.
pub fn map_chunks_on<T, R, F>(data: &[T], chunk_size: usize, runtime: &dyn Runtime, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    assert!(chunk_size > 0, "chunk_size must be positive");
    let num_chunks = data.len().div_ceil(chunk_size);
    if num_chunks == 0 {
        return Vec::new();
    }
    if runtime.parallelism() <= 1 || num_chunks == 1 {
        return data
            .chunks(chunk_size)
            .enumerate()
            .map(|(c, chunk)| f(c, chunk))
            .collect();
    }
    // One slot per chunk: the runtime decides where each index runs, the slot
    // layout (and the in-order drain below) fixes the merge order.
    let slots: Vec<Mutex<Option<R>>> = (0..num_chunks).map(|_| Mutex::new(None)).collect();
    runtime.run_indexed(num_chunks, &|c| {
        let start = c * chunk_size;
        let end = (start + chunk_size).min(data.len());
        let result = f(c, &data[start..end]);
        *slots[c].lock().expect("chunk slot poisoned") = Some(result);
    });
    slots
        .into_iter()
        .enumerate()
        .map(|(c, slot)| {
            slot.into_inner()
                .expect("chunk slot poisoned")
                .unwrap_or_else(|| panic!("runtime never executed chunk {c}"))
        })
        .collect()
}

/// Computes [`AbsMoments`] of a gradient over `chunk_size`-element chunks on
/// `runtime`, restricted to the fields in `needs` (each requested field
/// bit-identical to the all-fields result).
///
/// Bit-identical across runtimes and thread counts (see the module docs);
/// within floating-point reassociation error of [`AbsMoments::compute`].
pub fn abs_moments_on(
    grad: &[f32],
    needs: MomentNeeds,
    chunk_size: usize,
    runtime: &dyn Runtime,
) -> AbsMoments {
    let parts = map_chunks_on(grad, chunk_size, runtime, |_, chunk| {
        AbsMoments::compute_with(chunk, needs)
    });
    merge_abs_moments(&parts, needs)
}

/// Computes the shifted exceedance moments (`|g| - threshold` for
/// `|g| >= threshold`, the peaks-over-threshold input of Lemma 2) over
/// `chunk_size`-element chunks on `runtime`, restricted to the fields in
/// `needs` (each requested field bit-identical to the all-fields result).
pub fn exceedance_moments_on(
    grad: &[f32],
    threshold: f64,
    needs: MomentNeeds,
    chunk_size: usize,
    runtime: &dyn Runtime,
) -> AbsMoments {
    let parts = map_chunks_on(grad, chunk_size, runtime, |_, chunk| {
        AbsMoments::compute_exceedances_with(chunk, threshold, needs)
    });
    merge_abs_moments(&parts, needs)
}

/// Computes [`SignedMoments`] over `chunk_size`-element chunks on `runtime`
/// (the Gaussian-fit input of the GaussianKSGD baseline).
pub fn signed_moments_on(grad: &[f32], chunk_size: usize, runtime: &dyn Runtime) -> SignedMoments {
    let parts = map_chunks_on(grad, chunk_size, runtime, |_, chunk| {
        SignedMoments::compute(chunk)
    });
    merge_signed_moments(&parts)
}

/// Counts elements with `|g| >= threshold` over `chunk_size`-element chunks
/// on `runtime`. Exact (integer sum), so always equal to
/// [`crate::threshold::count_above_threshold`].
pub fn count_above_threshold_on(
    grad: &[f32],
    threshold: f64,
    chunk_size: usize,
    runtime: &dyn Runtime,
) -> usize {
    map_chunks_on(grad, chunk_size, runtime, |_, chunk| {
        crate::threshold::count_above_threshold(chunk, threshold)
    })
    .into_iter()
    .sum()
}

/// Parallel `C_η` operator: selects all elements with `|g| >= threshold` into a
/// sparse gradient using per-chunk index/value buffers that are concatenated in
/// chunk order — no re-sorting is needed because chunk order *is* index order.
///
/// Bit-identical to [`crate::threshold::select_above_threshold`] for every
/// runtime and `chunk_size` value (both run the same selection kernel).
pub fn select_above_threshold_on(
    grad: &[f32],
    threshold: f64,
    chunk_size: usize,
    runtime: &dyn Runtime,
) -> SparseGradient {
    let keep = KeepAbove::new(threshold);
    let parts = map_chunks_on(grad, chunk_size, runtime, |c, chunk| {
        let offset = (c * chunk_size) as u32;
        let (mut indices, mut values) = (Vec::new(), Vec::new());
        extend_kept(
            chunk,
            |i| offset + i as u32,
            keep,
            &mut indices,
            &mut values,
        );
        (indices, values)
    });
    concat_sparse_parts(parts, grad.len())
}

/// The survivors of one gradient's first exceedance stage, kept per chunk so
/// every later stage of the multi-stage estimate, and the final `C_η`, reads
/// them instead of the whole gradient again.
///
/// [`fill_on`](Self::fill_on) scans the gradient in `chunk_size` chunks and
/// keeps, for chunk `c`, the `(index, value)` pairs with `|g| >= t` — the
/// selection contract, so `±Inf` stay and NaN never enters — in index
/// order, in the chunk's own list. [`narrow_on`](Self::narrow_on) keeps the
/// pairs over a higher threshold in place, and [`select_on`](Self::select_on)
/// collects the pairs over the final one.
///
/// Each pass returns the shifted exceedance moments of its threshold,
/// computed per chunk by [`AbsMoments::compute_exceedances_with`] over the
/// chunk's survivor values and merged in chunk order. Those are the elements
/// a scan of the dense chunk would push, in the same order, so every moment
/// keeps the bits of [`exceedance_moments_on`] over the whole gradient with
/// the same chunk size, and the selection equals
/// [`select_above_threshold_on`].
///
/// The lists are reused across fills. Each reserves its chunk's length once
/// and is never grown past it, and only the pages survivors are written to
/// become resident: 8 bytes per stage-1 survivor.
#[derive(Default)]
pub struct SurvivorLists {
    /// One list per chunk of the last fill. The locks only hand each chunk
    /// job its own list; no two jobs share one.
    chunks: Vec<Mutex<ChunkList>>,
    chunk_size: usize,
    dense_len: usize,
    /// The threshold the lists were last filled or narrowed to.
    threshold: f64,
    filled: bool,
}

/// One chunk's survivors, in index order.
#[derive(Default)]
struct ChunkList {
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl std::fmt::Debug for SurvivorLists {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SurvivorLists")
            .field("filled", &self.filled)
            .field("survivors", &self.survivors())
            .field("chunks", &self.chunks.len())
            .finish()
    }
}

impl SurvivorLists {
    /// Empty lists; they are allocated by the first fill.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the lists hold the survivors of a fill (until
    /// [`clear`](Self::clear)).
    pub fn is_filled(&self) -> bool {
        self.filled
    }

    /// Total number of survivors across the chunks (0 unless filled).
    pub fn survivors(&self) -> usize {
        if !self.filled {
            return 0;
        }
        self.chunks
            .iter()
            .map(|list| list.lock().expect("survivor list poisoned").values.len())
            .sum()
    }

    /// Forgets the survivors, keeping the lists' memory for the next fill.
    pub fn clear(&mut self) {
        self.filled = false;
    }

    /// Keeps the pairs of `grad` with `|g| >= threshold`, chunk by chunk, and
    /// returns the shifted exceedance moments over `threshold` restricted to
    /// `needs` — the bits of [`exceedance_moments_on`] with the same
    /// arguments.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is NaN (it would keep no survivor while the fit
    /// reads every finite element), if `chunk_size == 0`, or if `grad` has
    /// more than `u32::MAX` elements.
    pub fn fill_on(
        &mut self,
        grad: &[f32],
        threshold: f64,
        needs: MomentNeeds,
        chunk_size: usize,
        runtime: &dyn Runtime,
    ) -> AbsMoments {
        assert!(!threshold.is_nan(), "survivor threshold must not be NaN");
        assert!(chunk_size > 0, "chunk_size must be positive");
        assert!(
            u32::try_from(grad.len()).is_ok(),
            "survivor indices are u32; the gradient has {} elements",
            grad.len()
        );
        self.chunks
            .resize_with(grad.len().div_ceil(chunk_size), Mutex::default);
        self.chunk_size = chunk_size;
        self.dense_len = grad.len();
        self.threshold = threshold;
        self.filled = true;
        let keep = KeepAbove::new(threshold);
        let parts = map_chunks_on(&self.chunks, 1, runtime, |c, slot| {
            let list = &mut *slot[0].lock().expect("survivor list poisoned");
            let start = c * chunk_size;
            let chunk = &grad[start..(start + chunk_size).min(grad.len())];
            let offset = start as u32;
            list.indices.clear();
            list.values.clear();
            list.indices.reserve_exact(chunk.len());
            list.values.reserve_exact(chunk.len());
            extend_kept(
                chunk,
                |i| offset + i as u32,
                keep,
                &mut list.indices,
                &mut list.values,
            );
            AbsMoments::compute_exceedances_with(&list.values, threshold, needs)
        });
        merge_abs_moments(&parts, needs)
    }

    /// Narrows the lists, in place, to the pairs with `|g| >= threshold`, and
    /// returns the shifted exceedance moments over `threshold` restricted to
    /// `needs` — the bits of [`exceedance_moments_on`] over the filled
    /// gradient with the fill's chunk size.
    ///
    /// # Panics
    ///
    /// Panics if the lists are not filled, or if `threshold` is NaN or below
    /// the threshold they were filled or last narrowed to (the lists no
    /// longer hold what a lower threshold would keep).
    pub fn narrow_on(
        &mut self,
        threshold: f64,
        needs: MomentNeeds,
        runtime: &dyn Runtime,
    ) -> AbsMoments {
        self.check_threshold(threshold);
        self.threshold = threshold;
        let keep = KeepAbove::new(threshold);
        let parts = map_chunks_on(&self.chunks, 1, runtime, |_, slot| {
            let list = &mut *slot[0].lock().expect("survivor list poisoned");
            let len = retain_kept(&mut list.indices, &mut list.values, keep);
            list.indices.truncate(len);
            list.values.truncate(len);
            AbsMoments::compute_exceedances_with(&list.values, threshold, needs)
        });
        merge_abs_moments(&parts, needs)
    }

    /// The `C_η` operator over the lists: every listed pair with
    /// `|g| >= threshold`, in index order — equal to
    /// [`select_above_threshold_on`] over the filled gradient whenever
    /// `threshold` is at least the threshold the lists were narrowed to.
    ///
    /// # Panics
    ///
    /// Panics if the lists are not filled, or if `threshold` is NaN or below
    /// the threshold they were filled or last narrowed to.
    pub fn select_on(&self, threshold: f64, runtime: &dyn Runtime) -> SparseGradient {
        self.check_threshold(threshold);
        let keep = KeepAbove::new(threshold);
        let parts = map_chunks_on(&self.chunks, 1, runtime, |_, slot| {
            let list = slot[0].lock().expect("survivor list poisoned");
            let (mut indices, mut values) = (Vec::new(), Vec::new());
            extend_kept(
                &list.values,
                |i| list.indices[i],
                keep,
                &mut indices,
                &mut values,
            );
            (indices, values)
        });
        concat_sparse_parts(parts, self.dense_len)
    }

    /// Panics unless the lists are filled and `threshold` is not below the
    /// threshold they were filled or narrowed to.
    fn check_threshold(&self, threshold: f64) {
        assert!(self.filled, "survivor lists are not filled");
        assert!(
            threshold >= self.threshold,
            "survivor thresholds must not decrease: {threshold} after {}",
            self.threshold
        );
    }
}

/// Parallel exact Top-k via chunked partial selection: each chunk selects its
/// own top `min(k, chunk_len)` candidates by quickselect, then one exact
/// selection over the (much smaller) candidate set picks the global top `k`.
///
/// The effective chunk size is raised to at least `2k` so every chunk discards
/// at least half of its elements — a smaller chunk would nominate itself
/// wholesale and degenerate into a sequential full materialisation.
///
/// Ties at the selection boundary are broken deterministically by ascending
/// index, and the returned indices are sorted ascending, so the result depends
/// only on `(grad, k, chunk_size)` — never on the runtime.
pub fn top_k_on(
    grad: &[f32],
    k: usize,
    chunk_size: usize,
    runtime: &dyn Runtime,
) -> SparseGradient {
    let k = k.min(grad.len());
    if k == 0 {
        return SparseGradient::empty(grad.len());
    }
    if k == grad.len() {
        let indices: Vec<u32> = (0..grad.len() as u32).collect();
        return SparseGradient::new(indices, grad.to_vec(), grad.len());
    }
    // Keep every chunk at least 2k elements so the partial stage always
    // discards at least half of each chunk; a smaller chunk would nominate
    // itself wholesale. The effective size is a pure function of
    // (k, chunk_size) — never of the runtime — so determinism per
    // configuration holds.
    let chunk_size = chunk_size.max(2 * k);
    let parts: Vec<(Vec<u32>, Vec<f32>)> = map_chunks_on(grad, chunk_size, runtime, |c, chunk| {
        let offset = (c * chunk_size) as u32;
        let local = top_k(chunk, k.min(chunk.len()));
        let mut pairs: Vec<(u32, f32)> = local.iter().map(|(i, v)| (offset + i, v)).collect();
        pairs.sort_by_key(|&(i, _)| i);
        pairs.into_iter().unzip()
    });
    let total: usize = parts.iter().map(|(i, _)| i.len()).sum();
    let mut candidates = Vec::with_capacity(total);
    for (indices, values) in parts {
        candidates.extend(indices.into_iter().zip(values));
    }
    // Global cut over the (index-sorted) candidates: cap_largest applies the
    // same magnitude-descending / index-ascending tie-break contract.
    cap_largest(SparseGradient::from_pairs(candidates, grad.len()), k)
}

/// Concatenates per-chunk `(indices, values)` buffers into one sparse gradient,
/// reserving the exact total size first.
fn concat_sparse_parts(parts: Vec<(Vec<u32>, Vec<f32>)>, dense_len: usize) -> SparseGradient {
    let total: usize = parts.iter().map(|(i, _)| i.len()).sum();
    let mut indices = Vec::with_capacity(total);
    let mut values = Vec::with_capacity(total);
    for (i, v) in parts {
        indices.extend(i);
        values.extend(v);
    }
    SparseGradient::new(indices, values, dense_len)
}

/// Merges per-chunk absolute moments, each computed with `needs`, into the
/// moments of the concatenated data.
///
/// A single part is returned as-is (bit-exact with the sequential computation);
/// multiple parts are combined in slice order so the result is deterministic for
/// a fixed chunk decomposition. Each requested field is combined from the same
/// part fields in the same order whatever else was requested, so it has the
/// bits of the all-fields merge; the rest are left unrequested.
fn merge_abs_moments(parts: &[AbsMoments], needs: MomentNeeds) -> AbsMoments {
    if parts.len() == 1 {
        return parts[0];
    }
    let total: usize = parts.iter().map(|p| p.count).sum();
    if total == 0 {
        return AbsMoments::empty(needs);
    }
    let positive: usize = parts.iter().map(|p| p.positive_count).sum();
    let n = total as f64;
    let mean = parts.iter().map(|p| p.mean * p.count as f64).sum::<f64>() / n;
    // E[X²] per part = var + mean², combine then re-centre.
    let second_moment = parts
        .iter()
        .map(|p| (p.variance + p.mean * p.mean) * p.count as f64)
        .sum::<f64>()
        / n;
    let variance = (second_moment - mean * mean).max(0.0);
    let mean_ln = if positive > 0 {
        parts
            .iter()
            .map(|p| p.mean_ln * p.positive_count as f64)
            .sum::<f64>()
            / positive as f64
    } else {
        0.0
    };
    let max = parts.iter().fold(0.0f64, |m, p| m.max(p.max));
    AbsMoments {
        count: total,
        positive_count: positive,
        mean,
        variance,
        mean_ln,
        max,
    }
    .restricted_to(needs)
}

/// Merges per-chunk signed moments into the moments of the concatenated data.
fn merge_signed_moments(parts: &[SignedMoments]) -> SignedMoments {
    if parts.len() == 1 {
        return parts[0];
    }
    let total: usize = parts.iter().map(|p| p.count).sum();
    if total == 0 {
        return SignedMoments {
            count: 0,
            mean: 0.0,
            variance: 0.0,
            min: 0.0,
            max: 0.0,
        };
    }
    let n = total as f64;
    let mean = parts.iter().map(|p| p.mean * p.count as f64).sum::<f64>() / n;
    let second_moment = parts
        .iter()
        .map(|p| (p.variance + p.mean * p.mean) * p.count as f64)
        .sum::<f64>()
        / n;
    let variance = (second_moment - mean * mean).max(0.0);
    let min = parts
        .iter()
        .filter(|p| p.count > 0)
        .fold(f64::INFINITY, |m, p| m.min(p.min));
    let max = parts
        .iter()
        .filter(|p| p.count > 0)
        .fold(f64::NEG_INFINITY, |m, p| m.max(p.max));
    SignedMoments {
        count: total,
        mean,
        variance,
        min,
        max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topk::oracle::top_k_full_sort;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use sidco_runtime::{handle, RuntimeKind};

    fn random_gradient(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    /// The shared runtime for a `threads` budget (inline at one thread).
    fn on(threads: usize) -> &'static dyn Runtime {
        handle(RuntimeKind::Pool, threads)
    }

    fn abs_moments(grad: &[f32], threads: usize) -> AbsMoments {
        abs_moments_on(grad, MomentNeeds::ALL, DEFAULT_CHUNK_SIZE, on(threads))
    }

    fn top_k_chunked(grad: &[f32], k: usize, chunk_size: usize, threads: usize) -> SparseGradient {
        top_k_on(grad, k, chunk_size, on(threads))
    }

    #[test]
    fn parallel_moments_match_sequential() {
        let grad = random_gradient(300_000, 61);
        let seq = AbsMoments::compute(&grad);
        for threads in [1, 2, 4, 8] {
            let par = abs_moments(&grad, threads);
            assert_eq!(par.count, seq.count);
            assert_eq!(par.positive_count, seq.positive_count);
            assert!((par.mean - seq.mean).abs() < 1e-9);
            assert!((par.variance - seq.variance).abs() < 1e-9);
            assert!((par.mean_ln - seq.mean_ln).abs() < 1e-9);
            assert!((par.max - seq.max).abs() < 1e-12);
        }
    }

    #[test]
    fn moments_are_bit_identical_across_thread_counts() {
        // The satellite guarantee: chunking depends only on the chunk size, so
        // every thread count produces the exact same bits.
        let grad = random_gradient(500_000, 71);
        let reference = abs_moments(&grad, 1);
        for threads in [2, 3, 4, 7, 16] {
            assert_eq!(abs_moments(&grad, threads), reference);
        }
        let signed_ref = signed_moments_on(&grad, 1 << 12, on(1));
        let exceed_ref = exceedance_moments_on(&grad, 0.5, MomentNeeds::ALL, 1 << 12, on(1));
        for threads in [2, 5, 9] {
            assert_eq!(signed_moments_on(&grad, 1 << 12, on(threads)), signed_ref);
            assert_eq!(
                exceedance_moments_on(&grad, 0.5, MomentNeeds::ALL, 1 << 12, on(threads)),
                exceed_ref
            );
        }
    }

    #[test]
    fn parallel_count_matches_sequential() {
        let grad = random_gradient(300_000, 62);
        let seq = crate::threshold::count_above_threshold(&grad, 0.5);
        for threads in [1, 3, 7] {
            assert_eq!(
                count_above_threshold_on(&grad, 0.5, DEFAULT_CHUNK_SIZE, on(threads)),
                seq
            );
        }
    }

    #[test]
    fn small_inputs_fall_back_to_sequential() {
        let grad = random_gradient(100, 63);
        let par = abs_moments(&grad, 8);
        let seq = AbsMoments::compute(&grad);
        assert_eq!(par, seq);
        assert_eq!(
            count_above_threshold_on(&grad, 0.2, DEFAULT_CHUNK_SIZE, on(8)),
            crate::threshold::count_above_threshold(&grad, 0.2)
        );
    }

    #[test]
    fn merge_handles_empty_parts() {
        let empty = AbsMoments::compute(&[]);
        let merged = merge_abs_moments(&[empty, empty], MomentNeeds::ALL);
        assert_eq!(merged.count, 0);
        assert_eq!(merged.mean, 0.0);
        let merged = merge_signed_moments(&[SignedMoments::compute(&[]); 2]);
        assert_eq!(merged.count, 0);
        assert_eq!(merged.min, 0.0);
    }

    #[test]
    fn map_chunks_preserves_chunk_order() {
        let data: Vec<f32> = (0..1000).map(|i| i as f32).collect();
        for threads in [1, 2, 3, 8] {
            let firsts = map_chunks_on(&data, 64, on(threads), |c, chunk| (c, chunk[0]));
            assert_eq!(firsts.len(), 1000usize.div_ceil(64));
            for (c, &(idx, first)) in firsts.iter().enumerate() {
                assert_eq!(idx, c);
                assert_eq!(first, (c * 64) as f32);
            }
        }
        assert!(map_chunks_on(&[] as &[f32], 64, on(4), |_, _| 0).is_empty());
    }

    #[test]
    fn parallel_select_is_bit_identical_to_sequential() {
        let grad = random_gradient(200_000, 64);
        let seq = crate::threshold::select_above_threshold(&grad, 0.4);
        let mut lists = SurvivorLists::new();
        for threads in [1, 2, 7] {
            for chunk in [97, 1 << 12, 1 << 20] {
                let par = select_above_threshold_on(&grad, 0.4, chunk, on(threads));
                assert_eq!(par, seq);
                // List inputs: survivors of a lower threshold, filled and
                // then narrowed, select the same pairs.
                lists.fill_on(&grad, 0.1, MomentNeeds::MEAN, chunk, on(threads));
                assert_eq!(lists.select_on(0.4, on(threads)), seq);
                lists.narrow_on(0.3, MomentNeeds::MEAN, on(threads));
                assert_eq!(lists.select_on(0.4, on(threads)), seq);
                assert_eq!(
                    lists.survivors(),
                    count_above_threshold_on(&grad, 0.3, chunk, on(1))
                );
            }
        }
    }

    #[test]
    fn survivor_lists_match_the_rescanning_passes() {
        let grad = random_gradient(300_000, 66);
        let mut lists = SurvivorLists::new();
        assert!(!lists.is_filled());
        for threads in [1, 2, 7] {
            for chunk in [1000, DEFAULT_CHUNK_SIZE] {
                let needs = MomentNeeds::ALL;
                let filled = lists.fill_on(&grad, 0.2, needs, chunk, on(threads));
                let scanned = exceedance_moments_on(&grad, 0.2, needs, chunk, on(1));
                assert_eq!(filled, scanned);
                for t in [0.2, 0.5, 0.9, 2.0] {
                    let narrowed = lists.narrow_on(t, needs, on(threads));
                    assert_eq!(
                        narrowed,
                        exceedance_moments_on(&grad, t, needs, chunk, on(1))
                    );
                }
                assert_eq!(lists.survivors(), 0);
                lists.clear();
                assert!(!lists.is_filled());
            }
        }
    }

    #[test]
    #[should_panic(expected = "must not decrease")]
    fn survivor_lists_reject_a_lower_threshold() {
        let grad = random_gradient(1000, 67);
        let mut lists = SurvivorLists::new();
        lists.fill_on(&grad, 0.5, MomentNeeds::MEAN, 97, on(1));
        lists.narrow_on(0.4, MomentNeeds::MEAN, on(1));
    }

    #[test]
    fn chunked_topk_matches_the_full_sort_oracle() {
        let grad = random_gradient(50_000, 65);
        for &k in &[1usize, 17, 500, 5_000] {
            let reference = top_k_chunked(&grad, k, 1 << 10, 1);
            for threads in [2, 4, 7] {
                assert_eq!(top_k_chunked(&grad, k, 1 << 10, threads), reference);
            }
            assert_eq!(reference.indices(), top_k_full_sort(&grad, k), "k={k}");
        }
    }

    #[test]
    fn chunked_topk_breaks_ties_by_index() {
        let grad = [1.0f32; 64];
        let s = top_k_chunked(&grad, 10, 8, 4);
        assert_eq!(s.nnz(), 10);
        let expected: Vec<u32> = (0..10).collect();
        assert_eq!(s.indices(), expected.as_slice());
        assert_eq!(s.indices(), top_k_full_sort(&grad, 10));
    }

    #[test]
    fn chunked_topk_edge_cases() {
        let grad = [1.0f32, -2.0, 3.0];
        for k in [0, 1, 3, 10] {
            let s = top_k_chunked(&grad, k, 2, 4);
            assert_eq!(s.indices(), top_k_full_sort(&grad, k), "k={k}");
        }
        assert_eq!(top_k_chunked(&grad, 10, 2, 4).nnz(), 3);
        assert_eq!(top_k_chunked(&[], 5, 2, 4).nnz(), 0);
    }
}
