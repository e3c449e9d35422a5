//! Schedules for the trainer: learning-rate schedules and the bucket sizing
//! policy that lays gradient buckets out along real layer boundaries and
//! auto-tunes the bucket count against the α–β network model.

use crate::cluster::ClusterConfig;
use crate::collective::{modeled_bucket_costs, with_ready_times, CollectiveScheduler};
use sidco_core::compressor::CompressorKind;
use sidco_core::layerwise::LayerLayout;

/// Learning-rate schedule: optional linear warm-up followed by optional
/// periodic decay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LrSchedule {
    /// Learning rate after warm-up and before any decay.
    pub base_lr: f64,
    /// Number of initial iterations that ramp linearly from `base_lr / warmup`
    /// up to `base_lr`. Zero disables warm-up.
    pub warmup_iterations: u64,
    /// Multiply the learning rate by `decay_factor` every `decay_every`
    /// post-warm-up iterations. Zero disables decay.
    pub decay_every: u64,
    /// Factor applied at each decay step.
    pub decay_factor: f64,
}

impl LrSchedule {
    /// A constant learning rate.
    pub fn constant(lr: f64) -> Self {
        Self {
            base_lr: lr,
            warmup_iterations: 0,
            decay_every: 0,
            decay_factor: 1.0,
        }
    }

    /// Linear warm-up over `warmup_iterations`, then `base_lr` decayed by
    /// `decay_factor` every `decay_every` iterations (`decay_every = 0`
    /// disables decay, matching the paper's warm-up-only LSTM recipes).
    pub fn with_warmup(
        base_lr: f64,
        warmup_iterations: u64,
        decay_every: u64,
        decay_factor: f64,
    ) -> Self {
        Self {
            base_lr,
            warmup_iterations,
            decay_every,
            decay_factor,
        }
    }

    /// Learning rate at a zero-based iteration index.
    pub fn lr_at(&self, iteration: u64) -> f64 {
        if iteration < self.warmup_iterations {
            // Ramp 1/w, 2/w, …, 1 so the first step is already non-zero.
            return self.base_lr * (iteration + 1) as f64 / self.warmup_iterations as f64;
        }
        if self.decay_every == 0 {
            return self.base_lr;
        }
        let decays = (iteration - self.warmup_iterations) / self.decay_every;
        self.base_lr * self.decay_factor.powi(decays as i32)
    }
}

impl Default for LrSchedule {
    fn default() -> Self {
        Self::constant(0.1)
    }
}

/// How the trainer turns a model's parameters into gradient buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BucketPolicy {
    /// `TrainerConfig::buckets` near-equal buckets, ignoring layer shapes —
    /// the original default.
    #[default]
    Uniform,
    /// One bucket per model layer (the per-tensor hooks of the reference
    /// integration).
    PerLayer,
    /// Layer-aligned buckets whose count and sizes are auto-tuned against the
    /// cluster's α–β model via [`auto_bucket_layout`].
    AutoTuned,
}

/// Packs consecutive layers into buckets of roughly `target` parameters:
/// adjacent layers coalesce until the bucket would exceed the target, and a
/// layer larger than the target is split into near-equal pieces no larger
/// than the target (splitting within a layer is how DDP caps bucket sizes).
///
/// # Panics
///
/// Panics if `layers` is empty, any layer is zero, or `target` is zero.
pub fn pack_layers(layers: &[usize], target: usize) -> LayerLayout {
    assert!(!layers.is_empty(), "at least one layer is required");
    assert!(target > 0, "bucket target must be positive");
    let mut sizes: Vec<usize> = Vec::new();
    let mut open = 0usize;
    for &layer in layers {
        assert!(layer > 0, "layer sizes must be positive");
        if layer > target {
            if open > 0 {
                sizes.push(open);
                open = 0;
            }
            // Near-equal split into ceil(layer / target) pieces.
            let pieces = layer.div_ceil(target);
            let base = layer / pieces;
            let remainder = layer % pieces;
            for i in 0..pieces {
                sizes.push(base + usize::from(i < remainder));
            }
        } else if open + layer > target {
            sizes.push(open);
            open = layer;
        } else {
            open += layer;
        }
    }
    if open > 0 {
        sizes.push(open);
    }
    LayerLayout::new(sizes)
}

/// The candidate layouts [`auto_bucket_layout`] evaluates, **deduplicated**:
/// bucket counts 1, 2, 4, …, 128 packed along layer boundaries via
/// [`pack_layers`] at target `total.div_ceil(buckets)`, plus the per-tensor
/// layout (what a DDP integration hands over). Distinct targets frequently
/// collapse to the same packing — on small models most of the sweep does, and
/// the per-tensor layout often coincides with a swept candidate — so each
/// distinct layout appears (and is therefore evaluated) exactly once, in
/// first-occurrence (coarsest-first) order. Deduplication cannot change the
/// tuner's choice: selection is strict-improvement with earlier candidates
/// winning ties, so a repeated layout could never have replaced its first
/// occurrence.
///
/// # Panics
///
/// Panics if `layers` is empty or contains a zero.
pub fn candidate_bucket_layouts(layers: &[usize]) -> Vec<LayerLayout> {
    let total: usize = layers.iter().sum();
    let mut candidates: Vec<LayerLayout> = Vec::new();
    let push = |candidates: &mut Vec<LayerLayout>, layout: LayerLayout| {
        if !candidates.contains(&layout) {
            candidates.push(layout);
        }
    };
    let mut buckets = 1usize;
    while buckets <= 128 && buckets <= total {
        let target = total.div_ceil(buckets);
        push(&mut candidates, pack_layers(layers, target));
        buckets *= 2;
    }
    push(&mut candidates, LayerLayout::new(layers.to_vec()));
    candidates
}

/// Derives a bucket layout from a model's real layer shapes, auto-tuned
/// against the cluster's α–β model: every (distinct) candidate from
/// [`candidate_bucket_layouts`] has its iteration overhead evaluated through
/// `scheduler` over [`modeled_bucket_costs`], and the cheapest schedule wins
/// (ties prefer the earlier, coarser candidate). This replaces the
/// near-uniform default with a layout that balances per-bucket latency floors
/// against pipeline granularity. The per-tensor layout is always a candidate,
/// so tuning never loses to not tuning.
///
/// # Panics
///
/// Panics if `layers` is empty or contains a zero, or if `delta` is not in
/// `(0, 1]`.
pub fn auto_bucket_layout(
    layers: &[usize],
    cluster: &ClusterConfig,
    kind: CompressorKind,
    delta: f64,
    scheduler: &CollectiveScheduler,
) -> LayerLayout {
    sweep_bucket_layouts(layers, cluster, kind, delta, scheduler, None)
}

/// [`auto_bucket_layout`] with gradient-arrival awareness: every candidate
/// layout is scored at the release times *it* would induce — its own
/// [`bucket_ready_times`] aggregation of the per-layer backward costs over
/// `backward_seconds` — so an arrival-aware trainer optimises the schedule it
/// will actually be charged. (Scoring at zero arrivals systematically favours
/// coarse layouts: without release times there is no reward for output-side
/// buckets that can start compressing mid-backward.) The arrival-aware
/// makespan includes the backward pass itself, a constant across candidates,
/// so the comparison is equivalent to comparing charged overheads.
///
/// # Panics
///
/// As [`auto_bucket_layout`], plus the [`bucket_ready_times`] alignment and
/// finiteness requirements on `backward_costs` / `backward_seconds`.
#[allow(clippy::too_many_arguments)]
pub fn auto_bucket_layout_with_arrivals(
    layers: &[usize],
    backward_costs: &[f64],
    backward_seconds: f64,
    cluster: &ClusterConfig,
    kind: CompressorKind,
    delta: f64,
    scheduler: &CollectiveScheduler,
) -> LayerLayout {
    sweep_bucket_layouts(
        layers,
        cluster,
        kind,
        delta,
        scheduler,
        Some((backward_costs, backward_seconds)),
    )
}

/// The shared candidate sweep behind both auto-tuners: strict-improvement
/// selection with earlier (coarser) candidates winning ties, optionally
/// stamping each candidate's own release times before scheduling.
fn sweep_bucket_layouts(
    layers: &[usize],
    cluster: &ClusterConfig,
    kind: CompressorKind,
    delta: f64,
    scheduler: &CollectiveScheduler,
    arrivals: Option<(&[f64], f64)>,
) -> LayerLayout {
    assert!(
        delta > 0.0 && delta <= 1.0,
        "delta must lie in (0,1], got {delta}"
    );
    // Multi-stage estimators settle around two stages; the tuner only needs
    // the relative cost shape, not the exact stage count.
    let stages = 2;
    let mut best: Option<(f64, LayerLayout)> = None;
    for layout in candidate_bucket_layouts(layers) {
        let mut costs = modeled_bucket_costs(cluster, kind, delta, stages, &layout);
        if let Some((backward_costs, backward_seconds)) = arrivals {
            let ready = bucket_ready_times(layers, backward_costs, backward_seconds, &layout);
            costs = with_ready_times(costs, &ready);
        }
        let makespan = scheduler.best_schedule(&costs).makespan();
        let better = match &best {
            Some((best_makespan, _)) => makespan < *best_makespan - 1e-15,
            None => true,
        };
        if better {
            best = Some((makespan, layout));
        }
    }
    // INVARIANT: the candidate loop always runs at least once (bucket counts
    // start at 1), so a best layout exists.
    best.expect("at least one candidate layout").1
}

/// Aggregates per-layer backward-pass timings into per-bucket gradient
/// release times for `layout` — the `ready_at` feed of the arrival-aware
/// [`CollectiveScheduler`].
///
/// The backward pass runs **output-to-input**: with `backward_costs[ℓ]` the
/// relative backward cost of layer `ℓ` (flat input-first order, e.g.
/// `DifferentiableModel::layer_backward_costs`), layer `ℓ`'s gradient is
/// complete once layers `ℓ..` have all been processed, i.e. at the suffix-sum
/// fraction `Σ_{j ≥ ℓ} cost[j] / Σ cost` of `backward_seconds`. A bucket is
/// released when **every** layer it covers has its gradient, which — release
/// times being non-increasing in the layer index — is the release time of the
/// lowest-indexed layer the bucket overlaps (a piece of a split layer is
/// released with its whole layer). Bucket 0 therefore always releases at
/// exactly `backward_seconds`, and release times are non-increasing in the
/// bucket index: the output-side buckets arrive first, which is what lets
/// `NearestOutputFirst` genuinely interleave communication with the backward
/// pass.
///
/// # Panics
///
/// Panics if the slices are empty or misaligned, any backward cost is
/// non-positive or non-finite, `backward_seconds` is negative or non-finite,
/// or `layout` does not cover exactly the layers' total parameters.
pub fn bucket_ready_times(
    layers: &[usize],
    backward_costs: &[f64],
    backward_seconds: f64,
    layout: &LayerLayout,
) -> Vec<f64> {
    assert!(!layers.is_empty(), "at least one layer is required");
    assert_eq!(
        layers.len(),
        backward_costs.len(),
        "backward costs must align with the layers"
    );
    assert!(
        backward_costs.iter().all(|&c| c > 0.0 && c.is_finite()),
        "backward costs must be positive and finite"
    );
    assert!(
        backward_seconds >= 0.0 && backward_seconds.is_finite(),
        "backward duration must be non-negative and finite, got {backward_seconds}"
    );
    let total_params: usize = layers.iter().sum();
    assert_eq!(
        layout.total(),
        total_params,
        "layout covers {} parameters but the layers have {total_params}",
        layout.total()
    );
    // suffix[ℓ] = Σ_{j ≥ ℓ} cost[j]; release(ℓ) = suffix[ℓ] / total · T.
    let mut suffix = vec![0.0f64; layers.len() + 1];
    for ell in (0..layers.len()).rev() {
        suffix[ell] = suffix[ell + 1] + backward_costs[ell];
    }
    let total_cost = suffix[0];
    let release =
        |layer: usize| -> f64 { (suffix[layer] / total_cost * backward_seconds).max(0.0) };
    // Walk the bucket segments with a layer cursor: each bucket's release is
    // that of the layer containing its first parameter.
    let mut layer = 0usize;
    let mut layer_end = layers[0];
    layout
        .segments()
        .map(|(offset, _)| {
            while offset >= layer_end {
                layer += 1;
                layer_end += layers[layer];
            }
            release(layer)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant() {
        let s = LrSchedule::constant(0.3);
        assert_eq!(s.lr_at(0), 0.3);
        assert_eq!(s.lr_at(1_000_000), 0.3);
    }

    #[test]
    fn warmup_ramps_linearly_then_holds() {
        let s = LrSchedule::with_warmup(0.5, 20, 0, 1.0);
        assert!((s.lr_at(0) - 0.025).abs() < 1e-12);
        assert!((s.lr_at(9) - 0.25).abs() < 1e-12);
        assert!((s.lr_at(19) - 0.5).abs() < 1e-12);
        assert_eq!(s.lr_at(20), 0.5);
        assert_eq!(s.lr_at(500), 0.5);
    }

    #[test]
    fn decay_applies_after_warmup() {
        let s = LrSchedule::with_warmup(1.0, 10, 100, 0.1);
        assert_eq!(s.lr_at(10), 1.0);
        assert_eq!(s.lr_at(109), 1.0);
        assert!((s.lr_at(110) - 0.1).abs() < 1e-12);
        assert!((s.lr_at(310) - 0.001).abs() < 1e-12);
    }

    #[test]
    fn packing_respects_layer_boundaries_and_targets() {
        // Small layers coalesce, the big layer is split into ≤ target pieces.
        let layout = pack_layers(&[100, 100, 100, 1000, 50], 300);
        assert_eq!(layout.total(), 1350);
        for &size in layout.sizes() {
            assert!(size <= 300, "bucket of {size} exceeds the 300 target");
        }
        // The three small layers share one bucket; the 1000 layer yields 4.
        assert_eq!(layout.sizes(), &[300, 250, 250, 250, 250, 50]);
        // A huge target packs everything into one bucket.
        assert_eq!(pack_layers(&[100, 100], 1 << 20).len(), 1);
        // A tiny target degenerates to per-element buckets but stays valid.
        assert_eq!(pack_layers(&[3], 1).len(), 3);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn packing_rejects_empty_layers() {
        pack_layers(&[10, 0], 8);
    }

    #[test]
    fn layer_exactly_at_target_fills_one_bucket() {
        // A layer equal to the target is not split and closes any open bucket
        // first (100 + 300 would exceed the target).
        let layout = pack_layers(&[100, 300, 300, 100], 300);
        assert_eq!(layout.sizes(), &[100, 300, 300, 100]);
        // Exactly-at-target layers coalesce with nothing, alone they pack 1:1.
        assert_eq!(pack_layers(&[300], 300).sizes(), &[300]);
        // A preceding small layer still coalesces up to exactly the target.
        assert_eq!(pack_layers(&[200, 100], 300).sizes(), &[300]);
    }

    #[test]
    fn oversized_layer_remainder_spreads_over_leading_pieces() {
        // 1000 over target 300 → 4 pieces; remainder 1000 - 4·250 = 0 here,
        // so pick totals that exercise a real remainder: 1001 → pieces of
        // base 250 with one extra element on the first piece.
        let layout = pack_layers(&[1001], 300);
        assert_eq!(layout.sizes(), &[251, 250, 250, 250]);
        // Remainder r gives the first r pieces one extra element each.
        let layout = pack_layers(&[1003], 300);
        assert_eq!(layout.sizes(), &[251, 251, 251, 250]);
        assert_eq!(layout.total(), 1003);
    }

    #[test]
    fn split_pieces_stay_within_one_element_of_each_other() {
        // Invariant: the near-equal split of an oversized layer never
        // produces pieces differing by more than one element, and every
        // piece respects the target.
        for layer in [301usize, 599, 600, 601, 1000, 1001, 12_345, 65_537] {
            for target in [1usize, 7, 300, 599, 600] {
                let layout = pack_layers(&[layer], target);
                assert_eq!(layout.total(), layer);
                let min = layout.sizes().iter().min().unwrap();
                let max = layout.sizes().iter().max().unwrap();
                assert!(
                    max - min <= 1,
                    "layer {layer} target {target}: pieces {min}..{max} differ by more than 1"
                );
                assert!(*max <= target.max(1), "piece {max} exceeds target {target}");
            }
        }
    }

    #[test]
    fn candidate_layouts_are_deduplicated() {
        // Regression: the 1..=128 power-of-two sweep collapses to few
        // distinct targets on small models, and the per-tensor layout
        // coincides with a swept candidate — each distinct layout must be
        // evaluated exactly once.
        let layers = [100usize, 100];
        let candidates = candidate_bucket_layouts(&layers);
        for (i, a) in candidates.iter().enumerate() {
            for b in &candidates[i + 1..] {
                assert_ne!(a, b, "duplicate candidate layout {:?}", a.sizes());
            }
        }
        // total = 200: targets 200, 100, 50, 25, 13, 7, 4, 2 plus per-tensor
        // [100, 100] — which duplicates the target-100 packing exactly.
        assert!(
            candidates.contains(&LayerLayout::new(vec![100, 100])),
            "per-tensor layout must stay a candidate"
        );
        assert!(
            candidates.len() <= 8,
            "dedup must fold the per-tensor duplicate, got {}",
            candidates.len()
        );
        // A degenerate single-parameter model collapses almost everything.
        let tiny = candidate_bucket_layouts(&[1]);
        assert_eq!(tiny.len(), 1);
        // Dedup preserves coarsest-first order (ties prefer fewer buckets).
        let vgg = candidate_bucket_layouts(&[1_728, 36_864, 4_194_304]);
        for pair in vgg.windows(2) {
            // Later sweep candidates never have fewer buckets...
            if pair[1].len() < pair[0].len() {
                // ...except the trailing per-tensor layout.
                assert_eq!(pair[1].sizes(), &[1_728, 36_864, 4_194_304]);
            }
        }
    }

    #[test]
    fn ready_times_follow_the_backward_pass_output_to_input() {
        use sidco_core::layerwise::LayerLayout;
        // Three layers, flop-proportional backward costs, 1s backward pass.
        let layers = [100usize, 200, 100];
        let costs = [100.0, 200.0, 100.0];
        // Per-layer buckets: layer 2 (output side) finishes first at 0.25,
        // layer 1 at 0.75, layer 0 at 1.0.
        let per_layer = LayerLayout::new(layers.to_vec());
        let ready = bucket_ready_times(&layers, &costs, 1.0, &per_layer);
        assert_eq!(ready.len(), 3);
        assert!((ready[0] - 1.0).abs() < 1e-12);
        assert!((ready[1] - 0.75).abs() < 1e-12);
        assert!((ready[2] - 0.25).abs() < 1e-12);
        // Release times are non-increasing in the bucket index, bucket 0
        // always releases exactly at the end of the backward pass.
        for pair in ready.windows(2) {
            assert!(pair[1] <= pair[0]);
        }
        // A coalesced bucket waits for its lowest-indexed (input-most) layer:
        // one flat bucket is ready only when the whole backward is done.
        let flat = LayerLayout::single(400);
        assert_eq!(bucket_ready_times(&layers, &costs, 1.0, &flat), vec![1.0]);
        // Split pieces of one layer all release with the whole layer.
        let split = pack_layers(&[400], 100);
        let ready = bucket_ready_times(&[400], &[400.0], 2.0, &split);
        assert_eq!(ready, vec![2.0; 4]);
        // Zero-duration backward (e.g. arrival-unaware charging) → all zero.
        assert_eq!(
            bucket_ready_times(&layers, &costs, 0.0, &per_layer),
            vec![0.0; 3]
        );
    }

    #[test]
    #[should_panic(expected = "align")]
    fn ready_times_reject_misaligned_costs() {
        use sidco_core::layerwise::LayerLayout;
        bucket_ready_times(&[10, 10], &[1.0], 1.0, &LayerLayout::single(20));
    }

    #[test]
    #[should_panic(expected = "covers")]
    fn ready_times_reject_mismatched_layout() {
        use sidco_core::layerwise::LayerLayout;
        bucket_ready_times(&[10, 10], &[1.0, 1.0], 1.0, &LayerLayout::single(21));
    }

    #[test]
    fn auto_tuned_layout_beats_single_bucket_and_excess_buckets() {
        use crate::collective::{modeled_bucket_costs, CollectiveScheduler, PriorityPolicy};
        use sidco_core::layerwise::LayerLayout;

        let cluster = ClusterConfig::paper_dedicated();
        let kind = CompressorKind::Sidco(sidco_stats::fit::SidKind::Exponential);
        let scheduler = CollectiveScheduler::new(2, PriorityPolicy::SmallestFirst);
        // A VGG-ish shape: many small convs plus two huge FC layers.
        let layers: Vec<usize> = vec![
            1_728, 36_864, 73_728, 147_456, 294_912, 589_824, 1_179_648, 2_359_296, 2_359_296,
            2_359_296, 4_194_304, 1_048_576,
        ];
        let layout = auto_bucket_layout(&layers, &cluster, kind, 0.01, &scheduler);
        assert_eq!(layout.total(), layers.iter().sum::<usize>());
        let overhead = |layout: &LayerLayout| {
            scheduler
                .best_schedule(&modeled_bucket_costs(&cluster, kind, 0.01, 2, layout))
                .makespan()
        };
        let tuned = overhead(&layout);
        let single = overhead(&LayerLayout::single(layout.total()));
        let shredded = overhead(&pack_layers(&layers, layout.total() / 512));
        assert!(
            tuned <= single && tuned <= shredded,
            "tuned {tuned} vs single {single} vs 512-way {shredded}"
        );
        // The tuner must have actually bucketed the model.
        assert!(layout.len() > 1, "expected a multi-bucket layout");
    }

    #[test]
    fn arrival_aware_tuner_scores_candidates_at_their_release_times() {
        use crate::collective::{
            modeled_bucket_costs, with_ready_times, CollectiveScheduler, PriorityPolicy,
        };
        use sidco_core::layerwise::LayerLayout;

        let cluster = ClusterConfig::paper_dedicated();
        let kind = CompressorKind::Sidco(sidco_stats::fit::SidKind::Exponential);
        let scheduler = CollectiveScheduler::new(2, PriorityPolicy::NearestOutputFirst);
        let layers: Vec<usize> = vec![1_728, 36_864, 294_912, 2_359_296, 4_194_304, 1_048_576];
        let backward_costs = vec![1.0; layers.len()];
        let backward_seconds = 0.05;

        let aware = auto_bucket_layout_with_arrivals(
            &layers,
            &backward_costs,
            backward_seconds,
            &cluster,
            kind,
            0.01,
            &scheduler,
        );
        assert_eq!(aware.total(), layers.iter().sum::<usize>());

        // The arrival-aware makespan of a candidate layout: its own release
        // times stamped onto its own modeled costs, as the sweep scores it.
        let aware_makespan = |layout: &LayerLayout| {
            let ready = bucket_ready_times(&layers, &backward_costs, backward_seconds, layout);
            let costs = with_ready_times(
                modeled_bucket_costs(&cluster, kind, 0.01, 2, layout),
                &ready,
            );
            scheduler.best_schedule(&costs).makespan()
        };
        // Both the oblivious winner and the single flat bucket are candidates
        // of the same sweep, so the arrival-aware winner must score at least
        // as well as either at the release times each would induce.
        let oblivious = auto_bucket_layout(&layers, &cluster, kind, 0.01, &scheduler);
        assert!(aware_makespan(&aware) <= aware_makespan(&oblivious) + 1e-15);
        let single = LayerLayout::single(layers.iter().sum());
        assert!(aware_makespan(&aware) <= aware_makespan(&single) + 1e-15);
    }

    #[test]
    fn tuner_sees_heterogeneous_clusters_through_the_modeled_costs() {
        use crate::collective::{modeled_bucket_costs, CollectiveScheduler, PriorityPolicy};

        let kind = CompressorKind::Sidco(sidco_stats::fit::SidKind::Exponential);
        let scheduler = CollectiveScheduler::new(2, PriorityPolicy::SmallestFirst);
        let layers: Vec<usize> = vec![1_728, 36_864, 294_912, 2_359_296, 4_194_304, 1_048_576];

        // The sweep scores candidates through `modeled_bucket_costs`, which
        // charges the slowest node's compression and drain — so a straggler
        // makes every candidate (and the winner's schedule) strictly dearer,
        // while the winning layout stays a valid packing of the same layers.
        let healthy = ClusterConfig::paper_two_tier();
        let skewed = ClusterConfig::paper_straggler();
        let tuned = auto_bucket_layout(&layers, &skewed, kind, 0.01, &scheduler);
        assert_eq!(tuned.total(), layers.iter().sum::<usize>());
        let makespan = |cluster: &ClusterConfig| {
            let costs = modeled_bucket_costs(cluster, kind, 0.01, 2, &tuned);
            scheduler.best_schedule(&costs).makespan()
        };
        assert!(
            makespan(&skewed) > makespan(&healthy),
            "a 2x straggler must make the tuned schedule dearer"
        );
    }
}
