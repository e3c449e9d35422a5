//! Golden regression tests for the collective scheduler's modeled makespans
//! on a 16Mi-element (1 << 24) model: `best_schedule` across bucket and
//! stream counts, the same 8-bucket schedule on the heterogeneous testbeds,
//! a 2-job fair-share fleet on the straggler cluster, and the auto-tuned
//! layout of a VGG-like tensor list.
//!
//! Every number here is modeled, so none depends on the host. They pin the
//! α–β network model, the SIDCo-E device profile and the scheduler's stream
//! search the way `tests/overlap_golden.rs` pins the trainer's charging path
//! (its `FLEET_GOLDENS` already cover the 4-job fleet on the dedicated
//! testbed). If a drift is *intentional*, regenerate the constants with
//!
//! ```text
//! cargo test --test scheduler_goldens -- --ignored --nocapture
//! ```
//!
//! and update this file alongside the change that moved them.

use sidco::prelude::*;
use sidco_core::compressor::CompressorKind;
use sidco_core::layerwise::LayerLayout;
use sidco_dist::collective::modeled_bucket_costs;
use sidco_dist::schedule::auto_bucket_layout;
use sidco_dist::tenancy::{FleetScheduler, JobSpec, SharePolicy};
use sidco_stats::fit::SidKind;

const REL_TOL: f64 = 1e-9;

/// 16Mi elements, the ImageNet regime of the paper's large CNNs.
const DIM: usize = 1 << 24;
const DELTA: f64 = 0.001;
const SIDCO_E: CompressorKind = CompressorKind::Sidco(SidKind::Exponential);

fn assert_close(actual: f64, golden: f64, what: &str) {
    assert!(
        (actual - golden).abs() <= REL_TOL * golden.abs().max(1e-30),
        "{what} drifted: golden {golden:.17e}, got {actual:.17e}"
    );
}

/// The modeled makespan (seconds) of `buckets` uniform buckets of the 16Mi
/// model on `cluster` (SIDCo-E, δ = 0.001, 2 stages), under the best
/// `SmallestFirst` schedule over a budget of `streams` streams.
fn makespan(cluster: &ClusterConfig, buckets: usize, streams: usize) -> f64 {
    let layout = LayerLayout::uniform(DIM, buckets);
    let costs = modeled_bucket_costs(cluster, SIDCO_E, DELTA, 2, &layout);
    CollectiveScheduler::new(streams, PriorityPolicy::SmallestFirst)
        .best_schedule(&costs)
        .makespan()
}

/// The testbeds the 8-bucket schedule is priced on: the homogeneous
/// two-tier baseline, the mixed 10G/25G/100G fleet and the 2x straggler.
fn het_clusters() -> [(&'static str, ClusterConfig); 3] {
    [
        ("two-tier", ClusterConfig::paper_two_tier()),
        ("mixed-fleet", ClusterConfig::paper_mixed_fleet()),
        ("straggler-2x", ClusterConfig::paper_straggler()),
    ]
}

/// The two ResNet20 tenants of the overlap goldens' fleet (δ = 0.01, 6
/// iterations each, both arriving at `t = 0`).
fn straggler_fleet_jobs() -> Vec<JobSpec> {
    vec![
        JobSpec::new("resnet20-a", BenchmarkId::ResNet20Cifar10, 0.01)
            .with_iterations(6)
            .with_priority_class(2),
        JobSpec::new("resnet20-b", BenchmarkId::ResNet20Cifar10, 0.01)
            .with_iterations(6)
            .with_priority_class(0),
    ]
}

/// `(fleet makespan, Jain fairness, serialized end)` of the 2-job fleet
/// fair-sharing the straggler cluster's wire.
fn straggler_fleet() -> [f64; 3] {
    let scheduler = FleetScheduler::new(ClusterConfig::paper_straggler(), SharePolicy::FairShare);
    let jobs = straggler_fleet_jobs();
    let report = scheduler.simulate(&jobs);
    [
        report.fleet_makespan(),
        report.fairness_index(),
        scheduler.serialized_end(&jobs),
    ]
}

/// The layout `auto_bucket_layout` picks for a VGG-like 16Mi-element tensor
/// list (23 layers doubling every second layer from 1000 elements, plus one
/// remainder layer) at δ = 0.01 with 4 `SmallestFirst` streams.
fn auto_tuned_layout() -> LayerLayout {
    let mut layers: Vec<usize> = (0..23).map(|i| 1_000 << (i / 2)).collect();
    let assigned: usize = layers.iter().sum();
    layers.push(DIM - assigned);
    let scheduler = CollectiveScheduler::new(4, PriorityPolicy::SmallestFirst);
    auto_bucket_layout(
        &layers,
        &ClusterConfig::paper_dedicated(),
        SIDCO_E,
        0.01,
        &scheduler,
    )
}

const BUCKETS: [usize; 3] = [4, 16, 64];
const STREAMS: [usize; 4] = [1, 2, 4, 8];

/// Golden (buckets, streams, makespan) rows for [`makespan`] on the
/// dedicated testbed.
const BEST_SCHEDULE_GOLDENS: [(usize, usize, f64); 12] = [
    (4, 1, 1.2650246399999998e-3),
    (4, 2, 8.1907008e-4),
    (4, 4, 7.8265056e-4),
    (4, 8, 7.8265056e-4),
    (16, 1, 3.714254720000002e-3),
    (16, 2, 1.9375168000000005e-3),
    (16, 4, 1.12953728e-3),
    (16, 8, 1.0862787199999997e-3),
    (64, 1, 1.3776667520000008e-2),
    (64, 2, 6.942181120000003e-3),
    (64, 4, 3.5787852800000016e-3),
    (64, 8, 2.5121868800000004e-3),
];

/// Golden (cluster, makespan) rows for [`makespan`] at 8 buckets and 4
/// streams on [`het_clusters`].
const HET_GOLDENS: [(&str, f64); 3] = [
    ("two-tier", 6.9835888e-4),
    ("mixed-fleet", 8.908567999999998e-4),
    ("straggler-2x", 1.3158462400000002e-3),
];

/// Golden [`straggler_fleet`] triple.
const STRAGGLER_FLEET_GOLDEN: [f64; 3] = [3.318895669060001e0, 1e0, 6.63041576466e0];

/// Golden (bucket count, largest bucket) of [`auto_tuned_layout`].
const AUTO_TUNED_LAYOUT_GOLDEN: (usize, usize) = (17, 1024000);

#[test]
fn best_schedule_makespans_match_goldens() {
    let cluster = ClusterConfig::paper_dedicated();
    let mut golden = BEST_SCHEDULE_GOLDENS.iter();
    for buckets in BUCKETS {
        let mut previous = f64::INFINITY;
        for streams in STREAMS {
            let &(b, s, pinned) = golden.next().expect("golden table out of sync");
            assert_eq!((b, s), (buckets, streams), "golden table out of sync");
            let modeled = makespan(&cluster, buckets, streams);
            assert_close(
                modeled,
                pinned,
                &format!("buckets={buckets} streams={streams} makespan"),
            );
            // Structural sanity alongside the pinned values: a larger stream
            // budget never lengthens the best schedule.
            assert!(modeled <= previous, "buckets={buckets} streams={streams}");
            previous = modeled;
        }
    }
}

#[test]
fn heterogeneous_makespans_match_goldens() {
    let mut modeled = Vec::new();
    for ((name, cluster), golden) in het_clusters().iter().zip(HET_GOLDENS) {
        assert_eq!(*name, golden.0, "golden table out of sync");
        let m = makespan(cluster, 8, 4);
        assert_close(m, golden.1, &format!("{name} makespan"));
        modeled.push(m);
    }
    // The mixed fleet's 10G node and the straggler's slow compression both
    // cost more than the healthy two-tier baseline.
    assert!(modeled[0] < modeled[1] && modeled[0] < modeled[2]);
}

#[test]
fn straggler_fleet_matches_golden() {
    let [makespan, fairness, serialized] = straggler_fleet();
    let [pinned_makespan, pinned_fairness, pinned_serialized] = STRAGGLER_FLEET_GOLDEN;
    assert_close(makespan, pinned_makespan, "straggler fleet makespan");
    assert_close(fairness, pinned_fairness, "straggler fleet fairness");
    assert_close(serialized, pinned_serialized, "straggler serialized end");
    // Fair-sharing the wire never loses to running the jobs back to back.
    assert!(makespan <= serialized);
}

#[test]
fn auto_tuned_layout_matches_golden() {
    let layout = auto_tuned_layout();
    let largest = layout.sizes().iter().copied().max().unwrap_or(0);
    assert_eq!((layout.len(), largest), AUTO_TUNED_LAYOUT_GOLDEN);
    assert_eq!(layout.sizes().iter().sum::<usize>(), DIM);
}

/// Regenerates the golden constants above (run with `--ignored --nocapture`).
#[test]
#[ignore = "golden generator, not a regression test"]
fn dump_goldens() {
    let cluster = ClusterConfig::paper_dedicated();
    println!("const BEST_SCHEDULE_GOLDENS: [(usize, usize, f64); 12] = [");
    for buckets in BUCKETS {
        for streams in STREAMS {
            let m = makespan(&cluster, buckets, streams);
            println!("    ({buckets}, {streams}, {m:e}),");
        }
    }
    println!("];");
    println!("const HET_GOLDENS: [(&str, f64); 3] = [");
    for (name, cluster) in het_clusters() {
        println!("    (\"{name}\", {:e}),", makespan(&cluster, 8, 4));
    }
    println!("];");
    let [makespan, fairness, serialized] = straggler_fleet();
    println!(
        "const STRAGGLER_FLEET_GOLDEN: [f64; 3] = [{makespan:e}, {fairness:e}, {serialized:e}];"
    );
    let layout = auto_tuned_layout();
    let largest = layout.sizes().iter().copied().max().unwrap_or(0);
    println!(
        "const AUTO_TUNED_LAYOUT_GOLDEN: (usize, usize) = ({}, {largest});",
        layout.len()
    );
}
