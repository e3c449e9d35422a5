//! Golden regression tests for the overlap cost model and
//! `TrainingReport::schedule()` on the Table-1 device/cluster profiles.
//!
//! The serial and pipelined overheads below were produced by the cost model
//! at the time the collective scheduler landed; they pin the α–β network
//! model, the (engine-aware) device profiles and the trainer's charging path
//! so later cost-model refactors cannot silently drift the paper-facing
//! numbers. If a drift is *intentional*, regenerate the constants with
//!
//! ```text
//! cargo test --test overlap_golden -- --ignored --nocapture
//! ```
//!
//! and update this file alongside the change that moved them.

mod oracle;

use oracle::{pipelined_overhead, serial_overhead};
use sidco::prelude::*;
use sidco_dist::collective::{modeled_bucket_costs, with_ready_times};
use sidco_dist::schedule::{bucket_ready_times, pack_layers};
use sidco_dist::tenancy::{FleetScheduler, JobSpec, SharePolicy};
use sidco_models::dataset::{ClassificationDataset, RegressionDataset};
use sidco_models::mlp::Mlp;
use sidco_models::regression::LinearRegression;
use std::sync::Arc;

const REL_TOL: f64 = 1e-9;

fn assert_close(actual: f64, golden: f64, what: &str) {
    assert!(
        (actual - golden).abs() <= REL_TOL * golden.abs().max(1e-30),
        "{what} drifted: golden {golden:.17e}, got {actual:.17e}"
    );
}

/// The three Table-1 testbeds the paper reports on.
fn clusters() -> [(&'static str, ClusterConfig); 3] {
    [
        ("dedicated-gpu", ClusterConfig::paper_dedicated()),
        ("dedicated-cpu", ClusterConfig::paper_cpu_compression()),
        ("shared-multi-gpu", ClusterConfig::paper_shared_multi_gpu()),
    ]
}

/// Per-cluster modeled serial/pipelined overheads of one VGG16-CIFAR10
/// iteration at δ = 0.01, over the representative layer shapes packed into
/// 8 buckets (SIDCo-E cost profile, 2 estimation stages).
fn modeled_overheads(cluster: &ClusterConfig) -> (f64, f64) {
    let spec = BenchmarkId::Vgg16Cifar10.spec();
    let layout = pack_layers(
        &spec.representative_layer_sizes(),
        spec.parameters.div_ceil(8),
    );
    let kind =
        sidco::core::compressor::CompressorKind::Sidco(sidco::stats::fit::SidKind::Exponential);
    let costs = modeled_bucket_costs(cluster, kind, 0.01, 2, &layout);
    let compression: Vec<f64> = costs.iter().map(|c| c.compression).collect();
    let communication: Vec<f64> = costs.iter().map(|c| c.communication()).collect();
    (
        serial_overhead(&compression, &communication),
        pipelined_overhead(&compression, &communication),
    )
}

/// A deterministic compressed training run on `cluster` (Top-k, 8 uniform
/// buckets, fixed seeds); returns `TrainingReport::schedule()`'s
/// (serial, charged) totals.
fn trainer_overheads(cluster: ClusterConfig, overlap: bool) -> (f64, f64) {
    let model: Arc<dyn DifferentiableModel> = Arc::new(LinearRegression::new(
        RegressionDataset::generate(128, 64, 0.01, 5),
    ));
    let config = TrainerConfig {
        iterations: 25,
        batch_per_worker: 16,
        compressor_kind: Some(sidco::core::compressor::CompressorKind::TopK),
        buckets: 8,
        overlap,
        ..TrainerConfig::default()
    };
    let mut trainer = ModelTrainer::new(model, cluster, config, || Box::new(TopKCompressor::new()));
    let report = trainer.run(0.1);
    let acc = report.schedule().expect("compressed run has accounting");
    (acc.serial_overhead(), acc.charged_overhead())
}

/// The arrival-aware modelled makespan of one VGG16-CIFAR10 iteration's
/// schedule at δ = 0.01 on `cluster`: the same 8-bucket layout as
/// [`modeled_overheads`], released on a flop-proportional backward pass one
/// second long, scheduled with 4 streams under `NearestOutputFirst`.
fn arrival_aware_makespan(cluster: &ClusterConfig) -> f64 {
    let spec = BenchmarkId::Vgg16Cifar10.spec();
    let layers = spec.representative_layer_sizes();
    let layout = pack_layers(&layers, spec.parameters.div_ceil(8));
    let kind =
        sidco::core::compressor::CompressorKind::Sidco(sidco::stats::fit::SidKind::Exponential);
    let ready = bucket_ready_times(&layers, &spec.representative_backward_costs(), 1.0, &layout);
    let costs = with_ready_times(
        modeled_bucket_costs(cluster, kind, 0.01, 2, &layout),
        &ready,
    );
    CollectiveScheduler::new(4, PriorityPolicy::NearestOutputFirst)
        .best_schedule(&costs)
        .makespan()
}

/// A deterministic arrival-aware trainer run (4-layer MLP, per-layer
/// buckets, 4 streams, `NearestOutputFirst`); returns the schedule
/// accounting's (pipelined, charged) totals.
fn arrival_aware_trainer_overheads(cluster: ClusterConfig) -> (f64, f64) {
    let model: Arc<dyn DifferentiableModel> = Arc::new(Mlp::new(
        ClassificationDataset::gaussian_blobs(96, 10, 3, 3.0, 11),
        12,
    ));
    let config = TrainerConfig {
        iterations: 25,
        batch_per_worker: 16,
        compressor_kind: Some(sidco::core::compressor::CompressorKind::TopK),
        bucket_policy: BucketPolicy::PerLayer,
        overlap: true,
        streams: 4,
        priority: PriorityPolicy::NearestOutputFirst,
        arrival_aware: true,
        ..TrainerConfig::default()
    };
    let mut trainer = ModelTrainer::new(model, cluster, config, || Box::new(TopKCompressor::new()));
    let report = trainer.run(0.1);
    let acc = report.schedule().expect("compressed run has accounting");
    (acc.pipelined_overhead(), acc.charged_overhead())
}

/// The multi-tenant fleets the goldens pin: mixed Table-1 workloads, all
/// arriving at `t = 0` so their first wire requests collide and the three
/// [`SharePolicy`] arbiters genuinely disagree about who waits. The first
/// `count` jobs form the fleet (2-job and 4-job variants below).
fn fleet_jobs(count: usize) -> Vec<JobSpec> {
    let all = [
        JobSpec::new("resnet20-a", BenchmarkId::ResNet20Cifar10, 0.01)
            .with_iterations(6)
            .with_priority_class(2),
        JobSpec::new("resnet20-b", BenchmarkId::ResNet20Cifar10, 0.01)
            .with_iterations(6)
            .with_priority_class(0),
        JobSpec::new("vgg16", BenchmarkId::Vgg16Cifar10, 0.02)
            .with_iterations(4)
            .with_priority_class(1),
        JobSpec::new("lstm-ptb", BenchmarkId::LstmPtb, 0.005)
            .with_iterations(3)
            .with_priority_class(3),
    ];
    all[..count].to_vec()
}

/// Per-policy fleet metrics on the dedicated-GPU testbed:
/// `(fleet makespan, Jain fairness, p99 charged iteration latency)`.
fn fleet_metrics(policy: SharePolicy, count: usize) -> (f64, f64, f64) {
    let report =
        FleetScheduler::new(ClusterConfig::paper_dedicated(), policy).simulate(&fleet_jobs(count));
    (
        report.fleet_makespan(),
        report.fairness_index(),
        report.p99_latency(),
    )
}

/// Golden (cluster, serial, pipelined) triples for [`modeled_overheads`].
const MODELED_GOLDENS: [(&str, f64, f64); 3] = [
    ("dedicated-gpu", 5.4220752875000005e-3, 4.8511897175e-3),
    ("dedicated-cpu", 3.175733468e-2, 2.7460167959999997e-2),
    ("shared-multi-gpu", 1.6583567275e-3, 1.0874711575e-3),
];

/// The heterogeneous Table-1 extensions: the mixed 10G/25G/100G fleet and
/// the 1-straggler (2x compute skew) two-tier cluster.
fn het_clusters() -> [(&'static str, ClusterConfig); 2] {
    [
        ("mixed-fleet", ClusterConfig::paper_mixed_fleet()),
        ("straggler-2x", ClusterConfig::paper_straggler()),
    ]
}

/// Golden (cluster, serial, pipelined) rows for [`modeled_overheads`] on the
/// heterogeneous clusters — these pin the per-node drain gating and the
/// slowest-node compression charge.
const HET_MODELED_GOLDENS: [(&str, f64, f64); 2] = [
    ("mixed-fleet", 8.661838327500001e-3, 8.0909527575e-3),
    ("straggler-2x", 3.979735695e-3, 2.837964554999999e-3),
];

/// Golden (cluster, serial, overlapped-charged) rows for
/// [`trainer_overheads`] on the heterogeneous clusters.
const HET_TRAINER_GOLDENS: [(&str, f64, f64); 2] = [
    ("mixed-fleet", 6.320088159999997e-1, 6.040013120000002e-1),
    ("straggler-2x", 1.210003424e0, 1.201250848e0),
];

/// Golden (cluster, serial, overlapped-charged) rows for
/// [`trainer_overheads`].
const TRAINER_GOLDENS: [(&str, f64, f64); 3] = [
    ("dedicated-gpu", 6.42003824e-1, 6.052506880000001e-1),
    ("dedicated-cpu", 4.2008704e-2, 4.2004223999999986e-2),
    (
        "shared-multi-gpu",
        6.070011359999999e-1,
        6.008753520000002e-1,
    ),
];

/// Golden (cluster, makespan) rows for [`arrival_aware_makespan`], plus a
/// rail-optimised row pinning the per-node NIC model.
const ARRIVAL_GOLDENS: [(&str, f64); 4] = [
    ("dedicated-gpu", 1.0005647973975e0),
    ("dedicated-cpu", 1.00339739676e0),
    ("shared-multi-gpu", 1.0001733730775e0),
    ("rail-optimized", 1.0002295967575e0),
];

/// Golden (cluster, pipelined, charged) rows for
/// [`arrival_aware_trainer_overheads`].
const ARRIVAL_TRAINER_GOLDENS: [(&str, f64, f64); 3] = [
    ("dedicated-gpu", 3.051671043982614e-1, 3.051671043982614e-1),
    ("dedicated-cpu", 2.0919152000000003e-2, 5.264976000000002e-3),
    (
        "shared-multi-gpu",
        3.007880723982614e-1,
        3.007880723982614e-1,
    ),
];

/// Golden (policy, jobs, makespan, fairness, p99) rows for [`fleet_metrics`]:
/// 2-job and 4-job fleets under each [`SharePolicy`] on the dedicated-GPU
/// testbed. These pin the multi-tenant arbiter — the shared-link DES, the
/// admission-control grants and the per-tenant δ adaptation — the same way
/// the tables above pin the single-job cost model.
const FLEET_GOLDENS: [(&str, usize, f64, f64, f64); 6] = [
    (
        "fair-share",
        2,
        1.6606046754500001e0,
        1e0,
        2.768096325750001e-1,
    ),
    (
        "fair-share",
        4,
        6.139309802018251e1,
        9.999983924919142e-1,
        1.5348387761145752e1,
    ),
    (
        "priority-class",
        2,
        1.6606115432900002e0,
        9.99999999828018e-1,
        2.768048415734e-1,
    ),
    (
        "priority-class",
        4,
        6.139309802018251e1,
        9.999984037139045e-1,
        1.5348387761145752e1,
    ),
    (
        "fifo",
        2,
        1.6606115432900002e0,
        9.99999999828018e-1,
        2.768048415734e-1,
    ),
    (
        "fifo",
        4,
        6.139309802018251e1,
        9.999984037139045e-1,
        1.5348387761145752e1,
    ),
];

#[test]
fn oracle_recurrences_match_hand_computed_pipelines() {
    // A single bucket cannot overlap anything.
    assert_eq!(serial_overhead(&[3.0], &[2.0]), 5.0);
    assert_eq!(pipelined_overhead(&[3.0], &[2.0]), 5.0);
    // Wire-bound: one compression of fill bubble, then a saturated wire.
    let (comp, comm) = ([1.0; 4], [2.0; 4]);
    assert_eq!(serial_overhead(&comp, &comm), 12.0);
    assert_eq!(pipelined_overhead(&comp, &comm), 9.0);
    // Compression-bound: C = 4, 8; W = max(0, 4) + 1 = 5, max(5, 8) + 1 = 9.
    assert_eq!(pipelined_overhead(&[4.0, 4.0], &[1.0, 1.0]), 9.0);
    assert_eq!(pipelined_overhead(&[], &[]), 0.0);
    assert_eq!(serial_overhead(&[], &[]), 0.0);
}

#[test]
fn modeled_overheads_match_goldens() {
    for ((name, cluster), golden) in clusters().iter().zip(MODELED_GOLDENS) {
        assert_eq!(*name, golden.0, "golden table out of sync");
        let (serial, pipelined) = modeled_overheads(cluster);
        assert_close(serial, golden.1, &format!("{name} serial overhead"));
        assert_close(pipelined, golden.2, &format!("{name} pipelined overhead"));
        // Structural sanity alongside the pinned values.
        assert!(pipelined <= serial);
    }
}

#[test]
fn trainer_overlap_accounting_matches_goldens() {
    for ((name, cluster), golden) in clusters().iter().zip(TRAINER_GOLDENS) {
        assert_eq!(*name, golden.0, "golden table out of sync");
        let (serial, serial_charged) = trainer_overheads(cluster.clone(), false);
        // A serial run charges exactly its serial overhead.
        assert_close(serial_charged, serial, &format!("{name} serial charge"));
        assert_close(serial, golden.1, &format!("{name} trainer serial overhead"));
        let (overlap_serial, charged) = trainer_overheads(cluster.clone(), true);
        // Overlap changes the charge, never the serialised reference.
        assert_close(overlap_serial, serial, &format!("{name} overlap reference"));
        assert_close(
            charged,
            golden.2,
            &format!("{name} trainer charged overhead"),
        );
        assert!(charged <= serial);
    }
}

#[test]
fn arrival_aware_makespans_match_goldens() {
    for ((name, cluster), golden) in clusters().iter().zip(&ARRIVAL_GOLDENS[..3]) {
        assert_eq!(*name, golden.0, "golden table out of sync");
        let makespan = arrival_aware_makespan(cluster);
        assert_close(
            makespan,
            golden.1,
            &format!("{name} arrival-aware makespan"),
        );
        // The makespan always covers the 1s backward pass it overlaps with,
        // and never exceeds waiting the backward out before the zero-arrival
        // pipeline.
        assert!(makespan >= 1.0);
        let (serial, _) = modeled_overheads(cluster);
        assert!(makespan <= 1.0 + serial);
    }
    let railed = ClusterConfig::paper_rail_optimized();
    assert_eq!(ARRIVAL_GOLDENS[3].0, "rail-optimized");
    let makespan = arrival_aware_makespan(&railed);
    assert_close(
        makespan,
        ARRIVAL_GOLDENS[3].1,
        "rail-optimized arrival-aware makespan",
    );
    // Four NIC rails must not charge more than the single-bottleneck
    // two-tier fabric on the identical schedule.
    assert!(makespan <= arrival_aware_makespan(&ClusterConfig::paper_two_tier()));
}

#[test]
fn arrival_aware_trainer_accounting_matches_goldens() {
    for ((name, cluster), golden) in clusters().iter().zip(ARRIVAL_TRAINER_GOLDENS) {
        assert_eq!(*name, golden.0, "golden table out of sync");
        let (pipelined, charged) = arrival_aware_trainer_overheads(cluster.clone());
        assert_close(
            pipelined,
            golden.1,
            &format!("{name} arrival-aware pipelined overhead"),
        );
        assert_close(
            charged,
            golden.2,
            &format!("{name} arrival-aware charged overhead"),
        );
        // Charged never loses to its own single-stream FIFO reference.
        assert!(charged <= pipelined);
        assert!(charged >= 0.0);
    }
}

#[test]
fn fleet_reports_match_goldens() {
    let mut golden = FLEET_GOLDENS.iter();
    for policy in SharePolicy::ALL {
        for count in [2usize, 4] {
            let &(name, jobs, makespan, fairness, p99) =
                golden.next().expect("golden table out of sync");
            assert_eq!(name, policy.as_str(), "golden table out of sync");
            assert_eq!(jobs, count, "golden table out of sync");
            let label = format!("{policy} {count}-job fleet");
            let report = FleetScheduler::new(ClusterConfig::paper_dedicated(), policy)
                .simulate(&fleet_jobs(count));
            assert_close(
                report.fleet_makespan(),
                makespan,
                &format!("{label} makespan"),
            );
            assert_close(
                report.fairness_index(),
                fairness,
                &format!("{label} fairness"),
            );
            assert_close(report.p99_latency(), p99, &format!("{label} p99 latency"));
            // Structural sanity alongside the pinned values: the shared link
            // is work-conserving, and Jain's index lands in (0, 1].
            assert_close(
                report.link_busy_seconds,
                report.total_wire_seconds,
                &format!("{label} link work conservation"),
            );
            let jain = report.fairness_index();
            assert!(
                jain > 0.0 && jain <= 1.0 + 1e-12,
                "{label} Jain index {jain}"
            );
        }
    }
    // Fair-sharing the wire never loses to running the fleet one job at a
    // time on a dedicated cluster.
    let scheduler = FleetScheduler::new(ClusterConfig::paper_dedicated(), SharePolicy::FairShare);
    let jobs = fleet_jobs(4);
    assert!(scheduler.simulate(&jobs).fleet_end() <= scheduler.serialized_end(&jobs));
}

#[test]
fn heterogeneous_cluster_overheads_match_goldens() {
    for ((name, cluster), golden) in het_clusters().iter().zip(HET_MODELED_GOLDENS) {
        assert_eq!(*name, golden.0, "golden table out of sync");
        let (serial, pipelined) = modeled_overheads(cluster);
        assert_close(serial, golden.1, &format!("{name} serial overhead"));
        assert_close(pipelined, golden.2, &format!("{name} pipelined overhead"));
        assert!(pipelined <= serial);
    }
    for ((name, cluster), golden) in het_clusters().iter().zip(HET_TRAINER_GOLDENS) {
        assert_eq!(*name, golden.0, "golden table out of sync");
        let (serial, serial_charged) = trainer_overheads(cluster.clone(), false);
        assert_close(serial_charged, serial, &format!("{name} serial charge"));
        assert_close(serial, golden.1, &format!("{name} trainer serial overhead"));
        let (overlap_serial, charged) = trainer_overheads(cluster.clone(), true);
        assert_close(overlap_serial, serial, &format!("{name} overlap reference"));
        assert_close(
            charged,
            golden.2,
            &format!("{name} trainer charged overhead"),
        );
        assert!(charged <= serial);
    }
    // Structural cross-checks alongside the pinned values: the straggler
    // strictly outcharges its healthy twin, and the mixed fleet's 10G node
    // strictly outcharges a uniform 25G view of the same topology.
    let (healthy_serial, _) = modeled_overheads(&ClusterConfig::paper_two_tier());
    let (straggler_serial, _) = modeled_overheads(&ClusterConfig::paper_straggler());
    assert!(straggler_serial > healthy_serial);
}

/// Regenerates the golden constants above (run with `--ignored --nocapture`).
#[test]
#[ignore = "golden generator, not a regression test"]
fn dump_goldens() {
    println!("const MODELED_GOLDENS: [(&str, f64, f64); 3] = [");
    for (name, cluster) in clusters() {
        let (serial, pipelined) = modeled_overheads(&cluster);
        println!("    (\"{name}\", {serial:e}, {pipelined:e}),");
    }
    println!("];");
    println!("const TRAINER_GOLDENS: [(&str, f64, f64); 3] = [");
    for (name, cluster) in clusters() {
        let (serial, _) = trainer_overheads(cluster.clone(), false);
        let (_, charged) = trainer_overheads(cluster, true);
        println!("    (\"{name}\", {serial:e}, {charged:e}),");
    }
    println!("];");
    println!("const ARRIVAL_GOLDENS: [(&str, f64); 4] = [");
    for (name, cluster) in clusters() {
        println!("    (\"{name}\", {:e}),", arrival_aware_makespan(&cluster));
    }
    println!(
        "    (\"rail-optimized\", {:e}),",
        arrival_aware_makespan(&ClusterConfig::paper_rail_optimized())
    );
    println!("];");
    println!("const ARRIVAL_TRAINER_GOLDENS: [(&str, f64, f64); 3] = [");
    for (name, cluster) in clusters() {
        let (pipelined, charged) = arrival_aware_trainer_overheads(cluster);
        println!("    (\"{name}\", {pipelined:e}, {charged:e}),");
    }
    println!("];");
    println!("const HET_MODELED_GOLDENS: [(&str, f64, f64); 2] = [");
    for (name, cluster) in het_clusters() {
        let (serial, pipelined) = modeled_overheads(&cluster);
        println!("    (\"{name}\", {serial:e}, {pipelined:e}),");
    }
    println!("];");
    println!("const HET_TRAINER_GOLDENS: [(&str, f64, f64); 2] = [");
    for (name, cluster) in het_clusters() {
        let (serial, _) = trainer_overheads(cluster.clone(), false);
        let (_, charged) = trainer_overheads(cluster, true);
        println!("    (\"{name}\", {serial:e}, {charged:e}),");
    }
    println!("];");
    println!("const FLEET_GOLDENS: [(&str, usize, f64, f64, f64); 6] = [");
    for policy in SharePolicy::ALL {
        for count in [2usize, 4] {
            let (makespan, fairness, p99) = fleet_metrics(policy, count);
            println!(
                "    (\"{}\", {count}, {makespan:e}, {fairness:e}, {p99:e}),",
                policy.as_str()
            );
        }
    }
    println!("];");
}
