//! Multi-tenant compression fleet: four Table-1 training jobs sharing one
//! cluster's wire and compression-engine pool, arbitrated by each of the
//! three [`SharePolicy`] arbiters in turn.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example fleet
//! ```
//!
//! Pass `--trace-out <path>` to capture every phase as a Chrome trace-event
//! file (load it at <https://ui.perfetto.dev>): the fleet runs get one
//! model-time track per job plus the shared link, and the elastic trainer
//! run adds per-stream/link schedule tracks and real-time tracks for every
//! pool worker. Tracing is strictly observational — the printed numbers are
//! bit-identical with and without it.

use sidco::prelude::*;
use sidco_models::dataset::ClassificationDataset;
use sidco_models::logistic::SoftmaxClassifier;
use sidco_models::mlp::Mlp;
use std::sync::Arc;

fn main() {
    let mut trace_out: Option<std::path::PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace-out" => {
                let path = args.next().expect("--trace-out needs a file path");
                trace_out = Some(path.into());
            }
            other => panic!("unknown argument {other:?} (expected --trace-out <path>)"),
        }
    }
    let tracing = trace_out.is_some();
    let mut chrome = ChromeTrace::new();

    let cluster = ClusterConfig::paper_dedicated();
    let jobs = vec![
        JobSpec::new("resnet20-a", BenchmarkId::ResNet20Cifar10, 0.01)
            .with_iterations(8)
            .with_priority_class(2),
        JobSpec::new("resnet20-b", BenchmarkId::ResNet20Cifar10, 0.01)
            .with_arrival(0.05)
            .with_iterations(8)
            .with_priority_class(0),
        JobSpec::new("vgg16", BenchmarkId::Vgg16Cifar10, 0.02)
            .with_arrival(0.10)
            .with_iterations(5)
            .with_priority_class(1),
        JobSpec::new("lstm-ptb", BenchmarkId::LstmPtb, 0.005)
            .with_arrival(0.20)
            .with_iterations(3)
            .with_priority_class(3),
    ];

    println!(
        "multi-tenant fleet: {} jobs on {} workers sharing one wire and a \
         {}-worker engine pool",
        jobs.len(),
        cluster.workers,
        TenancyConfig::for_cluster(&cluster).pool_workers,
    );

    for policy in SharePolicy::ALL {
        let scheduler = FleetScheduler::new(cluster.clone(), policy).with_tenancy(TenancyConfig {
            trace: tracing,
            ..TenancyConfig::for_cluster(&cluster)
        });
        let report = scheduler.simulate(&jobs);
        if let Some(trace) = report.trace() {
            chrome.add(&format!("fleet {policy}"), trace);
        }
        println!();
        println!(
            "policy {policy}: fleet makespan {:.3}s, Jain fairness {:.6}, p99 \
             iteration {:.4}s",
            report.fleet_makespan(),
            report.fairness_index(),
            report.p99_latency(),
        );
        println!(
            "  link busy {:.4}s of {:.4}s wire demand (work-conserving), \
             serialized baseline {:.3}s",
            report.link_busy_seconds,
            report.total_wire_seconds,
            scheduler.serialized_end(&jobs),
        );
        println!(
            "  {:<12} {:>6} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "job", "class", "arrive", "finish", "makespan", "dedicated", "last δ"
        );
        for job in &report.jobs {
            println!(
                "  {:<12} {:>6} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.5}",
                job.name,
                job.priority_class,
                job.arrival,
                job.completion,
                job.makespan(),
                job.dedicated_makespan(),
                job.deltas.last().copied().unwrap_or(f64::NAN),
            );
        }
    }

    // On the 25GbE dedicated testbed compute dwarfs the wire, so the three
    // arbiters nearly coincide; the engine pool is where sharing really
    // bites. Price the same ResNet20 tenants on the CPU-compression testbed
    // with a deliberately tight pool: admission control shrinks each job's
    // engine grant while its neighbours are active, and the makespans
    // stretch well past the dedicated-cluster baseline.
    let cpu = ClusterConfig::paper_cpu_compression().with_engine_workers(4);
    let tight = TenancyConfig {
        pool_workers: 4,
        trace: false,
    };
    let tenants: Vec<JobSpec> = (0..4)
        .map(|i| {
            JobSpec::new(format!("lstm-ptb-{i}"), BenchmarkId::LstmPtb, 0.01).with_iterations(6)
        })
        .collect();
    let report = FleetScheduler::new(cpu, SharePolicy::FairShare)
        .with_tenancy(tight)
        .simulate(&tenants);
    println!();
    println!(
        "engine-pool backpressure (CPU compression, 4 tenants on a 4-worker \
         pool):"
    );
    println!(
        "  {:<12} {:>10} {:>10} {:>10}",
        "job", "makespan", "dedicated", "stretch"
    );
    for job in &report.jobs {
        println!(
            "  {:<12} {:>10.3} {:>10.3} {:>9.2}x",
            job.name,
            job.makespan(),
            job.dedicated_makespan(),
            job.makespan() / job.dedicated_makespan(),
        );
    }

    // The dedicated baseline those tenants are measured against, run as a
    // real trainer: CPU compression is slow enough that staggered bucket
    // readiness makes the multi-stream overlapped schedule genuinely win
    // (the trace shows the transfers spread across `stream:N` tracks).
    let mlp_data = ClassificationDataset::gaussian_blobs(96, 10, 3, 3.0, 11);
    let mlp: Arc<dyn DifferentiableModel> = Arc::new(Mlp::new(mlp_data, 12));
    let overlap_config = TrainerConfig {
        iterations: 6,
        batch_per_worker: 16,
        compressor_kind: Some(sidco::core::compressor::CompressorKind::TopK),
        bucket_policy: BucketPolicy::PerLayer,
        overlap: true,
        streams: 4,
        priority: PriorityPolicy::NearestOutputFirst,
        arrival_aware: true,
        trace: tracing,
        ..TrainerConfig::default()
    };
    let mut dedicated = ModelTrainer::new(
        mlp,
        ClusterConfig::paper_cpu_compression(),
        overlap_config,
        || Box::new(TopKCompressor::new()),
    )
    .with_runtime(RuntimeKind::Pool, 4);
    let dedicated_report = dedicated.run(0.05);
    let schedule = dedicated_report
        .schedule()
        .expect("compressed run has schedule accounting");
    println!();
    println!(
        "dedicated overlapped baseline (CPU compression, {} buckets on up to \
         {} streams):",
        schedule.buckets(),
        schedule.streams(),
    );
    println!(
        "  serial overhead {:.4}s, pipelined {:.4}s, charged {:.4}s \
         (multi-stream saved {:.4}s; {:.2}x vs serial)",
        schedule.serial_overhead(),
        schedule.pipelined_overhead(),
        schedule.charged_overhead(),
        schedule.multi_stream_saving(),
        schedule.speedup_vs_serial(),
    );
    if let Some(trace) = dedicated_report.trace() {
        chrome.add("dedicated", trace);
    }

    // A heterogeneous, elastic fleet: the mixed 10G/25G/100G testbed with a
    // 2x straggler on node 2, losing one machine mid-run. The per-node drain
    // times show how the asymmetric NICs gate the inter-node exchange, and
    // the rescale report shows the error-feedback migration when the fleet
    // shrinks.
    let het = ClusterConfig::paper_mixed_fleet().with_straggler(2, 2.0);
    let payload = 1 << 20; // 1 MiB of sparse gradient leaving each node
    println!();
    println!(
        "heterogeneous fleet: {} nodes x {} workers, 1 MiB inter-node drain:",
        het.nodes(),
        het.workers_per_node(),
    );
    let drains = het.topology.node_drain_times(payload);
    for (node, (drain, profile)) in drains.iter().zip(het.topology.node_profiles()).enumerate() {
        println!(
            "  node {node}: drain {:>10.6}s  compute x{:.1}",
            drain,
            profile.compute_factor(),
        );
    }

    let data = ClassificationDataset::gaussian_blobs(512, 32, 4, 4.0, 7);
    let model: Arc<dyn DifferentiableModel> = Arc::new(SoftmaxClassifier::new(data));
    let config = TrainerConfig {
        iterations: 12,
        batch_per_worker: 16,
        compressor_kind: Some(sidco::core::compressor::CompressorKind::TopK),
        cluster_events: vec![ClusterEvent::Leave(6)],
        bucket_policy: BucketPolicy::PerLayer,
        overlap: true,
        streams: 2,
        arrival_aware: true,
        trace: tracing,
        ..TrainerConfig::default()
    };
    let mut trainer = ModelTrainer::new(model, het, config, || Box::new(TopKCompressor::new()))
        .with_runtime(RuntimeKind::Pool, 4);
    let report = trainer.run(0.05);
    println!();
    println!("elastic run (one machine leaves before iteration 6):");
    for rescale in report.rescales() {
        println!(
            "  step {}: {:?}, {} -> {} workers, EF mass {:+.6e} -> {:+.6e} \
             (migrated L1 {:.4e})",
            rescale.step,
            rescale.event,
            rescale.workers_before,
            rescale.workers_after,
            rescale.ef_mass_before,
            rescale.ef_mass_after,
            rescale.migrated_ef_l1,
        );
    }
    println!(
        "  final loss {:.6} after {:.3}s simulated on the rescaled fleet",
        report.final_loss(),
        report.total_time(),
    );
    if let Some(trace) = report.trace() {
        chrome.add("trainer", trace);
    }

    if let Some(path) = &trace_out {
        let json = chrome.finish();
        std::fs::write(path, &json).expect("writing the Chrome trace");
        println!();
        println!(
            "wrote Chrome trace ({} bytes) to {} — load it at ui.perfetto.dev",
            json.len(),
            path.display(),
        );
    }

    println!();
    println!(
        "fair share spreads the contention delay evenly; priority-class \
         protects the lowest class at the tail jobs' expense; FIFO serves \
         whole all-gathers in arrival order. A fleet of one is always charged \
         exactly the dedicated best_schedule cost."
    );
}
