//! Property-test harness for the multi-tenant fleet simulator
//! (`sidco_dist::tenancy`), over randomised clusters and job mixes (case
//! count set by `PROPTEST_CASES`, default 256).
//!
//! The pinned invariants:
//!
//! 1. **Work conservation** — under every [`SharePolicy`] the shared link's
//!    busy time equals the total wire demand the fleet presented: the
//!    arbiter reorders work, it never loses or invents any.
//! 2. **No starvation under fair share** — processor sharing serves every
//!    pending request at rate ≥ `1/N`, so no job's makespan exceeds its
//!    local work plus `N ×` its wire work.
//! 3. **Single-job collapse** — a fleet of one is charged bit-for-bit what
//!    the dedicated [`CollectiveScheduler::best_schedule`] path charges,
//!    under every policy: tenancy is free until a second tenant shows up.
//! 4. **Fair share beats serialization** — the fleet's last completion never
//!    lands after running the same jobs one at a time, end to end, each with
//!    the cluster to itself.
//! 5. **Memoised pricing is bit-stable** — a fleet's per-shape price memo
//!    lives for one `simulate`, so repeating the simulate, on the same
//!    scheduler or a clone, reproduces every charge, δ and completion bit for
//!    bit. In a debug build every memo hit is also re-priced by a fresh
//!    search and must match it bit for bit.
//! 6. **The memo key is complete** — jobs share prices only when they agree
//!    on every field a price reads: a job that differs from another in just
//!    its benchmark, bucket count, stream count, compressor, bucket policy
//!    or δ still gets its own dedicated iteration, bit for bit that of its
//!    solo fleet.

use proptest::prelude::*;
use sidco::prelude::*;
use sidco_dist::collective::{modeled_bucket_costs, PriorityPolicy};
use sidco_dist::schedule::pack_layers;
use sidco_dist::tenancy::{FleetReport, FleetScheduler, JobSpec, SharePolicy};
use sidco_dist::trainer::COMPUTE_COST_PER_EXAMPLE_ELEMENT;

const BENCHMARKS: [BenchmarkId; 3] = [
    BenchmarkId::ResNet20Cifar10,
    BenchmarkId::Vgg16Cifar10,
    BenchmarkId::LstmPtb,
];

fn cluster_strategy() -> impl Strategy<Value = ClusterConfig> {
    (0..3usize, 1..5usize).prop_map(|(testbed, engine_workers)| {
        let base = match testbed {
            0 => ClusterConfig::paper_dedicated(),
            1 => ClusterConfig::paper_two_tier(),
            _ => ClusterConfig::paper_shared_multi_gpu(),
        };
        base.with_engine_workers(engine_workers)
    })
}

fn job_strategy() -> impl Strategy<Value = JobSpec> {
    // The vendored proptest implements `Strategy` for tuples up to arity 4,
    // so the seven knobs nest as (workload, schedule) pairs.
    (
        (
            0..BENCHMARKS.len(),
            prop_oneof![3 => 0.0f64..0.25, 1 => Just(0.0f64)],
            1e-3f64..0.05,
            1..5usize,
        ),
        (1..4usize, 0..4usize, 4..10usize),
    )
        .prop_map(
            |((bench, arrival, delta, iterations), (streams, class, buckets))| {
                JobSpec::new(format!("job-{bench}"), BENCHMARKS[bench], delta)
                    .with_arrival(arrival)
                    .with_iterations(iterations)
                    .with_streams(streams)
                    .with_priority_class(class)
                    .with_buckets(buckets)
            },
        )
}

fn fleet_strategy() -> impl Strategy<Value = (ClusterConfig, Vec<JobSpec>)> {
    (
        cluster_strategy(),
        prop::collection::vec(job_strategy(), 1..4),
    )
}

/// Every float a fleet report charges, as bits: per job the charges, the δ
/// series and the completion, then the link accounting.
fn report_bits(report: &FleetReport) -> Vec<u64> {
    let mut bits = Vec::new();
    for job in &report.jobs {
        bits.extend(job.charges.iter().map(|c| c.to_bits()));
        bits.extend(job.deltas.iter().map(|d| d.to_bits()));
        bits.push(job.completion.to_bits());
    }
    bits.push(report.link_busy_seconds.to_bits());
    bits.push(report.total_wire_seconds.to_bits());
    bits
}

proptest! {
    /// Invariant 1: the link is work-conserving under every policy.
    #[test]
    fn every_policy_conserves_link_work(fleet in fleet_strategy()) {
        let (cluster, jobs) = fleet;
        for policy in SharePolicy::ALL {
            let report = FleetScheduler::new(cluster.clone(), policy).simulate(&jobs);
            let tol = 1e-9 * report.total_wire_seconds.abs().max(1e-30);
            prop_assert!(
                (report.link_busy_seconds - report.total_wire_seconds).abs() <= tol,
                "{policy}: link busy {} != total wire demand {}",
                report.link_busy_seconds,
                report.total_wire_seconds
            );
        }
    }

    /// Invariant 2: fair share never starves a tenant — every job finishes
    /// within its local work plus `N ×` its wire work.
    #[test]
    fn fairshare_never_starves(fleet in fleet_strategy()) {
        let (cluster, jobs) = fleet;
        let report = FleetScheduler::new(cluster, SharePolicy::FairShare).simulate(&jobs);
        let n = jobs.len() as f64;
        for outcome in &report.jobs {
            let bound = outcome.local_seconds + n * outcome.wire_seconds;
            prop_assert!(
                outcome.makespan() <= bound * (1.0 + 1e-9),
                "{}: makespan {} exceeds the no-starvation bound {bound}",
                outcome.name,
                outcome.makespan()
            );
        }
    }

    /// Invariant 3: a fleet of one is charged bit-for-bit what the dedicated
    /// `best_schedule` path charges, under every policy.
    #[test]
    fn single_job_fleet_charges_bitwise_like_best_schedule(
        solo in (cluster_strategy(), job_strategy())
    ) {
        let (cluster, job) = solo;
        // Independent reconstruction of the dedicated charge, straight from
        // the single-job machinery (stages = 2, the SIDCo estimation
        // pipeline the fleet prices with).
        let bench = job.benchmark.spec();
        let layout = pack_layers(
            &bench.representative_layer_sizes(),
            bench.parameters.div_ceil(job.buckets),
        );
        let costs = modeled_bucket_costs(&cluster, job.compressor, job.delta, 2, &layout);
        let makespan = CollectiveScheduler::new(job.streams, job.policy)
            .best_schedule(&costs)
            .makespan();
        let compute = COMPUTE_COST_PER_EXAMPLE_ELEMENT
            * bench.per_worker_batch as f64
            * bench.parameters as f64;
        let dedicated = compute + makespan;

        for policy in SharePolicy::ALL {
            let report =
                FleetScheduler::new(cluster.clone(), policy).simulate(std::slice::from_ref(&job));
            let outcome = &report.jobs[0];
            prop_assert_eq!(outcome.charges.len(), job.iterations);
            for &charge in &outcome.charges {
                prop_assert!(
                    charge.to_bits() == dedicated.to_bits(),
                    "{policy}: solo charge {charge} must be bit-for-bit the dedicated {dedicated}"
                );
            }
            for &delta in &outcome.deltas {
                prop_assert_eq!(delta.to_bits(), job.delta.to_bits());
            }
        }
    }

    /// Invariant 4: fair-sharing the cluster never loses to serializing the
    /// jobs end-to-end on a dedicated cluster.
    #[test]
    fn fairshare_never_loses_to_serializing(fleet in fleet_strategy()) {
        let (cluster, jobs) = fleet;
        let scheduler = FleetScheduler::new(cluster, SharePolicy::FairShare);
        let report = scheduler.simulate(&jobs);
        let serialized = scheduler.serialized_end(&jobs);
        prop_assert!(
            report.fleet_end() <= serialized * (1.0 + 1e-9),
            "fleet end {} after serialized end {serialized}",
            report.fleet_end()
        );
    }

    /// Invariant 5: the per-simulate price memo leaves no state behind —
    /// repeated and cloned simulates charge bit-identically under every
    /// policy.
    #[test]
    fn memoised_fleet_pricing_is_bit_stable(fleet in fleet_strategy()) {
        let (cluster, mut jobs) = fleet;
        // A same-instant twin of the first job, so admission sees two
        // starters at once and their shared contention repeats price keys.
        let twin = jobs[0].clone().with_priority_class(jobs[0].priority_class + 1);
        jobs.push(JobSpec { name: format!("{}-twin", twin.name), ..twin });
        for policy in SharePolicy::ALL {
            let scheduler = FleetScheduler::new(cluster.clone(), policy);
            let first = report_bits(&scheduler.simulate(&jobs));
            let again = report_bits(&scheduler.simulate(&jobs));
            let cloned = report_bits(&scheduler.clone().simulate(&jobs));
            prop_assert!(
                first == again && first == cloned,
                "{policy}: repeated simulates disagree"
            );
        }
    }

    /// Invariant 6: a base job and one variant per shape field, plus a δ
    /// variant, arrive together; each is admitted at its own solo price.
    #[test]
    fn price_memo_key_covers_every_field_a_price_reads(
        solo in (cluster_strategy(), job_strategy())
    ) {
        let (cluster, base) = solo;
        let base = base.with_arrival(0.0);
        let other_benchmark = if base.benchmark == BENCHMARKS[0] {
            BENCHMARKS[1]
        } else {
            BENCHMARKS[0]
        };
        let jobs: Vec<JobSpec> = [
            base.clone(),
            JobSpec { benchmark: other_benchmark, ..base.clone() },
            base.clone().with_buckets(base.buckets + 1),
            base.clone().with_streams(base.streams % 3 + 1),
            JobSpec { compressor: CompressorKind::TopK, ..base.clone() },
            JobSpec { policy: PriorityPolicy::Fifo, ..base.clone() },
            JobSpec { delta: base.delta / 2.0, ..base.clone() },
        ]
        .into_iter()
        .enumerate()
        .map(|(i, job)| JobSpec { name: format!("{}-{i}", job.name), ..job })
        .collect();
        let solo_bits: Vec<u64> = jobs
            .iter()
            .map(|job| {
                FleetScheduler::new(cluster.clone(), SharePolicy::FairShare)
                    .simulate(std::slice::from_ref(job))
                    .jobs[0]
                    .dedicated_iteration
                    .to_bits()
            })
            .collect();
        for policy in SharePolicy::ALL {
            let report = FleetScheduler::new(cluster.clone(), policy).simulate(&jobs);
            for (outcome, &bits) in report.jobs.iter().zip(&solo_bits) {
                prop_assert!(
                    outcome.dedicated_iteration.to_bits() == bits,
                    "{policy}: {} admitted at {} but its solo fleet at {}",
                    outcome.name,
                    outcome.dedicated_iteration,
                    f64::from_bits(bits)
                );
            }
        }
    }
}
