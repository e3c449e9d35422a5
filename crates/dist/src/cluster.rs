//! Cluster topologies used by the simulator and the trainer.

use crate::device::{ComputeDevice, DeviceProfile};
use crate::network::{HierarchicalTopology, NetworkModel, NodeProfile};
use crate::trainer::COMPUTE_COST_PER_EXAMPLE_ELEMENT;
use sidco_core::compressor::CompressorKind;
use sidco_models::benchmarks::BenchmarkSpec;

/// A synchronous-SGD cluster: `workers` workers on the machines of one
/// [`HierarchicalTopology`].
///
/// The topology is the only description of the machines: every node carries
/// one [`NodeProfile`] — its NIC and rail count, the device it compresses on
/// and its compute-slowdown factor — and every per-node charge reads it. A
/// flat cluster (every worker one hop from every other) is
/// [`HierarchicalTopology::one_worker_per_node`], a two-tier cluster has
/// several workers per node. [`engine_workers`](Self::engine_workers) tells
/// the cost model how many compression-engine threads each worker runs, so
/// simulated compression latencies match a multi-threaded
/// [`CompressionEngine`](sidco_core::engine::CompressionEngine) deployment.
///
/// **Heterogeneity.** Real fleets are not uniform: nodes carry different NICs,
/// different compression devices and different effective compute speeds
/// ([`HierarchicalTopology::with_node_profiles`],
/// [`with_device`](Self::with_device),
/// [`with_straggler`](Self::with_straggler)). Synchronous SGD is gated by its
/// slowest participant, so every heterogeneous charge takes the slowest
/// node's time; uniform healthy profiles collapse bit-for-bit to the
/// homogeneous model. A Join repeats the last node's profile at full health
/// ([`HierarchicalTopology::with_joined_node`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of data-parallel workers (always the topology's worker count).
    pub workers: usize,
    /// The machines and their interconnect; its worker count must equal
    /// [`workers`](Self::workers).
    pub topology: HierarchicalTopology,
    /// Compression-engine worker threads per worker (≥ 1); scales the
    /// parallelisable part of the modelled compression time.
    pub engine_workers: usize,
}

impl ClusterConfig {
    /// A flat cluster of `workers` single-GPU machines on `nic`, compressing
    /// on the GPU.
    fn flat(workers: usize, nic: NetworkModel) -> Self {
        Self {
            workers,
            topology: HierarchicalTopology::one_worker_per_node(workers, nic),
            engine_workers: 1,
        }
    }

    /// Small 4-worker cluster for fast tests.
    // lint: test-only the trainer's unit tests and the facade suites (tests/distributed_training.rs)
    pub fn small_test() -> Self {
        Self::flat(4, NetworkModel::ethernet_25g())
    }

    /// The paper's main testbed: a dedicated 8-node GPU cluster on 25 Gbps
    /// Ethernet, compressing on the GPU.
    pub fn paper_dedicated() -> Self {
        Self::flat(8, NetworkModel::ethernet_25g())
    }

    /// The Figure 12 variant of the dedicated cluster: compression offloaded
    /// to the host CPU.
    pub fn paper_cpu_compression() -> Self {
        Self::paper_dedicated().with_device(ComputeDevice::Cpu)
    }

    /// The Figure 13 testbed: one shared node with 8 GPUs on a 100 Gbps
    /// InfiniBand-class interconnect.
    pub fn paper_shared_multi_gpu() -> Self {
        Self::flat(8, NetworkModel::infiniband_100g())
    }

    /// A two-tier variant of the dedicated testbed: 2 machines × 4 GPUs with
    /// a 100 Gbps intra-node fabric over the 25 Gbps datacentre network, so
    /// hierarchical collectives have both tiers to exploit.
    pub fn paper_two_tier() -> Self {
        Self::paper_dedicated().with_topology(HierarchicalTopology::new(
            2,
            4,
            NetworkModel::infiniband_100g(),
            NetworkModel::ethernet_25g(),
        ))
    }

    /// A rail-optimised variant of [`paper_two_tier`](Self::paper_two_tier):
    /// the same 2 machines × 4 GPUs, but each machine drives four 25 Gbps
    /// NIC rails, so the inter-node exchange charges every node's NIC
    /// complement in parallel instead of one bottleneck link — hierarchical
    /// all-gathers scale the way rail-optimised fabrics do.
    // lint: test-only a testbed of the pinned overlap goldens (tests/overlap_golden.rs)
    pub fn paper_rail_optimized() -> Self {
        let two_tier = Self::paper_two_tier();
        let railed = two_tier.topology.clone().with_nics_per_node(4);
        two_tier.with_topology(railed)
    }

    /// A mixed-fabric heterogeneous fleet over the Table-1 parts: 4 machines
    /// × 2 GPUs behind one 10 Gbps, two 25 Gbps and one 100 Gbps NIC — the
    /// mixed 10G/25G/100G cluster the ROADMAP's heterogeneity item calls for.
    /// The inter-node exchange gates on the 10G node's drain time.
    pub fn paper_mixed_fleet() -> Self {
        let topology = HierarchicalTopology::new(
            4,
            2,
            NetworkModel::infiniband_100g(),
            NetworkModel::ethernet_25g(),
        )
        .with_node_profiles(vec![
            NodeProfile::new(NetworkModel::ethernet_10g(), 1),
            NodeProfile::new(NetworkModel::ethernet_25g(), 1),
            NodeProfile::new(NetworkModel::infiniband_100g(), 1),
            NodeProfile::new(NetworkModel::ethernet_25g(), 1),
        ]);
        Self::paper_two_tier().with_topology(topology)
    }

    /// The two-tier testbed with one straggler machine at half speed (2×
    /// compute skew on node 1): compression and backward passes on that node
    /// take twice as long, and every synchronous phase gates on it.
    // lint: test-only a testbed of the pinned goldens (tests/scheduler_goldens.rs)
    pub fn paper_straggler() -> Self {
        Self::paper_two_tier().with_straggler(1, 2.0)
    }

    /// Sets the topology (its worker count becomes the cluster's, and its
    /// node profiles the cluster's machines).
    ///
    /// The topology's profiles replace every node's device and compute
    /// factor along with its NIC, so call [`with_device`](Self::with_device)
    /// and [`with_straggler`](Self::with_straggler) after this, not before:
    /// `paper_cpu_compression().with_topology(..)` compresses on the new
    /// profiles' devices (GPU by default), and `paper_straggler()
    /// .with_topology(..)` loses its straggler.
    #[must_use]
    pub fn with_topology(mut self, topology: HierarchicalTopology) -> Self {
        self.workers = topology.workers();
        self.topology = topology;
        self
    }

    /// Every node compresses on `device` (the Figure 12 CPU-offload variant
    /// is the dedicated testbed on [`ComputeDevice::Cpu`]).
    #[must_use]
    pub fn with_device(self, device: ComputeDevice) -> Self {
        let profiles = self
            .topology
            .node_profiles()
            .iter()
            .map(|profile| profile.with_device(device))
            .collect();
        let topology = self.topology.clone().with_node_profiles(profiles);
        self.with_topology(topology)
    }

    /// Node `node` computes `factor` times slower than a healthy node (its
    /// backward pass and compression stretch; its NIC is untouched).
    ///
    /// # Panics
    ///
    /// Panics if `node >= nodes` or `factor` is rejected by
    /// [`NodeProfile::with_compute_factor`].
    #[must_use]
    pub fn with_straggler(self, node: usize, factor: f64) -> Self {
        assert!(
            node < self.nodes(),
            "straggler node {node} outside 0..{}",
            self.nodes()
        );
        let mut profiles = self.topology.node_profiles().to_vec();
        profiles[node] = profiles[node].with_compute_factor(factor);
        let topology = self.topology.clone().with_node_profiles(profiles);
        self.with_topology(topology)
    }

    /// The cluster after one machine joined: the topology gains a healthy
    /// node cabled and equipped like the last one
    /// ([`HierarchicalTopology::with_joined_node`]). This is how the trainer
    /// rescales on a [`ClusterEvent::Join`](crate::trainer::ClusterEvent).
    #[must_use]
    pub fn after_join(&self) -> Self {
        self.clone().with_topology(self.topology.with_joined_node())
    }

    /// The cluster after the last machine left. `None` once a single machine
    /// remains — a fleet cannot shrink to nothing.
    #[must_use]
    pub fn after_leave(&self) -> Option<Self> {
        let topology = self.topology.without_last_node()?;
        Some(self.clone().with_topology(topology))
    }

    /// Sets the modelled compression-engine worker count.
    ///
    /// # Panics
    ///
    /// Panics if `engine_workers` is zero.
    #[must_use]
    pub fn with_engine_workers(mut self, engine_workers: usize) -> Self {
        assert!(engine_workers >= 1, "the engine needs at least one worker");
        self.engine_workers = engine_workers;
        self
    }

    /// Number of machines (a flat cluster has one per worker), each described
    /// by one [`NodeProfile`].
    pub fn nodes(&self) -> usize {
        self.topology.nodes()
    }

    /// Workers hosted on one machine (1 on a flat cluster).
    pub fn workers_per_node(&self) -> usize {
        self.topology.workers_per_node
    }

    /// The machine hosting worker `worker` (workers are laid out node-major:
    /// node 0 hosts workers `0..workers_per_node`, and so on).
    ///
    /// # Panics
    ///
    /// Panics if `worker >= workers`.
    pub fn node_of_worker(&self, worker: usize) -> usize {
        assert!(
            worker < self.workers,
            "worker {worker} outside 0..{}",
            self.workers
        );
        worker / self.workers_per_node()
    }

    /// The slowest node's compute-slowdown factor — what every synchronous
    /// compute phase (forward/backward pass) is gated by. Exactly `1.0` on a
    /// healthy cluster, so multiplying a charge by it is bit-for-bit the
    /// homogeneous charge.
    pub fn slowest_compute_factor(&self) -> f64 {
        self.topology
            .node_profiles()
            .iter()
            .map(NodeProfile::compute_factor)
            .fold(1.0, f64::max)
    }

    /// Modelled forward + backward compute seconds of one synchronous
    /// iteration over a `parameters`-element model at `batch_per_worker`
    /// examples per worker, gated by the slowest node's
    /// [`slowest_compute_factor`](Self::slowest_compute_factor). The single
    /// owner of this expression: the trainer's clock and the fleet simulator
    /// both price compute here, so a single-job fleet collapses bit-for-bit
    /// onto the trainer.
    pub fn iteration_compute_time(&self, batch_per_worker: usize, parameters: usize) -> f64 {
        COMPUTE_COST_PER_EXAMPLE_ELEMENT
            * batch_per_worker as f64
            * parameters as f64
            * self.slowest_compute_factor()
    }

    /// Modelled compute seconds of one synchronous Table-1 iteration of
    /// `spec`, calibrated so the dense baseline reproduces Table 1's
    /// communication-overhead column `o` on this cluster's interconnect:
    /// `dense_comm · (1 − o)/o`, gated by the slowest node's
    /// [`slowest_compute_factor`](Self::slowest_compute_factor). A single
    /// worker never communicates, so it gets a nominal 1 ms. The Table-1
    /// simulator prices compute here; the trainer and the fleet price real
    /// models with [`iteration_compute_time`](Self::iteration_compute_time).
    pub fn table1_compute_time(&self, spec: &BenchmarkSpec) -> f64 {
        if self.workers > 1 {
            let dense_comm = self.allreduce_dense(spec.gradient_bytes());
            let overhead = spec.communication_overhead.clamp(0.01, 0.99);
            dense_comm * (1.0 - overhead) / overhead * self.slowest_compute_factor()
        } else {
            1e-3 * self.slowest_compute_factor()
        }
    }

    /// Modelled compression latency of worker `worker` for a `dim`-element
    /// gradient: its node's device at this cluster's engine width, stretched
    /// by its node's compute-slowdown factor. On a homogeneous cluster this
    /// is bit-for-bit the shared [`DeviceProfile::compression_time_with_workers`]
    /// charge (the factor is exactly `1.0`).
    pub fn worker_compression_time(
        &self,
        worker: usize,
        kind: CompressorKind,
        dim: usize,
        delta: f64,
        stages: usize,
    ) -> f64 {
        let profile = &self.topology.node_profiles()[self.node_of_worker(worker)];
        self.device_compression_time(profile.device(), kind, dim, delta, stages)
            * profile.compute_factor()
    }

    /// Modelled cluster-wide compression latency of a `dim`-element gradient:
    /// synchronous SGD waits for every worker's compressed payload, so the
    /// charge is the **slowest node's** skewed compression time. Collapses
    /// bit-for-bit to the homogeneous charge when every node shares one
    /// device at factor `1.0`.
    pub fn modeled_compression_time(
        &self,
        kind: CompressorKind,
        dim: usize,
        delta: f64,
        stages: usize,
    ) -> f64 {
        self.topology
            .node_profiles()
            .iter()
            .map(|profile| {
                self.device_compression_time(profile.device(), kind, dim, delta, stages)
                    * profile.compute_factor()
            })
            .fold(0.0, f64::max)
    }

    /// Compression latency on `device` at this cluster's engine width.
    fn device_compression_time(
        &self,
        device: ComputeDevice,
        kind: CompressorKind,
        dim: usize,
        delta: f64,
        stages: usize,
    ) -> f64 {
        DeviceProfile::for_device(device).compression_time_with_workers(
            kind,
            dim,
            delta,
            stages,
            self.engine_workers,
        )
    }

    /// The topology, checked for consistency with the declared worker count
    /// (the fields are public, so a hand-built config can disagree — the
    /// trainer and fleet constructors and every collective dispatch funnel
    /// through this so the mismatch is loud rather than a silently wrong
    /// simulation).
    ///
    /// # Panics
    ///
    /// Panics if the topology's worker count differs from
    /// [`workers`](Self::workers).
    pub(crate) fn topology_checked(&self) -> &HierarchicalTopology {
        assert_eq!(
            self.topology.workers(),
            self.workers,
            "topology spans {} workers but the cluster declares {}",
            self.topology.workers(),
            self.workers
        );
        &self.topology
    }

    /// Sparse all-gather cost of a `bytes`-byte per-worker payload on this
    /// cluster's interconnect.
    pub fn allgather_sparse(&self, bytes: usize) -> f64 {
        self.topology_checked().allgather_sparse(bytes)
    }

    /// The sparse all-gather cost split into `(overlappable, link-serialised)`
    /// parts for the collective scheduler. Sums to
    /// [`allgather_sparse`](Self::allgather_sparse).
    pub fn allgather_sparse_parts(&self, bytes: usize) -> (f64, f64) {
        self.topology_checked().allgather_sparse_parts(bytes)
    }

    /// Dense all-reduce cost of a `bytes`-byte buffer on this cluster's
    /// interconnect.
    pub fn allreduce_dense(&self, bytes: usize) -> f64 {
        self.topology_checked().allreduce_dense(bytes)
    }

    /// Largest per-worker sparse payload (bytes) whose all-gather on this
    /// cluster's interconnect finishes within `budget` seconds — the inverse
    /// of [`allgather_sparse`](Self::allgather_sparse).
    pub fn allgather_budget_bytes(&self, budget: f64) -> f64 {
        self.topology_checked().allgather_budget_bytes(budget)
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self::paper_dedicated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_testbeds() {
        let devices = |c: &ClusterConfig| -> Vec<ComputeDevice> {
            c.topology
                .node_profiles()
                .iter()
                .map(NodeProfile::device)
                .collect()
        };
        let dedicated = ClusterConfig::paper_dedicated();
        assert_eq!(dedicated.workers, 8);
        assert_eq!(devices(&dedicated), vec![ComputeDevice::Gpu; 8]);
        assert_eq!(
            dedicated.topology,
            HierarchicalTopology::one_worker_per_node(8, NetworkModel::ethernet_25g())
        );
        assert_eq!(dedicated.engine_workers, 1);

        let cpu = ClusterConfig::paper_cpu_compression();
        assert_eq!(devices(&cpu), vec![ComputeDevice::Cpu; 8]);
        assert_eq!(cpu.workers, dedicated.workers);

        let shared = ClusterConfig::paper_shared_multi_gpu();
        assert_eq!(
            shared.topology,
            HierarchicalTopology::one_worker_per_node(8, NetworkModel::infiniband_100g())
        );

        assert!(ClusterConfig::small_test().workers < dedicated.workers);
        assert_eq!(ClusterConfig::default(), dedicated);
    }

    #[test]
    fn two_tier_preset_is_hierarchical_and_cheaper() {
        let flat = ClusterConfig::paper_dedicated();
        let two_tier = ClusterConfig::paper_two_tier();
        assert_eq!(two_tier.workers, flat.workers);
        assert_eq!(two_tier.topology.workers(), two_tier.workers);
        let bytes = 1 << 22;
        assert!(two_tier.allgather_sparse(bytes) < flat.allgather_sparse(bytes));
        assert!(two_tier.allreduce_dense(bytes) < flat.allreduce_dense(bytes));
        let (latency, transfer) = two_tier.allgather_sparse_parts(bytes);
        assert!((latency + transfer - two_tier.allgather_sparse(bytes)).abs() < 1e-12);
    }

    #[test]
    fn rail_optimized_preset_beats_the_single_bottleneck_two_tier() {
        let two_tier = ClusterConfig::paper_two_tier();
        let railed = ClusterConfig::paper_rail_optimized();
        assert_eq!(railed.workers, two_tier.workers);
        assert!(railed.topology.node_profiles().iter().all(|p| p.nics == 4));
        let bytes = 1 << 22;
        assert!(
            railed.allgather_sparse(bytes) < two_tier.allgather_sparse(bytes),
            "4 NIC rails should strictly beat the single bottleneck"
        );
        assert!(railed.allreduce_dense(bytes) < two_tier.allreduce_dense(bytes));
    }

    #[test]
    fn builders_update_topology_and_engine_workers() {
        let cluster = ClusterConfig::small_test()
            .with_topology(HierarchicalTopology::new(
                3,
                2,
                NetworkModel::infiniband_100g(),
                NetworkModel::ethernet_10g(),
            ))
            .with_engine_workers(4);
        assert_eq!(cluster.workers, 6);
        assert_eq!(cluster.engine_workers, 4);
        // A flat cluster charges the flat collectives exactly.
        let flat = ClusterConfig::small_test();
        let nic = NetworkModel::ethernet_25g();
        assert_eq!(
            flat.allgather_sparse(1 << 20),
            nic.allgather_sparse(1 << 20, flat.workers)
        );
        assert_eq!(
            flat.allreduce_dense(1 << 20),
            nic.allreduce_dense(1 << 20, flat.workers)
        );
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn rejects_zero_engine_workers() {
        let _ = ClusterConfig::small_test().with_engine_workers(0);
    }

    #[test]
    fn node_indexing_is_node_major() {
        let flat = ClusterConfig::paper_dedicated();
        assert_eq!(flat.nodes(), 8);
        assert_eq!(flat.workers_per_node(), 1);
        assert_eq!(flat.node_of_worker(5), 5);

        let two_tier = ClusterConfig::paper_two_tier();
        assert_eq!(two_tier.nodes(), 2);
        assert_eq!(two_tier.workers_per_node(), 4);
        assert_eq!(two_tier.node_of_worker(0), 0);
        assert_eq!(two_tier.node_of_worker(3), 0);
        assert_eq!(two_tier.node_of_worker(4), 1);
        assert_eq!(two_tier.node_of_worker(7), 1);
    }

    #[test]
    fn homogeneous_heterogeneity_knobs_collapse_bit_for_bit() {
        use sidco_core::compressor::CompressorKind;
        // Every node explicitly on the GPU at factor 1.0 charges exactly the
        // shared device profile.
        let base = ClusterConfig::paper_two_tier().with_engine_workers(2);
        let healthy = NodeProfile::new(NetworkModel::ethernet_25g(), 1)
            .with_device(ComputeDevice::Gpu)
            .with_compute_factor(1.0);
        let knobbed = base
            .clone()
            .with_topology(base.topology.clone().with_node_profiles(vec![healthy; 2]));
        assert_eq!(knobbed, base);
        let kind = CompressorKind::TopK;
        let shared = DeviceProfile::gpu().compression_time_with_workers(kind, 1 << 20, 0.01, 1, 2);
        assert_eq!(
            knobbed.modeled_compression_time(kind, 1 << 20, 0.01, 1),
            shared
        );
        for worker in 0..8 {
            assert_eq!(
                knobbed.worker_compression_time(worker, kind, 1 << 20, 0.01, 1),
                shared
            );
        }
        assert_eq!(knobbed.slowest_compute_factor(), 1.0);
    }

    #[test]
    fn straggler_preset_gates_compression_on_the_slow_node() {
        use sidco_core::compressor::CompressorKind;
        let base = ClusterConfig::paper_two_tier();
        let straggler = ClusterConfig::paper_straggler();
        let kind = CompressorKind::TopK;
        let healthy = base.modeled_compression_time(kind, 1 << 20, 0.01, 1);
        let skewed = straggler.modeled_compression_time(kind, 1 << 20, 0.01, 1);
        assert_eq!(skewed, 2.0 * healthy, "the 2× straggler gates the fleet");
        assert_eq!(straggler.slowest_compute_factor(), 2.0);
        // Workers on the healthy node still compress at full speed.
        assert_eq!(
            straggler.worker_compression_time(0, kind, 1 << 20, 0.01, 1),
            healthy
        );
        assert_eq!(
            straggler.worker_compression_time(4, kind, 1 << 20, 0.01, 1),
            2.0 * healthy
        );
    }

    #[test]
    fn mixed_device_fleet_charges_the_slowest_device() {
        use sidco_core::compressor::CompressorKind;
        // Node 1 compresses on the CPU: cluster-wide latency gates on
        // whichever device is slower for the given compressor.
        let two_tier = ClusterConfig::paper_two_tier();
        let nic = NodeProfile::new(NetworkModel::ethernet_25g(), 1);
        let mixed = two_tier.clone().with_topology(
            two_tier
                .topology
                .clone()
                .with_node_profiles(vec![nic, nic.with_device(ComputeDevice::Cpu)]),
        );
        let kind = CompressorKind::TopK;
        let gpu = DeviceProfile::gpu().compression_time(kind, 1 << 20, 0.01, 1);
        let cpu = DeviceProfile::cpu().compression_time(kind, 1 << 20, 0.01, 1);
        assert_eq!(
            mixed.modeled_compression_time(kind, 1 << 20, 0.01, 1),
            gpu.max(cpu)
        );
        assert_eq!(
            mixed.worker_compression_time(0, kind, 1 << 20, 0.01, 1),
            gpu
        );
        assert_eq!(
            mixed.worker_compression_time(4, kind, 1 << 20, 0.01, 1),
            cpu
        );
    }

    #[test]
    fn mixed_fleet_preset_drains_slowest_at_the_10g_node() {
        let mixed = ClusterConfig::paper_mixed_fleet();
        assert_eq!(mixed.workers, 8);
        assert_eq!(mixed.nodes(), 4);
        let drains = mixed.topology.node_drain_times(1 << 20);
        let slowest = drains.iter().copied().fold(0.0, f64::max);
        assert_eq!(drains[0], slowest, "the 10G node gates the exchange");
        // And it charges strictly more than the uniform 25G two-tier fleet.
        assert!(
            mixed.allgather_sparse(1 << 22)
                > ClusterConfig::paper_two_tier().allgather_sparse(1 << 22)
        );
    }

    #[test]
    fn join_and_leave_rescale_topology_and_node_profiles() {
        // Flat cluster: one machine is one worker.
        let flat = ClusterConfig::small_test();
        let grown = flat.after_join();
        assert_eq!(grown.workers, 5);
        assert_eq!(grown.after_leave().expect("can shrink back"), flat);

        // Mixed NICs, a CPU node and a straggler: every per-node property
        // lives in one profile, so the join appends exactly one.
        let mixed = ClusterConfig::paper_mixed_fleet();
        let mut profiles = mixed.topology.node_profiles().to_vec();
        profiles[1] = profiles[1].with_device(ComputeDevice::Cpu);
        let het = mixed
            .clone()
            .with_topology(mixed.topology.clone().with_node_profiles(profiles))
            .with_straggler(3, 1.5);
        let grown = het.after_join();
        assert_eq!(grown.nodes(), 5);
        assert_eq!(grown.workers, 10);
        let profiles = grown.topology.node_profiles();
        assert_eq!(profiles.len(), 5);
        // The new node is cabled and equipped like the last one (a 25G NIC
        // on the GPU) but healthy.
        assert_eq!(profiles[4], profiles[3].with_compute_factor(1.0));
        assert_eq!(profiles[4].nic, NetworkModel::ethernet_25g());
        assert_eq!(profiles[4].device(), ComputeDevice::Gpu);
        assert_eq!(profiles[4].compute_factor(), 1.0);
        assert_eq!(grown.slowest_compute_factor(), 1.5);
        let shrunk = grown.after_leave().expect("five nodes can lose one");
        assert_eq!(shrunk, het, "join immediately undone by leave is a no-op");

        // A fleet cannot shrink below one machine.
        let lone = ClusterConfig::small_test().with_topology(
            HierarchicalTopology::one_worker_per_node(1, NetworkModel::ethernet_25g()),
        );
        assert_eq!(lone.after_leave(), None);
    }

    #[test]
    fn flat_and_railed_joins_repeat_the_last_node() {
        // A flat join is one more single-worker node on the same NIC.
        let grown = ClusterConfig::small_test().after_join();
        let five = HierarchicalTopology::one_worker_per_node(5, NetworkModel::ethernet_25g());
        assert_eq!(grown.topology, five);
        for bytes in [1usize, 1 << 10, 1 << 22] {
            assert_eq!(grown.allgather_sparse(bytes), five.allgather_sparse(bytes));
            assert_eq!(
                grown.allgather_sparse_parts(bytes),
                five.allgather_sparse_parts(bytes)
            );
            assert_eq!(grown.allreduce_dense(bytes), five.allreduce_dense(bytes));
        }
        assert_eq!(
            grown.allgather_budget_bytes(0.002),
            five.allgather_budget_bytes(0.002)
        );

        // A rail-optimised join brings the last node's four rails along.
        let railed = ClusterConfig::paper_rail_optimized();
        let grown_railed = railed.after_join();
        assert_eq!(grown_railed.workers, 12);
        assert_eq!(grown_railed.topology.node_profiles()[2].nics, 4);

        // Join then Leave is the original cluster.
        for cluster in [ClusterConfig::small_test(), railed] {
            let round_trip = cluster.after_join().after_leave();
            assert_eq!(round_trip, Some(cluster));
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn rejects_out_of_range_straggler() {
        let _ = ClusterConfig::paper_two_tier().with_straggler(2, 2.0);
    }

    #[test]
    #[should_panic(expected = "topology spans")]
    fn mismatched_topology_panics_on_dispatch() {
        let inconsistent = ClusterConfig {
            workers: 8,
            topology: HierarchicalTopology::new(
                2,
                2,
                NetworkModel::infiniband_100g(),
                NetworkModel::ethernet_25g(),
            ),
            ..ClusterConfig::paper_dedicated()
        };
        inconsistent.allgather_sparse(1 << 20);
    }
}
