//! Cluster topologies used by the simulator and the trainer.

use crate::device::{ComputeDevice, ComputeSkew, DeviceProfile};
use crate::network::{HierarchicalTopology, NetworkModel, NodeProfile};
use crate::trainer::COMPUTE_COST_PER_EXAMPLE_ELEMENT;
use sidco_core::compressor::CompressorKind;

/// A synchronous-SGD cluster: `workers` workers joined by one
/// [`HierarchicalTopology`], compressing on one kind of device — homogeneous
/// by default, with optional per-node heterogeneity.
///
/// The topology is the only interconnect description: a flat cluster (every
/// worker one hop from every other) is
/// [`HierarchicalTopology::one_worker_per_node`], a two-tier cluster has
/// several workers per node, and every node carries its own NIC
/// [`NodeProfile`]. [`engine_workers`](Self::engine_workers) tells the cost
/// model how many compression-engine threads each worker runs, so simulated
/// compression latencies match a multi-threaded
/// [`CompressionEngine`](sidco_core::engine::CompressionEngine) deployment.
///
/// **Heterogeneity.** Real fleets are not uniform: nodes carry different NICs
/// ([`HierarchicalTopology::with_node_profiles`]), different compression
/// devices ([`node_devices`](Self::node_devices)) and different effective
/// compute speeds ([`compute_skew`](Self::compute_skew)). Synchronous SGD is
/// gated by its slowest participant, so every heterogeneous charge takes the
/// slowest node's time; leaving all three knobs at their defaults collapses
/// bit-for-bit to the homogeneous model. A Join repeats the last node's NIC
/// profile and adds a default device and skew entry.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of data-parallel workers (always the topology's worker count).
    pub workers: usize,
    /// Device on which gradient compression runs.
    pub compression_device: ComputeDevice,
    /// The interconnect; its worker count must equal
    /// [`workers`](Self::workers).
    pub topology: HierarchicalTopology,
    /// Compression-engine worker threads per worker (≥ 1); scales the
    /// parallelisable part of the modelled compression time.
    pub engine_workers: usize,
    /// Optional per-node compression devices (one entry per node, see
    /// [`nodes`](Self::nodes)); `None` means every node compresses on
    /// [`compression_device`](Self::compression_device).
    pub node_devices: Option<Vec<ComputeDevice>>,
    /// Optional per-node compute-slowdown factors (straggler injection, one
    /// entry per node); `None` means every node is healthy (factor `1.0`).
    pub compute_skew: Option<ComputeSkew>,
}

impl ClusterConfig {
    /// A flat cluster of `workers` single-GPU machines on `nic`, compressing
    /// on the GPU.
    fn flat(workers: usize, nic: NetworkModel) -> Self {
        Self {
            workers,
            compression_device: ComputeDevice::Gpu,
            topology: HierarchicalTopology::one_worker_per_node(workers, nic),
            engine_workers: 1,
            node_devices: None,
            compute_skew: None,
        }
    }

    /// Small 4-worker cluster for fast tests.
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
        Self {
            compression_device: ComputeDevice::Cpu,
            ..Self::paper_dedicated()
        }
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
    pub fn paper_straggler() -> Self {
        let base = Self::paper_two_tier();
        let nodes = base.nodes();
        base.with_compute_skew(ComputeSkew::straggler(nodes, 1, 2.0))
    }

    /// Sets the topology (its worker count becomes the cluster's).
    ///
    /// # Panics
    ///
    /// Panics if a per-node device or skew vector is set whose length
    /// disagrees with the new topology's node count (rebuild those vectors
    /// for the new fleet first).
    #[must_use]
    pub fn with_topology(mut self, topology: HierarchicalTopology) -> Self {
        if let Some(devices) = &self.node_devices {
            assert_eq!(
                devices.len(),
                topology.nodes(),
                "per-node device vector spans {} nodes but the new topology has {}",
                devices.len(),
                topology.nodes()
            );
        }
        if let Some(skew) = &self.compute_skew {
            assert_eq!(
                skew.nodes(),
                topology.nodes(),
                "skew describes {} nodes but the new topology has {}",
                skew.nodes(),
                topology.nodes()
            );
        }
        self.workers = topology.workers();
        self.topology = topology;
        self
    }

    /// The cluster after one machine joined with default (healthy,
    /// cluster-device) characteristics: the topology gains a node cabled like
    /// the last one and every per-node vector gains a default entry. This is
    /// how the trainer rescales on a
    /// [`ClusterEvent::Join`](crate::trainer::ClusterEvent).
    #[must_use]
    pub fn after_join(&self) -> Self {
        let mut grown = self.clone();
        grown.topology = self.topology.with_joined_node();
        grown.workers = grown.topology.workers();
        if let Some(devices) = &mut grown.node_devices {
            devices.push(self.compression_device);
        }
        if let Some(skew) = &grown.compute_skew {
            grown.compute_skew = Some(skew.with_joined());
        }
        grown
    }

    /// The cluster after the last machine left: the topology is re-derived
    /// with one fewer node and every per-node vector drops its last entry.
    /// `None` once a single machine remains — a fleet cannot shrink to
    /// nothing.
    #[must_use]
    pub fn after_leave(&self) -> Option<Self> {
        let mut shrunk = self.clone();
        shrunk.topology = self.topology.without_last_node()?;
        shrunk.workers = shrunk.topology.workers();
        if let Some(devices) = &mut shrunk.node_devices {
            devices.pop();
        }
        if let Some(skew) = &shrunk.compute_skew {
            shrunk.compute_skew = skew.without_last();
            // INVARIANT: the skew tracks the node count (builders assert it),
            // and we only get here with ≥ 2 nodes, so without_last succeeds.
            assert!(
                shrunk.compute_skew.is_some(),
                "skew/node-count invariant violated on leave"
            );
        }
        Some(shrunk)
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

    /// A clone of this cluster whose compression engine is throttled to
    /// `granted` workers — the view one tenant gets of a shared engine pool
    /// after admission control (see [`crate::tenancy`]). Granting the full
    /// [`engine_workers`](Self::engine_workers) count yields a field-for-field
    /// identical cluster, so an uncontended tenant prices exactly like a
    /// dedicated one.
    ///
    /// # Panics
    ///
    /// Panics if `granted` is zero.
    #[must_use]
    pub fn engine_share(&self, granted: usize) -> Self {
        self.clone().with_engine_workers(granted)
    }

    /// Sets per-node compression devices (one entry per [`node`](Self::nodes)).
    ///
    /// # Panics
    ///
    /// Panics if the vector length differs from [`nodes`](Self::nodes).
    #[must_use]
    pub fn with_node_devices(mut self, node_devices: Vec<ComputeDevice>) -> Self {
        assert_eq!(
            node_devices.len(),
            self.nodes(),
            "need one compression device per node ({} nodes, got {})",
            self.nodes(),
            node_devices.len()
        );
        self.node_devices = Some(node_devices);
        self
    }

    /// Sets the per-node compute-slowdown factors (straggler injection).
    ///
    /// # Panics
    ///
    /// Panics if the skew's node count differs from [`nodes`](Self::nodes).
    #[must_use]
    pub fn with_compute_skew(mut self, skew: ComputeSkew) -> Self {
        assert_eq!(
            skew.nodes(),
            self.nodes(),
            "skew describes {} nodes but the cluster has {}",
            skew.nodes(),
            self.nodes()
        );
        self.compute_skew = Some(skew);
        self
    }

    /// Number of machines (a flat cluster has one per worker). The unit all
    /// per-node heterogeneity vectors are indexed by.
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

    /// The device profile compression runs on.
    pub fn device_profile(&self) -> DeviceProfile {
        DeviceProfile::for_device(self.compression_device)
    }

    /// The device profile node `node` compresses on: its
    /// [`node_devices`](Self::node_devices) entry when per-node devices are
    /// set, the cluster-wide device otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or a per-node device vector of the
    /// wrong length was hand-built (the builders reject both).
    pub fn node_device_profile(&self, node: usize) -> DeviceProfile {
        assert!(
            node < self.nodes(),
            "node {node} outside 0..{}",
            self.nodes()
        );
        match &self.node_devices {
            Some(devices) => {
                assert_eq!(
                    devices.len(),
                    self.nodes(),
                    "per-node device vector spans {} nodes but the cluster has {}",
                    devices.len(),
                    self.nodes()
                );
                DeviceProfile::for_device(devices[node])
            }
            None => self.device_profile(),
        }
    }

    /// Node `node`'s compute-slowdown factor (`1.0` when no skew is set).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or a hand-built skew disagrees with
    /// the node count.
    pub fn node_compute_factor(&self, node: usize) -> f64 {
        assert!(
            node < self.nodes(),
            "node {node} outside 0..{}",
            self.nodes()
        );
        match &self.compute_skew {
            Some(skew) => {
                assert_eq!(
                    skew.nodes(),
                    self.nodes(),
                    "skew describes {} nodes but the cluster has {}",
                    skew.nodes(),
                    self.nodes()
                );
                skew.factor(node)
            }
            None => 1.0,
        }
    }

    /// The slowest node's compute-slowdown factor — what every synchronous
    /// compute phase (forward/backward pass) is gated by. Exactly `1.0` on an
    /// unskewed cluster, so multiplying a charge by it is bit-for-bit the
    /// homogeneous charge.
    pub fn slowest_compute_factor(&self) -> f64 {
        match &self.compute_skew {
            Some(skew) => {
                assert_eq!(
                    skew.nodes(),
                    self.nodes(),
                    "skew describes {} nodes but the cluster has {}",
                    skew.nodes(),
                    self.nodes()
                );
                skew.max_factor()
            }
            None => 1.0,
        }
    }

    /// Modelled forward + backward compute seconds of one synchronous
    /// iteration over a `parameters`-element model at `batch_per_worker`
    /// examples per worker, gated by the slowest node's
    /// [`slowest_compute_factor`](Self::slowest_compute_factor). The single
    /// owner of this expression: the trainer's clock, its arrival-aware
    /// bucket auto-tuner and the fleet simulator all price compute here, so a
    /// single-job fleet collapses bit-for-bit onto the trainer.
    pub fn iteration_compute_time(&self, batch_per_worker: usize, parameters: usize) -> f64 {
        COMPUTE_COST_PER_EXAMPLE_ELEMENT
            * batch_per_worker as f64
            * parameters as f64
            * self.slowest_compute_factor()
    }

    /// Modelled compression latency of worker `worker` for a `dim`-element
    /// gradient: its node's device profile at this cluster's engine width,
    /// stretched by its node's compute-slowdown factor. On a homogeneous
    /// cluster this is bit-for-bit the cluster-wide
    /// [`DeviceProfile::compression_time_with_workers`] charge (the factor is
    /// exactly `1.0` and the profile the shared one).
    pub fn worker_compression_time(
        &self,
        worker: usize,
        kind: CompressorKind,
        dim: usize,
        delta: f64,
        stages: usize,
    ) -> f64 {
        let node = self.node_of_worker(worker);
        self.node_device_profile(node)
            .compression_time_with_workers(kind, dim, delta, stages, self.engine_workers)
            * self.node_compute_factor(node)
    }

    /// Modelled cluster-wide compression latency of a `dim`-element gradient:
    /// synchronous SGD waits for every worker's compressed payload, so the
    /// charge is the **slowest node's** skewed compression time. Collapses
    /// bit-for-bit to the homogeneous charge when no per-node device or skew
    /// is set (every node computes the identical time × `1.0`).
    pub fn modeled_compression_time(
        &self,
        kind: CompressorKind,
        dim: usize,
        delta: f64,
        stages: usize,
    ) -> f64 {
        (0..self.nodes())
            .map(|node| {
                self.node_device_profile(node)
                    .compression_time_with_workers(kind, dim, delta, stages, self.engine_workers)
                    * self.node_compute_factor(node)
            })
            .fold(0.0, f64::max)
    }

    /// The topology, checked for consistency with the declared worker count
    /// (the fields are public, so a hand-built config can disagree — every
    /// collective dispatch funnels through this so the mismatch is loud
    /// rather than a silently wrong simulation).
    ///
    /// # Panics
    ///
    /// Panics if the topology's worker count differs from
    /// [`workers`](Self::workers).
    fn topology_checked(&self) -> &HierarchicalTopology {
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
        let dedicated = ClusterConfig::paper_dedicated();
        assert_eq!(dedicated.workers, 8);
        assert_eq!(dedicated.compression_device, ComputeDevice::Gpu);
        assert_eq!(
            dedicated.topology,
            HierarchicalTopology::one_worker_per_node(8, NetworkModel::ethernet_25g())
        );
        assert_eq!(dedicated.engine_workers, 1);

        let cpu = ClusterConfig::paper_cpu_compression();
        assert_eq!(cpu.compression_device, ComputeDevice::Cpu);
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
    fn device_profile_follows_compression_device() {
        assert_eq!(
            ClusterConfig::paper_cpu_compression()
                .device_profile()
                .device,
            ComputeDevice::Cpu
        );
        assert_eq!(
            ClusterConfig::paper_dedicated().device_profile().device,
            ComputeDevice::Gpu
        );
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
        let base = ClusterConfig::paper_two_tier().with_engine_workers(2);
        let knobbed = base
            .clone()
            .with_node_devices(vec![ComputeDevice::Gpu; 2])
            .with_compute_skew(ComputeSkew::uniform(2));
        let kind = CompressorKind::TopK;
        assert_eq!(
            knobbed.modeled_compression_time(kind, 1 << 20, 0.01, 1),
            base.device_profile()
                .compression_time_with_workers(kind, 1 << 20, 0.01, 1, 2)
        );
        for worker in 0..8 {
            assert_eq!(
                knobbed.worker_compression_time(worker, kind, 1 << 20, 0.01, 1),
                base.device_profile()
                    .compression_time_with_workers(kind, 1 << 20, 0.01, 1, 2)
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
        let mixed = ClusterConfig::paper_two_tier()
            .with_node_devices(vec![ComputeDevice::Gpu, ComputeDevice::Cpu]);
        let kind = CompressorKind::TopK;
        let gpu = DeviceProfile::gpu().compression_time(kind, 1 << 20, 0.01, 1);
        let cpu = DeviceProfile::cpu().compression_time(kind, 1 << 20, 0.01, 1);
        assert_eq!(
            mixed.modeled_compression_time(kind, 1 << 20, 0.01, 1),
            gpu.max(cpu)
        );
        assert_eq!(mixed.node_device_profile(0).device, ComputeDevice::Gpu);
        assert_eq!(mixed.node_device_profile(1).device, ComputeDevice::Cpu);
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
    fn join_and_leave_rescale_topology_and_per_node_vectors() {
        // Flat cluster: one machine is one worker.
        let flat = ClusterConfig::small_test();
        let grown = flat.after_join();
        assert_eq!(grown.workers, 5);
        assert_eq!(grown.after_leave().expect("can shrink back"), flat);

        // Two-tier with every per-node knob set: all vectors stay aligned.
        let het = ClusterConfig::paper_mixed_fleet()
            .with_node_devices(vec![
                ComputeDevice::Gpu,
                ComputeDevice::Cpu,
                ComputeDevice::Gpu,
                ComputeDevice::Gpu,
            ])
            .with_compute_skew(ComputeSkew::straggler(4, 1, 1.5));
        let grown = het.after_join();
        assert_eq!(grown.nodes(), 5);
        assert_eq!(grown.workers, 10);
        assert_eq!(grown.node_devices.as_ref().unwrap().len(), 5);
        assert_eq!(grown.compute_skew.as_ref().unwrap().nodes(), 5);
        assert_eq!(grown.node_compute_factor(4), 1.0);
        let profiles = grown.topology.node_profiles();
        assert_eq!(profiles.len(), 5);
        // The new node is cabled like the last one (a 25G NIC).
        assert_eq!(profiles[4], profiles[3]);
        assert_eq!(profiles[4].nic, NetworkModel::ethernet_25g());
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
