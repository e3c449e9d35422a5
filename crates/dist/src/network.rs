//! Analytic network cost model for the collective operations of synchronous
//! data-parallel SGD.
//!
//! The model is the standard α–β (latency–bandwidth) formulation of ring
//! collectives: a dense all-reduce moves `2·(n-1)/n` of the buffer over the
//! slowest link, a sparse all-gather replicates every worker's payload to all
//! peers. It is deliberately simple — the point (as in the paper's Table 1) is
//! the *ratio* between communication and computation, which the benchmark
//! specs pin down empirically.

use crate::device::ComputeDevice;

/// Latency–bandwidth model of the cluster interconnect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// Per-link bandwidth in gigabits per second.
    pub bandwidth_gbps: f64,
    /// Per-hop latency in seconds (switch + software stack).
    pub latency: f64,
}

impl NetworkModel {
    /// 10 Gbps Ethernet (the paper's slowest evaluated fabric).
    pub fn ethernet_10g() -> Self {
        Self {
            bandwidth_gbps: 10.0,
            latency: 50e-6,
        }
    }

    /// 25 Gbps Ethernet — the dedicated 8-node cluster of the paper's main
    /// end-to-end experiments.
    pub fn ethernet_25g() -> Self {
        Self {
            bandwidth_gbps: 25.0,
            latency: 30e-6,
        }
    }

    /// 100 Gbps InfiniBand — the shared single-node 8-GPU machine of Figure 13.
    pub fn infiniband_100g() -> Self {
        Self {
            bandwidth_gbps: 100.0,
            latency: 5e-6,
        }
    }

    /// Usable link bandwidth in bytes per second.
    pub fn bytes_per_second(&self) -> f64 {
        self.bandwidth_gbps * 1e9 / 8.0
    }

    /// Time of a ring all-reduce over a dense buffer of `bytes` bytes across
    /// `workers` workers. Zero when there is nothing to exchange.
    pub fn allreduce_dense(&self, bytes: usize, workers: usize) -> f64 {
        if workers <= 1 || bytes == 0 {
            return 0.0;
        }
        let n = workers as f64;
        2.0 * (n - 1.0) / n * bytes as f64 / self.bytes_per_second()
            + 2.0 * (n - 1.0) * self.latency
    }

    /// Time of a ring all-gather where every worker contributes a sparse
    /// payload of `bytes` bytes (the collective used for compressed
    /// gradients, whose selections do not align across workers).
    pub fn allgather_sparse(&self, bytes: usize, workers: usize) -> f64 {
        if workers <= 1 || bytes == 0 {
            return 0.0;
        }
        let n = workers as f64;
        (n - 1.0) * bytes as f64 / self.bytes_per_second() + (n - 1.0) * self.latency
    }

    /// Largest per-worker sparse payload (bytes) whose all-gather finishes
    /// within `budget` seconds — the inverse of [`allgather_sparse`]
    /// (zero when the latency floor alone exceeds the budget).
    ///
    /// [`allgather_sparse`]: NetworkModel::allgather_sparse
    pub fn allgather_budget_bytes(&self, budget: f64, workers: usize) -> f64 {
        if workers <= 1 {
            return f64::INFINITY;
        }
        let n = workers as f64;
        let transfer_budget = budget - (n - 1.0) * self.latency;
        (transfer_budget * self.bytes_per_second() / (n - 1.0)).max(0.0)
    }

    /// The sparse all-gather cost split into its `(latency, transfer)` parts:
    /// `(n-1)` latency hops that concurrent collectives can overlap, and the
    /// bandwidth term that serialises on the link. The parts always sum to
    /// [`allgather_sparse`](NetworkModel::allgather_sparse).
    pub fn allgather_sparse_parts(&self, bytes: usize, workers: usize) -> (f64, f64) {
        if workers <= 1 || bytes == 0 {
            return (0.0, 0.0);
        }
        let n = workers as f64;
        (
            (n - 1.0) * self.latency,
            (n - 1.0) * bytes as f64 / self.bytes_per_second(),
        )
    }
}

/// Asserts `link` is a usable fabric: positive finite bandwidth and finite,
/// non-negative latency. A NaN or infinite term would otherwise poison (or,
/// through a `max` fold, silently vanish from) every charge priced on it.
fn assert_usable_link(link: &NetworkModel, role: &str) {
    assert!(
        link.bandwidth_gbps.is_finite() && link.bandwidth_gbps > 0.0,
        "{role} bandwidth must be positive and finite, got {}",
        link.bandwidth_gbps
    );
    assert!(
        link.latency.is_finite() && link.latency >= 0.0,
        "{role} latency must be finite and non-negative, got {}",
        link.latency
    );
}

/// One machine, whole: the NIC it was cabled with and how many rails of it
/// the node drives, the device it compresses on, and how much slower than a
/// healthy node it computes. The unit [`HierarchicalTopology`] describes its
/// machines in, and the only per-node description of a cluster.
///
/// The compute factor stretches the node's compute charges (backward pass
/// and gradient compression): `1.0` is a healthy node, `2.0` a node running at
/// half speed (thermal throttling, a noisy neighbour, a degraded
/// accelerator). Synchronous phases gate on the slowest node, so a
/// homogeneous fleet multiplies every charge by exactly `1.0` and collapses
/// bit-for-bit to the unskewed model (IEEE multiplication by one is exact).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeProfile {
    /// The NIC this node reaches the inter-node fabric through (per rail).
    pub nic: NetworkModel,
    /// NIC rails striping this node's egress (≥ 1).
    pub nics: u32,
    /// Where this node runs gradient compression.
    device: ComputeDevice,
    /// Multiplicative compute slowdown (finite, ≥ 1).
    compute_factor: f64,
}

impl NodeProfile {
    /// A healthy GPU node driving `nics` rails of `nic`.
    ///
    /// # Panics
    ///
    /// Panics if `nics` is zero, the NIC bandwidth is not a positive finite
    /// number, or its latency is not a finite non-negative number.
    pub fn new(nic: NetworkModel, nics: u32) -> Self {
        assert!(nics >= 1, "a node needs at least one NIC");
        assert_usable_link(&nic, "node NIC");
        Self {
            nic,
            nics,
            device: ComputeDevice::Gpu,
            compute_factor: 1.0,
        }
    }

    /// The same node compressing on `device`.
    #[must_use]
    pub fn with_device(self, device: ComputeDevice) -> Self {
        Self { device, ..self }
    }

    /// The same node computing `compute_factor` times slower than a healthy
    /// one (straggler injection).
    ///
    /// # Panics
    ///
    /// Panics if `compute_factor` is below `1.0` or not finite (a sub-one
    /// "slowdown" would be a speed-up and break the monotonicity the model
    /// guarantees).
    #[must_use]
    pub fn with_compute_factor(self, compute_factor: f64) -> Self {
        assert!(
            compute_factor.is_finite() && compute_factor >= 1.0,
            "slowdown factors must be finite and at least 1.0, got {compute_factor}"
        );
        Self {
            compute_factor,
            ..self
        }
    }

    /// The device this node compresses on.
    pub fn device(&self) -> ComputeDevice {
        self.device
    }

    /// This node's compute-slowdown factor (`1.0` when healthy).
    pub fn compute_factor(&self) -> f64 {
        self.compute_factor
    }

    /// The node's egress as one logical link: the rails stripe the bandwidth
    /// term while per-hop latency is rail-independent.
    pub fn effective_nic(&self) -> NetworkModel {
        NetworkModel {
            bandwidth_gbps: self.nic.bandwidth_gbps * self.nics as f64,
            latency: self.nic.latency,
        }
    }
}

/// A two-tier cluster of machines of `workers_per_node` workers each, with a
/// fast intra-node fabric (NVLink/PCIe-class) and one [`NodeProfile`] per
/// machine: its egress into the inter-node fabric (the datacentre network),
/// its compression device and its compute-slowdown factor.
///
/// Hierarchical collectives run in phases — an intra-node stage, an
/// inter-node stage over per-node aggregates, and an intra-node distribution
/// stage — so the slow inter-node fabric carries `(nodes-1)` hops instead of
/// `(workers-1)`. With a single node every formula collapses to the flat
/// intra-node collective, and with one worker per node to the flat
/// inter-node collective — which is how a flat cluster is described
/// ([`one_worker_per_node`](Self::one_worker_per_node)); both identities are
/// proven in `tests/scheduler_properties.rs`.
///
/// **One profile per node.** The profile vector is the only description of
/// the machines: [`nodes`](Self::nodes) is its length, and a homogeneous
/// cluster is a uniform vector ([`new`](Self::new) writes
/// `[NodeProfile::new(inter, 1); nodes]` — healthy GPU nodes,
/// [`with_nics_per_node`](Self::with_nics_per_node) restripes every entry).
/// Every node drains its `(nodes-1)` aggregate messages through its own
/// effective NIC in parallel, and the ring phase completes when the slowest
/// node finishes — monotone in any single node's slowdown, non-increasing in
/// any node's rail count. A Join repeats the last node's profile at a
/// healthy compute factor; a Leave drops the last node.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchicalTopology {
    /// Workers (GPUs) per machine.
    pub workers_per_node: usize,
    /// Fabric joining the workers of one machine.
    pub intra: NetworkModel,
    /// One profile per machine (never empty).
    profiles: Vec<NodeProfile>,
}

impl HierarchicalTopology {
    /// A two-tier topology of `nodes` identical machines, each driving one
    /// NIC rail of `inter`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` or `workers_per_node` is zero, or either fabric has
    /// a non-positive or non-finite bandwidth or a negative or non-finite
    /// latency.
    pub fn new(
        nodes: usize,
        workers_per_node: usize,
        intra: NetworkModel,
        inter: NetworkModel,
    ) -> Self {
        assert!(nodes >= 1, "a topology needs at least one node");
        assert!(workers_per_node >= 1, "a node needs at least one worker");
        assert_usable_link(&intra, "intra-node fabric");
        Self {
            workers_per_node,
            intra,
            profiles: vec![NodeProfile::new(inter, 1); nodes],
        }
    }

    /// Sets every node's NIC rail count to `nics_per_node`, keeping each
    /// node's NIC model.
    ///
    /// # Panics
    ///
    /// Panics if `nics_per_node` is zero or does not fit a `u32`.
    #[must_use]
    // lint: test-only builds the NIC-rail testbed (cluster.rs) and properties (tests/scheduler_properties.rs)
    pub fn with_nics_per_node(mut self, nics_per_node: usize) -> Self {
        assert!(nics_per_node >= 1, "a node needs at least one NIC");
        let nics = u32::try_from(nics_per_node)
            .unwrap_or_else(|_| panic!("{nics_per_node} NIC rails do not fit a u32"));
        for profile in &mut self.profiles {
            profile.nics = nics;
        }
        self
    }

    /// Replaces the per-node profiles (entry `i` describes node `i`) — how
    /// mixed 10G/25G/100G, mixed-device and straggler fleets are described.
    ///
    /// # Panics
    ///
    /// Panics if the vector length differs from [`nodes`](Self::nodes) or any
    /// entry has zero rails (entries built with [`NodeProfile::new`] are
    /// validated there).
    #[must_use]
    pub fn with_node_profiles(mut self, node_profiles: Vec<NodeProfile>) -> Self {
        assert_eq!(
            node_profiles.len(),
            self.nodes(),
            "need one profile per node ({} nodes, got {})",
            self.nodes(),
            node_profiles.len()
        );
        assert!(
            node_profiles.iter().all(|p| p.nics >= 1),
            "every node needs at least one NIC"
        );
        self.profiles = node_profiles;
        self
    }

    /// Number of machines.
    pub fn nodes(&self) -> usize {
        self.profiles.len()
    }

    /// The per-node profiles, one per machine.
    pub fn node_profiles(&self) -> &[NodeProfile] {
        &self.profiles
    }

    /// Per-node drain times of the inter-node exchange for a per-worker
    /// sparse payload of `bytes` bytes: entry `i` is how long node `i` takes
    /// to drain its `(nodes-1)` per-node-aggregate messages through its own
    /// effective NIC ([`NodeProfile::effective_nic`]). All zeros
    /// for a single node (there is no inter-node stage). The hierarchical
    /// charge gates on the maximum entry — the slowest-node critical path.
    pub fn node_drain_times(&self, bytes: usize) -> Vec<f64> {
        let nodes = self.nodes();
        if nodes <= 1 || bytes == 0 {
            return vec![0.0; nodes];
        }
        let aggregate = bytes.saturating_mul(self.workers_per_node);
        self.profiles
            .iter()
            .map(|p| p.effective_nic().allgather_sparse(aggregate, nodes))
            .collect()
    }

    /// The inter-node exchange of per-node aggregates of `aggregate` bytes,
    /// as the `(latency, transfer)` pair of the slowest node (the node whose
    /// total drain is largest — the critical path that gates the ring phase).
    fn slowest_node_parts(&self, aggregate: usize) -> (f64, f64) {
        let nodes = self.nodes();
        self.profiles
            .iter()
            .map(|p| p.effective_nic().allgather_sparse_parts(aggregate, nodes))
            .max_by(|a, b| (a.0 + a.1).total_cmp(&(b.0 + b.1)))
            // INVARIANT: new() demands nodes ≥ 1, with_node_profiles keeps the
            // length and without_last_node never drops the last profile.
            .expect("a topology always has at least one node")
    }

    /// The topology after one machine joined, cabled and equipped like the
    /// last machine (its NIC, rails and device are repeated) but healthy
    /// (compute factor `1.0`) — how the trainer re-derives the fleet on a
    /// [`ClusterEvent::Join`](crate::trainer::ClusterEvent).
    #[must_use]
    pub fn with_joined_node(&self) -> Self {
        let mut grown = self.clone();
        // INVARIANT: a topology always has at least one node (see
        // slowest_node_parts), so a last profile exists.
        let last = *self.profiles.last().expect("a topology is never empty");
        grown.profiles.push(NodeProfile {
            compute_factor: 1.0,
            ..last
        });
        grown
    }

    /// The topology after the last machine left (`None` once a single node
    /// remains — the fabric cannot shrink to nothing).
    #[must_use]
    pub fn without_last_node(&self) -> Option<Self> {
        if self.nodes() <= 1 {
            return None;
        }
        let mut shrunk = self.clone();
        shrunk.profiles.pop();
        Some(shrunk)
    }

    /// One worker per machine: hierarchical collectives degenerate to flat
    /// collectives over the inter-node fabric, charging bit-for-bit what the
    /// flat [`NetworkModel`] collectives charge across `nodes` workers.
    pub fn one_worker_per_node(nodes: usize, inter: NetworkModel) -> Self {
        Self::new(nodes, 1, inter, inter)
    }

    /// Total worker count.
    pub fn workers(&self) -> usize {
        self.nodes() * self.workers_per_node
    }

    /// Hierarchical ring all-reduce of a dense `bytes`-byte buffer:
    /// intra-node reduce-scatter, inter-node all-reduce over the node shard,
    /// intra-node all-gather. Collapses exactly to
    /// [`NetworkModel::allreduce_dense`] when either tier is trivial.
    pub fn allreduce_dense(&self, bytes: usize) -> f64 {
        if bytes == 0 || self.workers() <= 1 {
            return 0.0;
        }
        let g = self.workers_per_node as f64;
        // Reduce-scatter and all-gather each move (g-1)/g of the buffer over
        // the slowest intra link in (g-1) latency hops — together they are
        // exactly one intra-node ring all-reduce.
        let intra_phases = if self.workers_per_node > 1 {
            2.0 * (g - 1.0) / g * bytes as f64 / self.intra.bytes_per_second()
                + 2.0 * (g - 1.0) * self.intra.latency
        } else {
            0.0
        };
        // Each worker all-reduces its 1/g shard across the nodes.
        // INVARIANT: g ≥ 1 and bytes is a usize, so the quotient is finite,
        // non-negative, and no larger than `bytes` — the cast cannot saturate.
        let shard = (bytes as f64 / g).ceil() as usize;
        let nodes = self.nodes();
        // The ring is gated by its slowest participant, so the phase
        // completes when the slowest node's NIC finishes. Every profile is
        // validated finite, so the fold cannot meet (and swallow) a NaN.
        let inter_phase = self
            .profiles
            .iter()
            .map(|p| p.effective_nic().allreduce_dense(shard, nodes))
            .fold(0.0, f64::max);
        intra_phases + inter_phase
    }

    /// Hierarchical sparse all-gather where every worker contributes `bytes`
    /// bytes: gather payloads within each node, exchange the per-node
    /// aggregates (`workers_per_node · bytes` each) across nodes, then fan the
    /// remote aggregates out within each node.
    pub fn allgather_sparse(&self, bytes: usize) -> f64 {
        let (latency, transfer) = self.allgather_sparse_parts(bytes);
        latency + transfer
    }

    /// Largest per-worker sparse payload (bytes) whose *hierarchical*
    /// all-gather finishes within `budget` seconds — the inverse of
    /// [`allgather_sparse`](HierarchicalTopology::allgather_sparse), mirroring
    /// [`NetworkModel::allgather_budget_bytes`] (zero when the latency floor
    /// alone exceeds the budget, infinite for a single worker). The charge is
    /// the maximum over per-node drains, so the budget binds at the node
    /// affording the least — the minimum over per-node inversions.
    pub fn allgather_budget_bytes(&self, budget: f64) -> f64 {
        if self.workers() <= 1 {
            return f64::INFINITY;
        }
        let nodes = self.nodes();
        if nodes == 1 {
            return self
                .intra
                .allgather_budget_bytes(budget, self.workers_per_node);
        }
        if self.workers_per_node == 1 {
            return self
                .profiles
                .iter()
                .map(|p| p.effective_nic().allgather_budget_bytes(budget, nodes))
                .fold(f64::INFINITY, f64::min);
        }
        // Per node allgather_sparse is affine in the payload: time = floor +
        // slope·bytes with the three stage formulas' constants collected
        // below (the shared intra stages plus that node's drain).
        let g = self.workers_per_node as f64;
        let n = nodes as f64;
        self.profiles
            .iter()
            .map(|p| {
                let floor =
                    (g - 1.0) * self.intra.latency + (n - 1.0) * p.nic.latency + self.intra.latency;
                let slope = (g - 1.0) / self.intra.bytes_per_second()
                    + (n - 1.0) * g / p.effective_nic().bytes_per_second()
                    + (n - 1.0) * g / self.intra.bytes_per_second();
                ((budget - floor) / slope).max(0.0)
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// The hierarchical sparse all-gather split for the collective scheduler:
    /// the intra-node stages and latency hops (overlappable across streams,
    /// since they run on the per-node fabric) and the inter-node transfer that
    /// serialises on the bottleneck link. Sums to
    /// [`allgather_sparse`](HierarchicalTopology::allgather_sparse).
    pub fn allgather_sparse_parts(&self, bytes: usize) -> (f64, f64) {
        if bytes == 0 || self.workers() <= 1 {
            return (0.0, 0.0);
        }
        let g = self.workers_per_node;
        let n = self.nodes();
        // A single node collapses to the flat collective, whose own fabric is
        // then the bottleneck link.
        if n == 1 {
            return self.intra.allgather_sparse_parts(bytes, g);
        }
        // Stage 1: every node gathers its workers' payloads (zero at g == 1,
        // so one worker per node is exactly the flat inter-node collective).
        let intra_gather = self.intra.allgather_sparse(bytes, g);
        // Stage 2: nodes exchange their g-payload aggregates, gated by the
        // slowest node's drain.
        let (inter_latency, inter_transfer) = self.slowest_node_parts(bytes * g);
        // Stage 3: each node fans the (n-1) remote aggregates out internally.
        let intra_fanout = if g > 1 {
            (n - 1) as f64 * (g * bytes) as f64 / self.intra.bytes_per_second() + self.intra.latency
        } else {
            0.0
        };
        (intra_gather + inter_latency + intra_fanout, inter_transfer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_worker_never_communicates() {
        let net = NetworkModel::ethernet_25g();
        assert_eq!(net.allreduce_dense(1 << 20, 1), 0.0);
        assert_eq!(net.allgather_sparse(1 << 20, 1), 0.0);
    }

    #[test]
    fn faster_fabric_is_faster() {
        let slow = NetworkModel::ethernet_10g();
        let fast = NetworkModel::infiniband_100g();
        assert!(slow.allreduce_dense(1 << 24, 8) > fast.allreduce_dense(1 << 24, 8));
        assert!(slow.allgather_sparse(1 << 24, 8) > fast.allgather_sparse(1 << 24, 8));
    }

    #[test]
    fn budget_inverts_allgather() {
        let net = NetworkModel::ethernet_25g();
        let workers = 8;
        let bytes = net.allgather_budget_bytes(0.002, workers);
        assert!(bytes > 0.0);
        let time = net.allgather_sparse(bytes as usize, workers);
        assert!((time - 0.002).abs() < 1e-6, "round trip gave {time}");
    }

    #[test]
    fn latency_dominates_tiny_payloads() {
        let net = NetworkModel::ethernet_25g();
        let t = net.allgather_sparse(8, 8);
        assert!(t >= 7.0 * net.latency);
    }

    #[test]
    fn allgather_parts_sum_to_the_lumped_cost() {
        let net = NetworkModel::ethernet_25g();
        let (latency, transfer) = net.allgather_sparse_parts(1 << 20, 8);
        assert!((latency + transfer - net.allgather_sparse(1 << 20, 8)).abs() < 1e-15);
        assert_eq!(net.allgather_sparse_parts(0, 8), (0.0, 0.0));
        assert_eq!(net.allgather_sparse_parts(1 << 20, 1), (0.0, 0.0));
    }

    #[test]
    fn hierarchical_collapses_to_flat_on_degenerate_tiers() {
        let intra = NetworkModel::infiniband_100g();
        let inter = NetworkModel::ethernet_25g();
        let bytes = 3 << 20;

        let single = HierarchicalTopology::new(1, 8, intra, intra);
        assert_eq!(single.workers(), 8);
        assert!((single.allgather_sparse(bytes) - intra.allgather_sparse(bytes, 8)).abs() < 1e-15);
        assert!((single.allreduce_dense(bytes) - intra.allreduce_dense(bytes, 8)).abs() < 1e-12);

        let flat = HierarchicalTopology::one_worker_per_node(8, inter);
        assert!((flat.allgather_sparse(bytes) - inter.allgather_sparse(bytes, 8)).abs() < 1e-15);
        assert!((flat.allreduce_dense(bytes) - inter.allreduce_dense(bytes, 8)).abs() < 1e-12);
    }

    #[test]
    fn hierarchy_beats_a_flat_collective_over_the_slow_fabric() {
        let intra = NetworkModel::infiniband_100g();
        let inter = NetworkModel::ethernet_25g();
        let two_tier = HierarchicalTopology::new(2, 4, intra, inter);
        let bytes = 1 << 22;
        // Flat: all 8 workers ring over the slow 25G fabric.
        let flat = inter.allgather_sparse(bytes, 8);
        assert!(
            two_tier.allgather_sparse(bytes) < flat,
            "two-tier {} should beat flat {flat}",
            two_tier.allgather_sparse(bytes)
        );
        assert!(two_tier.allreduce_dense(bytes) < inter.allreduce_dense(bytes, 8));
        // The serialised part only carries the inter-node traffic.
        let (latency, transfer) = two_tier.allgather_sparse_parts(bytes);
        assert!(latency > 0.0 && transfer > 0.0);
        assert!((latency + transfer - two_tier.allgather_sparse(bytes)).abs() < 1e-12);
        let (_, flat_transfer) = inter.allgather_sparse_parts(bytes, 8);
        assert!(transfer < flat_transfer);
    }

    #[test]
    fn hierarchical_budget_inverts_the_hierarchical_allgather() {
        let two_tier = HierarchicalTopology::new(
            2,
            4,
            NetworkModel::infiniband_100g(),
            NetworkModel::ethernet_25g(),
        );
        let bytes = two_tier.allgather_budget_bytes(0.002);
        assert!(bytes > 0.0);
        let time = two_tier.allgather_sparse(bytes as usize);
        assert!((time - 0.002).abs() < 1e-6, "round trip gave {time}");
        // Degenerate tiers invert through the flat formula.
        let ib = NetworkModel::infiniband_100g();
        let single = HierarchicalTopology::new(1, 8, ib, ib);
        assert_eq!(
            single.allgather_budget_bytes(0.001),
            NetworkModel::infiniband_100g().allgather_budget_bytes(0.001, 8)
        );
        assert_eq!(
            HierarchicalTopology::new(
                1,
                1,
                NetworkModel::ethernet_10g(),
                NetworkModel::ethernet_10g()
            )
            .allgather_budget_bytes(0.001),
            f64::INFINITY
        );
        // A latency floor above the budget affords nothing.
        assert_eq!(two_tier.allgather_budget_bytes(1e-9), 0.0);
    }

    #[test]
    fn more_nic_rails_never_slow_the_inter_node_stage() {
        let base = HierarchicalTopology::new(
            4,
            4,
            NetworkModel::infiniband_100g(),
            NetworkModel::ethernet_25g(),
        );
        let bytes = 1 << 20;
        let mut previous = f64::INFINITY;
        for nics in 1usize..=8 {
            let railed = base.clone().with_nics_per_node(nics);
            let gather = railed.allgather_sparse(bytes);
            assert!(
                gather <= previous,
                "{nics} rails regressed the all-gather: {previous} -> {gather}"
            );
            // Only the link-serialised transfer part shrinks; the
            // latency/overlappable part is rail-independent only in its
            // inter-node bandwidth term, so the parts must keep summing.
            let (latency, transfer) = railed.allgather_sparse_parts(bytes);
            assert!((latency + transfer - gather).abs() < 1e-12);
            assert!(railed.allreduce_dense(bytes) <= base.allreduce_dense(bytes));
            // Budget inversion tracks the railed charge.
            let budget = 0.004;
            let affordable = railed.allgather_budget_bytes(budget);
            let round_trip = railed.allgather_sparse(affordable as usize);
            assert!((round_trip - budget).abs() < 1e-6);
            previous = gather;
        }
        // Rails strictly beat the single bottleneck once there are ≥ 2.
        assert!(
            base.clone().with_nics_per_node(4).allgather_sparse(bytes)
                < base.allgather_sparse(bytes)
        );
    }

    /// The single link a homogeneous cluster's inter-node stage runs over:
    /// `inter` striped by `rails` NIC rails. Composed with the flat
    /// collectives stage by stage it is the closed-form reference charge.
    fn striped(inter: NetworkModel, rails: u32) -> NetworkModel {
        NetworkModel {
            bandwidth_gbps: inter.bandwidth_gbps * f64::from(rails),
            latency: inter.latency,
        }
    }

    #[test]
    fn heterogeneous_rails_charge_the_slowest_node() {
        let intra = NetworkModel::infiniband_100g();
        let inter = NetworkModel::ethernet_25g();
        let base = HierarchicalTopology::new(4, 4, intra, inter);
        let rails = |r: [u32; 4]| {
            base.clone()
                .with_node_profiles(r.iter().map(|&k| NodeProfile::new(inter, k)).collect())
        };
        // Three rail-optimised nodes and one straggler with a single NIC: the
        // exchange is gated by the straggler, exactly as if every node had one.
        let straggler = rails([4, 4, 1, 4]);
        let uniform_slow = base.clone().with_nics_per_node(1);
        let uniform_fast = base.clone().with_nics_per_node(4);
        let bytes = 1 << 22;
        assert_eq!(
            straggler.allgather_sparse(bytes),
            uniform_slow.allgather_sparse(bytes)
        );
        assert_eq!(
            straggler.allreduce_dense(bytes),
            uniform_slow.allreduce_dense(bytes)
        );
        assert_eq!(
            straggler.allgather_budget_bytes(0.002),
            uniform_slow.allgather_budget_bytes(0.002)
        );
        assert!(
            straggler.allgather_sparse(bytes) > uniform_fast.allgather_sparse(bytes),
            "one failed rail must drag the whole exchange"
        );
        // Repairing the straggler recovers the rail-optimised charge.
        assert_eq!(
            rails([4, 4, 4, 4]).allgather_sparse(bytes),
            uniform_fast.allgather_sparse(bytes)
        );
        // Extra rails on non-bottleneck nodes change nothing.
        assert_eq!(
            rails([4, 8, 1, 16]).allgather_sparse(bytes),
            straggler.allgather_sparse(bytes)
        );
    }

    #[test]
    fn homogeneous_node_profiles_collapse_bit_for_bit() {
        let intra = NetworkModel::infiniband_100g();
        let inter = NetworkModel::ethernet_25g();
        let (nodes, g) = (3usize, 4usize);
        for k in [1u32, 2, 4, 7] {
            let uniform = HierarchicalTopology::new(nodes, g, intra, inter)
                .with_node_profiles(vec![NodeProfile::new(inter, k); nodes]);
            assert_eq!(
                uniform,
                HierarchicalTopology::new(nodes, g, intra, inter).with_nics_per_node(k as usize)
            );
            let link = striped(inter, k);
            for bytes in [1usize, 1 << 10, 1 << 22] {
                let (link_latency, link_transfer) = link.allgather_sparse_parts(bytes * g, nodes);
                let fanout = (nodes - 1) as f64 * (g * bytes) as f64 / intra.bytes_per_second()
                    + intra.latency;
                assert_eq!(
                    uniform.allgather_sparse_parts(bytes),
                    (
                        intra.allgather_sparse(bytes, g) + link_latency + fanout,
                        link_transfer
                    )
                );
                let shard = bytes.div_ceil(g);
                assert_eq!(
                    uniform.allreduce_dense(bytes),
                    intra.allreduce_dense(bytes, g) + link.allreduce_dense(shard, nodes)
                );
            }
            // The flat tier is the flat collective over the striped link.
            let flat =
                HierarchicalTopology::one_worker_per_node(4, inter).with_nics_per_node(k as usize);
            assert_eq!(
                flat.allgather_sparse_parts(1 << 20),
                link.allgather_sparse_parts(1 << 20, 4)
            );
            assert_eq!(
                flat.allreduce_dense(1 << 20),
                link.allreduce_dense(1 << 20, 4)
            );
            assert_eq!(
                flat.allgather_budget_bytes(0.002),
                link.allgather_budget_bytes(0.002, 4)
            );
        }
    }

    #[test]
    fn mixed_nic_profiles_gate_on_the_slowest_drain() {
        let base = HierarchicalTopology::new(
            3,
            2,
            NetworkModel::infiniband_100g(),
            NetworkModel::ethernet_25g(),
        );
        // One 10G node in an otherwise 25G/100G fleet: the exchange is gated
        // by the 10G node's drain, so it must charge at least the uniform-10G
        // inter stage would and strictly more than the all-25G fleet.
        let mixed = base.clone().with_node_profiles(vec![
            NodeProfile::new(NetworkModel::ethernet_10g(), 1),
            NodeProfile::new(NetworkModel::ethernet_25g(), 1),
            NodeProfile::new(NetworkModel::infiniband_100g(), 1),
        ]);
        let uniform_25g = base.clone();
        let bytes = 1 << 22;
        assert!(
            mixed.allgather_sparse(bytes) > uniform_25g.allgather_sparse(bytes),
            "a 10G node must drag the exchange below the 25G fleet"
        );
        // The drain vector exposes exactly who gates: node 0 is slowest.
        let drains = mixed.node_drain_times(bytes);
        assert_eq!(drains.len(), 3);
        assert!(drains[0] > drains[1] && drains[1] > drains[2]);
        // Upgrading a non-bottleneck node changes nothing; upgrading the
        // straggler is a strict win (slowest-node critical path).
        let upgraded_fast = base.clone().with_node_profiles(vec![
            NodeProfile::new(NetworkModel::ethernet_10g(), 1),
            NodeProfile::new(NetworkModel::ethernet_25g(), 4),
            NodeProfile::new(NetworkModel::infiniband_100g(), 1),
        ]);
        assert_eq!(
            upgraded_fast.allgather_sparse(bytes),
            mixed.allgather_sparse(bytes)
        );
        let upgraded_straggler = base.clone().with_node_profiles(vec![
            NodeProfile::new(NetworkModel::ethernet_25g(), 1),
            NodeProfile::new(NetworkModel::ethernet_25g(), 1),
            NodeProfile::new(NetworkModel::infiniband_100g(), 1),
        ]);
        assert!(upgraded_straggler.allgather_sparse(bytes) < mixed.allgather_sparse(bytes));
        // Budget inversion round-trips through the slowest-node charge.
        let affordable = mixed.allgather_budget_bytes(0.01);
        assert!(affordable > 0.0);
        let round_trip = mixed.allgather_sparse(affordable as usize);
        assert!(
            (round_trip - 0.01).abs() < 1e-6,
            "round trip gave {round_trip}"
        );
    }

    #[test]
    #[should_panic(expected = "one profile per node")]
    fn node_profiles_length_must_match_nodes() {
        let _ = HierarchicalTopology::new(
            3,
            2,
            NetworkModel::ethernet_25g(),
            NetworkModel::ethernet_25g(),
        )
        .with_node_profiles(vec![NodeProfile::new(NetworkModel::ethernet_25g(), 1); 2]);
    }

    #[test]
    #[should_panic(expected = "at least one NIC")]
    fn node_profiles_reject_zero_rails() {
        let _ = NodeProfile::new(NetworkModel::ethernet_25g(), 0);
    }

    #[test]
    #[should_panic(expected = "node NIC latency must be finite and non-negative")]
    fn node_profiles_reject_nan_latency() {
        let _ = NodeProfile::new(
            NetworkModel {
                latency: f64::NAN,
                ..NetworkModel::ethernet_25g()
            },
            1,
        );
    }

    #[test]
    #[should_panic(expected = "node NIC latency must be finite and non-negative")]
    fn node_profiles_reject_negative_latency() {
        let _ = NodeProfile::new(
            NetworkModel {
                latency: -1e-6,
                ..NetworkModel::ethernet_25g()
            },
            1,
        );
    }

    #[test]
    fn node_profile_defaults_and_accessors() {
        let nic = NetworkModel::ethernet_25g();
        let healthy = NodeProfile::new(nic, 2);
        assert_eq!(healthy.device(), ComputeDevice::Gpu);
        assert_eq!(healthy.compute_factor(), 1.0);

        let straggler = healthy
            .with_device(ComputeDevice::Cpu)
            .with_compute_factor(2.5);
        assert_eq!(straggler.device(), ComputeDevice::Cpu);
        assert_eq!(straggler.compute_factor(), 2.5);
        // The compute half never touches the NIC half.
        assert_eq!((straggler.nic, straggler.nics), (nic, 2));
        assert_eq!(straggler.effective_nic(), healthy.effective_nic());
        assert_eq!(healthy.with_compute_factor(1.0), healthy);
    }

    #[test]
    #[should_panic(expected = "at least 1.0")]
    fn node_profiles_reject_sub_one_compute_factor() {
        let _ = NodeProfile::new(NetworkModel::ethernet_25g(), 1).with_compute_factor(0.5);
    }

    #[test]
    #[should_panic(expected = "at least 1.0")]
    fn node_profiles_reject_nan_compute_factor() {
        let _ = NodeProfile::new(NetworkModel::ethernet_25g(), 1).with_compute_factor(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "at least 1.0")]
    fn node_profiles_reject_infinite_compute_factor() {
        let _ =
            NodeProfile::new(NetworkModel::ethernet_25g(), 1).with_compute_factor(f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "node NIC latency must be finite and non-negative")]
    fn topology_rejects_infinite_inter_latency() {
        let _ = HierarchicalTopology::new(
            2,
            2,
            NetworkModel::infiniband_100g(),
            NetworkModel {
                latency: f64::INFINITY,
                ..NetworkModel::ethernet_25g()
            },
        );
    }

    #[test]
    #[should_panic(expected = "intra-node fabric latency must be finite and non-negative")]
    fn topology_rejects_nan_intra_latency() {
        let _ = HierarchicalTopology::new(
            2,
            2,
            NetworkModel {
                latency: f64::NAN,
                ..NetworkModel::infiniband_100g()
            },
            NetworkModel::ethernet_25g(),
        );
    }

    #[test]
    #[should_panic(expected = "intra-node fabric bandwidth must be positive and finite")]
    fn topology_rejects_zero_intra_bandwidth() {
        let _ = HierarchicalTopology::new(
            2,
            2,
            NetworkModel {
                bandwidth_gbps: 0.0,
                ..NetworkModel::infiniband_100g()
            },
            NetworkModel::ethernet_25g(),
        );
    }

    #[test]
    #[should_panic(expected = "at least one NIC")]
    fn topology_rejects_zero_nics() {
        let _ = HierarchicalTopology::new(
            2,
            2,
            NetworkModel::ethernet_25g(),
            NetworkModel::ethernet_25g(),
        )
        .with_nics_per_node(0);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn topology_rejects_zero_nodes() {
        HierarchicalTopology::new(
            0,
            4,
            NetworkModel::ethernet_25g(),
            NetworkModel::ethernet_25g(),
        );
    }
}
