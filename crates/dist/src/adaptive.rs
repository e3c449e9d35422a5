//! Delay-aware adaptive ratio control: pick the compression ratio that makes
//! the sparse all-gather fit a communication-time budget, and correct for the
//! compressor's systematic estimation bias from observed achieved ratios.
//!
//! This closes the loop the paper's conclusion sketches ("estimate a threshold
//! for which compression satisfies other quality targets"): instead of a fixed
//! δ, the controller derives δ from the network model and a time budget.

use crate::cluster::ClusterConfig;
use crate::network::{HierarchicalTopology, NetworkModel};
use crate::SPARSE_WIRE_BYTES;

/// Configuration of the ratio controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatioControllerConfig {
    /// Communication-time budget per iteration (seconds).
    pub comm_budget: f64,
    /// Lower clamp on the recommended ratio.
    pub min_ratio: f64,
    /// Upper clamp on the recommended ratio.
    pub max_ratio: f64,
    /// Feedback gain in `[0, 1]`: 0 disables bias correction, 1 fully trusts
    /// each observation.
    pub feedback: f64,
}

/// Recommends compression ratios that keep the modelled sparse all-gather
/// within the configured time budget.
#[derive(Debug, Clone)]
pub struct RatioController {
    config: RatioControllerConfig,
    cluster: ClusterConfig,
    elements: usize,
    /// Multiplicative correction for the compressor's systematic bias
    /// (achieved/requested), updated by [`observe`](RatioController::observe).
    correction: f64,
}

impl RatioController {
    /// Creates a controller for a gradient of `elements` elements exchanged
    /// between `workers` workers over a flat `network`. See
    /// [`for_cluster`](Self::for_cluster) for two-tier topologies.
    ///
    /// # Panics
    ///
    /// Panics if the configuration bounds are not `0 < min_ratio <= max_ratio
    /// <= 1`, the budget is not positive, the feedback gain is outside
    /// `[0, 1]`, `workers` is zero, or `network` is rejected by
    /// [`NodeProfile::new`](crate::network::NodeProfile::new).
    pub fn new(
        config: RatioControllerConfig,
        network: NetworkModel,
        workers: usize,
        elements: usize,
    ) -> Self {
        Self::for_cluster(
            config,
            ClusterConfig::default()
                .with_topology(HierarchicalTopology::one_worker_per_node(workers, network)),
            elements,
        )
    }

    /// Creates a controller pricing the all-gather on `cluster`'s
    /// interconnect — hierarchical when the cluster has a two-tier topology,
    /// so the derived δ reflects what the collective actually costs there.
    ///
    /// # Panics
    ///
    /// Panics on the same invalid configurations as [`new`](Self::new).
    pub fn for_cluster(
        config: RatioControllerConfig,
        cluster: ClusterConfig,
        elements: usize,
    ) -> Self {
        assert!(
            config.min_ratio > 0.0
                && config.min_ratio <= config.max_ratio
                && config.max_ratio <= 1.0,
            "ratio bounds must satisfy 0 < min <= max <= 1"
        );
        assert!(
            config.comm_budget > 0.0,
            "communication budget must be positive"
        );
        assert!(
            (0.0..=1.0).contains(&config.feedback),
            "feedback gain must lie in [0,1]"
        );
        assert!(elements > 0, "gradient must have at least one element");
        Self {
            config,
            cluster,
            elements,
            correction: 1.0,
        }
    }

    /// The ratio that exactly fills the budget under the cluster's network
    /// model, before bias correction.
    fn uncorrected_ratio(&self) -> f64 {
        let budget_bytes = self.cluster.allgather_budget_bytes(self.config.comm_budget);
        budget_bytes / (self.elements as f64 * SPARSE_WIRE_BYTES)
    }

    /// The compression ratio whose modelled all-gather meets the budget,
    /// scaled by the learned bias correction and clamped to the configured
    /// bounds.
    pub fn recommend_ratio(&self) -> f64 {
        (self.uncorrected_ratio() * self.correction)
            .clamp(self.config.min_ratio, self.config.max_ratio)
    }

    /// Feeds back the ratio the compressor actually achieved when asked for
    /// [`recommend_ratio`](RatioController::recommend_ratio), tightening the
    /// bias correction so the *achieved* payload converges to the budget.
    pub fn observe(&mut self, achieved_ratio: f64) {
        if achieved_ratio <= 0.0 || self.config.feedback == 0.0 {
            return;
        }
        // Anti-windup: while the recommendation sits on a clamp bound the
        // output cannot follow the correction, so integrating the error would
        // only wind the correction toward its own clamp and overshoot badly
        // once the bound stops binding.
        let unclamped = self.uncorrected_ratio() * self.correction;
        if unclamped < self.config.min_ratio || unclamped > self.config.max_ratio {
            return;
        }
        // The fixed point is achieved == uncorrected target: under-shoot
        // inflates the correction, over-shoot deflates it, and the exponent
        // tempers each observation by the feedback gain.
        let error = self.uncorrected_ratio() / achieved_ratio;
        self.correction = (self.correction * error.powf(self.config.feedback)).clamp(0.01, 100.0);
    }

    /// The bias correction currently applied (1 = uncorrected).
    pub fn correction(&self) -> f64 {
        self.correction
    }

    /// The recommendation under an observed shared-wire slowdown.
    ///
    /// A tenant whose all-gathers are stretched `slowdown`× by link
    /// contention effectively has `comm_budget / slowdown` of wire time per
    /// iteration, so the controller shrinks δ proportionally instead of
    /// blowing the iteration-time target. `slowdown <= 1` (no contention)
    /// leaves the budget untouched rather than dividing by a no-op factor,
    /// making the uncontended path bit-for-bit identical to
    /// [`recommend_ratio`](Self::recommend_ratio) — the collapse guarantee
    /// the multi-tenant fleet in [`crate::tenancy`] relies on.
    ///
    /// # Panics
    ///
    /// Panics if `slowdown` is not a positive finite factor.
    pub fn recommend_ratio_under_contention(&self, slowdown: f64) -> f64 {
        assert!(
            slowdown.is_finite() && slowdown > 0.0,
            "slowdown must be a positive finite factor"
        );
        if slowdown <= 1.0 {
            return self.recommend_ratio();
        }
        let squeezed = Self {
            config: RatioControllerConfig {
                comm_budget: self.config.comm_budget / slowdown,
                ..self.config
            },
            cluster: self.cluster.clone(),
            elements: self.elements,
            correction: self.correction,
        };
        squeezed.recommend_ratio()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(feedback: f64) -> RatioController {
        RatioController::new(
            RatioControllerConfig {
                comm_budget: 0.002,
                min_ratio: 1e-4,
                max_ratio: 0.5,
                feedback,
            },
            NetworkModel::ethernet_25g(),
            8,
            1_000_000,
        )
    }

    #[test]
    fn recommendation_meets_the_budget_by_construction() {
        let controller = controller(0.0);
        let ratio = controller.recommend_ratio();
        assert!(
            ratio > 1e-4 && ratio < 0.5,
            "ratio {ratio} escaped its bounds"
        );
        let payload = (ratio * 1_000_000.0 * 8.0) as usize;
        let time = NetworkModel::ethernet_25g().allgather_sparse(payload, 8);
        assert!(
            time <= 0.002 * 1.001,
            "modelled time {time} blows the budget"
        );
    }

    #[test]
    fn feedback_converges_achieved_ratio_to_the_target() {
        // A compressor that persistently overshoots its target by 60%.
        let mut controller = controller(0.5);
        let target = controller.recommend_ratio();
        let mut achieved = 0.0;
        for _ in 0..32 {
            achieved = 1.6 * controller.recommend_ratio();
            controller.observe(achieved);
        }
        assert!(
            (achieved - target).abs() / target < 0.05,
            "achieved {achieved} should converge to the uncorrected target {target}"
        );
        assert!(controller.correction() < 1.0);
    }

    #[test]
    fn clamped_recommendation_does_not_wind_up_the_correction() {
        // A budget so tight the uncorrected ratio falls below min_ratio: the
        // recommendation pins to min_ratio and the compressor can only achieve
        // that, so the correction must not integrate the unreachable error.
        let mut controller = RatioController::new(
            RatioControllerConfig {
                comm_budget: 3e-4,
                min_ratio: 0.05,
                max_ratio: 0.5,
                feedback: 0.5,
            },
            NetworkModel::ethernet_25g(),
            8,
            1_000_000,
        );
        assert_eq!(controller.recommend_ratio(), 0.05);
        for _ in 0..50 {
            let achieved = controller.recommend_ratio();
            controller.observe(achieved);
        }
        assert_eq!(
            controller.correction(),
            1.0,
            "correction wound up while clamped"
        );
        assert_eq!(controller.recommend_ratio(), 0.05);
    }

    #[test]
    fn zero_feedback_never_adapts() {
        let mut controller = controller(0.0);
        let before = controller.recommend_ratio();
        controller.observe(10.0 * before);
        assert_eq!(controller.recommend_ratio(), before);
        assert_eq!(controller.correction(), 1.0);
    }

    #[test]
    fn tighter_budget_means_smaller_ratio() {
        let loose = controller(0.0);
        let tight = RatioController::new(
            RatioControllerConfig {
                comm_budget: 0.0005,
                min_ratio: 1e-4,
                max_ratio: 0.5,
                feedback: 0.0,
            },
            NetworkModel::ethernet_25g(),
            8,
            1_000_000,
        );
        assert!(tight.recommend_ratio() < loose.recommend_ratio());
    }

    #[test]
    fn two_tier_cluster_affords_a_larger_ratio_within_the_same_budget() {
        let config = RatioControllerConfig {
            comm_budget: 0.002,
            min_ratio: 1e-4,
            max_ratio: 0.5,
            feedback: 0.0,
        };
        let flat = RatioController::for_cluster(
            config,
            crate::cluster::ClusterConfig::paper_dedicated(),
            1_000_000,
        );
        let two_tier = RatioController::for_cluster(
            config,
            crate::cluster::ClusterConfig::paper_two_tier(),
            1_000_000,
        );
        // The hierarchy makes the same payload cheaper, so the same budget
        // affords a larger ratio.
        assert!(two_tier.recommend_ratio() > flat.recommend_ratio());
        // And the recommendation still meets the budget on that topology.
        let payload = (two_tier.recommend_ratio() * 1_000_000.0 * SPARSE_WIRE_BYTES) as usize;
        let time = crate::cluster::ClusterConfig::paper_two_tier().allgather_sparse(payload);
        assert!(
            time <= 0.002 * 1.001,
            "modelled hierarchical time {time} blows the budget"
        );
    }

    #[test]
    fn contention_shrinks_the_recommendation_and_collapses_at_one() {
        let controller = controller(0.0);
        let base = controller.recommend_ratio();
        // No contention (and anything below it) is bit-for-bit the plain
        // recommendation — the tenancy collapse guarantee.
        assert_eq!(controller.recommend_ratio_under_contention(1.0), base);
        assert_eq!(controller.recommend_ratio_under_contention(0.5), base);
        // A 2x-stretched wire halves the effective budget, so δ shrinks
        // monotonically with the slowdown.
        let squeezed = controller.recommend_ratio_under_contention(2.0);
        assert!(squeezed < base, "{squeezed} should undercut {base}");
        assert!(controller.recommend_ratio_under_contention(4.0) < squeezed);
        // ...but never below the configured floor.
        assert_eq!(controller.recommend_ratio_under_contention(1e9), 1e-4);
    }

    #[test]
    #[should_panic(expected = "positive finite factor")]
    fn rejects_non_finite_slowdown() {
        controller(0.0).recommend_ratio_under_contention(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "ratio bounds")]
    fn rejects_inverted_bounds() {
        RatioController::new(
            RatioControllerConfig {
                comm_budget: 0.002,
                min_ratio: 0.5,
                max_ratio: 0.1,
                feedback: 0.0,
            },
            NetworkModel::ethernet_25g(),
            8,
            1_000,
        );
    }
}
