//! The fleet's machine axis: a seeded set of nodes with per-node health
//! states, task placement, and correlated straggler factors.
//!
//! Production stragglers are rarely i.i.d. across tasks — the dominant
//! failure mode is a *sick machine* slowing every task placed on it
//! (Guard's premise; the Alibaba traces show the same node-correlated
//! tails). [`NodeModel`] reproduces that: each node is healthy, degraded,
//! or sick, and carries a latency multiplier applied to every co-located
//! task. The model is an **overlay** on the base generator — when
//! [`crate::SuiteConfig::node_model`] is `None` the base RNG stream is
//! untouched and traces are bit-identical to the pre-node-model
//! generator; when enabled, all node-model draws come from a separate
//! seeded stream so the base job structure (task counts, causes, decoys,
//! feature signatures) is *still* the same.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Stream-splitting constant for per-job placement draws, so placement
/// never shares a stream with the base generator's per-job RNG.
const PLACEMENT_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// One node's health state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum NodeHealth {
    /// Nominal: co-located tasks run at their planned latency.
    Healthy,
    /// Mildly impaired (contention, failing disk): co-located tasks are
    /// stretched by a factor drawn from
    /// [`NodeModelConfig::degraded_factor`].
    Degraded,
    /// Seriously impaired: co-located tasks are stretched by a factor
    /// drawn from [`NodeModelConfig::sick_factor`] — the machine every
    /// placed task straggles on.
    Sick,
}

/// Configuration for the fleet's node model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeModelConfig {
    /// Number of machines in the fleet.
    pub nodes: u32,
    /// How many of them are sick.
    pub sick_nodes: u32,
    /// How many of them are degraded.
    pub degraded_nodes: u32,
    /// Latency-multiplier range `(lo, hi)` for sick nodes.
    pub sick_factor: (f64, f64),
    /// Latency-multiplier range `(lo, hi)` for degraded nodes.
    pub degraded_factor: (f64, f64),
    /// Seed for the node model's own RNG stream (health assignment,
    /// factor draws, per-job placement). Independent of the suite seed so
    /// enabling the model never perturbs base-generator draws.
    pub seed: u64,
}

impl Default for NodeModelConfig {
    fn default() -> Self {
        NodeModelConfig {
            nodes: 16,
            sick_nodes: 1,
            degraded_nodes: 3,
            sick_factor: (3.0, 5.0),
            degraded_factor: (1.25, 1.8),
            seed: 0x0de_5eed,
        }
    }
}

impl NodeModelConfig {
    /// A fleet of `nodes` machines with defaults for everything else.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    #[must_use]
    pub fn new(nodes: u32) -> Self {
        assert!(nodes > 0, "fleet needs at least one node");
        NodeModelConfig {
            nodes,
            ..NodeModelConfig::default()
        }
    }

    /// Sets how many nodes are sick / degraded.
    ///
    /// # Panics
    ///
    /// Panics if `sick + degraded` exceeds the fleet size.
    #[must_use]
    pub fn with_unhealthy(mut self, sick: u32, degraded: u32) -> Self {
        assert!(
            sick + degraded <= self.nodes,
            "unhealthy nodes exceed fleet size"
        );
        self.sick_nodes = sick;
        self.degraded_nodes = degraded;
        self
    }
}

/// The realized fleet: per-node health and latency multipliers, built
/// deterministically from a [`NodeModelConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct NodeModel {
    health: Vec<NodeHealth>,
    factors: Vec<f64>,
    config: NodeModelConfig,
}

impl NodeModel {
    /// Realizes the fleet: a seeded permutation picks which node ids are
    /// sick/degraded and a multiplier is drawn per unhealthy node.
    #[must_use]
    pub fn build(config: &NodeModelConfig) -> Self {
        let n = config.nodes as usize;
        let mut rng = StdRng::seed_from_u64(config.seed);

        // Fisher–Yates over node ids: the permutation's prefix is sick,
        // the next run degraded, the rest healthy.
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let mut health = vec![NodeHealth::Healthy; n];
        for &node in order.iter().take(config.sick_nodes as usize) {
            health[node] = NodeHealth::Sick;
        }
        for &node in order
            .iter()
            .skip(config.sick_nodes as usize)
            .take(config.degraded_nodes as usize)
        {
            health[node] = NodeHealth::Degraded;
        }

        let factors = health
            .iter()
            .map(|h| match h {
                NodeHealth::Healthy => 1.0,
                NodeHealth::Degraded => {
                    rng.gen_range(config.degraded_factor.0..config.degraded_factor.1)
                }
                NodeHealth::Sick => rng.gen_range(config.sick_factor.0..config.sick_factor.1),
            })
            .collect();
        NodeModel {
            health,
            factors,
            config: *config,
        }
    }

    /// Number of nodes.
    #[must_use]
    pub(crate) fn node_count(&self) -> u32 {
        self.config.nodes
    }

    /// Latency multiplier applied to tasks on `node` (1.0 for healthy).
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the fleet.
    #[must_use]
    pub(crate) fn factor(&self, node: u32) -> f64 {
        self.factors[node as usize]
    }

    /// Ids of the sick nodes, ascending.
    #[must_use]
    pub fn sick_nodes(&self) -> Vec<u32> {
        self.health
            .iter()
            .enumerate()
            .filter(|(_, h)| **h == NodeHealth::Sick)
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Uniform task placement for one job, from the node model's own
    /// per-job stream (independent of the base generator's per-job RNG).
    #[must_use]
    pub(crate) fn placement(&self, job_id: u64, n_tasks: usize) -> Vec<u32> {
        let mut rng = StdRng::seed_from_u64(
            self.config.seed ^ job_id.wrapping_mul(PLACEMENT_SALT) ^ 0x1ACE_D0DE,
        );
        (0..n_tasks)
            .map(|_| rng.gen_range(0..self.config.nodes as usize) as u32)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> NodeModelConfig {
        NodeModelConfig {
            seed: 0xBAD,
            ..NodeModelConfig::new(8).with_unhealthy(1, 2)
        }
    }

    #[test]
    fn build_is_deterministic_and_counts_match() {
        let a = NodeModel::build(&cfg());
        let b = NodeModel::build(&cfg());
        assert_eq!(a, b);
        assert_eq!(a.sick_nodes().len(), 1);
        let degraded = (0..8)
            .filter(|&n| a.health[n as usize] == NodeHealth::Degraded)
            .count();
        assert_eq!(degraded, 2);
        for n in 0..8 {
            match a.health[n as usize] {
                NodeHealth::Healthy => assert_eq!(a.factor(n), 1.0),
                NodeHealth::Degraded => assert!(a.factor(n) > 1.0 && a.factor(n) < 2.0),
                NodeHealth::Sick => assert!(a.factor(n) >= 3.0),
            }
        }
    }

    #[test]
    fn placement_is_deterministic_per_job_and_in_range() {
        let model = NodeModel::build(&cfg());
        let p1 = model.placement(3, 100);
        assert_eq!(p1, model.placement(3, 100));
        assert_ne!(p1, model.placement(4, 100));
        assert!(p1.iter().all(|&n| n < 8));
    }
}
