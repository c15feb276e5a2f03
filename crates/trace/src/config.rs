//! Suite-level generation configuration.

use crate::node::NodeModelConfig;

/// Which production trace family to imitate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceStyle {
    /// Google 2011 cluster traces: 15 features per task (Table 1 of the
    /// paper), jobs of 100+ tasks.
    Google,
    /// Alibaba 2017/2018 traces: 4 features per instance (Table 2), much
    /// weaker feature signal.
    Alibaba,
}

/// Mixture over straggler causes; weights need not sum to one (they are
/// normalized internally).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CauseMix {
    /// Machine-level interference: CPU starvation, cache contention. Shows
    /// in CPU-share and CPI-like features.
    pub interference: f64,
    /// Input data skew: a task gets a larger shard. Shows in memory/disk
    /// features.
    pub data_skew: f64,
    /// Eviction/restart cycles. Shows in counter features (Google only).
    pub eviction: f64,
    /// Opaque slowness with no feature signature — every method's false
    /// negatives live here.
    pub opaque: f64,
}

impl Default for CauseMix {
    fn default() -> Self {
        CauseMix {
            interference: 0.40,
            data_skew: 0.32,
            eviction: 0.18,
            opaque: 0.10,
        }
    }
}

impl CauseMix {
    /// Normalized weights `[interference, data_skew, eviction, opaque]`.
    ///
    /// # Panics
    ///
    /// Panics if all weights are zero or any is negative.
    #[must_use]
    pub(crate) fn normalized(&self) -> [f64; 4] {
        let w = [
            self.interference,
            self.data_skew,
            self.eviction,
            self.opaque,
        ];
        assert!(w.iter().all(|&v| v >= 0.0), "cause weights must be >= 0");
        let total: f64 = w.iter().sum();
        assert!(total > 0.0, "at least one cause weight must be positive");
        [w[0] / total, w[1] / total, w[2] / total, w[3] / total]
    }
}

/// Configuration for generating a suite of jobs.
///
/// Build with [`SuiteConfig::new`] and the `with_*` methods:
///
/// ```
/// use nurd_trace::{SuiteConfig, TraceStyle};
///
/// let cfg = SuiteConfig::new(TraceStyle::Alibaba)
///     .with_jobs(10)
///     .with_task_range(100, 200)
///     .with_seed(99);
/// assert_eq!(cfg.jobs, 10);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteConfig {
    /// Trace family to imitate.
    pub style: TraceStyle,
    /// Number of jobs in the suite.
    pub jobs: usize,
    /// Minimum tasks per job (the paper filters to ≥ 100).
    pub tasks_min: usize,
    /// Maximum tasks per job.
    pub tasks_max: usize,
    /// Checkpoints per job.
    pub checkpoints: usize,
    /// Fraction of tasks planted as stragglers (p90 labeling will select
    /// approximately the top decile regardless; this controls the gap).
    pub straggler_fraction: f64,
    /// Fraction of non-stragglers given bursty decoy features.
    pub decoy_fraction: f64,
    /// Mixture over straggler causes.
    pub cause_mix: CauseMix,
    /// Fraction of jobs drawn from the long-tailed latency family (the rest
    /// are close-tailed).
    pub long_tail_fraction: f64,
    /// Optional machine axis: a seeded fleet of nodes with per-node
    /// health, task placement, and correlated latency factors for
    /// co-located tasks (see [`NodeModelConfig`]). `None` (the default)
    /// is **bit-identical** to the pre-node-model generator — no extra
    /// RNG draws, no placement metadata, no node feature columns.
    pub node_model: Option<NodeModelConfig>,
    /// Master RNG seed; each job derives its own stream from it.
    pub seed: u64,
}

impl SuiteConfig {
    /// Defaults sized for the paper-shaped experiments: 60 jobs of 120–360
    /// tasks, 30 checkpoints.
    #[must_use]
    pub fn new(style: TraceStyle) -> Self {
        SuiteConfig {
            style,
            jobs: 60,
            tasks_min: 120,
            tasks_max: 360,
            checkpoints: 24,
            straggler_fraction: 0.11,
            decoy_fraction: 0.12,
            cause_mix: CauseMix::default(),
            long_tail_fraction: 0.5,
            node_model: None,
            seed: 0x5ed_c0de,
        }
    }

    /// Sets the number of jobs.
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Sets the per-job task count range (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `min` is zero or exceeds `max`.
    #[must_use]
    pub fn with_task_range(mut self, min: usize, max: usize) -> Self {
        assert!(min > 0 && min <= max, "need 0 < min <= max");
        self.tasks_min = min;
        self.tasks_max = max;
        self
    }

    /// Sets the number of checkpoints per job.
    #[must_use]
    pub fn with_checkpoints(mut self, checkpoints: usize) -> Self {
        self.checkpoints = checkpoints;
        self
    }

    /// Sets the master seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the planted straggler fraction.
    #[must_use]
    pub fn with_straggler_fraction(mut self, fraction: f64) -> Self {
        self.straggler_fraction = fraction;
        self
    }

    /// Sets the decoy (feature-outlier non-straggler) fraction.
    #[must_use]
    pub fn with_decoy_fraction(mut self, fraction: f64) -> Self {
        self.decoy_fraction = fraction;
        self
    }

    /// Sets the cause mixture.
    #[must_use]
    pub fn with_cause_mix(mut self, mix: CauseMix) -> Self {
        self.cause_mix = mix;
        self
    }

    /// Sets the fraction of long-tailed jobs.
    #[must_use]
    pub fn with_long_tail_fraction(mut self, fraction: f64) -> Self {
        self.long_tail_fraction = fraction;
        self
    }

    /// Enables the node model (machine placement + correlated per-node
    /// straggler factors).
    #[must_use]
    pub fn with_node_model(mut self, model: NodeModelConfig) -> Self {
        self.node_model = Some(model);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cause_mix_normalizes() {
        let mix = CauseMix {
            interference: 2.0,
            data_skew: 1.0,
            eviction: 1.0,
            opaque: 0.0,
        };
        let w = mix.normalized();
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((w[0] - 0.5).abs() < 1e-12);
        assert_eq!(w[3], 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one cause weight")]
    fn cause_mix_rejects_all_zero() {
        let _ = CauseMix {
            interference: 0.0,
            data_skew: 0.0,
            eviction: 0.0,
            opaque: 0.0,
        }
        .normalized();
    }

    #[test]
    fn builder_chains() {
        let cfg = SuiteConfig::new(TraceStyle::Google)
            .with_jobs(3)
            .with_task_range(10, 20)
            .with_checkpoints(5)
            .with_seed(1)
            .with_straggler_fraction(0.2)
            .with_decoy_fraction(0.0)
            .with_long_tail_fraction(1.0);
        assert_eq!(cfg.jobs, 3);
        assert_eq!(cfg.tasks_min, 10);
        assert_eq!(cfg.checkpoints, 5);
        assert_eq!(cfg.long_tail_fraction, 1.0);
    }

    #[test]
    #[should_panic(expected = "need 0 < min <= max")]
    fn task_range_validated() {
        let _ = SuiteConfig::new(TraceStyle::Google).with_task_range(5, 2);
    }
}
