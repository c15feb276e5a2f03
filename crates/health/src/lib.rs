//! `nurd-health` — the Guard-style node-health manager.
//!
//! NURD predicts *task*-level stragglers, but in a real fleet stragglers
//! cluster: a degraded NIC or a thermally throttled socket stretches
//! every task co-located on that machine (the correlated scenarios
//! `nurd_trace::NodeModel` generates). This crate closes the node axis
//! of the loop: a [`HealthAggregator`] attaches to a running engine as a
//! [`nurd_serve::HealthObserver`], folds every finalized job's per-node
//! straggler truth into rolling per-node rates, and renders a typed
//! [`NodeVerdict`] per node — `Healthy`, `Watch`, or `Quarantine` — that
//! `nurd_mitigate::run_node_fleet` freezes into its quarantine-capable
//! policy.
//!
//! # Determinism
//!
//! The engine calls the observer from whichever worker drains a shard,
//! so observations from different jobs interleave in scheduling order.
//! The aggregator's state is nevertheless deterministic because every
//! update is **keyed and idempotent**: finalization tallies key by job
//! id, insert-if-absent into a `BTreeMap`. Scored barriers are not
//! observed (the trait's no-op default), so the state grows by one entry
//! per finalized job and never per barrier. Any arrival order — including the
//! partial re-observation a crash recovery's WAL replay can produce on
//! top of a restored snapshot blob — converges to the same maps, and
//! [`HealthAggregator::rates`] folds it in sorted key order, so the
//! derived rates and verdicts are bit-identical across shard counts,
//! worker counts, and crash/recover boundaries (the recovery-equivalence
//! property test in the root crate pins this).
//!
//! # Reading the verdicts
//!
//! Rates are **computed on read**, never cached: per node, the per-job
//! straggler rates fold in ascending job-id order through an EWMA
//! (`rate ← decay·rate + (1−decay)·job_rate`), so later jobs dominate
//! and a recovered machine decays back toward `Healthy`. A node with
//! fewer than [`HealthConfig::min_tasks`] observed tasks is never judged
//! past `Healthy` — one unlucky task is not evidence. `docs/OPERATIONS.md`
//! is the operator's guide to the knobs and verdict triage.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::sync::Mutex;

use nurd_codec::{Checkpointable, CodecError, Decoder, Encoder};
use nurd_serve::{HealthObserver, JobReport};

/// Format version of the aggregator's snapshot blob
/// ([`HealthObserver::snapshot_state`]); bumped on layout change,
/// mismatches reject the blob rather than misread it.
/// Version 1 also carried per-barrier score sums.
const BLOB_VERSION: u32 = 2;

/// Tuning for the [`HealthAggregator`]'s rate folding and verdict
/// boundaries. The defaults suit the vendored trace generators (p90
/// thresholds ⇒ ~10% baseline straggler rate on healthy nodes, ≥3×
/// stretch on sick ones); production fleets should calibrate against
/// their own baseline rate — see `docs/OPERATIONS.md`.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthConfig {
    /// EWMA retention of *older* jobs when folding a node's per-job
    /// straggler rates in job-id order: `rate ← decay·rate +
    /// (1−decay)·job_rate`. Higher = slower to convict, slower to
    /// forgive.
    pub decay: f64,
    /// Folded rate at or above which a node is [`NodeVerdict::Watch`].
    pub watch_threshold: f64,
    /// Folded rate at or above which a node is
    /// [`NodeVerdict::Quarantine`].
    pub quarantine_threshold: f64,
    /// Minimum observed tasks (summed across jobs) before a node can be
    /// judged past `Healthy`.
    pub min_tasks: u64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            decay: 0.6,
            watch_threshold: 0.25,
            quarantine_threshold: 0.45,
            min_tasks: 8,
        }
    }
}

/// The aggregator's judgement of one node, ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NodeVerdict {
    /// Straggler rate below the watch boundary (or too few tasks
    /// observed to judge).
    Healthy,
    /// Elevated rate — keep placing tasks, but expect clones.
    Watch,
    /// Rate past the quarantine boundary — policies should evict and
    /// restart this node's tasks elsewhere.
    Quarantine,
}

/// Everything the aggregator currently knows about one node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeStats {
    /// Total tasks observed on the node across finalized jobs.
    pub tasks: u64,
    /// How many of those straggled (ground truth at finalization).
    pub stragglers: u64,
    /// The EWMA-folded straggler rate (see [`HealthConfig::decay`]).
    pub rate: f64,
    /// The verdict the rate and [`HealthConfig`] boundaries render.
    pub verdict: NodeVerdict,
}

/// Per-job, per-node straggler tally (ground truth at finalization).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct NodeTally {
    tasks: u64,
    stragglers: u64,
}

impl Checkpointable for NodeTally {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.tasks);
        enc.put_u64(self.stragglers);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(NodeTally {
            tasks: dec.take_u64()?,
            stragglers: dec.take_u64()?,
        })
    }
}

/// The keyed observation map, job → node → tally, inserted once per job
/// at finalization (see the crate docs for why keyed + insert-if-absent
/// is the determinism mechanism).
type AggState = BTreeMap<u64, BTreeMap<u32, NodeTally>>;

/// The fleet's node-health scoreboard: attach to an engine with
/// [`nurd_serve::EngineService::attach_observer`] (it implements
/// [`HealthObserver`]), then read [`HealthAggregator::verdicts`] to
/// drive placement or a quarantine policy.
///
/// # Example
///
/// ```
/// use nurd_health::{HealthAggregator, HealthConfig, NodeVerdict};
/// use nurd_serve::HealthObserver;
///
/// let agg = HealthAggregator::new(HealthConfig {
///     min_tasks: 4,
///     ..HealthConfig::default()
/// });
/// // Normally the engine feeds these; here, hand-feed one finalized
/// // job: node 0 hosted tasks {0, 1} (healthy), node 1 hosted {2, 3}
/// // and both straggled.
/// # let report = nurd_serve::JobReport {
/// #     job: 1,
/// #     checkpoints_scored: 0,
/// #     finalized: nurd_serve::FinalizeReason::JobEnd,
/// #     outcome: nurd_sim::ReplayOutcome {
/// #         threshold: 100.0,
/// #         flagged_at: Vec::new(),
/// #         confusion: Default::default(),
/// #         f1_timeline: Vec::new(),
/// #         warmup_checkpoint: 0,
/// #     },
/// #     actions: Vec::new(),
/// # };
/// agg.observe_finalized(&report, Some(&[0, 0, 1, 1]), &[false, false, true, true]);
/// assert_eq!(agg.verdicts()[&1], NodeVerdict::Healthy); // 2 tasks < min_tasks
/// ```
pub struct HealthAggregator {
    config: HealthConfig,
    state: Mutex<AggState>,
}

impl std::fmt::Debug for HealthAggregator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HealthAggregator")
            .field("config", &self.config)
            .finish()
    }
}

impl HealthAggregator {
    /// A fresh, empty aggregator.
    #[must_use]
    pub fn new(config: HealthConfig) -> Self {
        HealthAggregator {
            config,
            state: Mutex::new(AggState::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, AggState> {
        // The keyed maps have no invariant a panicked peer can have
        // broken halfway (inserts are single-call).
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Per-node statistics for every node ever observed, node-id order.
    /// Computed on read by folding the keyed maps in sorted order — same
    /// maps ⇒ same answer, regardless of how observations interleaved.
    #[must_use]
    pub fn rates(&self) -> BTreeMap<u32, NodeStats> {
        let state = self.lock();
        let mut out: BTreeMap<u32, NodeStats> = BTreeMap::new();
        // Fold finalization tallies job-id-ascending: the EWMA weights
        // later (newer) jobs highest.
        for tallies in state.values() {
            for (&node, tally) in tallies {
                let job_rate = if tally.tasks == 0 {
                    0.0
                } else {
                    tally.stragglers as f64 / tally.tasks as f64
                };
                let entry = out.entry(node).or_insert(NodeStats {
                    tasks: 0,
                    stragglers: 0,
                    rate: job_rate,
                    verdict: NodeVerdict::Healthy,
                });
                if entry.tasks > 0 {
                    entry.rate =
                        self.config.decay * entry.rate + (1.0 - self.config.decay) * job_rate;
                }
                entry.tasks += tally.tasks;
                entry.stragglers += tally.stragglers;
            }
        }
        for stats in out.values_mut() {
            stats.verdict = self.judge(stats.tasks, stats.rate);
        }
        out
    }

    /// Every observed node's verdict, node-id order.
    #[must_use]
    pub fn verdicts(&self) -> BTreeMap<u32, NodeVerdict> {
        self.rates()
            .into_iter()
            .map(|(node, stats)| (node, stats.verdict))
            .collect()
    }

    fn judge(&self, tasks: u64, rate: f64) -> NodeVerdict {
        if tasks < self.config.min_tasks {
            NodeVerdict::Healthy
        } else if rate >= self.config.quarantine_threshold {
            NodeVerdict::Quarantine
        } else if rate >= self.config.watch_threshold {
            NodeVerdict::Watch
        } else {
            NodeVerdict::Healthy
        }
    }
}

impl HealthObserver for HealthAggregator {
    fn observe_finalized(&self, report: &JobReport, nodes: Option<&[u32]>, straggled: &[bool]) {
        let Some(nodes) = nodes else { return };
        let mut state = self.lock();
        let slot = state.entry(report.job);
        let std::collections::btree_map::Entry::Vacant(slot) = slot else {
            return; // already observed (idempotence under re-observation)
        };
        let mut tallies: BTreeMap<u32, NodeTally> = BTreeMap::new();
        for (t, &node) in nodes.iter().enumerate() {
            let tally = tallies.entry(node).or_default();
            tally.tasks += 1;
            tally.stragglers += u64::from(straggled.get(t).copied().unwrap_or(true));
        }
        slot.insert(tallies);
    }

    fn snapshot_state(&self) -> Vec<u8> {
        let state = self.lock();
        let mut enc = Encoder::new();
        enc.put_u32(BLOB_VERSION);
        state.encode(&mut enc);
        enc.into_bytes()
    }

    fn restore_state(&self, blob: &[u8]) -> bool {
        let mut dec = Decoder::new(blob);
        let ok = dec
            .take_u32()
            .ok()
            .filter(|&v| v == BLOB_VERSION)
            .and_then(|_| AggState::decode(&mut dec).ok())
            .filter(|_| dec.is_empty());
        match ok {
            Some(restored) => {
                *self.lock() = restored;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use nurd_data::TaskScore;

    fn report(job: u64) -> JobReport {
        JobReport {
            job,
            checkpoints_scored: 0,
            finalized: nurd_serve::FinalizeReason::JobEnd,
            outcome: nurd_sim::ReplayOutcome {
                threshold: 100.0,
                flagged_at: Vec::new(),
                confusion: Default::default(),
                f1_timeline: Vec::new(),
                warmup_checkpoint: 0,
            },
            actions: Vec::new(),
        }
    }

    fn agg() -> HealthAggregator {
        HealthAggregator::new(HealthConfig {
            decay: 0.5,
            watch_threshold: 0.25,
            quarantine_threshold: 0.5,
            min_tasks: 4,
        })
    }

    #[test]
    fn node_blind_jobs_are_ignored() {
        let a = agg();
        a.observe_finalized(&report(1), None, &[true, true]);
        assert!(a.rates().is_empty());
    }

    #[test]
    fn tallies_and_verdicts() {
        let a = agg();
        // Node 0: 4 tasks, 0 stragglers. Node 1: 4 tasks, all straggle.
        a.observe_finalized(
            &report(1),
            Some(&[0, 0, 1, 1, 0, 0, 1, 1]),
            &[false, false, true, true, false, false, true, true],
        );
        let rates = a.rates();
        assert_eq!(rates[&0].verdict, NodeVerdict::Healthy);
        assert_eq!(rates[&1].verdict, NodeVerdict::Quarantine);
        assert_eq!(rates[&1].tasks, 4);
        assert_eq!(rates[&1].stragglers, 4);
        assert!((rates[&1].rate - 1.0).abs() < 1e-12);
    }

    #[test]
    fn min_tasks_gates_judgement() {
        let a = agg();
        // 2 tasks on node 7, both straggle — not enough evidence.
        a.observe_finalized(&report(1), Some(&[7, 7]), &[true, true]);
        assert_eq!(a.verdicts()[&7], NodeVerdict::Healthy);
        // Two more straggling tasks clear the gate.
        a.observe_finalized(&report(2), Some(&[7, 7]), &[true, true]);
        assert_eq!(a.verdicts()[&7], NodeVerdict::Quarantine);
    }

    #[test]
    fn ewma_weights_later_jobs() {
        let a = agg();
        // Job 1: node 3 fully sick. Jobs 2, 3: fully recovered.
        a.observe_finalized(&report(1), Some(&[3; 4]), &[true; 4]);
        a.observe_finalized(&report(3), Some(&[3; 4]), &[false; 4]);
        a.observe_finalized(&report(2), Some(&[3; 4]), &[false; 4]);
        // decay 0.5: 1.0 → 0.5 → 0.25.
        let rates = a.rates();
        assert!((rates[&3].rate - 0.25).abs() < 1e-12);
        assert_eq!(rates[&3].verdict, NodeVerdict::Watch);
    }

    #[test]
    fn observation_is_idempotent_and_order_independent() {
        let a = agg();
        let b = agg();
        let nodes = [0u32, 1, 0, 1];
        let truth = [true, false, false, true];
        // a: jobs 1, 2, with job 1 re-observed (WAL-replay shape).
        a.observe_finalized(&report(1), Some(&nodes), &truth);
        a.observe_finalized(&report(2), Some(&nodes), &[false; 4]);
        a.observe_finalized(&report(1), Some(&nodes), &[true; 4]);
        // b: reverse arrival order, no duplicates.
        b.observe_finalized(&report(2), Some(&nodes), &[false; 4]);
        b.observe_finalized(&report(1), Some(&nodes), &truth);
        assert_eq!(a.rates(), b.rates());
    }

    #[test]
    fn snapshot_round_trips_and_rejects_garbage() {
        let a = agg();
        a.observe_finalized(&report(1), Some(&[0, 1, 1]), &[false, true, true]);
        let blob = a.snapshot_state();

        let fresh = agg();
        assert!(fresh.restore_state(&blob));
        assert_eq!(fresh.rates(), a.rates());

        assert!(!agg().restore_state(&[0xFF; 7]), "garbage blob rejected");
        assert!(
            !agg().restore_state(&blob[..blob.len() - 1]),
            "truncation rejected"
        );
    }

    #[test]
    fn scored_barriers_leave_the_state_unchanged() {
        let a = agg();
        a.observe_finalized(&report(1), Some(&[0, 1, 1]), &[false, true, true]);
        let before = a.snapshot_state();
        let nodes = [0u32, 1, 1];
        for ordinal in 0..64 {
            let scores: Vec<TaskScore> = (0..3)
                .map(|task| TaskScore {
                    task,
                    score: 0.1 * (ordinal + task) as f64,
                })
                .collect();
            a.observe_barrier(2, ordinal, ordinal as f64, Some(&nodes), &scores);
        }
        assert_eq!(a.snapshot_state(), before);
    }

    #[test]
    fn a_version_1_blob_is_refused_and_never_misread() {
        // Version 1: the finalized tallies, then one job's one barrier of
        // per-node score sums.
        let mut finalized = BTreeMap::new();
        finalized.insert(
            7u64,
            BTreeMap::from([(
                3u32,
                NodeTally {
                    tasks: 4,
                    stragglers: 4,
                },
            )]),
        );
        let mut enc = Encoder::new();
        enc.put_u32(1);
        finalized.encode(&mut enc);
        enc.put_usize(1); // jobs
        enc.put_u64(7);
        enc.put_usize(1); // barriers of job 7
        enc.put_u64(0);
        enc.put_usize(1); // nodes of barrier 0
        enc.put_u32(3);
        enc.put_f64(1.5);
        enc.put_u64(2);
        let v1 = enc.into_bytes();

        let a = agg();
        a.observe_finalized(&report(1), Some(&[0, 0, 0, 0]), &[false; 4]);
        let before = a.snapshot_state();
        assert!(!a.restore_state(&v1));
        assert_eq!(a.snapshot_state(), before, "a refused blob changes nothing");
        // Relabelled as the current version it is still refused: the
        // barrier section is not part of the format.
        let mut relabelled = v1.clone();
        relabelled[..4].copy_from_slice(&BLOB_VERSION.to_le_bytes());
        assert!(!a.restore_state(&relabelled));
        assert_eq!(a.snapshot_state(), before);
    }
}
