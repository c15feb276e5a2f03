//! Concrete [`MitigationPolicy`] implementations.
//!
//! Every policy here honors the determinism contract of
//! [`nurd_data::mitigation`](nurd_data::BarrierView): decisions are pure
//! functions of the barrier views seen so far, so each produces a
//! bit-identical action log at any shard count. Per-job state is a set of already-proposed tasks —
//! the engine would suppress repeats anyway, but proposing them would
//! inflate its `mitigation_suppressed` counter and hide real policy bugs.

use std::collections::{BTreeMap, BTreeSet};

use nurd_data::{BarrierView, JobTrace, MitigationAction, MitigationPolicy, TaskScore};
use nurd_health::NodeVerdict;
use nurd_serve::MitigatorFactory;

/// Clones up to `limit` of `candidates` best-first — highest score, then
/// lowest task id, so ties break the same way everywhere — recording each
/// in `proposed`.
fn clone_best_first(
    mut candidates: Vec<&TaskScore>,
    limit: Option<usize>,
    proposed: &mut BTreeSet<usize>,
) -> Vec<(usize, MitigationAction)> {
    candidates.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.task.cmp(&b.task)));
    candidates.truncate(limit.unwrap_or(usize::MAX));
    let clone = |candidate: &TaskScore| {
        proposed.insert(candidate.task);
        (candidate.task, MitigationAction::Clone)
    };
    candidates.into_iter().map(clone).collect()
}

/// The do-nothing baseline: sees every barrier, acts on none. The
/// mitigated run is identical to the unmitigated one — the anchor the
/// acceptance gates compare real policies against.
#[derive(Debug, Clone, Copy, Default)]
struct NoopPolicy;

impl MitigationPolicy for NoopPolicy {
    fn name(&self) -> &str {
        "noop"
    }

    fn decide(&mut self, _view: &BarrierView<'_>) -> Vec<(usize, MitigationAction)> {
        Vec::new()
    }
}

/// Score-threshold cloning with a per-job clone budget: every running
/// task whose normalized score reaches `score_threshold` gets one
/// [`MitigationAction::Clone`], highest scores first, until the budget
/// runs out. A threshold of `1.0` clones exactly the predictor-flagged
/// tasks; lower values act earlier (more catches, more waste).
#[derive(Debug, Clone)]
struct ThresholdClonePolicy {
    score_threshold: f64,
    budget: Option<usize>,
    proposed: BTreeSet<usize>,
}

impl ThresholdClonePolicy {
    /// A policy cloning at `score_threshold` with an optional per-job
    /// clone budget (`None` = unlimited).
    #[must_use]
    fn new(score_threshold: f64, budget: Option<usize>) -> Self {
        ThresholdClonePolicy {
            score_threshold,
            budget,
            proposed: BTreeSet::new(),
        }
    }
}

impl MitigationPolicy for ThresholdClonePolicy {
    fn name(&self) -> &str {
        "threshold-clone"
    }

    fn clone_budget(&self) -> Option<usize> {
        self.budget
    }

    fn decide(&mut self, view: &BarrierView<'_>) -> Vec<(usize, MitigationAction)> {
        let candidates = view
            .scores
            .iter()
            .filter(|s| s.score >= self.score_threshold && !self.proposed.contains(&s.task))
            .collect();
        clone_best_first(candidates, view.clones_remaining, &mut self.proposed)
    }
}

/// Clones the `k` highest-scoring **newly flagged** tasks at each
/// barrier: a rate-limited alternative to the threshold policy for
/// fleets where clone capacity per scheduling round is the scarce
/// resource rather than clones per job.
#[derive(Debug, Clone)]
struct TopKPolicy {
    k: usize,
    proposed: BTreeSet<usize>,
}

impl TopKPolicy {
    /// A policy cloning at most `k` flagged tasks per barrier.
    #[must_use]
    fn new(k: usize) -> Self {
        TopKPolicy {
            k,
            proposed: BTreeSet::new(),
        }
    }
}

impl MitigationPolicy for TopKPolicy {
    fn name(&self) -> &str {
        "top-k"
    }

    fn decide(&mut self, view: &BarrierView<'_>) -> Vec<(usize, MitigationAction)> {
        let flagged: BTreeSet<usize> = view.flagged.iter().copied().collect();
        let candidates = view
            .scores
            .iter()
            .filter(|s| flagged.contains(&s.task) && !self.proposed.contains(&s.task))
            .collect();
        clone_best_first(candidates, Some(self.k), &mut self.proposed)
    }
}

/// Two-sided threshold cloning: clone **immediately** at `hi`, and clone
/// out of the dead band `[lo, hi)` only after a task has *lingered* there
/// for `patience` consecutive scored barriers (a score below `lo` resets
/// the streak). The single-threshold policy faces a bad trade: a high
/// threshold misses the slow-burn stragglers whose scores hover just
/// below it until far too late, while lowering it clones every transient
/// spike. The dead band splits the difference — spikes above `hi` still
/// get instant clones, hoverers get caught after `patience` barriers of
/// sustained evidence, and noise below `lo` is ignored — which is why a
/// calibrated band can beat the best single threshold at comparable
/// waste.
#[derive(Debug, Clone)]
struct BandedClonePolicy {
    hi: f64,
    lo: f64,
    patience: usize,
    budget: Option<usize>,
    streaks: BTreeMap<usize, usize>,
    proposed: BTreeSet<usize>,
}

impl BandedClonePolicy {
    /// A banded policy cloning instantly at `hi`, after `patience`
    /// consecutive in-band barriers for scores in `[lo, hi)`, never below
    /// `lo`, with an optional per-job clone budget.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` — the band would be empty in a way that makes
    /// every knob a lie; use [`ThresholdClonePolicy`] instead.
    #[must_use]
    fn new(hi: f64, lo: f64, patience: usize, budget: Option<usize>) -> Self {
        assert!(lo <= hi, "banded policy needs lo <= hi");
        BandedClonePolicy {
            hi,
            lo,
            patience: patience.max(1),
            budget,
            streaks: BTreeMap::new(),
            proposed: BTreeSet::new(),
        }
    }
}

impl MitigationPolicy for BandedClonePolicy {
    fn name(&self) -> &str {
        "banded-clone"
    }

    fn clone_budget(&self) -> Option<usize> {
        self.budget
    }

    fn decide(&mut self, view: &BarrierView<'_>) -> Vec<(usize, MitigationAction)> {
        let mut candidates = Vec::new();
        for s in view.scores {
            if self.proposed.contains(&s.task) {
                continue;
            }
            if s.score >= self.hi {
                candidates.push(s);
            } else if s.score >= self.lo {
                let streak = self.streaks.entry(s.task).or_insert(0);
                *streak += 1;
                if *streak >= self.patience {
                    candidates.push(s);
                }
            } else {
                self.streaks.remove(&s.task);
            }
        }
        // The budget is spent exactly as the single-threshold policy
        // spends it, so the comparison is purely about the band.
        let actions = clone_best_first(candidates, view.clones_remaining, &mut self.proposed);
        for (task, _) in &actions {
            self.streaks.remove(task);
        }
        actions
    }
}

/// Node-health-aware mitigation: tasks placed on a
/// [`NodeVerdict::Quarantine`] node are **quarantined** (evicted and
/// restarted on a healthy machine — the simulator's clock restart) at
/// the first scored barrier they appear in, score unseen; tasks on
/// [`NodeVerdict::Watch`] nodes clone at the lowered `watch_threshold`;
/// everything else behaves like [`ThresholdClonePolicy`] at
/// `score_threshold`.
///
/// The verdict map is **frozen at construction** (capture it from
/// [`nurd_health::HealthAggregator::verdicts`] between harness passes,
/// as [`crate::run_node_fleet`] does) rather than read live: a live read
/// would make decisions depend on how far *other* jobs' observations had
/// progressed — scheduling order — and break the bit-identical action
/// log across shard counts. Jobs without a node placement fall back to
/// pure threshold cloning.
#[derive(Debug, Clone)]
struct NodeAwarePolicy {
    verdicts: BTreeMap<u32, NodeVerdict>,
    score_threshold: f64,
    watch_threshold: f64,
    budget: Option<usize>,
    proposed: BTreeSet<usize>,
}

impl NodeAwarePolicy {
    /// A node-aware policy over a frozen verdict map: quarantine
    /// `Quarantine`-node tasks on sight, clone `Watch`-node tasks at
    /// `watch_threshold`, everyone else at `score_threshold`, with an
    /// optional per-job clone budget (quarantines are not clones and do
    /// not consume it).
    #[must_use]
    fn new(
        verdicts: BTreeMap<u32, NodeVerdict>,
        score_threshold: f64,
        watch_threshold: f64,
        budget: Option<usize>,
    ) -> Self {
        NodeAwarePolicy {
            verdicts,
            score_threshold,
            watch_threshold,
            budget,
            proposed: BTreeSet::new(),
        }
    }

    fn verdict_for(&self, nodes: Option<&[u32]>, task: usize) -> NodeVerdict {
        nodes
            .and_then(|nodes| nodes.get(task))
            .and_then(|node| self.verdicts.get(node).copied())
            .unwrap_or(NodeVerdict::Healthy)
    }
}

impl MitigationPolicy for NodeAwarePolicy {
    fn name(&self) -> &str {
        "node-aware"
    }

    fn clone_budget(&self) -> Option<usize> {
        self.budget
    }

    fn decide(&mut self, view: &BarrierView<'_>) -> Vec<(usize, MitigationAction)> {
        let mut actions = Vec::new();
        // Quarantined machines first: evict on sight, no score needed —
        // the node itself is the evidence.
        for s in view.scores {
            if !self.proposed.contains(&s.task)
                && self.verdict_for(view.nodes, s.task) == NodeVerdict::Quarantine
            {
                self.proposed.insert(s.task);
                actions.push((s.task, MitigationAction::Quarantine));
            }
        }
        // Everyone else: threshold cloning, with the watch discount.
        let candidates = view
            .scores
            .iter()
            .filter(|s| {
                !self.proposed.contains(&s.task)
                    && s.score
                        >= match self.verdict_for(view.nodes, s.task) {
                            NodeVerdict::Watch => self.watch_threshold,
                            _ => self.score_threshold,
                        }
            })
            .collect();
        actions.extend(clone_best_first(
            candidates,
            view.clones_remaining,
            &mut self.proposed,
        ));
        actions
    }
}

/// The upper-bound baseline: knows each job's ground-truth stragglers
/// and clones exactly those, at the first barrier where each appears in
/// the scored view. Clone-only, so `JCT(oracle) ≤ JCT(no-mitigation)`
/// holds **structurally** (the simulator's `min(original, clone)` race
/// rule) — the gap between the oracle and a learned policy is the room
/// the predictor leaves on the table.
#[derive(Debug, Clone)]
struct OraclePolicy {
    stragglers: BTreeSet<usize>,
    proposed: BTreeSet<usize>,
}

impl OraclePolicy {
    /// An oracle for a job whose true stragglers are `stragglers`.
    #[must_use]
    fn new(stragglers: impl IntoIterator<Item = usize>) -> Self {
        OraclePolicy {
            stragglers: stragglers.into_iter().collect(),
            proposed: BTreeSet::new(),
        }
    }
}

impl MitigationPolicy for OraclePolicy {
    fn name(&self) -> &str {
        "oracle"
    }

    fn decide(&mut self, view: &BarrierView<'_>) -> Vec<(usize, MitigationAction)> {
        let mut actions = Vec::new();
        for s in view.scores {
            if self.stragglers.contains(&s.task) && self.proposed.insert(s.task) {
                actions.push((s.task, MitigationAction::Clone));
            }
        }
        actions
    }
}

/// The do-nothing baseline in factory form, for wiring into
/// [`nurd_serve::EngineService::attach_mitigator`]: every job's policy
/// sees every barrier and acts on none.
#[must_use]
pub fn noop_mitigator() -> MitigatorFactory {
    Box::new(|_spec| Box::new(NoopPolicy))
}

/// Factory giving every job a score-threshold cloning policy: every
/// running task whose normalized score reaches `score_threshold` gets one
/// [`MitigationAction::Clone`], highest scores first, until the per-job
/// `budget` (`None` = unlimited) runs out. A threshold of `1.0` clones
/// exactly the predictor-flagged tasks.
#[must_use]
pub fn threshold_mitigator(score_threshold: f64, budget: Option<usize>) -> MitigatorFactory {
    Box::new(move |_spec| Box::new(ThresholdClonePolicy::new(score_threshold, budget)))
}

/// Factory giving every job a policy cloning at most `k` newly flagged
/// tasks per barrier, highest scores first.
#[must_use]
pub fn topk_mitigator(k: usize) -> MitigatorFactory {
    Box::new(move |_spec| Box::new(TopKPolicy::new(k)))
}

/// Factory giving every job a two-sided threshold policy: clone
/// immediately at `hi`, clone out of the dead band `[lo, hi)` only after
/// `patience` consecutive scored barriers there (a score below `lo`
/// resets the streak), never below `lo`, within the per-job `budget`.
///
/// # Panics
///
/// The policy panics at its first job if `lo > hi`.
#[must_use]
pub fn banded_mitigator(
    hi: f64,
    lo: f64,
    patience: usize,
    budget: Option<usize>,
) -> MitigatorFactory {
    Box::new(move |_spec| Box::new(BandedClonePolicy::new(hi, lo, patience, budget)))
}

/// Factory giving every job a [`NodeAwarePolicy`] over one shared frozen
/// verdict map (cloned per job).
#[must_use]
pub(crate) fn node_aware_mitigator(
    verdicts: BTreeMap<u32, NodeVerdict>,
    score_threshold: f64,
    watch_threshold: f64,
    budget: Option<usize>,
) -> MitigatorFactory {
    Box::new(move |_spec| {
        Box::new(NodeAwarePolicy::new(
            verdicts.clone(),
            score_threshold,
            watch_threshold,
            budget,
        ))
    })
}

/// Factory giving every job an oracle built from the fleet's ground
/// truth at `quantile`: it clones exactly the job's true stragglers, each
/// at the first barrier it appears in the scored view — the upper bound.
/// Jobs not in `jobs` (never the case in the harness) get an oracle with
/// no stragglers, i.e. a no-op.
#[must_use]
pub fn oracle_mitigator(jobs: &[JobTrace], quantile: f64) -> MitigatorFactory {
    let labels: BTreeMap<u64, Vec<usize>> = jobs
        .iter()
        .map(|job| {
            (
                job.job_id(),
                job.true_stragglers(job.straggler_threshold(quantile)),
            )
        })
        .collect();
    Box::new(move |spec| {
        Box::new(OraclePolicy::new(
            labels.get(&spec.job).cloned().unwrap_or_default(),
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nurd_data::TaskScore;

    fn view<'a>(
        scores: &'a [TaskScore],
        flagged: &'a [usize],
        clones_remaining: Option<usize>,
    ) -> BarrierView<'a> {
        BarrierView {
            job: 1,
            ordinal: 0,
            time: 10.0,
            threshold: 100.0,
            scores,
            flagged,
            clones_remaining,
            nodes: None,
        }
    }

    #[test]
    fn noop_never_acts() {
        let scores = [TaskScore {
            task: 0,
            score: 99.0,
        }];
        assert!(NoopPolicy.decide(&view(&scores, &[0], None)).is_empty());
    }

    #[test]
    fn threshold_policy_clones_best_first_within_budget() {
        let scores = [
            TaskScore {
                task: 0,
                score: 1.2,
            },
            TaskScore {
                task: 1,
                score: 3.0,
            },
            TaskScore {
                task: 2,
                score: 0.4,
            },
        ];
        let mut policy = ThresholdClonePolicy::new(1.0, Some(1));
        let actions = policy.decide(&view(&scores, &[0, 1], Some(1)));
        // Budget 1 goes to the highest score (task 1), not task 0.
        assert_eq!(actions, vec![(1, MitigationAction::Clone)]);
        // Next barrier: budget exhausted, nothing proposed.
        assert!(policy.decide(&view(&scores, &[], Some(0))).is_empty());
    }

    #[test]
    fn threshold_policy_never_reproposes_a_task() {
        let scores = [TaskScore {
            task: 5,
            score: 2.0,
        }];
        let mut policy = ThresholdClonePolicy::new(1.0, None);
        assert_eq!(policy.decide(&view(&scores, &[5], None)).len(), 1);
        assert!(policy.decide(&view(&scores, &[5], None)).is_empty());
    }

    #[test]
    fn topk_takes_k_newly_flagged_by_score() {
        let scores = [
            TaskScore {
                task: 0,
                score: 1.1,
            },
            TaskScore {
                task: 1,
                score: 1.5,
            },
            TaskScore {
                task: 2,
                score: 1.3,
            },
            TaskScore {
                task: 3,
                score: 9.0, // not flagged this barrier → not a candidate
            },
        ];
        let mut policy = TopKPolicy::new(2);
        let actions = policy.decide(&view(&scores, &[0, 1, 2], None));
        assert_eq!(
            actions,
            vec![(1, MitigationAction::Clone), (2, MitigationAction::Clone),]
        );
    }

    fn view_on_nodes<'a>(scores: &'a [TaskScore], nodes: &'a [u32]) -> BarrierView<'a> {
        BarrierView {
            nodes: Some(nodes),
            ..view(scores, &[], None)
        }
    }

    #[test]
    fn banded_clones_instantly_above_hi_and_never_below_lo() {
        let scores = [
            TaskScore {
                task: 0,
                score: 1.3,
            }, // above hi → instant
            TaskScore {
                task: 1,
                score: 0.3,
            }, // below lo → never
        ];
        let mut policy = BandedClonePolicy::new(1.0, 0.5, 2, None);
        assert_eq!(
            policy.decide(&view(&scores, &[], None)),
            vec![(0, MitigationAction::Clone)]
        );
        // Task 1 stays below lo forever: no streak, no clone.
        for _ in 0..5 {
            assert!(policy.decide(&view(&scores, &[], None)).is_empty());
        }
    }

    #[test]
    fn banded_catches_hoverers_after_patience() {
        let hover = [TaskScore {
            task: 4,
            score: 0.7,
        }];
        let mut policy = BandedClonePolicy::new(1.0, 0.5, 3, None);
        assert!(policy.decide(&view(&hover, &[], None)).is_empty());
        assert!(policy.decide(&view(&hover, &[], None)).is_empty());
        // Third consecutive in-band barrier: patience reached.
        assert_eq!(
            policy.decide(&view(&hover, &[], None)),
            vec![(4, MitigationAction::Clone)]
        );
    }

    #[test]
    fn banded_streak_resets_below_lo() {
        let hover = [TaskScore {
            task: 9,
            score: 0.8,
        }];
        let dip = [TaskScore {
            task: 9,
            score: 0.1,
        }];
        let mut policy = BandedClonePolicy::new(1.0, 0.5, 2, None);
        assert!(policy.decide(&view(&hover, &[], None)).is_empty());
        assert!(policy.decide(&view(&dip, &[], None)).is_empty()); // reset
        assert!(policy.decide(&view(&hover, &[], None)).is_empty()); // streak 1 again
        assert_eq!(policy.decide(&view(&hover, &[], None)).len(), 1);
    }

    #[test]
    fn node_aware_quarantines_sick_node_on_sight() {
        let scores = [
            TaskScore {
                task: 0,
                score: 0.1,
            }, // node 5 (quarantined): evicted, score unseen
            TaskScore {
                task: 1,
                score: 1.4,
            }, // node 2 (healthy): plain threshold clone
            TaskScore {
                task: 2,
                score: 0.1,
            }, // node 2: below threshold
        ];
        let verdicts = BTreeMap::from([(5, NodeVerdict::Quarantine), (2, NodeVerdict::Healthy)]);
        let mut policy = NodeAwarePolicy::new(verdicts, 1.0, 0.6, None);
        let actions = policy.decide(&view_on_nodes(&scores, &[5, 2, 2]));
        assert_eq!(
            actions,
            vec![
                (0, MitigationAction::Quarantine),
                (1, MitigationAction::Clone),
            ]
        );
        // Nothing is ever re-proposed.
        assert!(policy
            .decide(&view_on_nodes(&scores, &[5, 2, 2]))
            .is_empty());
    }

    #[test]
    fn node_aware_watch_nodes_clone_at_the_discount() {
        let scores = [
            TaskScore {
                task: 0,
                score: 0.7,
            }, // watch node: 0.7 >= 0.6
            TaskScore {
                task: 1,
                score: 0.7,
            }, // healthy node: 0.7 < 1.0
        ];
        let verdicts = BTreeMap::from([(3, NodeVerdict::Watch)]);
        let mut policy = NodeAwarePolicy::new(verdicts, 1.0, 0.6, None);
        assert_eq!(
            policy.decide(&view_on_nodes(&scores, &[3, 8])),
            vec![(0, MitigationAction::Clone)]
        );
    }

    #[test]
    fn node_aware_without_placement_is_pure_threshold() {
        let scores = [TaskScore {
            task: 0,
            score: 1.2,
        }];
        let verdicts = BTreeMap::from([(0, NodeVerdict::Quarantine)]);
        let mut policy = NodeAwarePolicy::new(verdicts, 1.0, 0.6, None);
        // No `nodes` in the view: the verdict map cannot apply.
        assert_eq!(
            policy.decide(&view(&scores, &[], None)),
            vec![(0, MitigationAction::Clone)]
        );
    }

    #[test]
    fn oracle_clones_exactly_its_labels() {
        let scores = [
            TaskScore {
                task: 0,
                score: 0.1,
            },
            TaskScore {
                task: 7,
                score: 0.2, // low score — the oracle doesn't care
            },
        ];
        let mut policy = OraclePolicy::new([7, 9]);
        let actions = policy.decide(&view(&scores, &[], None));
        assert_eq!(actions, vec![(7, MitigationAction::Clone)]);
        // Task 9 never appeared in a view; task 7 is never re-proposed.
        assert!(policy.decide(&view(&scores, &[], None)).is_empty());
    }
}
