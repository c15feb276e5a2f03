//! Golden bit-identity of the refit path: a fixed small fleet replayed
//! sequentially under both refit policies must hash to constants recorded
//! **on the commit before the pooled `TreeGrower`** replaced the per-tree
//! histogram builder in `nurd-ml` (PR 13). The constants therefore predate
//! the grower: they pin every later change to tree growth, boosting or the
//! warm-refit state machine to the models that builder produced, bit for
//! bit — a changed split, leaf weight or verdict anywhere moves a hash.
//!
//! Those two hashes see verdicts. A third, over the bits of every score
//! the warm fleet produces, was recorded before the propensity refit's
//! IRLS was rewritten around cached points (PR 15) and pins `g_t`'s
//! coefficients to the last bit as well.
//!
//! Two more hold the baselines that share NURD's refit machinery — GBTR
//! and the transfer predictor under `AlwaysCold` — to what they computed
//! while each still fit its head through its own `fit_view` arm, before
//! PR 16 folded both into `WarmRefitState`.
//! The transfer constant also held when NURD-TL stopped being a predictor
//! of its own and became a `NurdPredictor` with a donor prior.
//!
//! The last constant pins the closed mitigation and node-health loops —
//! `run_fleet` and `run_node_fleet`, reports to verdicts — to what they
//! produced while the harness still served through the caller-driven
//! `Engine` (`push_all_sync` + `finish`), before PR 20 deleted that type and
//! moved the harness onto `EngineService`.
//!
//! `GOLDEN_REGISTRY` holds all 24 Table 3 rows — every baseline's fit and
//! flag rule — to what they replayed while Tobit, Grabit, CoxPH,
//! the outlier detectors, XGBOD, PU-EN and PU-BG were still seven
//! `OnlinePredictor` impls, before they became one adapter.
//!
//! # Re-recording a constant
//!
//! A constant that moves means "explain", not "forbidden". A PR that
//! changes a wire format or the model **on purpose** re-records the
//! constants it moves once, in the commit that makes the change, and adds
//! an entry to the log below naming (1) the parent commit the old values
//! held on, (2) which constants moved, and (3) which test, *unmodified by
//! that PR*, proves that behaviour did not move with them — or, for a
//! change of the model itself, the quality delta that justifies it. Every
//! constant not named stays untouched; a constant that moves without an
//! entry is a regression.
//!
//! * **Snapshot v5** (parent `268d973`): `GOLDEN_BLOB_BYTES_ALWAYS_COLD` and
//!   `GOLDEN_BLOB_BYTES_WARM` moved — a predictor blob carries its
//!   quantization's codes and no bin table (7.9 → 3.5 MB cold, 9.3 →
//!   5.0 MB warm over the same 2 × 98 blobs). Behaviour held by: the six
//!   other constants, unmodified; `snapshot_bytes_hash` itself, which
//!   restores every blob it hashes, has the restored predictor write the
//!   same bytes back and score the next checkpoint bit for bit like the
//!   live one; and, untouched, `crates/core/tests/predictor_snapshot.rs`,
//!   `crates/serve/tests/recovery.rs` and the restore leg of
//!   `tests/hot_path_equivalence.rs`.
//! * **IRLS resolution stop** (parent `f105cfc`): `GOLDEN_WARM_SCORE_BITS`,
//!   `GOLDEN_BLOB_BYTES_ALWAYS_COLD` and `GOLDEN_BLOB_BYTES_WARM` moved —
//!   `g_t`'s Newton loop returns before line-searching a step whose
//!   predicted ascent is under `4·ε·|f|`, so its coefficients are an
//!   earlier iterate of the same run (≤ 2.9e-7 apart in standardized
//!   space) and every propensity, weight and `g_t` blob moves in its last
//!   bits; blob lengths did not change (3,505,098 / 5,024,718 B).
//!   Behaviour held by: the five verdict-bearing constants, unmodified;
//!   `prop_irls_bit_identical_to_reference` and
//!   `prop_resolution_stop_is_a_prefix_of_the_full_search` in
//!   `crates/ml/src/logistic.rs`. Quality delta: none — `macro_f1` equal
//!   on all four benchmark workloads and `repro table3_accuracy --jobs 30`
//!   byte-identical to the parent's. The `snap-1.bin` row of
//!   `crates/serve/tests/disk_bytes.rs` moved with them.
//!
//! The fleet covers both bin regimes of the histogram path: Google-style
//! jobs (~100 tasks, node model on) keep every feature under 256 distinct
//! values, so each value is its own bin; Alibaba-style jobs of ≥ 600 tasks
//! push the continuous features past 256 distinct values into quantile
//! bins.

use nurd::baselines::GbtrPredictor;
use nurd::core::{
    AdjustedPrediction, DonorModel, NurdConfig, NurdPredictor, RefitPolicy, WarmRefitConfig,
};
use nurd::data::{
    ActionRecord, Checkpoint, FinishedTask, JobTrace, OnlinePredictor, RunningTask, StreamContext,
};
use nurd::mitigate::{
    oracle_mitigator, run_fleet, run_node_fleet, threshold_mitigator, FleetConfig, FleetRun,
    NodeFleetConfig,
};
use nurd::sim::{replay_job, ReplayConfig, ReplayOutcome};
use nurd::trace::{NodeModelConfig, SuiteConfig, TraceStyle};

const REPLAY: ReplayConfig = ReplayConfig {
    quantile: 0.9,
    warmup_fraction: 0.04,
};

fn fleet() -> Vec<JobTrace> {
    let google = SuiteConfig::new(TraceStyle::Google)
        .with_jobs(6)
        .with_task_range(100, 140)
        .with_checkpoints(12)
        .with_seed(0x601D)
        .with_node_model(NodeModelConfig::default());
    let alibaba = SuiteConfig::new(TraceStyle::Alibaba)
        .with_jobs(2)
        .with_task_range(600, 700)
        .with_checkpoints(16)
        .with_seed(0xA11B);
    let mut jobs = nurd::trace::generate_suite(&google);
    jobs.extend(nurd::trace::generate_suite(&alibaba));
    jobs
}

/// FNV-1a over every field of the outcome, floats by bit pattern.
fn fold(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn hash_outcome(hash: &mut u64, outcome: &ReplayOutcome) {
    fold(hash, outcome.threshold.to_bits());
    fold(hash, outcome.flagged_at.len() as u64);
    for flagged in &outcome.flagged_at {
        fold(hash, flagged.map_or(u64::MAX, |ordinal| ordinal as u64));
    }
    let c = &outcome.confusion;
    for count in [
        c.true_positives,
        c.false_positives,
        c.false_negatives,
        c.true_negatives,
    ] {
        fold(hash, count as u64);
    }
    fold(hash, outcome.f1_timeline.len() as u64);
    for f1 in &outcome.f1_timeline {
        fold(hash, f1.to_bits());
    }
    fold(hash, outcome.warmup_checkpoint as u64);
}

/// Hash of every replay outcome of `jobs` under a predictor built per job
/// by `make`, and how many tasks were flagged.
fn outcome_hash(
    jobs: &[JobTrace],
    make: impl Fn(&JobTrace) -> Box<dyn OnlinePredictor>,
) -> (u64, usize) {
    let mut hash = 0xCBF2_9CE4_8422_2325;
    let mut flagged = 0;
    for job in jobs {
        let outcome = replay_job(job, make(job).as_mut(), &REPLAY);
        flagged += outcome.flagged_ids().len();
        hash_outcome(&mut hash, &outcome);
    }
    (hash, flagged)
}

fn fleet_hash(jobs: &[JobTrace], policy: &RefitPolicy) -> (u64, usize) {
    outcome_hash(jobs, |_| {
        Box::new(NurdPredictor::new(
            NurdConfig::default().with_refit_policy(policy.clone()),
        ))
    })
}

#[test]
fn replay_outcomes_match_the_pre_grower_constants() {
    let jobs = fleet();
    assert_eq!(jobs.len(), 8);
    assert!(jobs[6..].iter().all(|j| j.task_count() >= 600));

    let (cold, cold_flagged) = fleet_hash(&jobs, &RefitPolicy::AlwaysCold);
    let (warm, warm_flagged) = fleet_hash(&jobs, &RefitPolicy::Warm(WarmRefitConfig::default()));
    // A fleet on which nothing flags would make the hashes vacuous.
    assert!(cold_flagged > 0 && warm_flagged > 0);
    assert_eq!(
        (cold, warm),
        (GOLDEN_ALWAYS_COLD, GOLDEN_WARM),
        "ReplayOutcome hashes moved: cold {cold:#018x}, warm {warm:#018x}"
    );
}

/// Checkpoint `k` of `job` with every task visible (no flagged-task
/// exclusion): finished iff its latency has elapsed.
fn full_checkpoint(job: &JobTrace, k: usize) -> Checkpoint<'_> {
    let time = job.checkpoint_times()[k];
    let (finished, running): (Vec<_>, Vec<_>) =
        job.tasks().iter().partition(|task| task.latency() <= time);
    Checkpoint {
        ordinal: k,
        time,
        finished: finished
            .iter()
            .map(|task| FinishedTask {
                id: task.id(),
                features: task.snapshot(k),
                latency: task.latency(),
            })
            .collect(),
        running: running
            .iter()
            .map(|task| RunningTask {
                id: task.id(),
                features: task.snapshot(k),
            })
            .collect(),
    }
}

/// FNV-1a over the bits of every score `score_running` produces at every
/// post-warmup checkpoint of the fleet under `Warm(default)`: the latency
/// head's raw prediction, the propensity `g_t(x)` and their quotient. The
/// outcome hashes above see verdicts only, so low-bit drift in a refit
/// that flips no flag would pass them; this one moves with the last bit
/// of any coefficient that changes a score.
fn score_bits_hash(jobs: &[JobTrace]) -> (u64, usize) {
    let mut hash = 0xCBF2_9CE4_8422_2325;
    let mut scored = 0;
    for job in jobs {
        let policy = RefitPolicy::Warm(WarmRefitConfig::default());
        let mut predictor = NurdPredictor::new(NurdConfig::default().with_refit_policy(policy));
        predictor.begin_stream(&StreamContext {
            threshold: job.straggler_threshold(REPLAY.quantile),
            task_count: job.task_count(),
            feature_dim: job.feature_dim(),
        });
        for k in job.warmup_checkpoint(REPLAY.warmup_fraction)..job.checkpoint_count() {
            let scores = predictor.score_running(&full_checkpoint(job, k));
            fold(&mut hash, scores.len() as u64);
            for score in &scores {
                fold(&mut hash, score.raw.to_bits());
                fold(&mut hash, score.propensity.to_bits());
                fold(&mut hash, score.adjusted.to_bits());
            }
            scored += scores.len();
        }
    }
    (hash, scored)
}

/// GBTR cannot flag under the replay protocol (its predictions stay inside
/// the hull of finished latencies, all below `τ_stra` while checkpoints
/// are served), so its replay outcomes are blind to its model. This hash
/// drives it directly instead: every checkpoint of every job, all tasks
/// visible, at three thresholds low enough for finished latencies to
/// straddle them; a changed prediction near any of them moves a flag set.
fn gbtr_flag_hash(jobs: &[JobTrace]) -> (u64, usize) {
    let mut hash = 0xCBF2_9CE4_8422_2325;
    let mut flagged = 0;
    for job in jobs {
        for quantile in [0.25, 0.5, 0.75] {
            let mut predictor = GbtrPredictor::default();
            predictor.begin_stream(&StreamContext {
                threshold: job.straggler_threshold(quantile),
                task_count: job.task_count(),
                feature_dim: job.feature_dim(),
            });
            for k in job.warmup_checkpoint(REPLAY.warmup_fraction)..job.checkpoint_count() {
                let ids = predictor.predict(&full_checkpoint(job, k));
                fold(&mut hash, ids.len() as u64);
                for &id in &ids {
                    fold(&mut hash, id as u64);
                }
                flagged += ids.len();
            }
        }
    }
    (hash, flagged)
}

#[test]
fn gbtr_and_transfer_always_cold_match_the_pre_fold_constants() {
    let jobs = fleet();
    let (gbtr, gbtr_flagged) = gbtr_flag_hash(&jobs);
    // The donor is a Google-style job, so only Google-style targets share
    // its feature width.
    let donor = DonorModel::from_job(&jobs[0], &NurdConfig::default()).unwrap();
    let (transfer, transfer_flagged) = outcome_hash(&jobs[1..6], |_| {
        Box::new(NurdPredictor::with_prior(
            NurdConfig::default(),
            donor.clone(),
        ))
    });
    assert!(
        gbtr_flagged > 100 && transfer_flagged > 0,
        "flagged: GBTR {gbtr_flagged}, transfer {transfer_flagged}"
    );
    assert_eq!(
        (gbtr, transfer),
        (GOLDEN_GBTR_ALWAYS_COLD, GOLDEN_TRANSFER_ALWAYS_COLD),
        "hashes moved: GBTR {gbtr:#018x}, transfer {transfer:#018x}"
    );
}

#[test]
fn score_bits_match_the_pre_point_cache_constant() {
    let (hash, scored) = score_bits_hash(&fleet());
    // Every job must contribute scores, or the hash pins nothing.
    assert!(scored > 1000, "only {scored} scores hashed");
    assert_eq!(
        hash, GOLDEN_WARM_SCORE_BITS,
        "score bits moved: {hash:#018x} over {scored} scores"
    );
}

/// Every float of every score, by bit pattern (`==` would let NaNs differ).
fn score_bits(scores: &[AdjustedPrediction]) -> Vec<[u64; 4]> {
    let row =
        |s: &AdjustedPrediction| [s.raw, s.propensity, s.weight, s.adjusted].map(f64::to_bits);
    scores.iter().map(row).collect()
}

/// FNV-1a over the bytes of `NurdPredictor::snapshot_state()` taken after
/// every post-warmup `score_running` of the fleet under `policy`, with the
/// number of blobs and bytes hashed. The blob holds the whole latency head
/// — every node of every tree with its bin code, the training rows, the
/// quantization's codes, the score cache — so where the other constants
/// see what the model *computes*, this one sees what it *is*: a grower
/// that emitted one node differently, or a codec that wrote one byte
/// differently, moves it even when no score changes.
///
/// Each blob is also put to use, which is what licenses re-recording the
/// hash when the format changes on purpose: a fresh predictor restored
/// from it writes the same bytes back, and scores the job's next
/// checkpoint — a refit on top of the restored state — bit for bit as the
/// predictor that never stopped.
fn snapshot_bytes_hash(jobs: &[JobTrace], policy: &RefitPolicy) -> (u64, usize, usize) {
    let mut hash = 0xCBF2_9CE4_8422_2325_u64;
    let (mut blobs, mut bytes) = (0, 0);
    for job in jobs {
        let begin = || {
            let config = NurdConfig::default().with_refit_policy(policy.clone());
            let mut predictor = NurdPredictor::new(config);
            predictor.begin_stream(&StreamContext {
                threshold: job.straggler_threshold(REPLAY.quantile),
                task_count: job.task_count(),
                feature_dim: job.feature_dim(),
            });
            predictor
        };
        let mut predictor = begin();
        let mut restarted: Option<NurdPredictor> = None;
        for k in job.warmup_checkpoint(REPLAY.warmup_fraction)..job.checkpoint_count() {
            let checkpoint = full_checkpoint(job, k);
            let scores = predictor.score_running(&checkpoint);
            if let Some(mut restarted) = restarted.take() {
                assert_eq!(
                    score_bits(&restarted.score_running(&checkpoint)),
                    score_bits(&scores),
                    "a predictor restored at checkpoint {} diverged at {k}",
                    k - 1
                );
            }
            let blob = predictor
                .snapshot_state()
                .expect("NURD snapshots its state");
            let mut restored = begin();
            assert!(restored.restore_state(&blob), "its own bytes restore");
            assert_eq!(restored.snapshot_state().as_ref(), Some(&blob));
            restarted = Some(restored);
            fold(&mut hash, blob.len() as u64);
            for &byte in &blob {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
            blobs += 1;
            bytes += blob.len();
        }
    }
    (hash, blobs, bytes)
}

#[test]
fn predictor_blobs_match_the_pre_flat_ensemble_constants() {
    let jobs = fleet();
    let (cold, cold_blobs, cold_bytes) = snapshot_bytes_hash(&jobs, &RefitPolicy::AlwaysCold);
    let (warm, warm_blobs, warm_bytes) =
        snapshot_bytes_hash(&jobs, &RefitPolicy::Warm(WarmRefitConfig::default()));
    // Blobs without a fitted ensemble in them would pin nothing.
    assert_eq!((cold_blobs, warm_blobs), (98, 98));
    assert!(
        cold_bytes > 3_000_000 && warm_bytes > cold_bytes,
        "bytes hashed: cold {cold_bytes}, warm {warm_bytes}"
    );
    assert_eq!(
        (cold, warm),
        (GOLDEN_BLOB_BYTES_ALWAYS_COLD, GOLDEN_BLOB_BYTES_WARM),
        "predictor blob bytes moved: cold {cold:#018x} over {cold_bytes} B, \
         warm {warm:#018x} over {warm_bytes} B"
    );
}

/// A Google-style and an Alibaba-style job, small enough that every
/// registry row — the quadratic outlier detectors included — replays both
/// in debug in a few seconds.
fn registry_fleet() -> Vec<JobTrace> {
    let google = SuiteConfig::new(TraceStyle::Google)
        .with_jobs(1)
        .with_task_range(60, 80)
        .with_checkpoints(10)
        .with_seed(0x6E61);
    let alibaba = SuiteConfig::new(TraceStyle::Alibaba)
        .with_jobs(1)
        .with_task_range(60, 80)
        .with_checkpoints(10)
        .with_seed(0xA11C);
    let mut jobs = nurd::trace::generate_suite(&google);
    jobs.extend(nurd::trace::generate_suite(&alibaba));
    jobs
}

#[test]
fn every_registry_row_matches_the_pre_adapter_fold_constant() {
    let jobs = registry_fleet();
    let mut hash = 0xCBF2_9CE4_8422_2325;
    let mut flagging_rows = 0;
    for spec in nurd::baselines::registry() {
        let (row, flagged) = outcome_hash(&jobs, |job| spec.build(job));
        fold(&mut hash, row);
        flagging_rows += usize::from(flagged > 0);
    }
    // Rows that flag nothing pin nothing but their guard.
    assert!(flagging_rows >= 20, "{flagging_rows} rows flagged a task");
    assert_eq!(
        hash, GOLDEN_REGISTRY,
        "registry outcomes moved: {hash:#018x}"
    );
}

/// Folds everything one closed-loop pass hands its caller: the engine's
/// reports, the canonical action log and the simulator's outcomes
/// (`summary` is a pure function of the outcomes).
fn hash_fleet_run(hash: &mut u64, run: &FleetRun) {
    let hash_actions = |hash: &mut u64, actions: &[ActionRecord]| {
        fold(hash, actions.len() as u64);
        for a in actions {
            for word in [
                a.job,
                a.ordinal as u64,
                a.time.to_bits(),
                a.task as u64,
                a.action as u64,
            ] {
                fold(hash, word);
            }
        }
    };
    fold(hash, run.reports.len() as u64);
    for report in &run.reports {
        fold(hash, report.job);
        fold(hash, report.checkpoints_scored as u64);
        fold(hash, report.finalized as u64);
        hash_outcome(hash, &report.outcome);
        hash_actions(hash, &report.actions);
    }
    hash_actions(hash, &run.action_log);
    fold(hash, run.outcomes.len() as u64);
    for o in &run.outcomes {
        fold(hash, o.job);
        for time in [o.jct_baseline, o.jct_mitigated, o.wasted_work, o.total_work] {
            fold(hash, time.to_bits());
        }
        fold(hash, o.completions.len() as u64);
        for c in &o.completions {
            fold(hash, c.task as u64);
            fold(hash, c.time.to_bits());
            fold(hash, u64::from(c.via_mitigation));
        }
        for count in [
            o.clones_issued,
            o.clones_won,
            o.clones_wasted,
            o.quarantines,
            o.void_actions,
            o.true_stragglers,
            o.caught_stragglers,
        ] {
            fold(hash, count as u64);
        }
    }
}

/// Hash of the three mitigation passes and the two-pass node-health loop
/// over `jobs` at `shards` shards, with the actions committed and the
/// nodes judged.
fn closed_loop_hash(jobs: &[JobTrace], shards: usize) -> (u64, usize, usize) {
    let config = FleetConfig {
        shards,
        ..FleetConfig::default()
    };
    let mut hash = 0xCBF2_9CE4_8422_2325;
    let mut actions = 0;
    for mitigator in [
        None,
        Some(threshold_mitigator(1.0, Some(8))),
        Some(oracle_mitigator(jobs, REPLAY.quantile)),
    ] {
        let run = run_fleet(jobs, mitigator, &config);
        actions += run.action_log.len();
        hash_fleet_run(&mut hash, &run);
    }
    let mut node_config = NodeFleetConfig::default();
    node_config.fleet.shards = shards;
    let node_run = run_node_fleet(jobs, &node_config);
    hash_fleet_run(&mut hash, &node_run.observed);
    hash_fleet_run(&mut hash, &node_run.mitigated);
    actions += node_run.mitigated.action_log.len();
    fold(&mut hash, node_run.verdicts.len() as u64);
    for (&node, &verdict) in &node_run.verdicts {
        fold(&mut hash, u64::from(node));
        fold(&mut hash, verdict as u64);
    }
    (hash, actions, node_run.verdicts.len())
}

#[test]
fn closed_loops_match_the_pre_service_harness_constant_at_all_shard_counts() {
    // The Google-style jobs of the fleet: they carry the node model.
    let jobs = &fleet()[..6];
    assert!(jobs.iter().all(|j| j.node_placement().is_some()));
    for shards in [1, 2, 8] {
        let (hash, actions, verdicts) = closed_loop_hash(jobs, shards);
        // No committed action or no judged node would pin nothing.
        assert!(
            actions > 50 && verdicts > 0,
            "{actions} actions, {verdicts} verdicts"
        );
        assert_eq!(
            hash, GOLDEN_CLOSED_LOOP,
            "closed-loop output moved at {shards} shards: {hash:#018x} \
             over {actions} actions and {verdicts} verdicts"
        );
    }
}

const GOLDEN_ALWAYS_COLD: u64 = 0x94CC_1CAB_23F9_3B12;
const GOLDEN_WARM: u64 = 0xD92D_0B82_1813_E4EC;
/// Re-recorded for the IRLS resolution stop (see "Re-recording a constant"
/// above; parent `f105cfc`). The value it replaces, `0x4960_5BE2_F508_F0B4`,
/// was recorded on commit `bd5a359` (PR 14), the parent of the IRLS point
/// cache in `nurd-ml`'s `logistic.rs` (PR 15), and held through PR 24.
const GOLDEN_WARM_SCORE_BITS: u64 = 0xE417_CC0F_A179_15F6;
/// Recorded on commit `c6fff91` (the parent of PR 16), while `GbtrPredictor`
/// and `TransferNurdPredictor` still carried their own `AlwaysCold` arm
/// (`fit_view` over the checkpoint's rows) beside `WarmRefitState`.
const GOLDEN_GBTR_ALWAYS_COLD: u64 = 0x9E84_179D_0BC6_348E;
const GOLDEN_TRANSFER_ALWAYS_COLD: u64 = 0xA5D9_2F3C_2D0A_6B80;
/// Re-recorded for the IRLS resolution stop (parent `f105cfc`), replacing
/// `0x207F_A295_488F_9934` and `0xC18F_998D_FC08_3BDD`, which were
/// re-recorded for snapshot v5 (parent `268d973`). The values those
/// replaced, `0xA67E_E27D_FD98_6EA2` and `0xE3C6_55B6_43DF_1384`, were
/// recorded on commit `31b6fb8` (PR 16), while `GradientBoosting` still
/// owned a `Vec<RegressionTree>` of pointer nodes, and held through the PR
/// that made the flat forest the only representation.
const GOLDEN_BLOB_BYTES_ALWAYS_COLD: u64 = 0x6D6C_B7A0_1D21_1F16;
const GOLDEN_BLOB_BYTES_WARM: u64 = 0x4208_4EE0_604D_02D3;
/// Recorded on commit `3e7e3b9` (PR 18), while `nurd_mitigate::run_fleet`
/// still served through the caller-driven `Engine` shim (`push_all_sync` +
/// `finish(&pool)`: no drain workers, no notifier) — the parent of the PR
/// that deleted the shim and moved the harness onto `EngineService`.
const GOLDEN_CLOSED_LOOP: u64 = 0x3152_5615_88B3_671E;
/// Recorded on commit `c78f88f`, while Tobit, Grabit, CoxPH, the outlier
/// and XGBOD adapters and PU-EN / PU-BG were still seven
/// `OnlinePredictor` impls — the parent of the PR that folded them into one.
const GOLDEN_REGISTRY: u64 = 0x1EB9_4903_B0FC_2310;
