//! Edge-case and failure-injection tests over the public API surface:
//! the library must fail loudly and predictably, never silently wrong.

use nurd::core::{NurdConfig, NurdPredictor, RefitPolicy, WarmRefitConfig};
use nurd::data::{
    Checkpoint, DataError, FinishedTask, JobTrace, OnlinePredictor, RunningTask, StreamContext,
    TaskRecord,
};
use nurd::linalg::MatrixView;
use nurd::ml::{
    GbtConfig, GradientBoosting, KMeans, KMeansConfig, LinearSvm, LogisticConfig,
    LogisticRegression, MlError, NearestNeighbors, SquaredLoss, SvmConfig,
};
use nurd_codec::{Checkpointable, CodecError, Decoder, Encoder};

/// Borrows row-major rows one slice each, as a `MatrixView::RowSlices`
/// view wraps them.
fn row_slices(x: &[Vec<f64>]) -> Vec<&[f64]> {
    x.iter().map(Vec::as_slice).collect()
}

#[test]
fn degenerate_training_sets_error_not_panic() {
    // Empty everything.
    assert!(matches!(
        GradientBoosting::fit(&[], &[], SquaredLoss, &GbtConfig::default()),
        Err(MlError::EmptyTrainingSet)
    ));
    assert!(matches!(
        LogisticRegression::fit(&[], &[], &LogisticConfig::default()),
        Err(MlError::EmptyTrainingSet)
    ));
    assert!(matches!(
        LinearSvm::fit(&[], &[], &SvmConfig::default()),
        Err(MlError::EmptyTrainingSet)
    ));
    assert!(matches!(
        KMeans::fit(&[], &KMeansConfig::default()),
        Err(MlError::EmptyTrainingSet)
    ));
    assert!(NearestNeighbors::new(vec![]).is_err());
}

#[test]
fn single_sample_models_behave() {
    // One sample is enough for fit-or-clean-error, never a panic.
    let x = vec![vec![1.0, 2.0]];
    let gbt = GradientBoosting::fit(&x, &[5.0], SquaredLoss, &GbtConfig::default()).unwrap();
    assert!((gbt.predict(&[1.0, 2.0]) - 5.0).abs() < 1e-9);
    let km = KMeans::fit(&x, &KMeansConfig::default()).unwrap();
    assert_eq!(km.centroids().len(), 1);
}

#[test]
fn constant_features_are_survivable_everywhere() {
    let x: Vec<Vec<f64>> = (0..20).map(|_| vec![3.0, 3.0, 3.0]).collect();
    let y: Vec<f64> = (0..20).map(|i| i as f64).collect();
    let labels: Vec<f64> = (0..20).map(|i| f64::from(u8::from(i % 2 == 0))).collect();
    let gbt = GradientBoosting::fit(&x, &y, SquaredLoss, &GbtConfig::default()).unwrap();
    assert!((gbt.predict(&[3.0, 3.0, 3.0]) - 9.5).abs() < 1e-6);
    let lr = LogisticRegression::fit(&x, &labels, &LogisticConfig::default()).unwrap();
    assert!((lr.predict_proba(&[3.0, 3.0, 3.0]) - 0.5).abs() < 0.01);
}

#[test]
fn nan_free_outputs_under_extreme_scales() {
    // Features spanning 12 orders of magnitude must not produce NaN.
    let x: Vec<Vec<f64>> = (0..30)
        .map(|i| vec![1e-6 * (i + 1) as f64, 1e6 * (i + 1) as f64])
        .collect();
    let y: Vec<f64> = (0..30).map(|i| (i * i) as f64).collect();
    let gbt = GradientBoosting::fit(&x, &y, SquaredLoss, &GbtConfig::default()).unwrap();
    for row in &x {
        assert!(gbt.predict(row).is_finite());
    }
}

#[test]
fn trace_validation_rejects_malformed_jobs() {
    // Zero tasks.
    assert!(matches!(
        JobTrace::new(1, vec!["f".into()], vec![1.0], vec![]),
        Err(DataError::Invalid(_))
    ));
    // Checkpoint at time zero.
    let t = TaskRecord::new(0, 1.0, vec![vec![0.0]]);
    assert!(JobTrace::new(1, vec!["f".into()], vec![0.0], vec![t]).is_err());
    // NaN checkpoint.
    let t = TaskRecord::new(0, 1.0, vec![vec![0.0]]);
    assert!(JobTrace::new(1, vec!["f".into()], vec![f64::NAN], vec![t]).is_err());
}

#[test]
fn replay_handles_trivial_jobs() {
    // A 2-task job with 1 checkpoint must replay without panicking for
    // every registry method.
    let tasks = vec![
        TaskRecord::new(0, 1.0, vec![vec![0.1, 0.2]]),
        TaskRecord::new(1, 5.0, vec![vec![0.9, 0.8]]),
    ];
    let job = JobTrace::new(9, vec!["a".into(), "b".into()], vec![10.0], tasks).unwrap();
    for spec in nurd::baselines::registry() {
        let mut p = spec.build(&job);
        let out = nurd::sim::replay_job(&job, p.as_mut(), &nurd::sim::ReplayConfig::default());
        assert_eq!(out.confusion.total(), 2, "{}", spec.name);
    }
}

#[test]
fn quantile_thresholds_cover_the_full_range() {
    let tasks: Vec<TaskRecord> = (0..50)
        .map(|i| TaskRecord::new(i, (i + 1) as f64, vec![vec![i as f64]]))
        .collect();
    let job = JobTrace::new(3, vec!["f".into()], vec![100.0], tasks).unwrap();
    for q in [0.0, 0.25, 0.5, 0.7, 0.9, 0.95, 1.0] {
        let t = job.straggler_threshold(q);
        assert!((1.0..=50.0).contains(&t), "q={q} → {t}");
    }
    // Monotone in q.
    assert!(job.straggler_threshold(0.9) > job.straggler_threshold(0.5));
}

/// An ensemble in snapshot format v4 holding one tree: a root split
/// `(feature, left, right)` over two leaves.
fn hostile_ensemble(feature: u64, left: u64, right: u64) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_f64(30.0); // base score
    enc.put_f64(0.1); // learning rate
    enc.put_usize(1); // trees
    enc.put_usize(3); // nodes
    enc.put_u8(1);
    enc.put_u64(feature);
    enc.put_f64(0.5);
    enc.put_u64(left);
    enc.put_u64(right);
    for weight in [-2.0, 2.0] {
        enc.put_u8(0);
        enc.put_f64(weight);
    }
    enc.put_bytes(&[0, u8::MAX, u8::MAX]);
    enc.into_bytes()
}

/// The two blobs that used to take the process down through safe public
/// API, release builds included: a split feature of `u32::MAX` (its `+ 1`
/// wrapped to a forest width of 0, so the unchecked lane walkers read 32 GB
/// past a row: SIGSEGV), and a split that is its own child (the recursive
/// depth computation never returned: stack overflow).
fn hostile_ensembles() -> [(&'static str, Vec<u8>); 2] {
    [
        (
            "feature = u32::MAX",
            hostile_ensemble(u64::from(u32::MAX), 1, 2),
        ),
        ("left = right = 0", hostile_ensemble(0, 0, 0)),
    ]
}

#[test]
fn hostile_ensemble_bytes_are_rejected_at_decode() {
    // The same record with sane indices is a model.
    let sane = hostile_ensemble(0, 1, 2);
    let model = GradientBoosting::<SquaredLoss>::decode(&mut Decoder::new(&sane)).unwrap();
    assert_eq!(model.predict(&[0.0]), 30.0 + 0.1 * -2.0);
    assert_eq!(model.predict(&[1.0]), 30.0 + 0.1 * 2.0);

    let rows = vec![vec![0.25; 4]; 9];
    // `flatten` has no caller left but the standalone benchmark: a copy of
    // the forest the model already is.
    assert_eq!(
        model
            .flatten()
            .predict_view(MatrixView::RowSlices(&row_slices(&rows))),
        model.predict_view(MatrixView::RowSlices(&row_slices(&rows)))
    );
    for (what, blob) in hostile_ensembles() {
        match GradientBoosting::<SquaredLoss>::decode(&mut Decoder::new(&blob)) {
            Err(err) => assert!(
                matches!(err, CodecError::LengthOverrun { .. }),
                "{what}: {err:?}"
            ),
            // What a caller does next with a model it was handed — where
            // the process died while `decode` still answered `Ok`.
            // (`flatten` so that this file also compiles against the
            // commit it was written to convict.)
            Ok(model) => {
                let scores = model
                    .flatten()
                    .predict_view(MatrixView::RowSlices(&row_slices(&rows)));
                panic!("{what}: decoded, then scored {scores:?}");
            }
        }
    }
}

/// Sixty two-feature tasks for the restore tests below.
fn restore_tasks() -> Vec<(Vec<f64>, f64)> {
    (0..60)
        .map(|i| {
            let (a, b) = (((i * 29) % 17) as f64, ((i * 13) % 7) as f64);
            (vec![a, b], 5.0 + 2.0 * a - b)
        })
        .collect()
}

/// A checkpoint at which the first forty of `tasks` have finished.
fn restore_checkpoint(tasks: &[(Vec<f64>, f64)]) -> Checkpoint<'_> {
    checkpoint_after(tasks, 40)
}

/// A checkpoint at which the first `done` of `tasks` have finished.
fn checkpoint_after(tasks: &[(Vec<f64>, f64)], done: usize) -> Checkpoint<'_> {
    Checkpoint {
        ordinal: 0,
        time: 10.0,
        finished: tasks[..done]
            .iter()
            .enumerate()
            .map(|(id, (features, latency))| FinishedTask {
                id,
                features,
                latency: *latency,
            })
            .collect(),
        running: tasks[done..]
            .iter()
            .enumerate()
            .map(|(i, (features, _))| RunningTask {
                id: done + i,
                features,
            })
            .collect(),
    }
}

const RESTORE_CTX: StreamContext = StreamContext {
    threshold: 25.0,
    task_count: 60,
    feature_dim: 2,
};

#[test]
fn hostile_predictor_blobs_are_refused_at_restore() {
    let tasks = restore_tasks();
    let checkpoint = restore_checkpoint(&tasks);
    let ctx = RESTORE_CTX;
    // Refit at every other checkpoint, so the barrier after a restore
    // scores with the head the blob carried.
    let config = NurdConfig {
        refit_every: 2,
        ..NurdConfig::default()
    };
    let mut live = NurdPredictor::new(config.clone());
    live.begin_stream(&ctx);
    assert_eq!(live.score_running(&checkpoint).len(), 20);
    let blob = live.snapshot_state().expect("NURD snapshots its state");

    // Find a record inside the blob by its own encoding, and swap it out.
    let restored = |record: &[u8], hostile: &[u8]| {
        let at = blob
            .windows(record.len())
            .position(|window| window == record)
            .expect("the record travels in the predictor blob");
        let spliced = [&blob[..at], hostile, &blob[at + record.len()..]].concat();
        let mut predictor = NurdPredictor::new(config.clone());
        predictor.begin_stream(&ctx);
        predictor.restore_state(&spliced).then_some(predictor)
    };
    let mut enc = Encoder::new();
    live.latency_model().expect("just fit").encode(&mut enc);
    let head = enc.into_bytes();
    let mut intact = restored(&head, &head).expect("its own bytes restore");
    assert_eq!(
        intact.score_running(&checkpoint),
        live.score_running(&checkpoint)
    );
    for (what, ensemble) in hostile_ensembles() {
        if let Some(mut predictor) = restored(&head, &ensemble) {
            let scores = predictor.score_running(&checkpoint);
            panic!("{what}: restored, then scored {} tasks", scores.len());
        }
    }

    // The absorbed-task tracker: forty `seen` flags, then their count. A
    // count that disagrees with the flags is not a state it ever wrote.
    let delta = |absorbed: usize| {
        let mut enc = Encoder::new();
        vec![true; 40].encode(&mut enc);
        enc.put_usize(absorbed);
        enc.into_bytes()
    };
    assert!(restored(&delta(40), &delta(40)).is_some());
    for absorbed in [0, 39, 41, usize::MAX] {
        assert!(
            restored(&delta(40), &delta(absorbed)).is_none(),
            "absorbed = {absorbed} against forty seen tasks restored"
        );
    }

    // Rows of a width that is not the job's. A predictor that has fit
    // nothing writes five zero words after its 18-byte preamble: an empty
    // matrix (rows, columns), no latencies, an empty tracker (flags,
    // count). Both blobs below used to restore — no `g_t` to disagree with
    // — and panic the next warm `predict`, whose append found rows of
    // another width already there.
    let mut fresh = NurdPredictor::new(NurdConfig::default().with_refit_policy(warm_policy()));
    fresh.begin_stream(&ctx);
    let unfit = fresh.snapshot_state().expect("NURD snapshots its state");
    assert_eq!(unfit[18..58], [0; 40]);
    let five_rows = |cols: usize| {
        let mut enc = Encoder::new();
        enc.put_usize(5);
        enc.put_usize(cols);
        (0..5 * cols).for_each(|cell| enc.put_f64(cell as f64));
        vec![1.0; 5].encode(&mut enc);
        vec![true; 5].encode(&mut enc);
        enc.put_usize(5);
        [&unfit[..18], enc.as_slice(), &unfit[58..]].concat()
    };
    // Five rows and no column: zero cells, so nothing to run short of.
    let mut no_width = unfit.clone();
    no_width[18] = 5;
    let hostile = [
        ("5 × 0 rows", no_width),
        ("5 × 3 rows in a two-feature job", five_rows(3)),
    ];
    for (what, blob) in hostile {
        if fresh.restore_state(&blob) {
            let flagged = fresh.predict(&checkpoint);
            panic!("{what}: restored, then flagged {} tasks", flagged.len());
        }
    }
    // Five rows of the job's own width are a state like any other.
    assert!(fresh.restore_state(&five_rows(2)));
    assert!(fresh.predict(&checkpoint).len() <= 20);
}

fn warm_policy() -> RefitPolicy {
    RefitPolicy::Warm(WarmRefitConfig::default())
}

/// **`restore_state` answers `false`, or hands back a predictor that is
/// safe to serve**: under every single-bit flip and every truncation of a
/// mid-job warm blob — rows, latencies, tracker, quantization codes,
/// ensemble, score cache, counters, `g_t` — a restore that succeeds is
/// followed by the job's next two checkpoints (drift check, warm boost or
/// cold fallback, propensity refit, scoring) without a panic. Small on
/// purpose (24 two-feature tasks, three-round fits): it is a loop over
/// every bit.
#[test]
fn prop_bit_flipped_predictor_blobs_are_refused_or_serve_on() {
    let tasks: Vec<(Vec<f64>, f64)> = restore_tasks().into_iter().take(24).collect();
    let mut config = NurdConfig::default().with_refit_policy(RefitPolicy::Warm(WarmRefitConfig {
        warm_rounds: 2,
        ..WarmRefitConfig::default()
    }));
    config.gbt.n_rounds = 3;
    config.gbt.tree.max_depth = 2;
    let ctx = StreamContext {
        threshold: 25.0,
        task_count: 24,
        feature_dim: 2,
    };
    let mut live = NurdPredictor::new(config.clone());
    live.begin_stream(&ctx);
    live.predict(&checkpoint_after(&tasks, 12));
    live.predict(&checkpoint_after(&tasks, 16));
    assert_eq!(
        (live.refit_stats().cold_fits, live.refit_stats().warm_fits),
        (1, 1)
    );
    let blob = live.snapshot_state().expect("NURD snapshots its state");
    let next = [checkpoint_after(&tasks, 19), checkpoint_after(&tasks, 22)];
    let serve_on = |bytes: &[u8]| {
        let mut predictor = NurdPredictor::new(config.clone());
        predictor.begin_stream(&ctx);
        let restored = predictor.restore_state(bytes);
        restored.then(|| next.each_ref().map(|c| predictor.predict(c)))
    };
    let uninterrupted = next.each_ref().map(|c| live.predict(c));
    assert_eq!(serve_on(&blob), Some(uninterrupted));

    for cut in 0..blob.len() {
        assert_eq!(serve_on(&blob[..cut]), None, "truncated to {cut} bytes");
    }
    let (mut accepted, mut refused) = (0, 0);
    for bit in 0..blob.len() * 8 {
        let mut mutated = blob.clone();
        mutated[bit / 8] ^= 1 << (bit % 8);
        match serve_on(&mutated) {
            Some(_) => accepted += 1,
            None => refused += 1,
        }
    }
    // A flipped length or tag is refused; a flipped mantissa bit, code or
    // counter is a different state, equally safe to serve.
    assert!(accepted > 100 && refused > 100, "{accepted} / {refused}");
}

/// A `LogisticRegression` record: weights, intercept, feature means,
/// feature deviations, iterations.
fn propensity_bytes(weights: &[f64], means: &[f64], stds: &[f64]) -> Vec<u8> {
    let mut enc = Encoder::new();
    weights.to_vec().encode(&mut enc);
    enc.put_f64(0.1); // intercept
    means.to_vec().encode(&mut enc);
    stds.to_vec().encode(&mut enc);
    enc.put_usize(3); // iterations
    enc.into_bytes()
}

/// Two weights and no standardization tables: the record that used to
/// decode `Ok`, score every row as `σ(intercept)` (scoring zips to the
/// shortest table) and panic the warm refit it seeded (`remap_seed`
/// indexes the tables by the weights' length).
fn ragged_propensity() -> Vec<u8> {
    propensity_bytes(&[1.0, -1.0], &[], &[])
}

#[test]
fn ragged_propensity_bytes_are_rejected_at_decode() {
    let sane = propensity_bytes(&[1.0, -1.0], &[0.5, 0.5], &[2.0, 1.0]);
    let model = LogisticRegression::decode(&mut Decoder::new(&sane)).unwrap();
    assert!(model.predict_proba(&[4.5, 0.5]) > model.predict_proba(&[0.5, 0.5]));

    let rows = vec![
        vec![0.0, 0.0],
        vec![1.0, 5.0],
        vec![-3.0, 2.0],
        vec![10.0, -10.0],
    ];
    let unequal = [
        ("no tables", ragged_propensity()),
        (
            "short means",
            propensity_bytes(&[1.0, -1.0], &[0.5], &[2.0, 1.0]),
        ),
        (
            "long deviations",
            propensity_bytes(&[1.0, -1.0], &[0.5, 0.5], &[2.0, 1.0, 1.0]),
        ),
    ];
    for (what, blob) in unequal {
        match LogisticRegression::decode(&mut Decoder::new(&blob)) {
            Err(err) => assert!(
                matches!(err, CodecError::LengthOverrun { .. }),
                "{what}: {err:?}"
            ),
            Ok(model) => {
                let scores = model.predict_proba_view(MatrixView::RowSlices(&row_slices(&rows)));
                panic!("{what}: decoded, then scored four different rows as {scores:?}");
            }
        }
    }
    // Scoring and seeding both divide by the deviations.
    for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        let blob = propensity_bytes(&[1.0, -1.0], &[0.5, 0.5], &[2.0, bad]);
        let got = LogisticRegression::decode(&mut Decoder::new(&blob));
        assert!(
            matches!(got, Err(CodecError::InvalidTag { .. })),
            "deviation {bad}: {got:?}"
        );
    }
}

#[test]
fn predictor_blobs_with_a_mismatched_propensity_model_are_refused_at_restore() {
    let tasks = restore_tasks();
    let checkpoint = restore_checkpoint(&tasks);
    // A warm policy seeds each `g_t` refit from the previous model, every
    // other checkpoint: after a restore the first barrier scores with the
    // model the blob carried and the second seeds a refit with it.
    let config = NurdConfig {
        refit_every: 2,
        ..NurdConfig::default().with_refit_policy(warm_policy())
    };
    let mut live = NurdPredictor::new(config.clone());
    live.begin_stream(&RESTORE_CTX);
    assert_eq!(live.score_running(&checkpoint).len(), 20);
    let blob = live.snapshot_state().expect("NURD snapshots its state");

    // The blob opens with δ, then the propensity model.
    let mut dec = Decoder::new(&blob);
    Option::<f64>::decode(&mut dec).unwrap();
    let at = blob.len() - dec.remaining();
    let fitted = Option::<LogisticRegression>::decode(&mut dec).unwrap();
    assert_eq!(fitted.expect("just fit").weights().len(), 2);
    let end = blob.len() - dec.remaining();
    let restored = |model: &[u8]| {
        let spliced = [&blob[..at], &[1][..], model, &blob[end..]].concat();
        let mut predictor = NurdPredictor::new(config.clone());
        predictor.begin_stream(&RESTORE_CTX);
        predictor.restore_state(&spliced).then_some(predictor)
    };
    let mut intact = restored(&blob[at + 1..end]).expect("its own bytes restore");
    assert_eq!(
        intact.score_running(&checkpoint),
        live.score_running(&checkpoint)
    );
    let hostile = [
        ("ragged", ragged_propensity()),
        // Well-formed, but a feature wider than the rows `h_t` holds.
        (
            "three features wide",
            propensity_bytes(&[1.0, -1.0, 1.0], &[0.5; 3], &[1.0; 3]),
        ),
    ];
    for (what, model) in hostile {
        if let Some(mut predictor) = restored(&model) {
            let scored = predictor.score_running(&checkpoint);
            let propensities: Vec<f64> = scored.iter().map(|s| s.propensity).collect();
            let refit = predictor.score_running(&checkpoint);
            panic!(
                "{what}: restored, scored propensities {propensities:?}, \
                 then refit and scored {} tasks",
                refit.len()
            );
        }
    }
}
