//! The one home of the latency head `h_t`: which rows a refit trains on,
//! in which order, and whether it boosts onto the previous ensemble.
//!
//! Algorithm 1 has one model operation per checkpoint — "refit `h_t` on
//! the finished tasks" — and [`WarmRefitState`] is where it happens, under
//! either [`RefitPolicy`](crate::RefitPolicy):
//!
//! * **`AlwaysCold`** (the paper's protocol): [`WarmRefitState::ingest`]
//!   *replaces* the state's rows by the checkpoint's finished set, in
//!   checkpoint order, and [`WarmRefitState::refit`] quantizes and fits
//!   from scratch.
//! * **`Warm`**: consecutive checkpoints share almost all of their
//!   finished set, so a cold refit spends most of its time re-learning
//!   what the last model already knew. The state exploits this with
//!   1. an **append-only design matrix** ([`nurd_linalg::FeatureMatrix`])
//!      of every finished task absorbed so far, fed by
//!      [`nurd_data::FinishedDelta`] (finished tasks are frozen, so the
//!      prefix never changes);
//!   2. a **persistent [`BinnedMatrix`]** grown in place via
//!      [`BinnedMatrix::append_from`] — only the handful of newly finished
//!      rows are re-quantized, and a Kolmogorov–Smirnov drift statistic
//!      guards against stale quantile edges;
//!   3. the **previous ensemble**, extended by a few rounds per checkpoint
//!      through [`GradientBoosting::warm_boost`] instead of being refit
//!      from scratch — falling back to the cold fit above on the first
//!      refit, on drift, and at the tree cap.
//!
//! [`crate::NurdPredictor`] (with or without a donor prior) and the GBTR
//! baseline in `nurd-baselines` both drive this one state machine and carry
//! no policy branch of their own.

use nurd_data::{Checkpoint, FinishedDelta};
use nurd_linalg::FeatureMatrix;
use nurd_ml::{BinnedMatrix, GbtConfig, GradientBoosting, MlError, SquaredLoss};

use crate::config::RefitPolicy;

/// The warm policy's ensemble-size cap: a warm refit that would grow the
/// ensemble past this many trees is a cold refit instead, which keeps
/// prediction cost bounded over arbitrarily long jobs.
const MAX_TREES: usize = 350;

/// Counters describing how a [`WarmRefitState`] has been refitting (under
/// either policy); useful for benches, tests, and observability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefitStats {
    /// Full from-scratch fits (including warm-policy fallbacks).
    pub cold_fits: usize,
    /// Warm-started fits (a few rounds boosted onto the previous model).
    pub warm_fits: usize,
    /// Refits skipped entirely because no new row had arrived.
    pub reuses: usize,
    /// Cold fallbacks forced by quantile drift past tolerance.
    pub drift_rebins: usize,
    /// Cold fallbacks forced by the 350-tree ensemble cap.
    pub cap_resets: usize,
}

/// The latency head and everything its next refit needs: the training
/// rows (the absorbed finished set), their quantization, the fitted
/// ensemble and its score cache.
///
/// One instance lives inside each predictor; [`WarmRefitState::reset`]
/// clears it between jobs while keeping allocations.
#[derive(Debug, Clone, Default)]
pub struct WarmRefitState {
    x: FeatureMatrix,
    latencies: Vec<f64>,
    delta: FinishedDelta,
    binned: Option<BinnedMatrix>,
    model: Option<GradientBoosting<SquaredLoss>>,
    /// Raw per-row scores of the current model over the absorbed rows —
    /// the cache that lets a warm refit replay the previous ensemble only
    /// over rows appended since the last fit (see
    /// [`GradientBoosting::warm_boost`]).
    scores: Vec<f64>,
    /// Rows the current model was fit over (for the no-new-data skip).
    fitted_rows: usize,
    stats: RefitStats,
}

impl WarmRefitState {
    /// An empty state (no task absorbed, no model).
    #[must_use]
    pub fn new() -> Self {
        WarmRefitState::default()
    }

    /// Clears everything for a new job, retaining buffer allocations.
    pub fn reset(&mut self) {
        self.x.fill_from_rows(std::iter::empty());
        self.latencies.clear();
        self.delta.clear();
        self.binned = None;
        self.model = None;
        self.scores.clear();
        self.fitted_rows = 0;
        self.stats = RefitStats::default();
    }

    /// Takes in `checkpoint`'s finished set as `policy` prescribes and
    /// returns how many trailing rows of the state are new. Under
    /// [`RefitPolicy::AlwaysCold`] the rows are *replaced* by the finished
    /// set in checkpoint order (every row is new, and the next
    /// [`WarmRefitState::refit`] never counts as a reuse); under
    /// [`RefitPolicy::Warm`] this is [`WarmRefitState::absorb`].
    pub fn ingest(&mut self, checkpoint: &Checkpoint<'_>, policy: &RefitPolicy) -> usize {
        if matches!(policy, RefitPolicy::AlwaysCold) {
            self.x.fill_from_rows(std::iter::empty());
            self.latencies.clear();
            self.delta.clear();
            // Never read under this policy; dropped with the rows it
            // quantized so that it always describes a prefix of `x`.
            self.binned = None;
            self.fitted_rows = 0;
        }
        self.absorb(checkpoint)
    }

    /// Absorbs the checkpoint's newly finished tasks into the append-only
    /// design matrix (features + latencies, in stable absorb order);
    /// returns how many rows were added.
    pub fn absorb(&mut self, checkpoint: &Checkpoint<'_>) -> usize {
        let fresh = self.delta.absorb(checkpoint);
        if fresh.is_empty() {
            return 0;
        }
        self.x.append_rows(fresh.iter().map(|t| t.features));
        self.latencies.extend(fresh.iter().map(|t| t.latency));
        fresh.len()
    }

    /// Rows absorbed so far.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.x.rows()
    }

    /// The absorbed design matrix (row `i` is the `i`-th absorbed task).
    #[must_use]
    pub fn features(&self) -> &FeatureMatrix {
        &self.x
    }

    /// Observed latencies aligned with [`WarmRefitState::features`] rows.
    #[must_use]
    pub fn latencies(&self) -> &[f64] {
        &self.latencies
    }

    /// The current latency model, if one has been fit this job.
    #[must_use]
    pub fn model(&self) -> Option<&GradientBoosting<SquaredLoss>> {
        self.model.as_ref()
    }

    /// Refit counters for this job.
    #[must_use]
    pub fn stats(&self) -> RefitStats {
        self.stats
    }

    /// Sets the lane width the current model's batch kernels score at
    /// (a no-op before the first fit; a new fit starts at the default).
    pub(crate) fn set_scoring_lanes(&mut self, lanes: usize) {
        if let Some(model) = &mut self.model {
            model.set_lanes(lanes);
        }
    }

    /// Refits the latency model against the absorbed latencies under
    /// `policy`. A refit with no new rows since the previous one reuses the
    /// current model for free.
    ///
    /// # Errors
    ///
    /// [`MlError::EmptyTrainingSet`] before any row is absorbed; otherwise
    /// whatever the underlying fit propagates.
    pub fn refit(&mut self, gbt: &GbtConfig, policy: &RefitPolicy) -> Result<(), MlError> {
        // The targets are the state's own latencies: lent out for the call.
        let y = std::mem::take(&mut self.latencies);
        let fit = self.refit_against(&y, gbt, policy);
        self.latencies = y;
        fit
    }

    /// Refits against caller-supplied targets aligned with the absorbed
    /// rows — NURD-TL's residual head. The targets must be a function of
    /// the rows (as the residuals of a frozen prior scaled by the rows'
    /// median latency are): a refit with no new row reuses the current
    /// model, whatever `y` holds.
    ///
    /// # Errors
    ///
    /// [`MlError::EmptyTrainingSet`] before any row is absorbed,
    /// [`MlError::DimensionMismatch`] when `y` does not cover every row;
    /// otherwise whatever the underlying fit propagates.
    pub(crate) fn refit_against(
        &mut self,
        y: &[f64],
        gbt: &GbtConfig,
        policy: &RefitPolicy,
    ) -> Result<(), MlError> {
        let n = self.x.rows();
        if n == 0 {
            return Err(MlError::EmptyTrainingSet);
        }
        if y.len() != n {
            return Err(MlError::DimensionMismatch {
                expected: format!("{n} targets"),
                found: format!("{} targets", y.len()),
            });
        }
        // Validate here — where the policy is consumed — not only in the
        // `NurdConfig::with_refit_policy` builder: policies can arrive via
        // the pub field or `GbtrPredictor::with_policy` without ever passing
        // through it, and a zero-round warm refit would silently freeze the
        // model forever.
        if let RefitPolicy::Warm(w) = policy {
            if w.warm_rounds == 0 {
                return Err(MlError::InvalidConfig(
                    "warm_rounds must be >= 1 (0 would freeze the model)".into(),
                ));
            }
            if !(w.drift_tolerance > 0.0 && w.drift_tolerance <= 1.0) {
                return Err(MlError::InvalidConfig(format!(
                    "drift_tolerance must be in (0, 1], got {}",
                    w.drift_tolerance
                )));
            }
        }

        // Nothing new to learn: no appended row since the current model was
        // fit.
        if self.model.is_some() && self.fitted_rows == n {
            self.stats.reuses += 1;
            return Ok(());
        }

        // A warm refit needs a warm policy, a previous model and a binned
        // matrix that is a prefix of the current rows (same width, no more
        // rows) with live edges.
        let mut warm = match (policy, &mut self.binned, &mut self.model) {
            (RefitPolicy::Warm(w), Some(b), Some(prev))
                if b.rows() <= n && b.features() == self.x.cols() =>
            {
                Some((w, b, prev))
            }
            _ => None,
        };
        if let Some((w, b, prev)) = &mut warm {
            let drift = if b.rows() < n {
                b.append_from(self.x.view())
            } else {
                b.drift()
            };
            if drift > w.drift_tolerance {
                self.stats.drift_rebins += 1;
                warm = None;
            } else if prev.tree_count() + w.warm_rounds > MAX_TREES {
                self.stats.cap_resets += 1;
                warm = None;
            }
        }

        match warm {
            Some((w, b, prev)) => {
                // Boost onto the installed model in place — no clone of the
                // ensemble. `warm_boost` validates before it touches anything,
                // so a failed warm refit leaves the previous model serving.
                prev.warm_boost(b, y, w.warm_rounds, gbt, &mut self.scores)?;
                self.stats.warm_fits += 1;
            }
            None => {
                // Cold: rebuild the quantization from scratch too, so edges,
                // codes, and ensemble all reflect exactly the current data —
                // what a from-scratch fit would produce. `build_for` honors
                // the `TreeConfig::n_threads` fan-out with identical output.
                let fresh = BinnedMatrix::build_for(self.x.view(), &gbt.tree);
                self.model = Some(GradientBoosting::fit_binned_cached(
                    &fresh,
                    y,
                    SquaredLoss,
                    gbt,
                    &mut self.scores,
                )?);
                self.binned = Some(fresh);
                self.stats.cold_fits += 1;
            }
        }
        self.fitted_rows = n;
        Ok(())
    }
}

/// Encodes a column-major [`FeatureMatrix`] (dims + columns, bit-exact).
/// Lives here rather than in `nurd-linalg` so the linear-algebra crate
/// stays codec-free; `nurd-serve` reuses it via [`WarmRefitState`].
pub(crate) fn encode_feature_matrix(m: &FeatureMatrix, enc: &mut nurd_codec::Encoder) {
    enc.put_usize(m.rows());
    enc.put_usize(m.cols());
    for c in 0..m.cols() {
        for &v in m.column(c) {
            enc.put_f64(v);
        }
    }
}

/// Inverse of [`encode_feature_matrix`].
pub(crate) fn decode_feature_matrix(
    dec: &mut nurd_codec::Decoder<'_>,
) -> Result<FeatureMatrix, nurd_codec::CodecError> {
    let rows = dec.take_usize()?;
    let cols = dec.take_usize()?;
    let cells = rows.checked_mul(cols).unwrap_or(u64::MAX as usize);
    let need = cells.saturating_mul(8);
    // Rows without a width hold no cell to count, and would take the next
    // appended row's width check down with them.
    if need > dec.remaining() || (rows > 0 && cols == 0) {
        return Err(nurd_codec::CodecError::LengthOverrun {
            declared: cells as u64,
            remaining: dec.remaining(),
        });
    }
    let mut m = FeatureMatrix::zeros(rows, cols);
    for c in 0..cols {
        for r in 0..rows {
            m.set(r, c, dec.take_f64()?);
        }
    }
    Ok(m)
}

impl nurd_codec::Checkpointable for RefitStats {
    fn encode(&self, enc: &mut nurd_codec::Encoder) {
        enc.put_usize(self.cold_fits);
        enc.put_usize(self.warm_fits);
        enc.put_usize(self.reuses);
        enc.put_usize(self.drift_rebins);
        enc.put_usize(self.cap_resets);
    }

    fn decode(dec: &mut nurd_codec::Decoder<'_>) -> Result<Self, nurd_codec::CodecError> {
        Ok(RefitStats {
            cold_fits: dec.take_usize()?,
            warm_fits: dec.take_usize()?,
            reuses: dec.take_usize()?,
            drift_rebins: dec.take_usize()?,
            cap_resets: dec.take_usize()?,
        })
    }
}

/// The whole state travels — design matrix, ensemble, score cache,
/// counters — so a restored predictor's next refit takes exactly the
/// warm/cold branch an uninterrupted run would take. Of the quantization
/// only its [`BinnedMatrix::parts`] are written: the bin tables are a
/// function of those and the rows, and [`BinnedMatrix::restore`] derives
/// them again.
impl nurd_codec::Checkpointable for WarmRefitState {
    fn encode(&self, enc: &mut nurd_codec::Encoder) {
        encode_feature_matrix(&self.x, enc);
        self.latencies.encode(enc);
        self.delta.encode(enc);
        enc.put_bool(self.binned.is_some());
        if let Some(binned) = &self.binned {
            let (codes, built_rows, stale_constant) = binned.parts();
            enc.put_bytes(codes);
            enc.put_usize(built_rows);
            enc.put_bool(stale_constant);
        }
        self.model.encode(enc);
        self.scores.encode(enc);
        enc.put_usize(self.fitted_rows);
        self.stats.encode(enc);
    }

    fn decode(dec: &mut nurd_codec::Decoder<'_>) -> Result<Self, nurd_codec::CodecError> {
        let x = decode_feature_matrix(dec)?;
        let latencies: Vec<f64> = nurd_codec::Checkpointable::decode(dec)?;
        // One latency per row: `refit` lends them out as the targets.
        if latencies.len() != x.rows() {
            return Err(nurd_codec::CodecError::LengthOverrun {
                declared: latencies.len() as u64,
                remaining: x.rows(),
            });
        }
        let delta = nurd_codec::Checkpointable::decode(dec)?;
        let binned = if dec.take_bool()? {
            let (codes, built_rows) = (dec.take_bytes()?.to_vec(), dec.take_usize()?);
            Some(BinnedMatrix::restore(
                codes,
                built_rows,
                dec.take_bool()?,
                x.view(),
            )?)
        } else {
            None
        };
        Ok(WarmRefitState {
            x,
            latencies,
            delta,
            binned,
            model: nurd_codec::Checkpointable::decode(dec)?,
            scores: nurd_codec::Checkpointable::decode(dec)?,
            fitted_rows: dec.take_usize()?,
            stats: nurd_codec::Checkpointable::decode(dec)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WarmRefitConfig;
    use nurd_data::{FinishedTask, RunningTask};

    /// A checkpoint whose finished set is the first `k` of `tasks`.
    fn checkpoint<'a>(tasks: &'a [(Vec<f64>, f64)], k: usize) -> Checkpoint<'a> {
        Checkpoint {
            ordinal: k,
            time: k as f64,
            finished: tasks[..k]
                .iter()
                .enumerate()
                .map(|(id, (f, lat))| FinishedTask {
                    id,
                    features: f,
                    latency: *lat,
                })
                .collect(),
            running: tasks[k..]
                .iter()
                .enumerate()
                .map(|(i, (f, _))| RunningTask {
                    id: k + i,
                    features: f,
                })
                .collect(),
        }
    }

    fn tasks(n: usize) -> Vec<(Vec<f64>, f64)> {
        (0..n)
            .map(|i| {
                let a = ((i * 29) % 17) as f64;
                let b = ((i * 13) % 7) as f64;
                (vec![a, b], 5.0 + 2.0 * a - b)
            })
            .collect()
    }

    #[test]
    fn warm_policy_warms_after_first_cold_fit() {
        let ts = tasks(120);
        let mut state = WarmRefitState::new();
        let policy = RefitPolicy::Warm(WarmRefitConfig::default());
        let gbt = GbtConfig::default();
        for k in [30, 50, 70, 90, 110] {
            state.absorb(&checkpoint(&ts, k));
            state.refit(&gbt, &policy).unwrap();
        }
        let stats = state.stats();
        assert_eq!(stats.cold_fits, 1, "{stats:?}");
        assert_eq!(stats.warm_fits, 4, "{stats:?}");
        assert!(state.model().is_some());
        assert_eq!(state.rows(), 110);
    }

    #[test]
    fn no_new_rows_reuses_model() {
        let ts = tasks(60);
        let mut state = WarmRefitState::new();
        let policy = RefitPolicy::Warm(WarmRefitConfig::default());
        let gbt = GbtConfig::default();
        state.absorb(&checkpoint(&ts, 40));
        state.refit(&gbt, &policy).unwrap();
        let trees = state.model().unwrap().tree_count();
        state.absorb(&checkpoint(&ts, 40));
        state.refit(&gbt, &policy).unwrap();
        assert_eq!(state.model().unwrap().tree_count(), trees);
        assert_eq!(state.stats().reuses, 1);
    }

    #[test]
    fn tree_cap_forces_cold_reset() {
        let ts = tasks(200);
        let mut state = WarmRefitState::new();
        let gbt = GbtConfig {
            n_rounds: 20,
            ..GbtConfig::default()
        };
        let policy = RefitPolicy::Warm(WarmRefitConfig {
            warm_rounds: 110,
            drift_tolerance: 1.0,
        });
        // 20 → 130 → 240 → 350 → cap (would be 460) → cold reset to 20 …
        for k in (20..=200).step_by(20) {
            state.absorb(&checkpoint(&ts, k));
            state.refit(&gbt, &policy).unwrap();
            assert!(state.model().unwrap().tree_count() <= MAX_TREES);
        }
        assert!(state.stats().cap_resets >= 2, "{:?}", state.stats());
    }

    #[test]
    fn drift_forces_rebin_and_cold_fit() {
        // First half benign, second half far out of range: the appended
        // rows shift every quantile.
        let mut ts = tasks(60);
        for (i, (f, lat)) in ts.iter_mut().enumerate().skip(30) {
            f[0] = 1000.0 + i as f64;
            *lat = 2000.0;
        }
        let mut state = WarmRefitState::new();
        let gbt = GbtConfig::default();
        let policy = RefitPolicy::Warm(WarmRefitConfig {
            drift_tolerance: 0.05,
            ..WarmRefitConfig::default()
        });
        state.absorb(&checkpoint(&ts, 30));
        state.refit(&gbt, &policy).unwrap();
        state.absorb(&checkpoint(&ts, 60));
        state.refit(&gbt, &policy).unwrap();
        let stats = state.stats();
        assert_eq!(stats.drift_rebins, 1, "{stats:?}");
        assert_eq!(stats.cold_fits, 2, "{stats:?}");
        assert_eq!(stats.warm_fits, 0, "{stats:?}");
    }

    #[test]
    fn always_cold_ingest_replaces_rows_in_checkpoint_order_and_never_reuses() {
        // Task 5 finishes between the checkpoints: checkpoint order puts
        // it before tasks 6.. that finished earlier, absorb order after.
        let ts = tasks(40);
        let pick = |ids: &[usize]| {
            let mut ckpt = checkpoint(&ts, 0);
            ckpt.running.clear();
            ckpt.finished = ids
                .iter()
                .map(|&id| FinishedTask {
                    id,
                    features: &ts[id].0,
                    latency: ts[id].1,
                })
                .collect();
            ckpt
        };
        let first: Vec<usize> = (0..30).filter(|&id| id != 5).collect();
        let second: Vec<usize> = (0..30).collect();
        let gbt = GbtConfig::default();
        let cold = RefitPolicy::AlwaysCold;
        let mut state = WarmRefitState::new();
        assert_eq!(state.ingest(&pick(&first), &cold), 29);
        state.refit(&gbt, &cold).unwrap();
        assert_eq!(state.ingest(&pick(&second), &cold), 30, "every row is new");
        let expect: Vec<f64> = second.iter().map(|&id| ts[id].1).collect();
        assert_eq!(
            state.latencies(),
            expect,
            "checkpoint order, not absorb order"
        );
        state.refit(&gbt, &cold).unwrap();
        // The same finished set again still fits: the paper protocol
        // refits at every checkpoint.
        state.ingest(&pick(&second), &cold);
        state.refit(&gbt, &cold).unwrap();
        let stats = state.stats();
        assert_eq!((stats.cold_fits, stats.reuses), (3, 0), "{stats:?}");

        // Under the warm policy the same two checkpoints append.
        let warm = RefitPolicy::Warm(WarmRefitConfig::default());
        let mut state = WarmRefitState::new();
        state.ingest(&pick(&first), &warm);
        assert_eq!(state.ingest(&pick(&second), &warm), 1);
        assert_eq!(state.latencies()[29], ts[5].1);
    }

    #[test]
    fn degenerate_warm_configs_are_rejected_at_refit_time() {
        // Policies can bypass NurdConfig::with_refit_policy (pub field,
        // GbtrPredictor::with_policy), so the consumer must validate too.
        let ts = tasks(40);
        let mut state = WarmRefitState::new();
        state.absorb(&checkpoint(&ts, 30));
        let gbt = GbtConfig::default();
        let frozen = RefitPolicy::Warm(WarmRefitConfig {
            warm_rounds: 0,
            ..WarmRefitConfig::default()
        });
        assert!(matches!(
            state.refit(&gbt, &frozen),
            Err(MlError::InvalidConfig(_))
        ));
        let bad_tol = RefitPolicy::Warm(WarmRefitConfig {
            drift_tolerance: 0.0,
            ..WarmRefitConfig::default()
        });
        assert!(matches!(
            state.refit(&gbt, &bad_tol),
            Err(MlError::InvalidConfig(_))
        ));
        assert_eq!(state.stats().cold_fits + state.stats().warm_fits, 0);
    }

    #[test]
    fn failed_warm_refit_leaves_the_previous_model_installed() {
        // The warm path boosts onto the installed model in place, so a
        // refit that fails must fail before touching it.
        let ts = tasks(120);
        let mut state = WarmRefitState::new();
        let policy = RefitPolicy::Warm(WarmRefitConfig::default());
        let gbt = GbtConfig::default();
        state.absorb(&checkpoint(&ts, 40));
        state.refit(&gbt, &policy).unwrap();
        let before = state.model().unwrap().clone();
        let probe: Vec<Vec<f64>> = ts.iter().map(|(f, _)| f.clone()).collect();

        state.absorb(&checkpoint(&ts, 60));
        let bad = GbtConfig {
            tree: nurd_ml::TreeConfig {
                max_depth: 0,
                ..nurd_ml::TreeConfig::default()
            },
            ..GbtConfig::default()
        };
        assert!(matches!(
            state.refit(&bad, &policy),
            Err(MlError::InvalidConfig(_))
        ));
        let after = state.model().expect("previous model still installed");
        assert_eq!(after.tree_count(), before.tree_count());
        assert_eq!(after.predict_batch(&probe), before.predict_batch(&probe));
        assert_eq!(state.stats().warm_fits, 0);

        // The state is still consistent: the next good refit warms from it
        // exactly as if the failed call had never happened.
        state.refit(&gbt, &policy).unwrap();
        let mut twin = WarmRefitState::new();
        twin.absorb(&checkpoint(&ts, 40));
        twin.refit(&gbt, &policy).unwrap();
        twin.absorb(&checkpoint(&ts, 60));
        twin.refit(&gbt, &policy).unwrap();
        assert_eq!(state.stats(), twin.stats());
        assert_eq!(
            state.model().unwrap().predict_batch(&probe),
            twin.model().unwrap().predict_batch(&probe)
        );
    }

    #[test]
    fn a_quantization_of_another_width_is_rejected_at_decode_and_never_warmed_onto() {
        use nurd_codec::{Checkpointable, CodecError, Decoder, Encoder};
        let policy = RefitPolicy::Warm(WarmRefitConfig::default());
        let gbt = GbtConfig::default();
        let fitted = |ts: &[(Vec<f64>, f64)]| {
            let mut state = WarmRefitState::new();
            state.absorb(&checkpoint(ts, 30));
            state.refit(&gbt, &policy).unwrap();
            state
        };
        let two_wide = tasks(40);
        let three_wide: Vec<(Vec<f64>, f64)> = two_wide
            .iter()
            .map(|(f, lat)| (vec![f[0], f[1], f[0] - f[1]], *lat))
            .collect();
        let (narrow, wide) = (fitted(&two_wide), fitted(&three_wide));
        let decode = |state: &WarmRefitState| {
            let mut enc = Encoder::new();
            state.encode(&mut enc);
            WarmRefitState::decode(&mut Decoder::new(enc.as_slice()))
        };
        assert_eq!(decode(&wide).unwrap().stats(), wide.stats());

        // Three-wide rows beside a two-wide quantization: `append_from`
        // would assert on it at the next warm refit.
        let mut crossed = WarmRefitState {
            binned: narrow.binned.clone(),
            ..wide.clone()
        };
        assert!(matches!(
            decode(&crossed),
            Err(CodecError::LengthOverrun { .. })
        ));
        // Nor does a quantization travel without the rows it was made of.
        crossed.x.fill_from_rows(std::iter::empty());
        crossed.latencies.clear();
        crossed.delta.clear();
        assert!(matches!(
            decode(&crossed),
            Err(CodecError::LengthOverrun { .. })
        ));
        // Should such a state exist in memory all the same, the refit sees
        // the widths differ once rows arrive and fits cold instead of
        // appending.
        crossed.absorb(&checkpoint(&three_wide, 35));
        crossed.refit(&gbt, &policy).unwrap();
        let stats = crossed.stats();
        assert_eq!((stats.cold_fits, stats.warm_fits), (2, 0), "{stats:?}");
    }

    #[test]
    fn reset_clears_everything() {
        let ts = tasks(40);
        let mut state = WarmRefitState::new();
        state.absorb(&checkpoint(&ts, 30));
        state
            .refit(&GbtConfig::default(), &RefitPolicy::AlwaysCold)
            .unwrap();
        state.reset();
        assert_eq!(state.rows(), 0);
        assert!(state.model().is_none());
        assert_eq!(state.stats(), RefitStats::default());
        assert!(matches!(
            state.refit(&GbtConfig::default(), &RefitPolicy::AlwaysCold),
            Err(MlError::EmptyTrainingSet)
        ));
    }

    #[test]
    fn refit_against_supports_moving_targets() {
        let ts = tasks(80);
        let mut state = WarmRefitState::new();
        let gbt = GbtConfig::default();
        let policy = RefitPolicy::Warm(WarmRefitConfig::default());
        state.absorb(&checkpoint(&ts, 50));
        let y: Vec<f64> = state.latencies().iter().map(|l| l * 0.5).collect();
        state.refit_against(&y, &gbt, &policy).unwrap();
        assert_eq!(state.stats().cold_fits, 1);
        // Mismatched target length is rejected.
        assert!(matches!(
            state.refit_against(&y[..10], &gbt, &policy),
            Err(MlError::DimensionMismatch { .. })
        ));
    }
}
