//! The one online adapter of the per-checkpoint baselines.
//!
//! Tobit, Grabit, CoxPH, the thirteen transductive outlier detectors,
//! XGBOD, PU-EN and PU-BG all refit from scratch at every checkpoint and
//! keep nothing between checkpoints but their configuration, so they share
//! one [`OnlinePredictor`]: [`Adapter`] owns the name, the captured
//! `τ_stra`, the too-little-data guard and the "fit failed → no flags"
//! path, and each method contributes only its [`FitAndFlag`] body (in
//! `survival_adapter`, `outlier_adapter` and `pu_adapter`).

use nurd_data::{Checkpoint, OnlinePredictor, StreamContext};

/// One per-checkpoint baseline's fit-and-flag body.
pub(crate) trait FitAndFlag {
    /// Fewest finished tasks the fit needs.
    const MIN_FINISHED: usize = 2;
    /// Fewest visible (finished or running) tasks the fit needs.
    const MIN_VISIBLE: usize = 0;

    /// Fits on what `checkpoint` shows and returns the ids of the running
    /// tasks it flags against the straggler threshold `threshold`, or
    /// `None` when the fit fails.
    fn flag(&self, checkpoint: &Checkpoint<'_>, threshold: f64) -> Option<Vec<usize>>;
}

/// Drives a [`FitAndFlag`] method through the online protocol.
pub(crate) struct Adapter<M> {
    name: &'static str,
    threshold: f64,
    method: M,
}

impl<M> Adapter<M> {
    /// `method` under its Table 3 name, before any stream has begun.
    pub(crate) fn new(name: &'static str, method: M) -> Self {
        Adapter {
            name,
            threshold: f64::INFINITY,
            method,
        }
    }
}

impl<M: FitAndFlag> OnlinePredictor for Adapter<M> {
    fn name(&self) -> &str {
        self.name
    }

    fn begin_stream(&mut self, ctx: &StreamContext) {
        self.threshold = ctx.threshold;
    }

    fn predict(&mut self, checkpoint: &Checkpoint<'_>) -> Vec<usize> {
        if checkpoint.running.is_empty()
            || checkpoint.finished.len() < M::MIN_FINISHED
            || checkpoint.visible_count() < M::MIN_VISIBLE
        {
            return Vec::new();
        }
        self.method
            .flag(checkpoint, self.threshold)
            .unwrap_or_default()
    }
}

/// The ids of the running tasks whose features satisfy `flagged`.
pub(crate) fn running_where(
    checkpoint: &Checkpoint<'_>,
    flagged: impl Fn(&[f64]) -> bool,
) -> Vec<usize> {
    checkpoint
        .running
        .iter()
        .filter(|t| flagged(t.features))
        .map(|t| t.id)
        .collect()
}
