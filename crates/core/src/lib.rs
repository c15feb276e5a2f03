//! NURD: Negative-Unlabeled learning with Reweighting and
//! Distribution-compensation (Ding et al., MLSys 2022) — Algorithm 1.
//!
//! NURD predicts which running tasks of a datacenter job will straggle,
//! training only on *negative* examples (tasks that already finished — all
//! non-stragglers by construction) plus the unlabeled running tasks:
//!
//! 1. a gradient-boosted latency predictor `h_t` is fit on finished tasks;
//! 2. a logistic propensity model `g_t` estimates
//!    `z = P(finished | features)`;
//! 3. each running task's latency prediction is *reweighted*,
//!    `ŷ_adj = ŷ / max(ε, min(z + δ, 1))`, so tasks whose features look
//!    unlike any finished task have their predicted latency dilated;
//! 4. the calibration term `δ = 1/(1+ρ) − α` compensates for the job's
//!    latency shape without distributional assumptions, using only the
//!    feature-centroid ratio `ρ = ‖c_fin‖ / ‖c_run − c_fin‖`;
//! 5. a task is flagged a straggler when `ŷ_adj ≥ τ_stra`.
//!
//! [`NurdPredictor`] implements [`nurd_data::OnlinePredictor`] and is
//! driven by `nurd_sim::replay_job`; [`NurdConfig::without_calibration`]
//! yields the paper's NURD-NC ablation (`w = z`).
//!
//! # Refits
//!
//! Every refit of `h_t` happens inside a [`WarmRefitState`], which is
//! where [`RefitPolicy`] (on [`NurdConfig`]) is consumed. Under the paper's
//! always-cold protocol the state's rows are replaced by the checkpoint's
//! finished set and fit from scratch. Under the warm policy — consecutive
//! checkpoints share almost all of their finished set — the state keeps
//! the previous checkpoint's [`nurd_ml::BinnedMatrix`] and ensemble alive,
//! absorbs only the newly finished tasks ([`nurd_data::FinishedDelta`]),
//! and boosts a few new rounds via
//! [`nurd_ml::GradientBoosting::warm_boost`] — falling back to a cold
//! refit when measured quantile drift or the ensemble-size cap says so.
//! [`NurdPredictor::with_prior`] (NURD-TL, the paper's §8 cross-job
//! transfer) refits the same head on the residual of a frozen
//! [`DonorModel`], and the GBTR baseline in `nurd-baselines` reuses the
//! same state machine. See `ARCHITECTURE.md` (repo root) for the full
//! data-flow picture.
//!
//! # Scoring
//!
//! `h_t` *is* a [`nurd_ml::FlatForest`] — the refit grows it in place —
//! and every running task is scored through its batch kernels by
//! reference ([`nurd_ml::GradientBoosting::forest`]): the only scoring
//! path, with no copy to rebuild or invalidate.
//! [`NurdPredictor::latency_model`] exposes the fitted head read-only, so
//! tests can hold the served [`AdjustedPrediction::raw`] to its safe
//! one-row reference walk ([`nurd_ml::GradientBoosting::predict_view`])
//! bit for bit.
//!
//! # Example
//!
//! ```
//! use nurd_core::{NurdConfig, NurdPredictor};
//! use nurd_data::OnlinePredictor;
//!
//! let mut nurd = NurdPredictor::new(NurdConfig::default());
//! assert_eq!(nurd.name(), "NURD");
//! ```

#![forbid(unsafe_code)]

mod calibration;
mod config;
mod model;
mod refit;
mod transfer;
mod weighting;

pub use calibration::{calibration_delta, centroid_ratio};
pub use config::{NurdConfig, RefitPolicy, WarmRefitConfig};
pub use model::{AdjustedPrediction, NurdPredictor};
pub use refit::{RefitStats, WarmRefitState};
pub use transfer::DonorModel;
pub use weighting::{adjusted_latency, weight};
