//! Every method evaluated in the NURD paper, behind the common
//! [`nurd_data::OnlinePredictor`] interface.
//!
//! The [`registry`] function returns the full Table 3 roster — the
//! paper's 23 methods (one supervised regressor (GBTR), fourteen outlier
//! detectors, two PU learners, three censored/survival regressors, the
//! Wrangler system baseline, and NURD with its NURD-NC ablation) plus
//! this reproduction's `NURD-WS` row, which runs NURD under the default
//! warm refit policy so warm-vs-cold accuracy is tracked wherever Table 3
//! is produced. Each entry builds a fresh predictor for each job it is
//! handed, as the paper trains one model per job. The PU learners themselves
//! (PU-EN, PU-BG) live in this crate's `pu` module; every other family
//! adapts a crate of its own. The seven baselines that refit from scratch
//! at every checkpoint (Tobit, Grabit, CoxPH, the outlier detectors,
//! XGBOD, PU-EN, PU-BG) share one online adapter, each contributing only
//! its fit-and-flag body.
//!
//! # Example
//!
//! ```
//! use nurd_trace::{SuiteConfig, TraceStyle};
//!
//! let suite = SuiteConfig::new(TraceStyle::Google).with_task_range(20, 30);
//! let job = nurd_trace::generate_job(&suite, 0);
//! let methods = nurd_baselines::registry();
//! assert_eq!(methods.len(), 24);
//! let nurd = methods.iter().find(|m| m.name == "NURD").unwrap();
//! let predictor = nurd.build(&job);
//! assert_eq!(predictor.name(), "NURD");
//! ```

#![forbid(unsafe_code)]

mod adapter;
mod outlier_adapter;
mod pu;
mod pu_adapter;
mod registry;
mod supervised;
mod survival_adapter;
mod wrangler;

pub use registry::{registry, registry_with_nurd_alpha, MethodFamily, MethodSpec};
pub use supervised::GbtrPredictor;
