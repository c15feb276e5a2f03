//! Censored and survival regression baselines of the NURD paper (§3.4,
//! §6): Tobit (Tobin, 1958), Grabit (Sigrist & Hirnschall, 2019) and the
//! Cox proportional hazards model (Cox, 1972).
//!
//! The online straggler problem right-censors latency: a task still running
//! at checkpoint time `t` is only known to satisfy `y > t`. Tobit and
//! Grabit model the latent latency as Gaussian (in the paper's telling,
//! their weakness); CoxPH assumes proportional hazards. All three consume
//! `(features, observed-or-censoring-time, finished?)` triples.
//!
//! # Example
//!
//! ```
//! use nurd_survival::{Tobit, TobitConfig};
//!
//! # fn main() -> Result<(), nurd_ml::MlError> {
//! // y = 2x, with the larger half censored at 10.
//! let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
//! let time: Vec<f64> = (0..20).map(|i| (2 * i) as f64).collect();
//! let observed: Vec<bool> = time.iter().map(|&t| t < 10.0).collect();
//! let model = Tobit::fit(&x, &time, &observed, &TobitConfig::default())?;
//! assert!(model.predict(&[15.0]) > model.predict(&[2.0]));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod cox;
mod grabit;
mod normal;
mod tobit;

pub use cox::{CoxConfig, CoxPh, FittedCoxPh};
pub use grabit::{Grabit, GrabitConfig};
pub use tobit::{FittedTobit, Tobit, TobitConfig};
