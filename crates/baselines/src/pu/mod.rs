//! Positive-unlabeled learning baselines of the NURD paper (§6): PU-EN
//! (Elkan & Noto, 2008) and PU-BG (bagging SVM, Mordelet & Vert, 2014).
//!
//! PU learners assume a *labeled* sample from one class plus an unlabeled
//! mixture. In the straggler setting the labeled class is the finished
//! (non-straggler) tasks; a running task whose positive-class probability
//! is low is predicted to straggle. The paper's point (§3.3) is that the
//! PU assumption — labeled examples are selected independently of features
//! — is violated here, making these methods over-aggressive; these
//! implementations reproduce that behavior faithfully.
//!
//! # Example
//!
//! ```
//! use nurd_baselines::pu::PuEn;
//!
//! # fn main() -> Result<(), nurd_ml::MlError> {
//! let labeled: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 * 0.1]).collect();
//! let unlabeled: Vec<Vec<f64>> = vec![vec![0.5], vec![9.0]];
//! let model = PuEn::default().fit(&labeled, &unlabeled)?;
//! let probs = model.positive_probabilities(&unlabeled);
//! assert!(probs[0] > probs[1]); // 0.5 looks labeled-like; 9.0 does not
//! # Ok(())
//! # }
//! ```

mod bagging;
mod elkan;

pub use bagging::{FittedPuBagging, PuBagging};
pub use elkan::{FittedPuEn, PuEn};
