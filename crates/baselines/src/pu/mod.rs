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

mod bagging;
mod elkan;

pub(crate) use bagging::PuBagging;
pub(crate) use elkan::PuEn;
