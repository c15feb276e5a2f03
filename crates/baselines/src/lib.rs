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
//! handed, as the paper trains one model per job. Every baseline model is
//! implemented in this crate, from its original paper, on the learners of
//! `nurd-ml`: the fourteen outlier detectors (one module each, their
//! interface and fit-and-flag bodies in `outlier_adapter`), PU-EN and PU-BG
//! (`pu`, `pu_adapter`), Tobit, Grabit and CoxPH (`tobit`, `grabit`,
//! `cox`, `survival_adapter`), GBTR and Wrangler. The seven baselines that
//! refit from scratch at every checkpoint (Tobit, Grabit, CoxPH, the
//! outlier detectors, XGBOD, PU-EN, PU-BG) share one online adapter, each
//! contributing only its fit-and-flag body.
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
mod registry;
mod scaler;
mod supervised;
mod wrangler;

// Outlier detection (§6).
mod abod;
mod cblof;
mod hbos;
mod iforest;
mod knn;
mod lof;
mod lscp;
mod mcd;
mod ocsvm;
mod outlier_adapter;
mod pca;
mod sod;
mod sos;
mod xgbod;

// Positive-unlabeled learning (§3.3).
mod pu;
mod pu_adapter;

// Censored and survival regression (§3.4).
mod cox;
mod grabit;
mod normal;
mod survival_adapter;
mod tobit;

pub use registry::{registry, registry_with_nurd_alpha, MethodFamily, MethodSpec};
pub use supervised::GbtrPredictor;

/// Tests across the outlier roster and the models' edge cases.
#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use crate::abod::Abod;
    use crate::cblof::Cblof;
    use crate::cox::{CoxConfig, CoxPh};
    use crate::grabit::{Grabit, GrabitConfig};
    use crate::hbos::Hbos;
    use crate::iforest::IsolationForest;
    use crate::knn::Knn;
    use crate::lof::{Cof, Lof};
    use crate::lscp::Lscp;
    use crate::mcd::Mcd;
    use crate::ocsvm::OcSvm;
    use crate::outlier_adapter::{contamination_threshold, OutlierDetector};
    use crate::pca::PcaDetector;
    use crate::sod::Sod;
    use crate::sos::Sos;
    use crate::tobit::{Tobit, TobitConfig};
    use crate::{registry, MethodFamily};

    /// The thirteen transductive detectors under their Table 3 names, in
    /// registry order.
    fn detectors() -> Vec<(&'static str, Box<dyn OutlierDetector>)> {
        vec![
            ("ABOD", Box::new(Abod::default())),
            ("CBLOF", Box::new(Cblof::default())),
            ("HBOS", Box::new(Hbos::default())),
            ("IFOREST", Box::new(IsolationForest::default())),
            ("KNN", Box::new(Knn::default())),
            ("LOF", Box::new(Lof::default())),
            ("MCD", Box::new(Mcd::default())),
            ("OCSVM", Box::new(OcSvm::default())),
            ("PCA", Box::new(PcaDetector::default())),
            ("SOS", Box::new(Sos::default())),
            ("LSCP", Box::new(Lscp::default())),
            ("COF", Box::new(Cof::default())),
            ("SOD", Box::new(Sod::default())),
        ]
    }

    #[test]
    fn contamination_threshold_picks_quantile() {
        let scores: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let t = contamination_threshold(&scores, 0.1);
        assert!((t - 89.0).abs() < 1.0 + 1e-9);
    }

    #[test]
    #[should_panic(expected = "no scores")]
    fn contamination_threshold_rejects_empty() {
        let _ = contamination_threshold(&[], 0.1);
    }

    #[test]
    fn contamination_threshold_extremes() {
        let scores = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        // Tiny contamination → threshold at the top of the range.
        assert!(contamination_threshold(&scores, 0.01) >= 4.0);
        // Huge contamination → threshold near the bottom.
        assert!(contamination_threshold(&scores, 0.99) <= 2.0);
    }

    /// The detectors box as `dyn OutlierDetector`, and the table the tests
    /// name them by holds exactly the registry's transductive rows.
    #[test]
    fn all_detectors_are_object_safe_and_named() {
        let names: Vec<&str> = detectors().iter().map(|&(name, _)| name).collect();
        let roster: Vec<&str> = registry()
            .iter()
            .filter(|m| m.family == MethodFamily::OutlierDetection && m.name != "XGBOD")
            .map(|m| m.name)
            .collect();
        assert_eq!(names, roster);
    }

    /// Every detector must rank a gross planted outlier above the median
    /// inlier — the minimum bar for the straggler experiments.
    #[test]
    fn every_detector_flags_a_gross_outlier() {
        let mut rows: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i % 7) as f64 * 0.1, (i % 5) as f64 * 0.1, 1.0])
            .collect();
        rows.push(vec![8.0, -6.0, 12.0]);
        let outlier = rows.len() - 1;

        for (name, det) in detectors() {
            let scores = det.score_all(&rows).unwrap_or_else(|e| {
                panic!("{name} failed: {e}");
            });
            assert_eq!(scores.len(), rows.len(), "{name} wrong length");
            let mut sorted = scores.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let median = sorted[sorted.len() / 2];
            assert!(
                scores[outlier] > median,
                "{name}: outlier score {} not above median {median}",
                scores[outlier]
            );
        }
    }

    #[test]
    fn degenerate_training_sets_error_not_panic() {
        assert!(Tobit::fit(&[], &[], &[], &TobitConfig::default()).is_err());
        assert!(Grabit::fit(&[], &[], &[], &GrabitConfig::default()).is_err());
        assert!(CoxPh::fit(&[], &[], &[], &CoxConfig::default()).is_err());
    }

    #[test]
    fn single_sample_models_behave() {
        // One sample is enough for fit-or-clean-error, never a panic.
        let x = vec![vec![1.0, 2.0]];
        let det = IsolationForest::default();
        let scores = det.score_all(&x).unwrap();
        assert_eq!(scores.len(), 1);
    }

    #[test]
    fn nan_free_outputs_under_extreme_scales() {
        // Features spanning 12 orders of magnitude must not produce NaN.
        let x: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![1e-6 * (i + 1) as f64, 1e6 * (i + 1) as f64])
            .collect();
        let y: Vec<f64> = (0..30).map(|i| (i * i) as f64).collect();
        let observed = vec![true; 30];
        let tobit = Tobit::fit(&x, &y, &observed, &TobitConfig::default()).unwrap();
        for row in &x {
            assert!(tobit.predict(row).is_finite());
        }
    }

    // Properties across the full detector suite: on arbitrary well-formed
    // data, every detector must return finite scores of the right length,
    // behave deterministically, and respect basic ranking sanity.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Finite, length-aligned scores on arbitrary rectangular data.
        #[test]
        fn prop_scores_finite_and_aligned(rows in proptest::collection::vec(
            proptest::collection::vec(-100.0..100.0f64, 3), 12..40)) {
            for (name, det) in detectors() {
                // Degenerate random data may legitimately be rejected
                // (e.g. MCD on near-singular scatter) — but only with a
                // proper error, never a panic.
                if let Ok(scores) = det.score_all(&rows) {
                    prop_assert_eq!(scores.len(), rows.len(), "{}", name);
                    prop_assert!(
                        scores.iter().all(|s| s.is_finite()),
                        "{} produced non-finite scores", name
                    );
                }
            }
        }

        /// Determinism: scoring twice gives identical results.
        #[test]
        fn prop_detectors_deterministic(rows in proptest::collection::vec(
            proptest::collection::vec(-50.0..50.0f64, 2), 10..24)) {
            for (name, det) in detectors() {
                let a = det.score_all(&rows);
                let b = det.score_all(&rows);
                match (a, b) {
                    (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "{} nondeterministic", name),
                    (Err(_), Err(_)) => {}
                    _ => prop_assert!(false, "{} flip-flopped Ok/Err", name),
                }
            }
        }

        /// Translation invariance of ranking for distance-based detectors:
        /// shifting all points by a constant must keep the top-scoring index.
        #[test]
        fn prop_translation_preserves_top_outlier(shift in -1e3..1e3f64) {
            let mut rows: Vec<Vec<f64>> = (0..25)
                .map(|i| vec![(i % 5) as f64 * 0.1, (i / 5) as f64 * 0.1])
                .collect();
            rows.push(vec![9.0, 9.0]);
            let shifted: Vec<Vec<f64>> = rows
                .iter()
                .map(|r| r.iter().map(|v| v + shift).collect())
                .collect();
            for (name, det) in [
                ("KNN", Box::new(Knn::default()) as Box<dyn OutlierDetector>),
                ("LOF", Box::new(Lof::default())),
                ("HBOS", Box::new(Hbos::default())),
            ] {
                let top = |scores: &[f64]| -> usize {
                    scores
                        .iter()
                        .enumerate()
                        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                        .unwrap()
                        .0
                };
                let base = det.score_all(&rows).unwrap();
                let moved = det.score_all(&shifted).unwrap();
                prop_assert_eq!(top(&base), top(&moved), "{} not shift-stable", name);
            }
        }
    }
}
