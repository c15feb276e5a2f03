//! The 24-method roster of Table 3 (the paper's 23 plus the `NURD-WS`
//! warm-refit row this reproduction adds).

use nurd_core::{NurdConfig, NurdPredictor, RefitPolicy, WarmRefitConfig};
use nurd_data::{JobTrace, OnlinePredictor};

use crate::abod::Abod;
use crate::adapter::{Adapter, FitAndFlag};
use crate::cblof::Cblof;
use crate::cox::CoxConfig;
use crate::hbos::Hbos;
use crate::iforest::IsolationForest;
use crate::knn::Knn;
use crate::lof::{Cof, Lof};
use crate::lscp::Lscp;
use crate::mcd::Mcd;
use crate::ocsvm::OcSvm;
use crate::pca::PcaDetector;
use crate::pu::{PuBagging, PuEn};
use crate::sod::Sod;
use crate::sos::Sos;
use crate::supervised::GbtrPredictor;
use crate::survival_adapter::tuned_grabit;
use crate::tobit::TobitConfig;
use crate::wrangler::WranglerPredictor;
use crate::xgbod::Xgbod;

/// Method family, as grouped in Table 3's left column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MethodFamily {
    /// Plain supervised learning (GBTR).
    Supervised,
    /// Unsupervised outlier detection (fourteen methods).
    OutlierDetection,
    /// Positive-unlabeled learning.
    PositiveUnlabeled,
    /// Censored and survival regression.
    CensoredSurvival,
    /// Systems solutions (Wrangler).
    Systems,
    /// This paper's methods (NURD-NC, NURD).
    Ours,
}

impl MethodFamily {
    /// The family label used in Table 3.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            MethodFamily::Supervised => "Supervised",
            MethodFamily::OutlierDetection => "Outlier detection",
            MethodFamily::PositiveUnlabeled => "Positive-unlabeled",
            MethodFamily::CensoredSurvival => "Censored and survival regression",
            MethodFamily::Systems => "Systems",
            MethodFamily::Ours => "Ours",
        }
    }
}

type Factory = Box<dyn Fn(&JobTrace) -> Box<dyn OnlinePredictor + Send> + Send + Sync>;

/// One evaluable method: a display name, its Table 3 family, and a factory
/// producing a fresh predictor for each job. Only Wrangler's factory reads
/// the job it is handed: it takes the labelled sample the paper grants it.
pub struct MethodSpec {
    /// Name as printed in the paper's tables.
    pub name: &'static str,
    /// Table 3 grouping.
    pub family: MethodFamily,
    factory: Factory,
}

impl MethodSpec {
    fn new(
        name: &'static str,
        family: MethodFamily,
        factory: impl Fn(&JobTrace) -> Box<dyn OnlinePredictor + Send> + Send + Sync + 'static,
    ) -> Self {
        MethodSpec {
            name,
            family,
            factory: Box::new(factory),
        }
    }

    /// A per-checkpoint baseline: `method`'s fit-and-flag body behind the
    /// one [`Adapter`].
    fn adapted<M: FitAndFlag + Send + 'static>(
        name: &'static str,
        family: MethodFamily,
        method: impl Fn() -> M + Send + Sync + 'static,
    ) -> Self {
        MethodSpec::new(name, family, move |_| {
            Box::new(Adapter::new(name, method()))
        })
    }

    /// Builds a fresh predictor for `job`, as the paper trains one per job.
    #[must_use]
    pub fn build(&self, job: &JobTrace) -> Box<dyn OnlinePredictor + Send> {
        (self.factory)(job)
    }
}

impl std::fmt::Debug for MethodSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MethodSpec")
            .field("name", &self.name)
            .field("family", &self.family)
            .finish()
    }
}

/// All Table 3 methods in the paper's row order — the paper's 23 plus a
/// `NURD-WS` row (NURD under the default warm [`RefitPolicy`], including
/// the warm-seeded propensity IRLS) so the warm-refit subsystem's
/// accuracy claims get standing Table 3 coverage, not just the
/// `crates/core/tests/warm_refit.rs` tolerances — with NURD at its
/// Google-tuned `α` (see [`registry_with_nurd_alpha`] for per-dataset
/// tuning).
#[must_use]
pub fn registry() -> Vec<MethodSpec> {
    registry_with_nurd_alpha(NurdConfig::default().alpha)
}

/// The full roster with NURD's calibration parameter `α` overridden.
///
/// The paper tunes hyperparameters per dataset on six held-out jobs (§6);
/// on the synthetic traces that procedure lands at `α = 0.20` for the
/// Google style and `α = 0.40` for the feature-poor Alibaba style (weaker
/// propensity signal wants a more aggressive weighting).
#[must_use]
pub fn registry_with_nurd_alpha(alpha: f64) -> Vec<MethodSpec> {
    use MethodFamily as F;
    vec![
        MethodSpec::new("GBTR", F::Supervised, |_| Box::<GbtrPredictor>::default()),
        MethodSpec::adapted("ABOD", F::OutlierDetection, Abod::default),
        MethodSpec::adapted("CBLOF", F::OutlierDetection, Cblof::default),
        MethodSpec::adapted("HBOS", F::OutlierDetection, Hbos::default),
        MethodSpec::adapted("IFOREST", F::OutlierDetection, IsolationForest::default),
        MethodSpec::adapted("KNN", F::OutlierDetection, Knn::default),
        MethodSpec::adapted("LOF", F::OutlierDetection, Lof::default),
        MethodSpec::adapted("MCD", F::OutlierDetection, Mcd::default),
        MethodSpec::adapted("OCSVM", F::OutlierDetection, OcSvm::default),
        MethodSpec::adapted("PCA", F::OutlierDetection, PcaDetector::default),
        MethodSpec::adapted("SOS", F::OutlierDetection, Sos::default),
        MethodSpec::adapted("LSCP", F::OutlierDetection, Lscp::default),
        MethodSpec::adapted("COF", F::OutlierDetection, Cof::default),
        MethodSpec::adapted("SOD", F::OutlierDetection, Sod::default),
        MethodSpec::adapted("XGBOD", F::OutlierDetection, Xgbod::default),
        MethodSpec::adapted("PU-EN", F::PositiveUnlabeled, PuEn::default),
        MethodSpec::adapted("PU-BG", F::PositiveUnlabeled, PuBagging::default),
        MethodSpec::adapted("Tobit", F::CensoredSurvival, TobitConfig::default),
        MethodSpec::adapted("Grabit", F::CensoredSurvival, tuned_grabit),
        MethodSpec::adapted("CoxPH", F::CensoredSurvival, CoxConfig::default),
        MethodSpec::new("Wrangler", F::Systems, |job| {
            Box::new(WranglerPredictor::new(job))
        }),
        MethodSpec::new("NURD-NC", F::Ours, |_| {
            Box::new(NurdPredictor::new(NurdConfig::without_calibration()))
        }),
        MethodSpec::new("NURD-WS", F::Ours, move |_| {
            Box::new(NurdPredictor::new(
                NurdConfig::default()
                    .with_alpha(alpha)
                    .with_refit_policy(RefitPolicy::Warm(WarmRefitConfig::default())),
            ))
        }),
        MethodSpec::new("NURD", F::Ours, move |_| {
            Box::new(NurdPredictor::new(NurdConfig::default().with_alpha(alpha)))
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> JobTrace {
        let cfg = nurd_trace::SuiteConfig::new(nurd_trace::TraceStyle::Google)
            .with_jobs(1)
            .with_task_range(20, 30)
            .with_checkpoints(6);
        nurd_trace::generate_job(&cfg, 0)
    }

    #[test]
    fn registry_has_24_methods_in_table3_order() {
        let methods = registry();
        assert_eq!(methods.len(), 24);
        assert_eq!(methods[0].name, "GBTR");
        assert_eq!(methods[22].name, "NURD-WS");
        assert_eq!(methods[23].name, "NURD");
        let outliers = methods
            .iter()
            .filter(|m| m.family == MethodFamily::OutlierDetection)
            .count();
        assert_eq!(outliers, 14);
        let ours = methods
            .iter()
            .filter(|m| m.family == MethodFamily::Ours)
            .count();
        assert_eq!(ours, 3, "NURD-NC, NURD-WS, NURD");
    }

    #[test]
    fn factories_produce_matching_names() {
        let job = job();
        for spec in registry() {
            let predictor = spec.build(&job);
            assert_eq!(predictor.name(), spec.name);
        }
    }

    #[test]
    fn families_have_labels() {
        for spec in registry() {
            assert!(!spec.family.label().is_empty());
        }
    }

    #[test]
    fn fresh_instances_are_independent() {
        let methods = registry();
        let nurd = methods.iter().find(|m| m.name == "NURD").unwrap();
        let job = job();
        let a = nurd.build(&job);
        let b = nurd.build(&job);
        // Two instances; names equal but they are distinct allocations.
        assert_eq!(a.name(), b.name());
    }
}
