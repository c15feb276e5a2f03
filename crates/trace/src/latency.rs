//! Per-job latency model: latency families, straggler causes, task plans.

use rand::Rng;

use crate::config::CauseMix;
use crate::dist;

/// Why a planted straggler is slow. The cause determines which features (if
/// any) carry its signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StragglerCause {
    /// Machine-level contention: the task is starved of CPU and suffers
    /// cache interference. Visible in CPU-share and CPI features from the
    /// start of execution.
    Interference,
    /// The task received a larger input shard. Visible in memory/disk
    /// features, ramping up as the input loads.
    DataSkew,
    /// The task was evicted and restarted. Visible as counter steps
    /// (Google traces only — Alibaba's 4 features hide it).
    Eviction,
    /// Slow for reasons invisible to monitoring. No feature signature.
    Opaque,
}

/// The two latency shapes of Figure 1 in the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum LatencyFamily {
    /// Stragglers land far above the body (threshold < half the maximum
    /// normalized latency — Figure 1 left). Strong feature signatures.
    LongTail {
        /// Log-space σ of the body log-normal.
        body_sigma: f64,
        /// Straggler latency multiplier range.
        factor: (f64, f64),
    },
    /// Stragglers sit just above the body (threshold > half the maximum —
    /// Figure 1 right). Weak feature signatures.
    CloseTail {
        /// Log-space σ of the body log-normal.
        body_sigma: f64,
        /// Straggler latency multiplier range.
        factor: (f64, f64),
    },
}

impl LatencyFamily {
    /// Draws a family for a job: long-tailed with probability
    /// `long_tail_fraction`.
    pub(crate) fn sample<R: Rng + ?Sized>(rng: &mut R, long_tail_fraction: f64) -> Self {
        if rng.gen_bool(long_tail_fraction.clamp(0.0, 1.0)) {
            LatencyFamily::LongTail {
                body_sigma: dist::uniform(rng, 0.28, 0.42),
                factor: (2.5, 6.0),
            }
        } else {
            LatencyFamily::CloseTail {
                body_sigma: dist::uniform(rng, 0.35, 0.50),
                factor: (1.4, 1.9),
            }
        }
    }

    /// Exponent coupling the input-shard size to latency. Long-tailed jobs
    /// are noise-dominant (latency mostly idiosyncratic); close-tailed jobs
    /// are work-dominant — their wide latency body *is* feature-predictable,
    /// which is what makes their top decile a continuum rather than a
    /// separate population (Figure 1 right).
    #[must_use]
    fn work_exponent(&self) -> f64 {
        match self {
            LatencyFamily::LongTail { .. } => 0.35,
            LatencyFamily::CloseTail { .. } => 0.55,
        }
    }

    /// Log-space σ of the per-task work (input shard size) distribution.
    #[must_use]
    fn work_sigma(&self) -> f64 {
        match self {
            LatencyFamily::LongTail { .. } => self.body_sigma() * 0.45,
            LatencyFamily::CloseTail { .. } => self.body_sigma() * 0.60,
        }
    }

    /// Log-space σ of the idiosyncratic latency noise.
    #[must_use]
    fn noise_sigma(&self) -> f64 {
        match self {
            LatencyFamily::LongTail { .. } => self.body_sigma() * 0.70,
            LatencyFamily::CloseTail { .. } => self.body_sigma() * 0.65,
        }
    }

    /// Log-space σ of the body distribution.
    #[must_use]
    fn body_sigma(&self) -> f64 {
        match self {
            LatencyFamily::LongTail { body_sigma, .. }
            | LatencyFamily::CloseTail { body_sigma, .. } => *body_sigma,
        }
    }

    /// Draws a straggler latency multiplier.
    fn straggler_factor<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let (lo, hi) = match self {
            LatencyFamily::LongTail { factor, .. } | LatencyFamily::CloseTail { factor, .. } => {
                *factor
            }
        };
        dist::uniform(rng, lo, hi)
    }

    /// How strongly straggler causes shift the feature space, relative to
    /// the straggler factor. Long-tail stragglers are very distinct in
    /// feature space; close-tail ones only mildly so. This is the coupling
    /// NURD's centroid calibration (ρ) exploits.
    #[must_use]
    fn signature_strength(&self, factor: f64) -> f64 {
        match self {
            LatencyFamily::LongTail { .. } => ((factor - 1.0) / 1.5).clamp(0.8, 2.2),
            LatencyFamily::CloseTail { .. } => ((factor - 1.0) / 2.0).clamp(0.08, 0.45),
        }
    }
}

/// The latent plan for one task, from which both its latency and its feature
/// time series derive.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskPlan {
    /// Final latency in seconds.
    pub latency: f64,
    /// Relative input-shard size (data skew multiplies it).
    pub work: f64,
    /// Machine slowdown multiplier (interference raises it).
    pub slow: f64,
    /// Number of eviction/restart events.
    pub evictions: u32,
    /// Straggler cause, if the task was planted as a straggler.
    pub cause: Option<StragglerCause>,
    /// Signature strength in [0, ~1.6]; how visible the cause is.
    pub signature: f64,
    /// Whether the task is a bursty feature-space decoy (fast but odd).
    pub decoy: bool,
}

/// Plans all tasks of one job.
///
/// `median` is the job's body median latency; `straggler_fraction` of tasks
/// are planted as stragglers with causes drawn from `mix`; `decoy_fraction`
/// of the remaining tasks get decoy features.
pub(crate) fn plan_job<R: Rng + ?Sized>(
    rng: &mut R,
    n_tasks: usize,
    median: f64,
    family: &LatencyFamily,
    mix: &CauseMix,
    straggler_fraction: f64,
    decoy_fraction: f64,
) -> Vec<TaskPlan> {
    let weights = mix.normalized();
    let mut plans = Vec::with_capacity(n_tasks);
    for _ in 0..n_tasks {
        // Body latent variables shared by stragglers and non-stragglers.
        // The family controls how strongly the input shard drives latency
        // (see [`LatencyFamily::work_exponent`]); the remainder is
        // idiosyncratic noise invisible to monitoring.
        let work = dist::lognormal(rng, family.work_sigma());
        let slow = 1.0 + dist::normal(rng, 0.0, 0.04).abs();
        let noise = dist::lognormal(rng, family.noise_sigma());
        let mut latency = median * work.powf(family.work_exponent()) * slow * noise;
        let mut evictions = 0u32;
        let mut cause = None;
        let mut signature = 0.0;
        let mut work_out = work;
        let mut slow_out = slow;

        if rng.gen_bool(straggler_fraction.clamp(0.0, 1.0)) {
            let factor = family.straggler_factor(rng);
            let c = draw_cause(rng, &weights);
            signature = family.signature_strength(factor);
            match c {
                StragglerCause::Interference => slow_out = slow * factor,
                StragglerCause::DataSkew => work_out = work * factor,
                StragglerCause::Eviction => {
                    evictions = 1 + (factor / 2.0).floor() as u32;
                }
                StragglerCause::Opaque => signature = 0.0,
            }
            latency *= factor;
            cause = Some(c);
        }

        let decoy = cause.is_none() && rng.gen_bool(decoy_fraction.clamp(0.0, 1.0));
        plans.push(TaskPlan {
            latency,
            work: work_out,
            slow: slow_out,
            evictions,
            cause,
            signature,
            decoy,
        });
    }
    plans
}

fn draw_cause<R: Rng + ?Sized>(rng: &mut R, weights: &[f64; 4]) -> StragglerCause {
    let mut target = rng.gen_range(0.0..1.0);
    let causes = [
        StragglerCause::Interference,
        StragglerCause::DataSkew,
        StragglerCause::Eviction,
        StragglerCause::Opaque,
    ];
    for (cause, &w) in causes.iter().zip(weights) {
        if target < w {
            return *cause;
        }
        target -= w;
    }
    StragglerCause::Opaque
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn long_tail_factors_exceed_close_tail() {
        let mut r = rng();
        let long = LatencyFamily::LongTail {
            body_sigma: 0.3,
            factor: (2.5, 6.0),
        };
        let close = LatencyFamily::CloseTail {
            body_sigma: 0.2,
            factor: (1.3, 1.75),
        };
        for _ in 0..50 {
            assert!(long.straggler_factor(&mut r) >= 2.5);
            assert!(close.straggler_factor(&mut r) < 1.75);
        }
    }

    #[test]
    fn signature_strength_couples_to_family() {
        let long = LatencyFamily::LongTail {
            body_sigma: 0.3,
            factor: (2.5, 6.0),
        };
        let close = LatencyFamily::CloseTail {
            body_sigma: 0.2,
            factor: (1.3, 1.75),
        };
        assert!(long.signature_strength(4.0) > close.signature_strength(1.5));
        assert!(close.signature_strength(1.5) <= 0.45);
    }

    #[test]
    fn plan_plants_requested_straggler_share() {
        let mut r = rng();
        let family = LatencyFamily::LongTail {
            body_sigma: 0.3,
            factor: (2.5, 6.0),
        };
        let plans = plan_job(
            &mut r,
            2000,
            100.0,
            &family,
            &CauseMix::default(),
            0.11,
            0.08,
        );
        let stragglers = plans.iter().filter(|p| p.cause.is_some()).count();
        let frac = stragglers as f64 / 2000.0;
        assert!((0.07..0.16).contains(&frac), "fraction {frac}");
    }

    #[test]
    fn stragglers_are_slower_on_average() {
        let mut r = rng();
        let family = LatencyFamily::LongTail {
            body_sigma: 0.3,
            factor: (2.5, 6.0),
        };
        let plans = plan_job(
            &mut r,
            3000,
            100.0,
            &family,
            &CauseMix::default(),
            0.1,
            0.05,
        );
        let (mut s_sum, mut s_n, mut b_sum, mut b_n) = (0.0, 0, 0.0, 0);
        for p in &plans {
            if p.cause.is_some() {
                s_sum += p.latency;
                s_n += 1;
            } else {
                b_sum += p.latency;
                b_n += 1;
            }
        }
        assert!(s_sum / s_n as f64 > 2.0 * (b_sum / b_n as f64));
    }

    #[test]
    fn decoys_never_overlap_stragglers() {
        let mut r = rng();
        let family = LatencyFamily::CloseTail {
            body_sigma: 0.2,
            factor: (1.3, 1.75),
        };
        let plans = plan_job(&mut r, 1000, 50.0, &family, &CauseMix::default(), 0.2, 0.2);
        assert!(plans.iter().all(|p| !(p.decoy && p.cause.is_some())));
        assert!(plans.iter().any(|p| p.decoy));
    }

    #[test]
    fn eviction_cause_sets_counters() {
        let mut r = rng();
        let family = LatencyFamily::LongTail {
            body_sigma: 0.3,
            factor: (2.5, 6.0),
        };
        let mix = CauseMix {
            interference: 0.0,
            data_skew: 0.0,
            eviction: 1.0,
            opaque: 0.0,
        };
        let plans = plan_job(&mut r, 500, 100.0, &family, &mix, 0.3, 0.0);
        for p in plans.iter().filter(|p| p.cause.is_some()) {
            assert_eq!(p.cause, Some(StragglerCause::Eviction));
            assert!(p.evictions >= 1);
        }
    }

    #[test]
    fn opaque_stragglers_have_zero_signature() {
        let mut r = rng();
        let family = LatencyFamily::LongTail {
            body_sigma: 0.3,
            factor: (2.5, 6.0),
        };
        let mix = CauseMix {
            interference: 0.0,
            data_skew: 0.0,
            eviction: 0.0,
            opaque: 1.0,
        };
        let plans = plan_job(&mut r, 300, 100.0, &family, &mix, 0.5, 0.0);
        for p in plans.iter().filter(|p| p.cause.is_some()) {
            assert_eq!(p.signature, 0.0);
        }
    }

    #[test]
    fn family_sampling_respects_fraction() {
        let mut r = rng();
        let mut long_tailed = |fraction: f64| {
            let family = LatencyFamily::sample(&mut r, fraction);
            matches!(family, LatencyFamily::LongTail { .. })
        };
        assert!((0..50).all(|_| long_tailed(1.0)));
        assert!((0..50).all(|_| !long_tailed(0.0)));
    }
}
