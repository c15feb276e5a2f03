//! Feature time-series synthesis.
//!
//! Each task's features derive from its latent [`TaskPlan`]: interference
//! shows up in CPU-share and CPI/MAI features, data skew in memory/disk
//! features (which ramp up as the input loads), evictions as counter steps,
//! and opaque stragglers look nominal. Decoy tasks get large burst (MAX*)
//! values without being slow. Feature values *evolve over checkpoints* and
//! freeze when the task finishes, exactly as the paper's simulator replays
//! the real traces.

use rand::Rng;

use crate::config::TraceStyle;
use crate::dist;
use crate::latency::{StragglerCause, TaskPlan};

/// The 15 Google task features of Table 1 in the paper, as
/// `(name, description)`.
pub const GOOGLE_FEATURES: [(&str, &str); 15] = [
    ("MCU", "Mean CPU usage"),
    ("MAXCPU", "Maximum CPU usage"),
    ("SCPU", "Sampled CPU usage"),
    ("CMU", "Canonical memory usage"),
    ("AMU", "Assigned memory usage"),
    ("MAXMU", "Maximum memory usage"),
    ("UPC", "Unmapped page cache memory usage"),
    ("TPC", "Total page cache memory usage"),
    ("MIO", "Mean disk I/O time"),
    ("MAXIO", "Maximum disk I/O time"),
    ("MDK", "Mean local disk space used"),
    ("CPI", "Cycles per instruction"),
    ("MAI", "Memory accesses per instruction"),
    ("EV", "Number of times task is evicted"),
    ("FL", "Number of times task fails"),
];

/// The 4 Alibaba instance features of Table 2 in the paper.
pub const ALIBABA_FEATURES: [(&str, &str); 4] = [
    ("cpu_avg", "Avg. CPU numbers of instance running"),
    ("cpu_max", "Max. CPU numbers of instance running"),
    ("mem_avg", "Avg. normalized memory of instance running"),
    ("mem_max", "Max. normalized memory of instance running"),
];

/// Job-level feature baselines: every job gets its own operating point,
/// reflecting the paper's observation that jobs are unique and need
/// per-job models.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct JobBaselines {
    cpu: f64,
    mem: f64,
    io: f64,
    cpi: f64,
    upc: f64,
    mdk: f64,
    mai: f64,
}

impl JobBaselines {
    pub(crate) fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        JobBaselines {
            cpu: dist::uniform(rng, 0.25, 0.55),
            mem: dist::uniform(rng, 0.10, 0.30),
            io: dist::uniform(rng, 0.05, 0.20),
            cpi: dist::uniform(rng, 0.9, 1.6),
            upc: dist::uniform(rng, 0.01, 0.05),
            mdk: dist::uniform(rng, 0.05, 0.25),
            mai: dist::uniform(rng, 0.005, 0.02),
        }
    }
}

/// Smoothstep ramp: 0 below `0`, 1 above `1`, cubic in between.
fn smoothstep(x: f64) -> f64 {
    let x = x.clamp(0.0, 1.0);
    x * x * (3.0 - 2.0 * x)
}

/// Per-task latent draws that stay fixed across checkpoints.
struct TaskLatents {
    /// Final mean CPU share (starved under interference).
    mcu: f64,
    /// Final CPI (inflated under interference).
    cpi: f64,
    /// Final MAI (inflated under interference).
    mai: f64,
    /// Memory scale (∝ work, so data skew shows here).
    mem: f64,
    /// Disk I/O scale (∝ work).
    io: f64,
    /// Disk space scale (∝ work).
    mdk: f64,
    /// Page-cache scale.
    upc: f64,
    /// CPU burst multiplier for MAXCPU (large for decoys).
    burst_cpu: f64,
    /// Memory burst multiplier for MAXMU.
    burst_mem: f64,
    /// I/O burst multiplier for MAXIO.
    burst_io: f64,
    /// TPC/UPC ratio.
    tpc_ratio: f64,
    /// AMU/CMU ratio.
    amu_ratio: f64,
    /// Progress points (fraction of task lifetime) of eviction events.
    eviction_times: Vec<f64>,
    /// Progress points of failure events.
    failure_times: Vec<f64>,
}

fn draw_latents<R: Rng + ?Sized>(rng: &mut R, plan: &TaskPlan, base: &JobBaselines) -> TaskLatents {
    // Decoys carry a straggler-like signature *without* the latency
    // penalty: a cache-insensitive task on a busy machine, or a large input
    // processed efficiently. This is the paper's §3.2 point made concrete —
    // feature-space outliers are not latency outliers — and it is what
    // caps pure outlier detection and forces models to use latencies.
    let (decoy_interf, decoy_skew) = if plan.decoy {
        let strength = dist::uniform(rng, 0.5, 1.8);
        if rng.gen_bool(0.5) {
            (strength, 1.0)
        } else {
            (0.0, 1.0 + strength)
        }
    } else {
        (0.0, 1.0)
    };
    let interf = match plan.cause {
        Some(StragglerCause::Interference) => plan.signature,
        _ => decoy_interf,
    };
    // Interference tasks' visibility is governed by their signature alone
    // (plan.slow already contains the straggler factor — adding it again
    // would double-count); non-stragglers leak mild machine heterogeneity.
    let machine_load = if interf > 0.0 {
        interf
    } else {
        (plan.slow - 1.0).min(0.3)
    };
    let noise = |rng: &mut R, sigma: f64| dist::lognormal(rng, sigma);

    let effective_work = plan.work * decoy_skew;
    let mcu = (base.cpu * (1.0 - 0.40 * interf.min(1.4) / 1.4) * noise(rng, 0.10)).max(0.01);
    let cpi = base.cpi * (1.0 + 0.85 * machine_load) * noise(rng, 0.08);
    let mai = base.mai * (1.0 + 0.65 * machine_load) * noise(rng, 0.10);
    let mem = base.mem * effective_work.powf(0.85) * noise(rng, 0.10);
    let io = base.io * effective_work * noise(rng, 0.12);
    let mdk = base.mdk * effective_work * noise(rng, 0.10);
    let upc = base.upc * effective_work.powf(0.6) * noise(rng, 0.15);

    let (burst_cpu, burst_mem, burst_io, tpc_extra) = if plan.decoy {
        (
            dist::uniform(rng, 1.2, 2.6),
            dist::uniform(rng, 0.9, 2.0),
            dist::uniform(rng, 1.0, 2.2),
            dist::uniform(rng, 2.0, 3.5),
        )
    } else {
        (
            dist::uniform(rng, 0.15, 0.50),
            dist::uniform(rng, 0.12, 0.40),
            dist::uniform(rng, 0.20, 0.60),
            1.0,
        )
    };

    let mut eviction_times: Vec<f64> = (0..plan.evictions)
        .map(|_| dist::uniform(rng, 0.05, 0.45))
        .collect();
    eviction_times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    // Rare failures unrelated to straggling; evictions often co-occur with
    // one failure event.
    let mut failure_times = Vec::new();
    if rng.gen_bool(0.03) {
        failure_times.push(dist::uniform(rng, 0.1, 0.9));
    }
    if plan.evictions > 0 && rng.gen_bool(0.5) {
        failure_times.push(dist::uniform(rng, 0.1, 0.9));
    }

    TaskLatents {
        mcu,
        cpi,
        mai,
        mem,
        io,
        mdk,
        upc,
        burst_cpu,
        burst_mem,
        burst_io,
        tpc_ratio: dist::uniform(rng, 2.0, 4.0) * tpc_extra,
        amu_ratio: dist::uniform(rng, 1.10, 1.35),
        eviction_times,
        failure_times,
    }
}

/// Feature columns a trace of `style` records per snapshot.
pub(crate) fn width(style: TraceStyle) -> usize {
    match style {
        TraceStyle::Google => GOOGLE_FEATURES.len(),
        TraceStyle::Alibaba => ALIBABA_FEATURES.len(),
    }
}

/// Generates a task's feature snapshots at every checkpoint time, laid
/// out snapshot-major in one buffer ([`width`] values per checkpoint).
///
/// Snapshots freeze once the task finishes (`t >= plan.latency`), matching
/// how a monitoring system stops updating a completed task's counters.
pub(crate) fn task_feature_series<R: Rng + ?Sized>(
    rng: &mut R,
    style: TraceStyle,
    plan: &TaskPlan,
    base: &JobBaselines,
    checkpoint_times: &[f64],
) -> Vec<f64> {
    let latents = draw_latents(rng, plan, base);
    let mut series = Vec::with_capacity(checkpoint_times.len() * width(style));
    for (k, &t) in checkpoint_times.iter().enumerate() {
        let progress = (t / plan.latency).min(1.0);
        let start = series.len();
        match style {
            TraceStyle::Google => series.extend(google_snapshot(rng, plan, &latents, progress)),
            TraceStyle::Alibaba => series.extend(alibaba_snapshot(rng, plan, &latents, progress)),
        }
        if progress >= 1.0 {
            let end = series.len();
            for _ in k + 1..checkpoint_times.len() {
                series.extend_from_within(start..end);
            }
            break;
        }
    }
    series
}

/// Measurement noise that shrinks as a task accumulates samples.
fn obs_noise<R: Rng + ?Sized>(rng: &mut R, progress: f64) -> f64 {
    let sigma = 0.06 - 0.03 * progress;
    dist::lognormal(rng, sigma.max(0.02))
}

fn google_snapshot<R: Rng + ?Sized>(
    rng: &mut R,
    _plan: &TaskPlan,
    l: &TaskLatents,
    p: f64,
) -> [f64; GOOGLE_FEATURES.len()] {
    // CPU/CPI interference is visible from the start; memory and disk ramp
    // up as the input shard loads, saturating by ~30% of the task's
    // lifetime. The ramps are deliberately shallow: a mid-life running task
    // must look *similar* to a finished one, or the finished-vs-running
    // propensity model becomes a trivial progress detector instead of a
    // dissimilarity measure.
    let mem_ramp = 0.70 + 0.30 * smoothstep(p / 0.30);
    let io_ramp = 0.75 + 0.25 * smoothstep(p / 0.25);
    let max_ramp = 1.0 - 0.35 * (-5.0 * p).exp();

    let mcu = l.mcu * obs_noise(rng, p);
    let cmu = l.mem * mem_ramp * obs_noise(rng, p);
    let upc = l.upc * mem_ramp * obs_noise(rng, p);
    let mio = l.io * io_ramp * obs_noise(rng, p);
    let ev = l.eviction_times.iter().filter(|&&e| e <= p).count() as f64;
    let fl = l.failure_times.iter().filter(|&&e| e <= p).count() as f64;

    [
        mcu,
        l.mcu * (1.0 + l.burst_cpu * max_ramp),
        mcu * dist::lognormal(rng, 0.05),
        cmu,
        cmu * l.amu_ratio,
        l.mem * (1.0 + l.burst_mem) * mem_ramp * max_ramp.max(0.5),
        upc,
        upc * l.tpc_ratio,
        mio,
        l.io * (1.0 + l.burst_io) * io_ramp * max_ramp.max(0.5),
        l.mdk * mem_ramp * obs_noise(rng, p),
        l.cpi * obs_noise(rng, p),
        l.mai * obs_noise(rng, p),
        ev,
        fl,
    ]
}

fn alibaba_snapshot<R: Rng + ?Sized>(
    rng: &mut R,
    plan: &TaskPlan,
    l: &TaskLatents,
    p: f64,
) -> [f64; ALIBABA_FEATURES.len()] {
    // Alibaba's 4 features hide CPI, counters and disk entirely; the
    // interference signal is diluted (cpu numbers, not shares) and skew only
    // shows in memory.
    let interf = match plan.cause {
        Some(StragglerCause::Interference) => plan.signature,
        _ => 0.0,
    };
    let mem_ramp = 0.70 + 0.30 * smoothstep(p / 0.30);
    let max_ramp = 1.0 - 0.35 * (-5.0 * p).exp();
    let cpu_avg = (l.mcu * (1.0 + 0.12 * interf) * obs_noise(rng, p)).max(0.01);
    let mem_avg = l.mem * mem_ramp * obs_noise(rng, p);
    [
        cpu_avg,
        cpu_avg * (1.0 + l.burst_cpu * max_ramp),
        mem_avg,
        l.mem * (1.0 + l.burst_mem) * mem_ramp * max_ramp.max(0.5),
    ]
}

/// The oracle of [`task_feature_series`]: the same draws in the same
/// order, one vector per snapshot and a clone per frozen one — the layout
/// the flat buffer replaced.
#[cfg(test)]
pub(crate) fn reference_series<R: Rng + ?Sized>(
    rng: &mut R,
    style: TraceStyle,
    plan: &TaskPlan,
    base: &JobBaselines,
    checkpoint_times: &[f64],
) -> Vec<Vec<f64>> {
    let latents = draw_latents(rng, plan, base);
    let mut snapshots = Vec::with_capacity(checkpoint_times.len());
    let mut frozen: Option<Vec<f64>> = None;
    for &t in checkpoint_times {
        let progress = (t / plan.latency).min(1.0);
        if let Some(done) = &frozen {
            snapshots.push(done.clone());
            continue;
        }
        let snap = match style {
            TraceStyle::Google => google_snapshot(rng, plan, &latents, progress).to_vec(),
            TraceStyle::Alibaba => alibaba_snapshot(rng, plan, &latents, progress).to_vec(),
        };
        if progress >= 1.0 {
            frozen = Some(snap.clone());
        }
        snapshots.push(snap);
    }
    snapshots
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::TaskPlan;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    /// [`task_feature_series`] cut into one vector per snapshot.
    fn snapshots<R: Rng + ?Sized>(
        rng: &mut R,
        style: TraceStyle,
        plan: &TaskPlan,
        base: &JobBaselines,
        times: &[f64],
    ) -> Vec<Vec<f64>> {
        task_feature_series(rng, style, plan, base, times)
            .chunks(width(style))
            .map(<[f64]>::to_vec)
            .collect()
    }

    fn nominal_plan(latency: f64) -> TaskPlan {
        TaskPlan {
            latency,
            work: 1.0,
            slow: 1.0,
            evictions: 0,
            cause: None,
            signature: 0.0,
            decoy: false,
        }
    }

    #[test]
    fn feature_tables_match_paper_counts() {
        assert_eq!(GOOGLE_FEATURES.len(), 15);
        assert_eq!(ALIBABA_FEATURES.len(), 4);
        assert_eq!(GOOGLE_FEATURES[0].0, "MCU");
        assert_eq!(ALIBABA_FEATURES[3].0, "mem_max");
    }

    #[test]
    fn series_has_one_snapshot_per_checkpoint() {
        let mut r = rng();
        let base = JobBaselines::sample(&mut r);
        let times = vec![10.0, 20.0, 30.0, 40.0];
        let s = snapshots(
            &mut r,
            TraceStyle::Google,
            &nominal_plan(25.0),
            &base,
            &times,
        );
        assert_eq!(s.len(), 4);
        assert!(s.iter().all(|snap| snap.len() == 15));
    }

    #[test]
    fn snapshots_freeze_after_finish() {
        let mut r = rng();
        let base = JobBaselines::sample(&mut r);
        let times = vec![10.0, 20.0, 30.0, 40.0];
        let s = snapshots(
            &mut r,
            TraceStyle::Google,
            &nominal_plan(15.0),
            &base,
            &times,
        );
        assert_eq!(s[1], s[2]);
        assert_eq!(s[2], s[3]);
        assert_ne!(s[0], s[1]);
    }

    #[test]
    fn interference_raises_cpi_and_lowers_mcu() {
        let mut r = rng();
        let base = JobBaselines::sample(&mut r);
        let times = vec![100.0];
        let mut mcu_normal = 0.0;
        let mut cpi_normal = 0.0;
        let mut mcu_interf = 0.0;
        let mut cpi_interf = 0.0;
        for _ in 0..200 {
            let s = snapshots(
                &mut r,
                TraceStyle::Google,
                &nominal_plan(50.0),
                &base,
                &times,
            );
            mcu_normal += s[0][0];
            cpi_normal += s[0][11];
            let plan = TaskPlan {
                cause: Some(StragglerCause::Interference),
                signature: 1.2,
                slow: 3.0,
                latency: 150.0,
                ..nominal_plan(150.0)
            };
            let s = snapshots(&mut r, TraceStyle::Google, &plan, &base, &times);
            mcu_interf += s[0][0];
            cpi_interf += s[0][11];
        }
        assert!(mcu_interf < 0.8 * mcu_normal);
        assert!(cpi_interf > 1.4 * cpi_normal);
    }

    #[test]
    fn data_skew_raises_memory_and_io() {
        let mut r = rng();
        let base = JobBaselines::sample(&mut r);
        let times = vec![1000.0]; // fully ramped
        let mut cmu_n = 0.0;
        let mut mio_n = 0.0;
        let mut cmu_s = 0.0;
        let mut mio_s = 0.0;
        for _ in 0..200 {
            let s = snapshots(
                &mut r,
                TraceStyle::Google,
                &nominal_plan(50.0),
                &base,
                &times,
            );
            cmu_n += s[0][3];
            mio_n += s[0][8];
            let plan = TaskPlan {
                cause: Some(StragglerCause::DataSkew),
                signature: 1.2,
                work: 4.0,
                latency: 200.0,
                ..nominal_plan(200.0)
            };
            let s = snapshots(&mut r, TraceStyle::Google, &plan, &base, &times);
            cmu_s += s[0][3];
            mio_s += s[0][8];
        }
        assert!(cmu_s > 2.0 * cmu_n);
        assert!(mio_s > 2.5 * mio_n);
    }

    #[test]
    fn eviction_counters_step_with_progress() {
        let mut r = rng();
        let base = JobBaselines::sample(&mut r);
        let plan = TaskPlan {
            cause: Some(StragglerCause::Eviction),
            evictions: 3,
            latency: 100.0,
            ..nominal_plan(100.0)
        };
        let times = vec![5.0, 50.0, 95.0, 100.0];
        let s = snapshots(&mut r, TraceStyle::Google, &plan, &base, &times);
        let ev: Vec<f64> = s.iter().map(|snap| snap[13]).collect();
        assert!(ev.windows(2).all(|w| w[0] <= w[1]), "EV must be monotone");
        assert_eq!(ev[3], 3.0);
    }

    #[test]
    fn decoys_have_inflated_max_features() {
        let mut r = rng();
        let base = JobBaselines::sample(&mut r);
        let times = vec![1000.0];
        let mut ratio_normal = 0.0;
        let mut ratio_decoy = 0.0;
        for _ in 0..200 {
            let s = snapshots(
                &mut r,
                TraceStyle::Google,
                &nominal_plan(50.0),
                &base,
                &times,
            );
            ratio_normal += s[0][1] / s[0][0];
            let plan = TaskPlan {
                decoy: true,
                ..nominal_plan(50.0)
            };
            let s = snapshots(&mut r, TraceStyle::Google, &plan, &base, &times);
            ratio_decoy += s[0][1] / s[0][0];
        }
        assert!(ratio_decoy > 1.5 * ratio_normal);
    }

    #[test]
    fn opaque_straggler_looks_nominal() {
        let mut r = rng();
        let base = JobBaselines::sample(&mut r);
        let times = vec![1000.0];
        let mut cpi_n = 0.0;
        let mut cpi_o = 0.0;
        for _ in 0..300 {
            let s = snapshots(
                &mut r,
                TraceStyle::Google,
                &nominal_plan(50.0),
                &base,
                &times,
            );
            cpi_n += s[0][11];
            let plan = TaskPlan {
                cause: Some(StragglerCause::Opaque),
                signature: 0.0,
                latency: 300.0,
                ..nominal_plan(300.0)
            };
            let s = snapshots(&mut r, TraceStyle::Google, &plan, &base, &times);
            cpi_o += s[0][11];
        }
        let ratio = cpi_o / cpi_n;
        assert!((0.9..1.1).contains(&ratio), "opaque CPI ratio {ratio}");
    }

    #[test]
    fn alibaba_snapshot_is_four_wide_and_positive() {
        let mut r = rng();
        let base = JobBaselines::sample(&mut r);
        let times = vec![10.0, 60.0];
        let s = snapshots(
            &mut r,
            TraceStyle::Alibaba,
            &nominal_plan(40.0),
            &base,
            &times,
        );
        assert!(s.iter().all(|snap| snap.len() == 4));
        assert!(s.iter().flatten().all(|&v| v > 0.0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The flat series holds the oracle's snapshots in order, and both
        /// leave the job's stream at the same draw.
        #[test]
        fn prop_flat_series_equals_reference(
            seed in 0u64..u64::MAX,
            google in 0u8..2,
            latency in 1.0f64..200.0,
            evictions in 0u32..4,
            decoy in 0u8..2,
            checkpoints in 1usize..16,
        ) {
            let style = if google == 1 { TraceStyle::Google } else { TraceStyle::Alibaba };
            let plan = TaskPlan {
                evictions,
                decoy: decoy == 1,
                ..nominal_plan(latency)
            };
            let times: Vec<f64> = (1..=checkpoints).map(|k| 12.0 * k as f64).collect();
            let mut a = StdRng::seed_from_u64(seed);
            let mut b = StdRng::seed_from_u64(seed);
            let base = JobBaselines::sample(&mut a);
            let _ = JobBaselines::sample(&mut b);
            let flat = task_feature_series(&mut a, style, &plan, &base, &times);
            let reference = reference_series(&mut b, style, &plan, &base, &times);
            prop_assert_eq!(flat, reference.concat());
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn smoothstep_endpoints() {
        assert_eq!(smoothstep(-1.0), 0.0);
        assert_eq!(smoothstep(0.0), 0.0);
        assert_eq!(smoothstep(1.0), 1.0);
        assert_eq!(smoothstep(2.0), 1.0);
        assert!((smoothstep(0.5) - 0.5).abs() < 1e-12);
    }
}
