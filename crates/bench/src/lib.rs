//! Experiment harness for the NURD reproduction.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper (see `DESIGN.md` §4 for the index); this library holds the shared
//! machinery: a tiny CLI parser, suite construction, and parallel
//! method-over-jobs evaluation.
//!
//! Criterion microbenchmarks live under `benches/` (ML primitives,
//! detectors, end-to-end replays, and the `warm_vs_cold` refit A/B); the
//! recorded baselines and the regeneration workflow for `BENCH_ml.json`
//! are documented in this crate's `README.md`.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::sync::Mutex;

use nurd_baselines::MethodSpec;
use nurd_data::JobTrace;
use nurd_sim::{replay_job, MethodSummary, ReplayConfig, ReplayOutcome};
use nurd_trace::{SuiteConfig, TraceStyle};

/// Harness-wide options parsed from the command line.
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// Which trace style to imitate.
    pub style: TraceStyle,
    /// Number of jobs in the evaluation suite.
    pub jobs: usize,
    /// Task-count range per job.
    pub tasks: (usize, usize),
    /// Checkpoints per job.
    pub checkpoints: usize,
    /// Suite seed.
    pub seed: u64,
    /// Optional method-name filter (comma-separated `--methods`).
    pub methods: Option<Vec<String>>,
    /// Worker threads for per-job parallelism.
    pub threads: usize,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions {
            style: TraceStyle::Google,
            jobs: 40,
            tasks: (120, 300),
            checkpoints: 24,
            seed: 0x6001,
            methods: None,
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
        }
    }
}

impl HarnessOptions {
    /// Parses `--trace google|alibaba`, `--jobs N`, `--tasks A:B`,
    /// `--checkpoints N`, `--seed N`, `--methods A,B,C`, `--threads N`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments (these are
    /// developer-facing binaries).
    #[must_use]
    pub fn from_args() -> Self {
        let mut opts = HarnessOptions::default();
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].as_str();
            let value = args
                .get(i + 1)
                .unwrap_or_else(|| panic!("flag {flag} needs a value"));
            match flag {
                "--trace" => {
                    opts.style = match value.as_str() {
                        "google" => TraceStyle::Google,
                        "alibaba" => TraceStyle::Alibaba,
                        other => panic!("unknown trace style {other} (google|alibaba)"),
                    };
                }
                "--jobs" => opts.jobs = value.parse().expect("--jobs takes an integer"),
                "--tasks" => {
                    let (a, b) = value
                        .split_once(':')
                        .expect("--tasks takes a range like 120:300");
                    opts.tasks = (
                        a.parse().expect("task range lower bound"),
                        b.parse().expect("task range upper bound"),
                    );
                }
                "--checkpoints" => {
                    opts.checkpoints = value.parse().expect("--checkpoints takes an integer");
                }
                "--seed" => opts.seed = value.parse().expect("--seed takes an integer"),
                "--methods" => {
                    opts.methods = Some(value.split(',').map(|s| s.trim().to_string()).collect());
                }
                "--threads" => opts.threads = value.parse().expect("--threads takes an integer"),
                other => panic!("unknown flag {other}"),
            }
            i += 2;
        }
        opts
    }

    /// Human-readable trace label for output headers.
    #[must_use]
    pub fn style_label(&self) -> &'static str {
        match self.style {
            TraceStyle::Google => "Google",
            TraceStyle::Alibaba => "Alibaba",
        }
    }

    /// Builds the evaluation suite for these options.
    #[must_use]
    pub fn build_suite(&self) -> Vec<JobTrace> {
        let cfg = SuiteConfig::new(self.style)
            .with_jobs(self.jobs)
            .with_task_range(self.tasks.0, self.tasks.1)
            .with_checkpoints(self.checkpoints)
            .with_seed(self.seed);
        nurd_trace::generate_suite(&cfg)
    }

    /// Applies the `--methods` filter to the full registry, with NURD's α
    /// tuned per trace style (the paper tunes per dataset, §6).
    #[must_use]
    pub fn selected_methods(&self) -> Vec<MethodSpec> {
        let alpha = match self.style {
            TraceStyle::Google => 0.20,
            TraceStyle::Alibaba => 0.40,
        };
        let all = nurd_baselines::registry_with_nurd_alpha(alpha);
        match &self.methods {
            None => all,
            Some(filter) => all
                .into_iter()
                .filter(|m| filter.iter().any(|f| f.eq_ignore_ascii_case(m.name)))
                .collect(),
        }
    }
}

/// One method's evaluation across a suite.
#[derive(Debug)]
pub struct MethodResult {
    /// Method name (Table 3 row).
    pub name: &'static str,
    /// Table 3 family label.
    pub family: &'static str,
    /// Macro-averaged accuracy metrics.
    pub summary: MethodSummary,
    /// Per-job replay outcomes, aligned with the suite's job order.
    pub outcomes: Vec<ReplayOutcome>,
}

/// Replays every job against one method, in parallel over jobs.
///
/// # Panics
///
/// Panics if a worker thread panics.
#[must_use]
fn evaluate_method(
    spec: &MethodSpec,
    jobs: &[JobTrace],
    replay: &ReplayConfig,
    threads: usize,
) -> MethodResult {
    let results: Mutex<BTreeMap<usize, ReplayOutcome>> = Mutex::new(BTreeMap::new());
    let next: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let workers = threads.clamp(1, jobs.len().max(1));

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if idx >= jobs.len() {
                    break;
                }
                let mut predictor = spec.build();
                let outcome = replay_job(&jobs[idx], predictor.as_mut(), replay);
                results
                    .lock()
                    .expect("evaluation worker panicked")
                    .insert(idx, outcome);
            });
        }
    });

    let outcomes: Vec<ReplayOutcome> = results
        .into_inner()
        .expect("evaluation worker panicked")
        .into_values()
        .collect();
    let confusions: Vec<_> = outcomes.iter().map(|o| o.confusion).collect();
    MethodResult {
        name: spec.name,
        family: spec.family.label(),
        summary: MethodSummary::from_confusions(&confusions),
        outcomes,
    }
}

/// Evaluates every selected method over the suite.
#[must_use]
pub fn evaluate_all(
    methods: &[MethodSpec],
    jobs: &[JobTrace],
    replay: &ReplayConfig,
    threads: usize,
) -> Vec<MethodResult> {
    methods
        .iter()
        .map(|spec| {
            let result = evaluate_method(spec, jobs, replay, threads);
            eprintln!(
                "  {:8} tpr={:.2} fpr={:.2} f1={:.3}",
                result.name, result.summary.tpr, result.summary.fpr, result.summary.f1
            );
            result
        })
        .collect()
}

/// Renders a simple fixed-width histogram (Figure 1 style) of normalized
/// latencies.
#[must_use]
pub fn ascii_histogram(latencies: &[f64], bins: usize, width: usize) -> String {
    let max = latencies.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mut counts = vec![0usize; bins];
    for &l in latencies {
        let bin = (((l / max) * bins as f64) as usize).min(bins - 1);
        counts[bin] += 1;
    }
    let peak = counts.iter().copied().max().unwrap_or(1).max(1);
    let mut out = String::new();
    for (b, &c) in counts.iter().enumerate() {
        let lo = b as f64 / bins as f64;
        let bar = "#".repeat(c * width / peak);
        out.push_str(&format!("{lo:5.2} | {bar} {c}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_build_a_suite() {
        let opts = HarnessOptions {
            jobs: 2,
            tasks: (30, 40),
            checkpoints: 6,
            ..HarnessOptions::default()
        };
        let jobs = opts.build_suite();
        assert_eq!(jobs.len(), 2);
        assert_eq!(opts.style_label(), "Google");
    }

    #[test]
    fn method_filter_selects_subset() {
        let opts = HarnessOptions {
            methods: Some(vec!["nurd".into(), "GBTR".into()]),
            ..HarnessOptions::default()
        };
        let methods = opts.selected_methods();
        assert_eq!(methods.len(), 2);
    }

    #[test]
    fn evaluate_method_covers_every_job() {
        let opts = HarnessOptions {
            jobs: 3,
            tasks: (40, 60),
            checkpoints: 8,
            ..HarnessOptions::default()
        };
        let jobs = opts.build_suite();
        let methods = nurd_baselines::registry();
        let gbtr = methods.iter().find(|m| m.name == "GBTR").unwrap();
        let result = evaluate_method(gbtr, &jobs, &ReplayConfig::default(), 2);
        assert_eq!(result.outcomes.len(), 3);
        assert_eq!(result.summary.jobs, 3);
    }

    #[test]
    fn histogram_renders_all_bins() {
        let lat = vec![1.0, 2.0, 3.0, 10.0];
        let h = ascii_histogram(&lat, 5, 20);
        assert_eq!(h.lines().count(), 5);
        assert!(h.contains('#'));
    }
}
